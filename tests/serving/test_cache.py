"""Program-cache behaviour: stable keys, LRU eviction, cross-engine sharing."""

import threading

import pytest

from repro.datalog.ast import Program
from repro.datalog.engine import SymbolTable, intern_program
from repro.queries import CSPA_SOURCE, REACH_SOURCE, SG_SOURCE
from repro.serving import ProgramCache, ServingEngine, rule_set_hash
from repro.serving.cache import compile_program

TC = Program.parse(REACH_SOURCE, name="reach")
SG = Program.parse(SG_SOURCE, name="sg")
CSPA = Program.parse(CSPA_SOURCE, name="cspa")


def test_rule_set_hash_is_stable_and_discriminates():
    assert rule_set_hash(TC, "greedy") == rule_set_hash(TC, "greedy")
    assert rule_set_hash(TC, "greedy") != rule_set_hash(SG, "greedy")
    # The planner is part of plan identity, so it is part of the key.
    assert rule_set_hash(TC, "greedy") != rule_set_hash(TC, "cost+wcoj")


def test_rule_set_hash_depends_on_interned_constants():
    source = 'label(x, "a") :- edge(x, y).'
    table_a, table_b = SymbolTable(), SymbolTable()
    table_b.encode("padding")  # shift ids so "a" interns differently
    interned_a = intern_program(Program.parse(source), table_a)
    interned_b = intern_program(Program.parse(source), table_b)
    assert rule_set_hash(interned_a, "greedy") != rule_set_hash(interned_b, "greedy")


def test_compiled_program_has_complete_epoch_version_set():
    compiled = compile_program(TC, planner="greedy")
    # One delta version per (rule, body atom): 1 + 2 for the TC program.
    assert len(compiled.epoch_versions) == 3
    # One full re-derive version per rule.
    assert len(compiled.full_versions) == 2
    assert all(version.delta_atom_index is None for version in compiled.full_versions)
    assert compiled.idb_relations == {"reach"}
    # Every body atom of every rule is covered exactly once.
    covered = {(id(v.rule), v.delta_atom_index) for v in compiled.epoch_versions}
    expected = {
        (id(rule), index)
        for stratum in compiled.analysis.strata
        for rule in stratum.rules
        for index in range(len(rule.body))
    }
    assert covered == expected


def test_cache_hits_and_misses():
    cache = ProgramCache(maxsize=8)
    first = cache.get(TC, planner="greedy")
    again = cache.get(TC, planner="greedy")
    assert first is again
    assert (cache.hits, cache.misses) == (1, 1)
    cache.get(TC, planner="cost+wcoj")
    assert (cache.hits, cache.misses) == (1, 2)
    assert len(cache) == 2


def test_cache_lru_eviction():
    cache = ProgramCache(maxsize=2)
    cache.get(TC, planner="greedy")
    cache.get(SG, planner="greedy")
    cache.get(TC, planner="greedy")  # touch TC: SG is now least recent
    cache.get(CSPA, planner="greedy")  # evicts SG
    assert len(cache) == 2
    cache.get(SG, planner="greedy")  # recompiles
    assert cache.misses == 4


def test_cache_rejects_bad_maxsize():
    with pytest.raises(ValueError):
        ProgramCache(maxsize=0)


def test_cache_clear_resets_counters():
    cache = ProgramCache()
    cache.get(TC, planner="greedy")
    cache.clear()
    assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)


def test_cache_is_thread_safe_and_returns_one_object():
    cache = ProgramCache()
    results = []

    def worker():
        results.append(cache.get(CSPA, planner="greedy"))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len({id(compiled) for compiled in results}) == 1


def test_engines_share_a_private_cache():
    cache = ProgramCache()
    edges = [(1, 2), (2, 3)]
    first = ServingEngine(REACH_SOURCE, {"edge": edges}, background=False, cache=cache)
    second = ServingEngine(REACH_SOURCE, {"edge": edges}, background=False, cache=cache)
    try:
        assert first.compiled is second.compiled
        assert (cache.hits, cache.misses) == (1, 1)
    finally:
        first.close()
        second.close()
