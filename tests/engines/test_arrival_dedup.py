"""Parts that fan out are deduplicated where they arrive in *new*.

``Relation.add_new`` deduplicates a part of more than ``resident_threads``
rows when the relation's previous iteration produced at least
``DISTINCT_FANOUT`` raw rows per distinct one.  On ``h100`` only the
benchmark's CSPA instance gets there; a spec whose launches keep 64 threads
resident brings the threshold down to a CSPA program of eighty facts.  The
answers must not move — against the naive oracle, against the same run with
the rule out of reach (``DISTINCT_FANOUT`` raised past any fan-out), on every
host route, shard count and fault path — while the run holds less.
"""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from repro import GPULogEngine
from repro.backend import NumpyBackend
from repro.device import device_preset
from repro.queries import CSPA_SOURCE
from repro.relational import relation as relation_module
from repro.relational.operators import DISTINCT_FANOUT

from tests.helpers import CollidingBackend, naive_datalog

#: ``h100`` whose launches keep 64 threads resident: a part of more than 64
#: rows is one no launch holds
SMALL = dataclasses.replace(device_preset("h100"), launch_threads=64)
OUTPUTS = ("valueflow", "valuealias", "memalias")


def cspa_facts(seed=5, variables=20, assigns=50, dereferences=30):
    rng = np.random.default_rng(seed)
    return {
        "assign": rng.integers(0, variables, size=(assigns, 2), dtype=np.int64),
        "dereference": rng.integers(0, variables, size=(dereferences, 2), dtype=np.int64),
    }


@functools.lru_cache(maxsize=None)
def oracle():
    return naive_datalog(CSPA_SOURCE, cspa_facts())


def run(*, num_shards=1, facts=None, **options):
    options.setdefault("fault_plan", "none")
    engine = GPULogEngine(device=SMALL, num_shards=num_shards, **options)
    try:
        for name, rows in (facts or cspa_facts()).items():
            engine.add_fact_array(name, rows)
        result = engine.run(CSPA_SOURCE)
        relations = {name: result.relation_set(name) for name in OUTPUTS}
        events = [event for device in engine.devices for event in device.profiler.events]
        return result, relations, engine.explain(), events
    finally:
        engine.close()


def fired(result):
    return sum(entry["arrival_dedup"]["fired"] for entry in result.plan_report)


def out_of_reach(monkeypatch):
    monkeypatch.setattr(relation_module, "DISTINCT_FANOUT", 10**9)


@pytest.mark.parametrize("num_shards", [1, 2])
def test_answers_match_the_oracle_and_the_run_without_the_rule(monkeypatch, num_shards):
    result, relations, _, _ = run(num_shards=num_shards)
    assert fired(result) > 0
    assert relations == {name: oracle()[name] for name in OUTPUTS}
    out_of_reach(monkeypatch)
    plain, plain_relations, _, _ = run(num_shards=num_shards)
    assert fired(plain) == 0
    assert relations == plain_relations
    # Every iteration produced, kept and merged the same rows: ``raw_count``
    # counts what the versions produced, before any dedup on arrival.
    for name in OUTPUTS:
        assert [
            (step.raw_count, step.new_count, step.delta_count, step.full_count)
            for step in result.iteration_history[name]
        ] == [
            (step.raw_count, step.new_count, step.delta_count, step.full_count)
            for step in plain.iteration_history[name]
        ]


def test_the_rule_fires_exactly_after_an_iteration_that_fanned_out(monkeypatch):
    calls = []
    add_new = relation_module.Relation.add_new

    def spy(relation, rows, *, report=None):
        last = relation.history[-1] if relation.history else None
        before = report["fired"] if report is not None else 0
        add_new(relation, rows, report=report)
        after = report["fired"] if report is not None else 0
        calls.append((relation.name, len(rows), last, after - before))

    monkeypatch.setattr(relation_module.Relation, "add_new", spy)
    run()
    big = [(name, last, deduplicated) for name, rows, last, deduplicated in calls if rows > SMALL.resident_threads]
    for name, last, deduplicated in big:
        fans_out = last is not None and 0 < DISTINCT_FANOUT * last.new_count <= last.raw_count
        assert deduplicated == fans_out, (name, last)
    assert all(not deduplicated for name, rows, _, deduplicated in calls if rows <= SMALL.resident_threads)
    # Both conditions matter here: big parts after a fan-out of 2-7x stay raw.
    assert any(deduplicated for _, _, deduplicated in big)
    assert any(not deduplicated and last is not None and last.new_count for _, last, deduplicated in big)


def test_explain_names_the_versions_that_dedup_on_arrival():
    result, _, explain, _ = run()
    firing = {(entry["head"], entry["delta_atom"]) for entry in result.plan_report if entry["arrival_dedup"]["fired"]}
    # valuealias fans out 65x, 64x and 32x in its last three iterations,
    # valueflow never reaches 8x (7.8x at most) and memalias stays under 3x:
    # every recursive valuealias version fires, nothing else does.
    assert firing == {("valuealias", 0), ("valuealias", 1), ("valuealias", 2)}
    assert len([entry for entry in result.plan_report if entry["arrival_dedup"]["fired"]]) == 5
    for entry in result.plan_report:
        arrival = entry["arrival_dedup"]
        if arrival["fired"]:
            assert arrival["rows_out"] < arrival["rows_in"]
            assert (
                f"arrival_dedup={arrival['fired']}/{entry['executions']}"
                f" rows={arrival['rows_in']}→{arrival['rows_out']}"
            ) in explain
    assert explain.count("arrival_dedup=0/") == len(result.plan_report) - 5


@pytest.mark.parametrize(
    "options",
    [
        {"backend": CollidingBackend()},
        {"backend": "guard"},
        {"fault_plan": "ci-default", "checkpoint_every": 1},
        {"num_shards": 2, "fault_plan": "ci-default", "checkpoint_every": 1},
    ],
    ids=["colliding", "guard", "ci-default", "ci-default-2-shards"],
)
def test_answers_hold_on_every_route(options):
    result, relations, _, _ = run(**options)
    assert fired(result) > 0
    assert relations == {name: oracle()[name] for name in OUTPUTS}


def test_a_scratch_fault_on_arrival_degrades_the_part_instead_of_failing():
    result, relations, _, _ = run(fault_plan="alloc:valuealias.arrival_dedup_scratch:at=1")
    assert result.oom_degraded_dedups == 1 and result.oom_chunked_joins == 0
    assert fired(result) > 0
    assert relations == {name: oracle()[name] for name in OUTPUTS}


def test_packing_from_the_sources_charges_what_gathering_first_does(monkeypatch):
    packed = []
    pack_gathered_keys = NumpyBackend.pack_gathered_keys

    def spy(backend, sources):
        keys = pack_gathered_keys(backend, sources)
        packed.append(keys is not None)
        return keys

    monkeypatch.setattr(NumpyBackend, "pack_gathered_keys", spy)
    result, relations, _, events = run()
    assert sum(packed) >= fired(result) > 0
    monkeypatch.setattr(NumpyBackend, "pack_gathered_keys", lambda backend, sources: None)
    gathered, gathered_relations, _, gathered_events = run()
    assert relations == gathered_relations
    assert result.elapsed_seconds == gathered.elapsed_seconds
    assert events == gathered_events


def test_the_run_holds_less_host_memory(monkeypatch):
    """On 90 facts whose valuealias fans out up to 200x the raw parts are most
    of what the run ever holds: the traced peak falls to about 40 %."""
    facts = cspa_facts(seed=0, variables=30, assigns=60, dereferences=30)

    def traced_peak():
        tracemalloc.start()
        try:
            result = run(facts=facts)[0]
            return tracemalloc.get_traced_memory()[1], fired(result)
        finally:
            tracemalloc.stop()

    with_rule, fired_parts = traced_peak()
    out_of_reach(monkeypatch)
    without_rule, _ = traced_peak()
    assert fired_parts > 0
    assert with_rule < 0.6 * without_rule
