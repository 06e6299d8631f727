"""Program-level checks of distinct-before-expand (``hash_join``'s outer made
distinct on its live columns before a high-fan-out step).

The rule is decided inside the join from the outer row count, the match total
and the device's launch latency; on the ``h100`` preset it needs ~1.7 M
matches, far beyond a unit test.  These run on a copy of the preset with zero
launch latency — every expansion is then bandwidth-bound, so the rule fires at
test sizes whenever a dead column meets a fan-out of 8 — and hold the engine to
the naive set-based reference of ``tests/helpers.py``: the answers are sets,
and a join that stops expanding duplicates must not change them.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GPULogEngine
from repro.device import device_preset
from repro.queries import CSPA_SOURCE
from tests.helpers import naive_datalog

ZERO_LAUNCH = replace(device_preset("h100"), kernel_launch_us=0.0)

#: three hops; ``y`` is dead in front of the last join, ``x`` stays live for
#: the guard and the head
CHAIN_SOURCE = "path(x, w) :- hop(x, y), hop(y, z), hop(z, w), x != w.\n"

SHARD_COUNTS = [1, 2]


def run(source, facts, num_shards, device=ZERO_LAUNCH):
    """``(relation sets, joins that fired, EvaluationResult, explain() text)``."""
    engine = GPULogEngine(device=device, fault_plan="none", num_shards=num_shards)
    try:
        for name, rows in facts.items():
            engine.add_fact_array(name, np.asarray(sorted(rows), dtype=np.int64).reshape(-1, 2))
        result = engine.run(source)
        relations = {name: result.relation_set(name) for name in result.relation_counts}
        fired = sum(entry["distinct_outer"]["fired"] for entry in result.plan_report)
        return relations, fired, result, engine.explain()
    finally:
        engine.close()


def assert_matches_reference(source, facts, num_shards):
    relations, fired, _, _ = run(source, facts, num_shards)
    expected = naive_datalog(source, facts)
    for name, rows in expected.items():
        assert relations[name] == rows, f"{name} (shards={num_shards}, distinct fired {fired}x)"
    return fired


def pairs(domain, max_size):
    return st.sets(st.tuples(st.integers(0, domain - 1), st.integers(0, domain - 1)), max_size=max_size)


def dense_cspa_facts(seed=0, domain=12):
    rng = np.random.default_rng(seed)
    return {
        "assign": set(map(tuple, rng.integers(0, domain, size=(2 * domain, 2)).tolist())),
        "dereference": set(map(tuple, rng.integers(0, domain, size=(domain, 2)).tolist())),
    }


def near_complete_hops(domain=10, missing=()):
    return {"hop": {(a, b) for a in range(domain) for b in range(domain)} - set(missing)}


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_the_rule_fires_at_test_sizes_and_the_answers_hold(num_shards):
    """The corpus below is only evidence if the lever is on while it runs."""
    assert assert_matches_reference(CSPA_SOURCE, dense_cspa_facts(), num_shards) > 0
    assert assert_matches_reference(CHAIN_SOURCE, near_complete_hops(), num_shards) > 0


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@settings(max_examples=15, deadline=None)
@given(assign=pairs(10, 24), dereference=pairs(10, 12))
def test_cspa_matches_the_naive_reference(num_shards, assign, dereference):
    assert_matches_reference(CSPA_SOURCE, {"assign": assign, "dereference": dereference}, num_shards)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@settings(max_examples=15, deadline=None)
@given(missing=pairs(10, 30), sparse=pairs(10, 25), dense=st.booleans())
def test_guarded_chain_matches_the_naive_reference(num_shards, missing, sparse, dense):
    # Dense draws (a complete graph with a few holes) fan out ~10x and fire
    # the rule; sparse ones stay below the threshold and take the plain path.
    facts = near_complete_hops(missing=missing) if dense else {"hop": sparse}
    assert_matches_reference(CHAIN_SOURCE, facts, num_shards)


def test_raw_count_and_explain_show_what_the_rule_removed():
    """``raw_count`` is the pre-dedup volume (``new_count`` what survived it):
    the rule shrinks the first and cannot touch the second."""
    _, fired, result, explained = run(CSPA_SOURCE, dense_cspa_facts(), 1)
    _, plain_fired, plain, plain_explained = run(CSPA_SOURCE, dense_cspa_facts(), 1, device="h100")
    assert fired > 0 and plain_fired == 0  # launch-bound at this size on the real preset

    def total(outcome, field):
        return sum(getattr(item, field) for history in outcome.iteration_history.values() for item in history)

    assert total(result, "new_count") == total(plain, "new_count")
    assert total(result, "delta_count") == total(plain, "delta_count")
    assert total(plain, "new_count") < total(result, "raw_count") < total(plain, "raw_count")
    for entry, plain_entry in zip(result.plan_report, plain.plan_report):
        distinct = entry["distinct_outer"]
        if distinct["fired"]:
            assert distinct["fired"] <= distinct["eligible"]
            assert distinct["rows_out"] < distinct["rows_in"]
            # observed_rows counts what the joins produced after the distinct
            assert entry["observed_rows"] < plain_entry["observed_rows"]
            assert (
                f"distinct_outer={distinct['fired']}/{distinct['eligible']}"
                f" rows={distinct['rows_in']}→{distinct['rows_out']}"
            ) in explained
        else:
            assert entry["observed_rows"] == plain_entry["observed_rows"]
    assert "distinct_outer=0/" in plain_explained and "rows=0→0" in plain_explained
