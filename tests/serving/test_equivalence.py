"""Serving equivalence corpus: epochs must be invisible in the final answer.

The contract of the serving engine is that *history does not matter*: after
any interleaving of insert/retract epochs, every relation's snapshot must be
byte-identical to the snapshot a fresh engine computes from scratch over the
same final EDB.  Canonical row order (``canonical_rows``) is what makes
byte-for-byte comparison meaningful across different merge histories and
shard counts.

A hypothesis property drives randomized epoch scripts over the TC program,
and pinned scripts cover SG and CSPA (multi-relation EDB, mutual recursion)
across shards in {1, 2}.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries import CSPA_SOURCE, REACH_SOURCE, SG_SOURCE
from repro.serving import ServingEngine

SHARD_COUNTS = [1, 2]


def replay_and_compare(source, initial_facts, script, outputs, num_shards):
    """Run ``script`` epoch by epoch, then compare against from-scratch."""
    state = {name: set(map(tuple, rows)) for name, rows in initial_facts.items()}
    engine = ServingEngine(
        source, initial_facts, background=False, num_shards=num_shards, fault_plan="none"
    )
    try:
        for inserts, retracts in script:
            engine.submit(inserts=inserts, retracts=retracts).result()
            for name, rows in (retracts or {}).items():
                state[name] -= set(map(tuple, rows))
            for name, rows in (inserts or {}).items():
                state[name] |= set(map(tuple, rows))
        fresh = ServingEngine(
            source,
            {name: sorted(rows) for name, rows in state.items()},
            background=False,
            num_shards=num_shards,
            fault_plan="none",
        )
        try:
            for name in outputs:
                incremental = engine.query(name)
                scratch = fresh.query(name)
                assert incremental.rows.tobytes() == scratch.rows.tobytes(), (
                    f"{name} diverged after {len(script)} epochs "
                    f"(shards={num_shards}): incremental={incremental.count} "
                    f"rows vs scratch={scratch.count}"
                )
        finally:
            fresh.close()
    finally:
        engine.close()


# ----------------------------------------------------------------------
# Hypothesis-driven TC corpus
# ----------------------------------------------------------------------
edge_strategy = st.tuples(st.integers(0, 9), st.integers(0, 9))
epoch_strategy = st.tuples(
    st.lists(edge_strategy, max_size=4),  # inserts
    st.lists(edge_strategy, max_size=4),  # retracts
)


@settings(max_examples=25, deadline=None)
@given(
    initial=st.lists(edge_strategy, min_size=1, max_size=12),
    script=st.lists(epoch_strategy, min_size=1, max_size=4),
)
def test_tc_epoch_interleavings_match_scratch(initial, script):
    epochs = [
        ({"edge": inserts} if inserts else None, {"edge": retracts} if retracts else None)
        for inserts, retracts in script
    ]
    replay_and_compare(
        REACH_SOURCE, {"edge": sorted(set(initial))}, epochs, ["edge", "reach"], 1
    )


@settings(max_examples=8, deadline=None)
@given(
    initial=st.lists(edge_strategy, min_size=1, max_size=10),
    script=st.lists(epoch_strategy, min_size=1, max_size=3),
)
def test_tc_epoch_interleavings_match_scratch_sharded(initial, script):
    epochs = [
        ({"edge": inserts} if inserts else None, {"edge": retracts} if retracts else None)
        for inserts, retracts in script
    ]
    replay_and_compare(
        REACH_SOURCE, {"edge": sorted(set(initial))}, epochs, ["edge", "reach"], 2
    )


# ----------------------------------------------------------------------
# Pinned SG and CSPA scripts across the shard matrix
# ----------------------------------------------------------------------
def tree_edges(depth, fan):
    edges, frontier, next_id = [], [0], 1
    for _ in range(depth):
        new_frontier = []
        for parent in frontier:
            for _ in range(fan):
                edges.append((parent, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return edges


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_sg_epoch_script_matches_scratch(num_shards):
    edges = tree_edges(3, 2)
    script = [
        ({"edge": [(3, 100), (100, 101)]}, None),
        (None, {"edge": [edges[0]]}),
        ({"edge": [(101, 102)]}, {"edge": [(3, 100)]}),
        ({"edge": [edges[0]]}, None),  # re-insert what epoch 2 removed
    ]
    replay_and_compare(SG_SOURCE, {"edge": edges}, script, ["edge", "sg"], num_shards)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_cspa_epoch_script_matches_scratch(num_shards):
    rng = np.random.default_rng(5)
    facts = {
        "assign": [tuple(map(int, row)) for row in rng.integers(0, 12, size=(25, 2))],
        "dereference": [tuple(map(int, row)) for row in rng.integers(0, 12, size=(15, 2))],
    }
    facts = {name: sorted(set(rows)) for name, rows in facts.items()}
    script = [
        ({"assign": [(1, 11), (11, 3)]}, None),
        ({"dereference": [(2, 7)]}, {"assign": [facts["assign"][0]]}),
        (None, {"dereference": [facts["dereference"][0]], "assign": [facts["assign"][1]]}),
        ({"assign": [facts["assign"][0]], "dereference": [(0, 1)]}, None),
    ]
    replay_and_compare(
        CSPA_SOURCE,
        facts,
        script,
        ["assign", "dereference", "valueflow", "valuealias", "memalias"],
        num_shards,
    )


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_tc_full_teardown_and_rebuild(num_shards):
    """Retract the entire EDB, then rebuild it: both extremes must hold."""
    edges = [(i, (i + 1) % 5) for i in range(5)]  # one 5-cycle
    script = [
        (None, {"edge": edges}),  # empty database
        ({"edge": edges}, None),  # rebuilt
    ]
    replay_and_compare(REACH_SOURCE, {"edge": edges}, script, ["edge", "reach"], num_shards)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_cspa_retract_epoch_matches_scratch_with_distinct_before_expand(num_shards):
    """DRed's over-delete and re-derive passes run the same join chain as the
    fixpoint, so they make their outers distinct on the live columns too; sets
    in, sets out.  A zero-launch-latency device makes the rule fire at this
    size (see ``tests/datalog/test_distinct_before_expand.py``)."""
    from dataclasses import replace

    from repro.device import device_preset

    spec = replace(device_preset("h100"), kernel_launch_us=0.0)
    rng = np.random.default_rng(0)
    facts = {
        "assign": sorted(set(map(tuple, rng.integers(0, 12, size=(24, 2)).tolist()))),
        "dereference": sorted(set(map(tuple, rng.integers(0, 12, size=(12, 2)).tolist()))),
    }
    doomed = [facts["assign"][0], facts["assign"][3]]
    kwargs = dict(device=spec, background=False, num_shards=num_shards, fault_plan="none")

    def fired(engine):
        return sum(
            entry["distinct_outer"]["fired"]
            for entry in engine._evaluator.version_observations.values()
        )

    engine = ServingEngine(CSPA_SOURCE, facts, **kwargs)
    remaining = dict(facts, assign=[row for row in facts["assign"] if row not in doomed])
    fresh = ServingEngine(CSPA_SOURCE, remaining, **kwargs)
    try:
        before = fired(engine)
        outcome = engine.submit(retracts={"assign": doomed}).result()
        assert outcome.retracted["valuealias"] > 0 and outcome.rederived
        assert fired(engine) > before  # the lever was on inside the epoch
        for name in ["assign", "dereference", "valueflow", "valuealias", "memalias"]:
            assert engine.query(name).rows.tobytes() == fresh.query(name).rows.tobytes(), name
    finally:
        engine.close()
        fresh.close()
