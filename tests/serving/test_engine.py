"""ServingEngine unit tests: epochs, snapshots, coalescing, lifecycle."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.queries import REACH_SOURCE
from repro.serving import ServingEngine

from tests.helpers import transitive_closure

CHAIN = [(i, i + 1) for i in range(6)]


@pytest.fixture
def engine():
    eng = ServingEngine(
        REACH_SOURCE, {"edge": CHAIN}, background=False, num_shards=1, fault_plan="none"
    )
    yield eng
    eng.close()


def oracle(edges):
    return transitive_closure(np.asarray(sorted(edges), dtype=np.int64))


def test_bootstrap_matches_batch_fixpoint(engine):
    assert engine.query("reach").as_set() == oracle(CHAIN)
    assert engine.query("edge").as_set() == set(CHAIN)
    assert engine.epoch == 0
    assert engine.snapshot_version("reach") == 1


def test_insert_epoch_extends_closure(engine):
    result = engine.submit(inserts={"edge": [(6, 7)]}).result()
    assert result.epoch == 1
    assert result.iterations > 0
    assert set(result.changed_relations) == {"edge", "reach"}
    assert engine.query("reach").as_set() == oracle(CHAIN + [(6, 7)])


def test_redundant_insert_is_a_noop_epoch(engine):
    before = engine.snapshot_version("reach")
    result = engine.submit(inserts={"edge": [CHAIN[0]]}).result()
    # The seed row is already present: delta filtering absorbs it and no
    # snapshot version moves.
    assert result.iterations == 0
    assert result.snapshot_versions == {}
    assert engine.snapshot_version("reach") == before


def test_retract_epoch_shrinks_closure(engine):
    result = engine.submit(retracts={"edge": [(2, 3)]}).result()
    assert result.retracted["edge"] == 1
    assert result.retracted["reach"] > 0
    remaining = [edge for edge in CHAIN if edge != (2, 3)]
    assert engine.query("reach").as_set() == oracle(remaining)


def test_retract_of_absent_row_is_a_noop(engine):
    before = engine.snapshot_version("reach")
    result = engine.submit(retracts={"edge": [(98, 99)]}).result()
    assert result.retracted == {}
    assert engine.snapshot_version("reach") == before


def test_dred_rederives_alternative_support():
    # Two parallel paths 0->1->3 and 0->2->3: deleting one leaves (0, 3)
    # derivable, so DRed must resurrect it after the over-delete.
    edges = [(0, 1), (1, 3), (0, 2), (2, 3)]
    eng = ServingEngine(REACH_SOURCE, {"edge": edges}, background=False, fault_plan="none")
    try:
        result = eng.submit(retracts={"edge": [(0, 1)]}).result()
        assert (0, 3) in eng.query("reach").as_set()
        assert result.rederived.get("reach", 0) >= 1
        assert eng.query("reach").as_set() == oracle([(1, 3), (0, 2), (2, 3)])
    finally:
        eng.close()


#: ``p`` holds the ground fact ``p(1, 2)`` and derives ``(1, 2)`` again from ``e``
GROUNDED = "p(x, y) :- e(x, y).\nq(x, y) :- p(x, y)."


@pytest.mark.parametrize("num_shards", [1, 2])
@pytest.mark.parametrize("fact_source", ["program", "constructor"])
def test_retract_cascade_keeps_idb_ground_facts(num_shards, fact_source):
    # Retracting e(1, 2) over-deletes p(1, 2) and q(1, 2); the ground fact
    # still supports p(1, 2), so DRed must re-derive both.
    facts = {"e": [(1, 2), (3, 4)]}
    source = GROUNDED
    if fact_source == "program":
        source = "p(1, 2).\n" + GROUNDED
    else:
        facts["p"] = [(1, 2)]
    eng = ServingEngine(source, facts, background=False, num_shards=num_shards, fault_plan="none")
    try:
        result = eng.submit(retracts={"e": [(1, 2)]}).result()
        assert result.retracted == {"e": 1, "p": 1, "q": 1}
        assert result.rederived == {"p": 1}
        for name in ("p", "q"):
            assert eng.query(name).as_set() == {(1, 2), (3, 4)}, name
        # Once the client retracts the ground fact too, nothing supports it.
        eng.submit(retracts={"p": [(1, 2)]}).result()
        for name in ("p", "q"):
            assert eng.query(name).as_set() == {(3, 4)}, name
    finally:
        eng.close()


def test_mixed_epoch_applies_retracts_before_inserts(engine):
    result = engine.submit(
        inserts={"edge": [(6, 7)]}, retracts={"edge": [(0, 1)]}
    ).result()
    assert result.epoch == 1
    want = oracle([edge for edge in CHAIN if edge != (0, 1)] + [(6, 7)])
    assert engine.query("reach").as_set() == want


def test_submissions_coalesce_into_one_epoch(engine):
    ticket_a = engine.submit(inserts={"edge": [(6, 7)]})
    ticket_b = engine.submit(inserts={"edge": [(7, 8)]})
    result_a, result_b = ticket_a.result(), ticket_b.result()
    assert result_a is result_b
    assert result_a.coalesced == 2
    assert engine.epoch == 1
    assert engine.query("reach").as_set() == oracle(CHAIN + [(6, 7), (7, 8)])


def test_coalescing_is_last_writer_wins_per_tuple(engine):
    # insert(6,7) then retract(6,7) across submissions nets to "absent".
    engine.submit(inserts={"edge": [(6, 7)]})
    engine.submit(retracts={"edge": [(6, 7)]})
    engine.flush()
    assert engine.query("reach").as_set() == oracle(CHAIN)
    # retract(0,1) then re-insert(0,1) nets to "present".
    engine.submit(retracts={"edge": [(0, 1)]})
    engine.submit(inserts={"edge": [(0, 1)]})
    engine.flush()
    assert engine.query("reach").as_set() == oracle(CHAIN)


def test_snapshot_versions_only_bump_for_changed_relations(engine):
    edge_before = engine.snapshot_version("edge")
    reach_before = engine.snapshot_version("reach")
    result = engine.submit(inserts={"edge": [(6, 7)]}).result()
    assert engine.snapshot_version("edge") == edge_before + 1
    assert engine.snapshot_version("reach") == reach_before + 1
    assert result.snapshot_versions == {
        "edge": edge_before + 1,
        "reach": reach_before + 1,
    }


def test_old_snapshot_object_is_immutable_history(engine):
    old = engine.query("reach")
    engine.submit(inserts={"edge": [(6, 7)]}).result()
    new = engine.query("reach")
    assert old.version == 1 and new.version == 2
    assert old.count < new.count  # the old object never mutated


def test_query_many_reads_one_cut(engine):
    cut = engine.query_many(["edge", "reach"])
    assert cut["edge"].epoch == cut["reach"].epoch == 0


def test_query_decode_roundtrips_strings():
    eng = ServingEngine(
        REACH_SOURCE, {"edge": [("a", "b"), ("b", "c")]}, background=False, fault_plan="none"
    )
    try:
        decoded = set(eng.query("reach", decode=True))
        assert decoded == {("a", "b"), ("b", "c"), ("a", "c")}
        eng.submit(inserts={"edge": [("c", "d")]}).result()
        assert ("a", "d") in set(eng.query("reach", decode=True))
    finally:
        eng.close()


def test_unknown_relation_raises(engine):
    with pytest.raises(SchemaError, match="unknown relation"):
        engine.query("nope")
    with pytest.raises(SchemaError, match="unknown relation"):
        engine.submit(inserts={"nope": [(1, 2)]})


def test_arity_mismatch_raises(engine):
    with pytest.raises(SchemaError, match="arity"):
        engine.submit(inserts={"edge": [(1, 2, 3)]})


def test_background_engine_commits_asynchronously():
    eng = ServingEngine(REACH_SOURCE, {"edge": CHAIN}, background=True, fault_plan="none")
    try:
        ticket = eng.submit(inserts={"edge": [(6, 7)]})
        result = ticket.result(timeout=30)
        assert ticket.done()
        assert result.epoch >= 1
        eng.flush()
        assert eng.query("reach").as_set() == oracle(CHAIN + [(6, 7)])
    finally:
        eng.close()


def test_submit_after_close_raises(engine):
    engine.close()
    with pytest.raises(RuntimeError, match="closed"):
        engine.submit(inserts={"edge": [(9, 10)]})


def test_close_is_idempotent(engine):
    engine.close()
    engine.close()


def test_context_manager_closes():
    with ServingEngine(REACH_SOURCE, {"edge": CHAIN}, background=False, fault_plan="none") as eng:
        assert eng.query("reach").count > 0
    with pytest.raises(RuntimeError):
        eng.submit(inserts={"edge": [(9, 10)]})


def test_epoch_charges_simulated_time(engine):
    before = engine.simulated_seconds
    result = engine.submit(inserts={"edge": [(6, 7)]}).result()
    assert result.simulated_seconds > 0
    assert engine.simulated_seconds > before


def test_deltas_are_empty_between_epochs(engine):
    for relation in engine.relations.values():
        assert relation.delta_count == 0
    engine.submit(inserts={"edge": [(6, 7)]}).result()
    for relation in engine.relations.values():
        assert relation.delta_count == 0


def test_sharded_engine_matches_single_shard():
    single = ServingEngine(
        REACH_SOURCE, {"edge": CHAIN}, background=False, num_shards=1, fault_plan="none"
    )
    sharded = ServingEngine(
        REACH_SOURCE, {"edge": CHAIN}, background=False, num_shards=2, fault_plan="none"
    )
    try:
        for eng in (single, sharded):
            eng.submit(inserts={"edge": [(6, 7), (7, 0)]}).result()
            eng.submit(retracts={"edge": [(3, 4)]}).result()
        left, right = single.query("reach"), sharded.query("reach")
        assert left.rows.tobytes() == right.rows.tobytes()
    finally:
        single.close()
        sharded.close()


# ----------------------------------------------------------------------
# Lifecycle edge cases: stuck workers and ticket semantics.
# ----------------------------------------------------------------------


def test_close_raises_when_worker_is_stuck():
    """close() must not silently leak a live worker over freed device state."""
    import time as _time

    from repro.errors import EngineClosed

    eng = ServingEngine(REACH_SOURCE, {"edge": CHAIN}, background=True, fault_plan="none")
    eng._close_join_timeout = 0.2
    ticket = None
    # Hold the engine lock so the worker wedges inside its epoch.
    eng._engine_lock.acquire()
    try:
        ticket = eng.submit(inserts={"edge": [(6, 7)]})
        deadline = _time.monotonic() + 5.0
        while not eng._inflight and _time.monotonic() < deadline:
            _time.sleep(0.01)
        assert eng._inflight  # the worker picked the batch up and is wedged
        with pytest.raises(EngineClosed):
            eng.close()
        # The in-flight ticket was failed, not leaked.
        with pytest.raises(EngineClosed):
            ticket.result(timeout=0)
    finally:
        eng._engine_lock.release()
    # Once unwedged the worker drains and exits; close() is then a no-op.
    deadline = _time.monotonic() + 5.0
    while eng._worker is None and eng._inflight and _time.monotonic() < deadline:
        _time.sleep(0.01)
    eng.close()


def test_failed_epoch_ticket_reraises_every_time():
    from repro.errors import EpochAborted

    eng = ServingEngine(REACH_SOURCE, {"edge": CHAIN}, background=False, fault_plan="none")
    try:
        from repro.device import FaultPlan

        plan = FaultPlan.parse("kernel:*:every=1:times=1000000")
        for device in eng.devices:
            device.fault_plan = plan
        ticket = eng.submit(inserts={"edge": [(6, 7)]})
        with pytest.raises(EpochAborted):
            ticket.result()
        # result() is repeatable: the failure does not evaporate on read.
        with pytest.raises(EpochAborted):
            ticket.result()
        for device in eng.devices:
            device.fault_plan = None
    finally:
        eng.close()


def test_pending_ticket_fails_on_close():
    from repro.errors import EngineClosed

    eng = ServingEngine(REACH_SOURCE, {"edge": CHAIN}, background=False, fault_plan="none")
    ticket = eng.submit(inserts={"edge": [(6, 7)]})
    eng.close()
    assert ticket.done()
    with pytest.raises(EngineClosed):
        ticket.result()


def test_ticket_result_times_out_then_commits():
    from concurrent.futures import TimeoutError as FutureTimeout

    eng = ServingEngine(
        REACH_SOURCE,
        {"edge": CHAIN},
        background=True,
        fault_plan="none",
        coalesce_window=0.3,
    )
    try:
        ticket = eng.submit(inserts={"edge": [(6, 7)]})
        with pytest.raises(FutureTimeout):
            ticket.result(timeout=0.05)
        result = ticket.result(timeout=30)
        assert result.epoch == 1
        assert (6, 7) in eng.query("edge").as_set()
    finally:
        eng.close()
