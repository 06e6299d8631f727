"""Epoch transactionality and crash recovery: faults × histories × shards.

Every scenario asserts the strongest equivalence available: the surviving
(or recovered) engine's snapshots are **byte-identical** to both a fault-free
engine fed the same history and a from-scratch fixpoint over the final fact
set.  Aborted epochs must be invisible — same bytes, same snapshot versions.
"""

import os
import shutil
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import FaultPlan
from repro.errors import AdmissionRejected, DatalogError, EpochAborted
from repro.queries import REACH_SOURCE
from repro.relational import Relation
from repro.relational.checkpoint import DiskCheckpointStore, InMemoryCheckpointStore
from repro.serving import DiskWal, InMemoryWal, ServingEngine

from tests.helpers import CrashCopies, transitive_closure

CHAIN = [(i, i + 1) for i in range(6)]
SHARD_COUNTS = [1, 2]

# (inserts, retracts) per epoch; applied in order to the CHAIN base facts.
HISTORIES = {
    "inserts": [({"edge": [(6, 7)]}, {}), ({"edge": [(7, 8), (8, 0)]}, {})],
    "retracts": [({}, {"edge": [(2, 3)]}), ({}, {"edge": [(4, 5)]})],
    "mixed": [
        ({"edge": [(6, 7)]}, {"edge": [(0, 1)]}),
        ({"edge": [(0, 1)]}, {"edge": [(6, 7)]}),
    ],
}


def make_engine(num_shards, **kwargs):
    kwargs.setdefault("fault_plan", "none")
    return ServingEngine(
        REACH_SOURCE, {"edge": CHAIN}, background=False, num_shards=num_shards, **kwargs
    )


def run_history(engine, history):
    for inserts, retracts in history:
        engine.submit(inserts=inserts, retracts=retracts).result()


def final_edges(history):
    edges = set(CHAIN)
    for inserts, retracts in history:
        edges -= set(retracts.get("edge", []))
        edges |= set(inserts.get("edge", []))
    return edges


def install_plan(engine, spec):
    """Attach a fresh fault plan post-bootstrap so ``at=N`` counts epochs only."""
    plan = FaultPlan.parse(spec)
    for device in engine.devices:
        device.fault_plan = plan
    return plan


def snapshot_bytes(engine):
    return {
        name: engine.query(name).rows.tobytes() for name in ("edge", "reach")
    }


def assert_equivalent(engine, history):
    """Engine state == fault-free replay == from-scratch fixpoint."""
    clean = make_engine(engine.num_shards)
    try:
        run_history(clean, history)
        assert snapshot_bytes(engine) == snapshot_bytes(clean)
    finally:
        clean.close()
    edges = final_edges(history)
    oracle = transitive_closure(np.asarray(sorted(edges), dtype=np.int64))
    assert engine.query("reach").as_set() == oracle


# ----------------------------------------------------------------------
# Transactional aborts: faults that exhaust the ladder must be invisible.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("history_name", sorted(HISTORIES))
def test_transient_fault_is_absorbed(num_shards, history_name):
    history = HISTORIES[history_name]
    engine = make_engine(num_shards)
    try:
        # One kernel fault: the evaluator-level retry ladder absorbs it
        # without surfacing an abort.
        install_plan(engine, "kernel:*<-*:at=1:times=1")
        run_history(engine, history)
        assert engine.epoch_aborts == 0
        assert engine.health() == "healthy"
        assert_equivalent(engine, history)
    finally:
        engine.close()


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_dedup_scratch_oom_degrades_an_insert_epoch_instead_of_aborting_it(monkeypatch, num_shards):
    # The floor assumes production-sized batches; lower it so a seed of a few rows halves.
    monkeypatch.setattr("repro.relational.relation.OOM_DEDUP_FLOOR_ROWS", 1)
    history = [({"edge": [(i, i + 1) for i in range(6, 14)]}, {})]
    engine = make_engine(num_shards)
    try:
        plan = install_plan(engine, "alloc:*.dedup_scratch:at=1")
        run_history(engine, history)
        assert plan.fault_count == 1
        degraded = sum(shard.oom_degradations for relation in engine.relations.values() for shard in relation.shards)
        assert degraded >= 1
        assert engine.epoch_aborts == 0 and engine.health() == "healthy"
        assert_equivalent(engine, history)
    finally:
        engine.close()
    assert all(device.pool.in_use_bytes == 0 for device in engine.devices)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize(
    "spec",
    [
        pytest.param("kernel:*:every=1:times=1000000", id="kernel-permanent"),
        pytest.param("alloc:*:every=1:times=1000000", id="oom-permanent"),
    ],
)
def test_permanent_fault_aborts_epoch_invisibly(num_shards, spec):
    engine = make_engine(num_shards)
    try:
        before_bytes = snapshot_bytes(engine)
        before_versions = {n: engine.snapshot_version(n) for n in ("edge", "reach")}
        plan = install_plan(engine, spec)
        with pytest.raises(EpochAborted) as excinfo:
            engine.submit(inserts={"edge": [(6, 7)]}).result()
        assert excinfo.value.attempts == engine.epoch_retries + 1
        assert engine.epoch_aborts == 1
        assert engine.health() == "degraded"
        # The abort is invisible: no bytes moved, no versions moved.
        assert snapshot_bytes(engine) == before_bytes
        for name, version in before_versions.items():
            assert engine.snapshot_version(name) == version
        assert engine.epoch == 0
        # Clear the fault and retry the same mutation: commits cleanly.
        for device in engine.devices:
            device.fault_plan = None
        assert plan.fired_events
        result = engine.submit(inserts={"edge": [(6, 7)]}).result()
        assert result.epoch == 1
        assert engine.health() == "healthy"
        assert_equivalent(engine, [({"edge": [(6, 7)]}, {})])
    finally:
        engine.close()


def test_exchange_fault_rebuilds_crashed_shard():
    engine = make_engine(2)
    try:
        install_plan(engine, "exchange:*:every=1:times=1000000")
        with pytest.raises(EpochAborted):
            engine.submit(inserts={"edge": [(6, 7)]}).result()
        assert engine.epoch == 0
        for device in engine.devices:
            device.fault_plan = None
        # The crashed shard was rebuilt during rollback: the engine keeps
        # serving and the next epoch lands on the replacement device.
        engine.submit(inserts={"edge": [(6, 7)]}).result()
        assert_equivalent(engine, [({"edge": [(6, 7)]}, {})])
    finally:
        engine.close()


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_bounded_fault_survives_whole_epoch_retry(num_shards):
    engine = make_engine(num_shards)
    try:
        # Enough faults to exhaust the evaluator ladder once, few enough that
        # the serving-level whole-epoch retry eventually wins.
        install_plan(engine, "alloc:*:at=2:times=1")
        result = engine.submit(inserts={"edge": [(6, 7)]}).result()
        assert result.epoch == 1
        assert engine.epoch_aborts == 0
        assert_equivalent(engine, [({"edge": [(6, 7)]}, {})])
    finally:
        engine.close()


@pytest.mark.parametrize("history_name", sorted(HISTORIES))
def test_abort_then_commit_history(history_name):
    """An aborted epoch sandwiched in a history leaves no trace."""
    history = HISTORIES[history_name]
    engine = make_engine(1)
    try:
        run_history(engine, history[:1])
        install_plan(engine, "kernel:*:every=1:times=1000000")
        with pytest.raises(EpochAborted):
            engine.submit(inserts={"edge": [(40, 41)]}).result()
        for device in engine.devices:
            device.fault_plan = None
        run_history(engine, history[1:])
        assert_equivalent(engine, history)
    finally:
        engine.close()


def test_an_epoch_that_raises_without_a_device_fault_keeps_no_merge(monkeypatch):
    """Any exception rolls an epoch back, not only a device fault: here one
    raised after ``edge`` already merged the inserted row."""
    chain = [(0, 1), (1, 2), (2, 3)]
    wal = InMemoryWal()
    engine = ServingEngine(
        REACH_SOURCE, {"edge": chain}, background=False, num_shards=1, fault_plan="none", wal=wal
    )
    try:
        calls = []
        end_iteration = Relation.end_iteration

        def second_call_raises(self, *args, **kwargs):
            calls.append(self.name)
            if len(calls) == 2:
                raise ValueError("not a device fault")
            return end_iteration(self, *args, **kwargs)

        monkeypatch.setattr(Relation, "end_iteration", second_call_raises)
        with pytest.raises(ValueError, match="not a device fault"):
            engine.submit(inserts={"edge": [(3, 4)]}).result()
        monkeypatch.undo()
        assert calls[0] == "edge"  # the row was merged when the epoch raised
        assert engine.relations["edge"].as_set() == set(chain)
        assert engine.epoch == 0 and engine.epoch_aborts == 1
        assert wal.aborted_seqs() == {1}
        engine.submit(inserts={"edge": [(5, 6)]}).result()
        assert engine.query("reach").as_set() == transitive_closure(np.array(chain + [(5, 6)]))
    finally:
        engine.close()


def test_a_coalesced_epoch_that_raises_commits_its_good_submissions(monkeypatch):
    """A coalesced epoch that fails without a device fault replays its
    submissions one per epoch: only the one that fails on its own gets the
    error and a WAL abort marker."""
    wal = InMemoryWal()
    engine = make_engine(1, wal=wal)
    try:
        add_new = Relation.add_new

        def refuse_99(self, rows, *args, **kwargs):
            if isinstance(rows, np.ndarray) and (rows == 99).any():
                raise ValueError("refused 99")
            return add_new(self, rows, *args, **kwargs)

        monkeypatch.setattr(Relation, "add_new", refuse_99)
        good = engine.submit(inserts={"edge": [(6, 7)]})
        bad = engine.submit(inserts={"edge": [(7, 99)]})
        after = engine.submit(inserts={"edge": [(7, 8)]})
        engine.flush()
        with pytest.raises(ValueError, match="refused 99"):
            bad.result()
        assert (good.result().epoch, good.result().coalesced) == (1, 1)
        assert (after.result().epoch, after.result().coalesced) == (2, 1)
        assert wal.aborted_seqs() == {2}
        assert engine.query("reach").as_set() == transitive_closure(np.array(CHAIN + [(6, 7), (7, 8)]))
    finally:
        engine.close()


# ----------------------------------------------------------------------
# Crash recovery: WAL + checkpoint reproduce the pre-crash state exactly.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("history_name", sorted(HISTORIES))
def test_recover_from_memory_artifacts(num_shards, history_name):
    history = HISTORIES[history_name]
    store, wal = InMemoryCheckpointStore(keep=2), InMemoryWal()
    engine = make_engine(num_shards, wal=wal, checkpoint_store=store)
    try:
        run_history(engine, history)
        expected = snapshot_bytes(engine)
        versions = {n: engine.snapshot_version(n) for n in ("edge", "reach")}
        epoch = engine.epoch
    finally:
        engine.crash()
    recovered = ServingEngine.recover(store, wal, background=False, fault_plan="none")
    try:
        assert recovered.health() == "healthy"
        assert recovered.epoch == epoch
        assert snapshot_bytes(recovered) == expected
        for name, version in versions.items():
            assert recovered.snapshot_version(name) == version
        assert_equivalent(recovered, history)
        # The recovered engine is live: it accepts and commits new epochs.
        recovered.submit(inserts={"edge": [(50, 51)]}).result()
        assert (50, 51) in recovered.query("edge").as_set()
    finally:
        recovered.close()


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_recovery_keeps_every_row_in_its_order(num_shards):
    """A recovered engine holds each shard's full version in the order the
    crashed one derived it (a restore loads the checkpoint's rows as they
    are, not re-sorted), and its reads return the pre-crash rows in order."""
    store, wal = InMemoryCheckpointStore(keep=2), InMemoryWal()
    engine = make_engine(num_shards, wal=wal, checkpoint_store=store)

    def data_tiers(serving):
        return {
            name: [shard.full_rows_host(charge=False) for shard in relation.shards]
            for name, relation in serving.relations.items()
        }

    try:
        run_history(engine, HISTORIES["inserts"])
        expected_reads = {name: engine.query(name).rows for name in ("edge", "reach")}
        expected_tiers = data_tiers(engine)
    finally:
        engine.crash()
    recovered = ServingEngine.recover(store, wal, background=False, fault_plan="none")
    try:
        # The derivation order is not the sorted order, so a re-sort shows.
        assert any(
            tier.tobytes() != np.unique(tier, axis=0).tobytes()
            for tiers in expected_tiers.values()
            for tier in tiers
        )
        for name, tiers in data_tiers(recovered).items():
            assert [tier.tobytes() for tier in tiers] == [tier.tobytes() for tier in expected_tiers[name]], name
        for name, rows in expected_reads.items():
            np.testing.assert_array_equal(recovered.query(name).rows, rows)
    finally:
        recovered.close()


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_recover_replays_unflushed_batches(num_shards, tmp_path, monkeypatch):
    """A crash after an epoch's commit marker is durable and before its
    checkpoint is: recovery replays the committed WAL group past the
    checkpoint's horizon, a retract epoch here."""
    live = tmp_path / "live"
    history = [({"edge": [(6, 7)]}, {}), ({}, {"edge": [(2, 3)]})]
    crashes = CrashCopies(live, tmp_path)
    with crashes.at_every_fsync(monkeypatch):
        engine = make_engine(
            num_shards, wal=DiskWal(str(live / "wal.jsonl")),
            checkpoint_store=DiskCheckpointStore(str(live / "ckpt"), keep=2),
        )
        try:
            run_history(engine, history[:1])
            first = len(crashes.copies)
            run_history(engine, history[1:])
            expected = snapshot_bytes(engine)
        finally:
            engine.crash()
    # The first checkpoint payload synced after the retract epoch's commit marker.
    directory = next(copy for copy, _, synced in crashes.copies[first:] if synced.endswith(".npz.tmp"))
    store = DiskCheckpointStore(os.path.join(directory, "ckpt"), keep=2)
    assert store.latest().metadata["serving"]["epoch"] == 1
    recovered = ServingEngine.recover(
        store, DiskWal(os.path.join(directory, "wal.jsonl")), background=False, fault_plan="none"
    )
    try:
        assert recovered.epoch == 2
        assert snapshot_bytes(recovered) == expected
        assert_equivalent(recovered, history)
    finally:
        recovered.close()


def test_recover_commits_pending_batch(tmp_path):
    """A batch acknowledged but never committed becomes the catch-up epoch."""
    store = DiskCheckpointStore(str(tmp_path / "ckpt"), keep=2)
    wal = DiskWal(str(tmp_path / "wal.jsonl"))
    engine = make_engine(1, wal=wal, checkpoint_store=store)
    try:
        engine.submit(inserts={"edge": [(6, 7)]}).result()
        # Enqueue without flushing: the WAL holds the batch, no commit marker.
        wal.append_batch({"edge": [(7, 8)]}, {})
    finally:
        engine.crash()
    recovered = ServingEngine.recover(
        store, DiskWal(str(tmp_path / "wal.jsonl")), background=False, fault_plan="none"
    )
    try:
        # The pending batch was folded into a catch-up epoch and committed.
        history = [({"edge": [(6, 7)]}, {}), ({"edge": [(7, 8)]}, {})]
        assert_equivalent(recovered, history)
        reopened = DiskWal(str(tmp_path / "wal.jsonl"))
        try:
            assert reopened.pending_batches() == []
        finally:
            reopened.close()
    finally:
        recovered.close()


def test_recover_preserves_string_symbols(tmp_path):
    store = DiskCheckpointStore(str(tmp_path / "ckpt"), keep=2)
    wal = DiskWal(str(tmp_path / "wal.jsonl"))
    engine = ServingEngine(
        REACH_SOURCE,
        {"edge": [("a", "b"), ("b", "c")]},
        background=False,
        num_shards=1,
        fault_plan="none",
        wal=wal,
        checkpoint_store=store,
    )
    try:
        engine.submit(inserts={"edge": [("c", "d")]}).result()
    finally:
        engine.crash()
    recovered = ServingEngine.recover(
        store, DiskWal(str(tmp_path / "wal.jsonl")), background=False, fault_plan="none"
    )
    try:
        decoded = set(recovered.query("reach", decode=True))
        assert ("a", "d") in decoded
        # New string facts keep interning consistently after recovery.
        recovered.submit(inserts={"edge": [("d", "e")]}).result()
        assert ("a", "e") in set(recovered.query("reach", decode=True))
    finally:
        recovered.close()


def test_a_rejected_submit_interns_no_symbol(tmp_path):
    """A row that failed to encode once left its earlier strings interned but
    unlogged: the next batch was logged without them, recovery read its edge
    back as a raw id, and the next new string took that id."""
    store = DiskCheckpointStore(str(tmp_path / "ckpt"), keep=2)
    engine = make_engine(1, wal=DiskWal(str(tmp_path / "wal.jsonl")), checkpoint_store=store)
    try:
        with pytest.raises(DatalogError):
            engine.submit(inserts={"edge": [("a", 1.5)]})
        assert len(engine.symbols) == 0
        engine.submit(inserts={"edge": [("a", 7)]})  # acknowledged into the WAL
    finally:
        engine.crash()
    recovered = ServingEngine.recover(
        store, DiskWal(str(tmp_path / "wal.jsonl")), background=False, fault_plan="none"
    )
    try:
        assert ("a", 7) in set(recovered.query("edge", decode=True))
        recovered.submit(inserts={"edge": [("z", 8)]}).result()
        decoded = set(recovered.query("edge", decode=True))
        assert {("a", 7), ("z", 8)} <= decoded and ("z", 7) not in decoded
    finally:
        recovered.close()


class _HookedStore(DiskCheckpointStore):
    """A checkpoint store that runs the next of ``hooks`` on each save, after
    the engine has read the checkpoint's symbol tail and before the
    checkpoint is written: a submit from inside an epoch's commit."""

    def __init__(self, directory, hooks):
        super().__init__(directory, keep=2)
        self.hooks = hooks

    def save(self, checkpoint):
        if self.hooks:
            self.hooks.pop(0)()
        return super().save(checkpoint)


def test_a_refused_submit_logs_its_symbols_with_the_next_record(tmp_path):
    """A refused batch keeps the strings it interned.  A later batch using one
    must log it, or a crash before the next checkpoint recovers its row as a
    raw id: the checkpoint read its symbol tail before the string existed,
    and the batch's own new strings start after it."""
    live, crashed = tmp_path / "live", tmp_path / "crashed"
    hooks = []
    store = _HookedStore(str(live / "ckpt"), hooks)
    engine = make_engine(
        1, wal=DiskWal(str(live / "wal.jsonl")), checkpoint_store=store, max_pending=1, admission_policy="reject"
    )

    def queue_one_and_refuse_one():  # inside epoch 1's checkpoint
        engine.submit(inserts={"edge": [("b", "c")]})
        with pytest.raises(AdmissionRejected):
            engine.submit(inserts={"edge": [("zz", "a")]})

    def use_the_refused_string_then_crash():  # inside epoch 2's, which took ("b", "c")
        engine.submit(inserts={"edge": [("zz", "b")]})
        shutil.copytree(live, crashed)

    hooks += [queue_one_and_refuse_one, use_the_refused_string_then_crash]
    try:
        engine.submit(inserts={"edge": [("a", "b")]}).result()
        assert not hooks
    finally:
        engine.close()
    recovered = ServingEngine.recover(
        DiskCheckpointStore(str(crashed / "ckpt")), DiskWal(str(crashed / "wal.jsonl")),
        background=False, fault_plan="none",
    )
    try:
        assert {("a", "b"), ("b", "c"), ("zz", "b")} <= set(recovered.query("edge", decode=True))
        recovered.submit(inserts={"edge": [("yy", "a")]}).result()
        decoded = set(recovered.query("edge", decode=True))
        assert {("zz", "b"), ("yy", "a")} <= decoded and ("yy", "b") not in decoded
    finally:
        recovered.close()


def test_a_shed_batchs_symbols_survive_its_abort(tmp_path):
    """A shed batch's record is the first to log its strings; a later batch
    using them logs nothing new, so recovery restores the symbols of aborted
    records too."""
    store = DiskCheckpointStore(str(tmp_path / "ckpt"), keep=2)
    engine = make_engine(
        1, wal=DiskWal(str(tmp_path / "wal.jsonl")), checkpoint_store=store,
        max_pending=1, admission_policy="shed-oldest",
    )
    try:
        shed = engine.submit(inserts={"edge": [("s", "t")]})
        engine.submit(inserts={"edge": [("s", "u")]})  # sheds the first
        with pytest.raises(AdmissionRejected):
            shed.result()
    finally:
        engine.crash()
    recovered = ServingEngine.recover(
        store, DiskWal(str(tmp_path / "wal.jsonl")), background=False, fault_plan="none"
    )
    try:
        decoded = set(recovered.query("edge", decode=True))
        assert ("s", "u") in decoded and ("s", "t") not in decoded
    finally:
        recovered.close()


@pytest.mark.parametrize("durable", ["wal", "wal+checkpoints"])
def test_racing_submits_log_every_symbol_they_intern(durable):
    """Submitters intern strings while others fail to encode: every symbol
    the table holds is logged by the batch that interned it, and no rejected
    one survives to be reused.  With checkpoints a background worker commits
    and saves while they race: each checkpoint's symbols must be the live
    table's, or a reused identifier decodes as a rejected string after
    recovery (the WAL records that named it are compacted away)."""
    wal = InMemoryWal()
    if durable == "wal":
        store = None
        engine = make_engine(1, wal=wal)
    else:
        store = InMemoryCheckpointStore(keep=2)
        engine = ServingEngine(
            REACH_SOURCE, {"edge": CHAIN}, num_shards=1, fault_plan="none", wal=wal, checkpoint_store=store
        )
    errors: list[BaseException] = []

    def submitter(worker):
        try:
            for index in range(40):
                engine.submit(inserts={"edge": [(f"w{worker}.{index}", f"w{worker}.{index}+")]})
                with pytest.raises(DatalogError):  # interns 20 strings, then fails
                    engine.submit(inserts={"edge": [(f"bad{worker}.{index}.{k}", k) for k in range(20)] + [(0, 1.5)]})
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=submitter, args=(worker,)) for worker in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    if store is None:
        try:
            assert not any(thread.is_alive() for thread in threads) and errors == []
            batches = wal.pending_batches()
            assert len(batches) == 4 * 40
            assert dict(entry for batch in batches for entry in batch.symbols) == dict(engine.symbols.entries())
            for batch in batches:
                ((source, target),) = batch.inserts["edge"]
                assert engine.symbols.decode(target) == engine.symbols.decode(source) + "+"
        finally:
            engine.close()
        return
    try:
        assert not any(thread.is_alive() for thread in threads) and errors == []
        engine.flush()
        live = dict(engine.symbols.entries())
        for checkpoint_id in store.list_ids():
            assert dict(store.load(checkpoint_id).symbols).items() <= live.items()
    finally:
        engine.crash()
    recovered = ServingEngine.recover(store, wal, background=False, fault_plan="none")
    try:
        expected = {(f"w{worker}.{index}", f"w{worker}.{index}+") for worker in range(4) for index in range(40)}
        assert set(recovered.query("edge", decode=True)) - set(CHAIN) == expected
    finally:
        recovered.close()


def test_serving_chaos_plan_converges():
    """The named chaos plan is survivable by construction (bounded times)."""
    engine = make_engine(2)
    history = HISTORIES["mixed"]
    try:
        # Installed post-bootstrap: the plan targets serving epochs, and the
        # serving-level ladder is what makes its faults survivable.
        install_plan(engine, "serving-chaos")
        for inserts, retracts in history:
            try:
                engine.submit(inserts=inserts, retracts=retracts).result()
            except EpochAborted:
                # A bounded plan may still exhaust one epoch's ladder; the
                # abort must be invisible and the retry must land.
                engine.submit(inserts=inserts, retracts=retracts).result()
        assert_equivalent(engine, history)
    finally:
        engine.close()


# ----------------------------------------------------------------------
# Property: random histories crash at a random point and recover exactly.
# ----------------------------------------------------------------------

edge_strategy = st.tuples(st.integers(0, 12), st.integers(0, 12))
epoch_strategy = st.tuples(
    st.lists(edge_strategy, max_size=3), st.lists(edge_strategy, max_size=3)
)


@given(
    epochs=st.lists(epoch_strategy, min_size=1, max_size=4),
    crash_after=st.integers(0, 3),
    num_shards=st.sampled_from(SHARD_COUNTS),
)
@settings(max_examples=10, deadline=None)
def test_random_history_crash_recovery(epochs, crash_after, num_shards):
    history = [
        ({"edge": inserts} if inserts else {}, {"edge": retracts} if retracts else {})
        for inserts, retracts in epochs
    ]
    cut = min(crash_after, len(history))
    store, wal = InMemoryCheckpointStore(keep=2), InMemoryWal()
    engine = make_engine(num_shards, wal=wal, checkpoint_store=store)
    try:
        run_history(engine, history[:cut])
        expected = snapshot_bytes(engine)
        epoch = engine.epoch
    finally:
        engine.crash()
    recovered = ServingEngine.recover(store, wal, background=False, fault_plan="none")
    try:
        assert recovered.epoch == epoch
        assert snapshot_bytes(recovered) == expected
        # The recovered engine finishes the rest of the history correctly.
        run_history(recovered, history[cut:])
        assert_equivalent(recovered, history)
    finally:
        recovered.close()
