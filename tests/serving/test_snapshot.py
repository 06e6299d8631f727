"""Snapshot semantics: canonical form, immutability, atomic publication, and
the incremental read — a new snapshot is the previous one plus the rows
appended since, byte-identical to sorting the whole relation again."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import is_wide_keys
from repro.device import Device, FaultPlan
from repro.device.profiler import PHASE_CHECKPOINT
from repro.errors import EpochAborted
from repro.queries import REACH_SOURCE, SG_SOURCE
from repro.relational import Relation, ShardedRelation
from repro.relational.checkpoint import InMemoryCheckpointStore
from repro.serving import InMemoryWal, RelationSnapshot, ServingEngine, SnapshotTable, canonical_rows
from repro.serving.snapshot import keys_alongside, merge_rows, row_keys


def snap(name, version, rows, *, epoch=0, arity=2):
    return RelationSnapshot(
        name=name, version=version, epoch=epoch, rows=canonical_rows(np.asarray(rows), arity)
    )


def test_canonical_rows_sorts_lexicographically():
    rows = np.array([[3, 1], [1, 2], [1, 1], [2, 9]], dtype=np.int64)
    out = canonical_rows(rows, 2)
    assert out.tolist() == [[1, 1], [1, 2], [2, 9], [3, 1]]


def test_canonical_rows_is_order_invariant_and_byte_identical():
    rows = np.array([[5, 1], [2, 2], [9, 0]], dtype=np.int64)
    shuffled = rows[[2, 0, 1]]
    assert canonical_rows(rows, 2).tobytes() == canonical_rows(shuffled, 2).tobytes()


def test_canonical_rows_is_read_only():
    out = canonical_rows(np.array([[1, 2]], dtype=np.int64), 2)
    with pytest.raises(ValueError):
        out[0, 0] = 99


def test_canonical_rows_empty():
    out = canonical_rows(np.empty((0, 3), dtype=np.int64), 3)
    assert out.shape == (0, 3)


def test_snapshot_count_and_as_set():
    snapshot = snap("edge", 1, [[1, 2], [2, 3]])
    assert snapshot.count == 2
    assert snapshot.as_set() == {(1, 2), (2, 3)}


def test_table_read_unknown_relation():
    table = SnapshotTable()
    with pytest.raises(KeyError, match="no snapshot"):
        table.read("missing")


def test_table_publish_and_versions():
    table = SnapshotTable()
    table.publish({"edge": snap("edge", 1, [[1, 2]])})
    table.publish({"edge": snap("edge", 2, [[1, 2], [2, 3]]), "reach": snap("reach", 1, [])})
    assert table.version("edge") == 2
    assert table.version("reach") == 1
    assert table.names() == ["edge", "reach"]


def test_read_many_is_a_consistent_cut():
    """A reader must never see edge@N next to reach@N-1 from read_many."""
    table = SnapshotTable()
    table.publish({"edge": snap("edge", 1, []), "reach": snap("reach", 1, [])})
    stop = threading.Event()
    errors = []

    def writer():
        version = 2
        while not stop.is_set():
            table.publish(
                {"edge": snap("edge", version, []), "reach": snap("reach", version, [])}
            )
            version += 1

    def reader():
        for _ in range(500):
            cut = table.read_many(["edge", "reach"])
            if cut["edge"].version != cut["reach"].version:
                errors.append((cut["edge"].version, cut["reach"].version))

    writer_thread = threading.Thread(target=writer)
    reader_thread = threading.Thread(target=reader)
    writer_thread.start()
    reader_thread.start()
    reader_thread.join()
    stop.set()
    writer_thread.join()
    assert not errors


# ----------------------------------------------------------------------
# The incremental read
# ----------------------------------------------------------------------
CHAIN = [(i, i + 1) for i in range(6)]
PERMANENT_FAULT = "kernel:*:every=1:times=1000000"


def install_plan(engine, spec):
    plan = FaultPlan.parse(spec)
    for device in engine.devices:
        device.fault_plan = plan


def assert_reads_canonical(engine):
    """Every relation's served snapshot is the whole relation, sorted afresh."""
    for name, relation in engine.relations.items():
        expected = canonical_rows(relation.full_rows_host(charge=False), relation.arity)
        assert engine.query(name).rows.tobytes() == expected.tobytes(), name


def transferred(engine) -> float:
    return sum(device.profiler.transfer_bytes for device in engine.devices)


def test_merge_rows_matches_a_fresh_sort():
    rng = np.random.default_rng(4)
    rows = np.unique(rng.integers(-50, 50, size=(400, 3)), axis=0)
    order = rng.permutation(rows.shape[0])
    previous = canonical_rows(rows[order[:300]], 3)
    merged, keys = merge_rows(previous, row_keys(previous), rows[order[300:]])
    assert merged.tobytes() == canonical_rows(rows, 3).tobytes()
    assert keys.tobytes() == row_keys(merged).tobytes()
    assert not merged.flags.writeable


def test_merge_rows_widens_the_keys_once_a_row_does_not_fit():
    rng = np.random.default_rng(5)
    rows = np.unique(rng.integers(-50, 50, size=(300, 3)), axis=0)
    previous = canonical_rows(rows[:200], 3)
    keys = row_keys(previous)
    assert not is_wide_keys(keys)
    symbols = rows[200:250] + np.array([0, 1 << 40, 0])  # past the 21-bit budget
    merged, keys = merge_rows(previous, keys, symbols)
    assert merged.tobytes() == canonical_rows(np.concatenate([rows[:200], symbols]), 3).tobytes()
    assert keys.tobytes() == row_keys(merged, wide=True).tobytes()
    # Wide for good: rows that would fit narrow keys are packed wide too.
    merged, keys = merge_rows(merged, keys, rows[250:])
    assert merged.tobytes() == canonical_rows(np.concatenate([rows[:200], symbols, rows[250:]]), 3).tobytes()
    assert keys.tobytes() == row_keys(merged, wide=True).tobytes()


@pytest.mark.parametrize("wide_side", ["keys", "more"])
def test_keys_alongside_share_one_format(wide_side):
    small = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.int64)
    big = np.array([[3, 4], [1, 1 << 40]], dtype=np.int64)
    rows, more = (big, small) if wide_side == "keys" else (small, big)
    keys, more_keys = keys_alongside(rows, row_keys(rows), more)
    assert is_wide_keys(keys) and is_wide_keys(more_keys)
    assert np.isin(more_keys, keys).tolist() == [row.tolist() in rows.tolist() for row in more]


edge_strategy = st.tuples(st.integers(0, 9), st.integers(0, 9))
step_strategy = st.tuples(
    st.sampled_from(["insert", "retract", "noop", "abort", "recover"]),
    st.lists(edge_strategy, min_size=1, max_size=3),
    st.booleans(),  # read after this step, or let the appended rows pile up
)


@given(
    steps=st.lists(step_strategy, min_size=1, max_size=8),
    num_shards=st.sampled_from([1, 2]),
)
@settings(max_examples=15, deadline=None)
def test_incremental_reads_are_byte_identical_to_a_full_sort(steps, num_shards):
    store, wal = InMemoryCheckpointStore(keep=2), InMemoryWal()
    engine = ServingEngine(
        REACH_SOURCE,
        {"edge": CHAIN},
        background=False,
        num_shards=num_shards,
        fault_plan="none",
        wal=wal,
        checkpoint_store=store,
    )
    try:
        assert_reads_canonical(engine)
        for action, edges, read in steps:
            if action == "insert":
                engine.submit(inserts={"edge": edges}).result()
            elif action == "retract":
                engine.submit(retracts={"edge": edges}).result()
            elif action == "noop":
                engine.submit(retracts={"edge": [(99, 98)]}).result()
            elif action == "abort":
                install_plan(engine, PERMANENT_FAULT)
                with pytest.raises(EpochAborted):
                    engine.submit(inserts={"edge": edges}).result()
                install_plan(engine, "none")
            else:
                engine.crash()
                engine = ServingEngine.recover(store, wal, background=False, fault_plan="none")
            if read:
                assert_reads_canonical(engine)
        assert_reads_canonical(engine)
    finally:
        engine.close()


def checkpointed(engine) -> float:
    """Bytes the engine's commit steps have moved so far."""
    return sum(
        summary.transfer_bytes
        for device in engine.devices
        for phase, summary in device.profiler.phase_summaries().items()
        if phase == PHASE_CHECKPOINT
    )


@pytest.mark.parametrize("num_shards", [1, 2])
def test_a_read_after_an_insert_epoch_downloads_only_the_appended_rows(num_shards):
    """The appended rows cross D2H once, in the epoch's commit step; the read
    merges them in from the commit record and transfers nothing."""
    edges = np.array([(i // 2, i) for i in range(1, 64)], dtype=np.int64)  # a binary tree
    engine = ServingEngine(SG_SOURCE, {"edge": edges}, background=False, num_shards=num_shards, fault_plan="none")
    try:
        before = engine.query("sg")
        start = checkpointed(engine)
        engine.submit(inserts={"edge": [(0, 64), (64, 65)]}).result()
        committed = checkpointed(engine) - start
        start = transferred(engine)
        after = engine.query("sg")
        assert transferred(engine) == start
        appended = after.count - before.count
        assert appended > 0
        assert committed == (appended + 2) * 2 * 8  # the new sg rows and the two edges
        assert_reads_canonical(engine)
    finally:
        engine.close()


def test_a_rebuilt_shard_forces_the_full_read(monkeypatch):
    sharded = ShardedRelation(
        [Device("h100", oom_enabled=False) for _ in range(2)], "r", 2, shard_column=0
    )
    sharded.initialize(np.array([[0, 1], [1, 2], [2, 3], [3, 4]], dtype=np.int64))
    marks = sharded.append_marks()
    assert sharded.holds(marks)
    # The replacement holds the same rows as the shard it replaced, but a
    # different data tier: the marks no longer describe it.
    state = sharded.checkpoint_state()
    sharded.rebuild_shard(1, Device("h100", oom_enabled=False))
    sharded.restore(state)
    assert [rows for _, rows in sharded.append_marks()] == [rows for _, rows in marks]
    assert not sharded.holds(marks)

    # In an engine: an exchange fault crashes a shard, rollback rebuilds it,
    # and the next read downloads and sorts the whole relation.
    full_reads = []
    original = Relation.full_rows_host

    def spy(self, **kwargs):
        full_reads.append(self.name)
        return original(self, **kwargs)

    monkeypatch.setattr(Relation, "full_rows_host", spy)
    engine = ServingEngine(REACH_SOURCE, {"edge": CHAIN}, background=False, num_shards=2, fault_plan="none")
    try:
        engine.query("reach")
        engine.submit(inserts={"edge": [(6, 7)]}).result()
        full_reads.clear()
        engine.query("reach")
        assert full_reads == []  # an insert epoch: the incremental read
        install_plan(engine, "exchange:*:every=1:times=1000000")
        with pytest.raises(EpochAborted):
            engine.submit(inserts={"edge": [(7, 8)]}).result()
        install_plan(engine, "none")
        engine.submit(inserts={"edge": [(7, 8)]}).result()
        engine.query("reach")
        assert full_reads == ["reach", "reach"]  # one download per shard
        assert_reads_canonical(engine)
    finally:
        engine.close()


def test_a_symbol_edge_widens_the_read_mark():
    """An interned symbol id does not fit a narrow key: the read after it
    re-packs the read mark's keys wide, still without a download, and the
    snapshots stay the whole relation sorted afresh."""
    engine = ServingEngine(REACH_SOURCE, {"edge": CHAIN}, background=False, num_shards=1, fault_plan="none")
    try:
        assert_reads_canonical(engine)
        assert not is_wide_keys(engine._read_marks["reach"].keys)
        engine.submit(inserts={"edge": [(6, "seven")]}).result()
        start = transferred(engine)
        assert_reads_canonical(engine)
        assert transferred(engine) == start
        assert is_wide_keys(engine._read_marks["reach"].keys)
        engine.submit(inserts={"edge": [(8, 9)]}).result()
        assert_reads_canonical(engine)
        assert is_wide_keys(engine._read_marks["reach"].keys)
        assert (0, "seven") in set(engine.query("reach", decode=True))
    finally:
        engine.close()


@pytest.mark.parametrize(
    "edges, retracted",
    [
        # the cone is all small ids, the re-derived rows hold a symbol
        ([(0, 1), (1, 2), (0, 2), (2, 3), (5, "s"), ("s", 6)], [(0, 1)]),
        # the cone holds the symbol, the re-derived rows are all small ids
        ([(0, 1), (1, 2), (0, 2), (2, "s")], [(2, "s"), (1, 2)]),
    ],
)
def test_dred_membership_across_key_formats(edges, retracted):
    """DRed tests the re-derived rows against the deletion cone on keys of one
    format, whichever side needs wide keys."""
    engine = ServingEngine(REACH_SOURCE, {"edge": edges}, background=False, num_shards=1, fault_plan="none")
    remaining = [edge for edge in edges if edge not in retracted]
    fresh = ServingEngine(REACH_SOURCE, {"edge": remaining}, background=False, num_shards=1, fault_plan="none")
    try:
        result = engine.submit(retracts={"edge": retracted}).result()
        assert result.rederived.get("reach", 0) >= 1
        assert set(engine.query("reach", decode=True)) == set(fresh.query("reach", decode=True))
    finally:
        engine.close()
        fresh.close()
