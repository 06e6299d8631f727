"""Write-ahead-log unit tests: markers, queries, compaction, durability."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WalError
from repro.serving import DiskWal, InMemoryWal, WalBatch


def make_batch_log(wal):
    """Three batches: #1 committed, #2 aborted, #3 pending."""
    s1 = wal.append_batch({"edge": [(1, 2)]}, {}, symbols=[("a", 1 << 40)])
    s2 = wal.append_batch({"edge": [(3, 4)]}, {"edge": [(0, 1)]})
    s3 = wal.append_batch({}, {"edge": [(5, 6)]})
    wal.append_commit(7, [s1])
    wal.append_abort([s2], reason="epoch-aborted: injected")
    return s1, s2, s3


def test_sequences_are_dense_and_one_based():
    wal = InMemoryWal()
    assert wal.last_seq() == 0
    assert wal.append_batch({"e": [(1,)]}, {}) == 1
    assert wal.append_batch({"e": [(2,)]}, {}) == 2
    assert wal.last_seq() == 2


def test_pending_excludes_committed_and_aborted():
    wal = InMemoryWal()
    s1, s2, s3 = make_batch_log(wal)
    pending = wal.pending_batches()
    assert [batch.seq for batch in pending] == [s3]
    assert {name: rows.tolist() for name, rows in pending[0].retracts.items()} == {"edge": [[5, 6]]}
    assert wal.aborted_seqs() == {s2}
    assert wal.resolved_seqs() == {s1, s2}


def test_committed_groups_preserve_epoch_boundaries():
    wal = InMemoryWal()
    s1 = wal.append_batch({"e": [(1,)]}, {})
    s2 = wal.append_batch({"e": [(2,)]}, {})
    s3 = wal.append_batch({"e": [(3,)]}, {})
    wal.append_commit(1, [s1])
    wal.append_commit(2, [s2, s3])
    groups = wal.committed_groups()
    assert [(epoch, [b.seq for b in batches]) for epoch, batches in groups] == [
        (1, [s1]),
        (2, [s2, s3]),
    ]
    # after_seq drops groups entirely behind the horizon
    assert [epoch for epoch, _ in wal.committed_groups(after_seq=s1)] == [2]


def test_batch_round_trips_symbols_and_rows():
    wal = InMemoryWal()
    wal.append_batch(
        {"edge": [(1, 2), (3, 4)]},
        {"edge": [(5, 6)]},
        symbols=[("alice", (1 << 40) + 1)],
    )
    batch = wal.pending_batches()[0]
    assert isinstance(batch, WalBatch)
    assert batch.inserts["edge"].dtype == np.int64
    assert {name: rows.tolist() for name, rows in batch.inserts.items()} == {"edge": [[1, 2], [3, 4]]}
    assert {name: rows.tolist() for name, rows in batch.retracts.items()} == {"edge": [[5, 6]]}
    assert batch.symbols == (("alice", (1 << 40) + 1),)
    assert batch.mutation_count == 3


def test_markers_validate_their_seqs():
    wal = InMemoryWal()
    wal.append_batch({"e": [(1,)]}, {})
    with pytest.raises(WalError):
        wal.append_commit(1, [])
    with pytest.raises(WalError):
        wal.append_commit(1, [99])
    with pytest.raises(WalError):
        wal.append_abort([2])


def test_compact_drops_covered_records_and_keeps_horizon():
    wal = InMemoryWal()
    s1, s2, s3 = make_batch_log(wal)
    wal.append_checkpoint(7, s2, checkpoint_id="ckpt-1")
    wal.compact(s2)
    assert wal.covered_seq() == s2
    # the pending batch survives, the settled ones are gone
    assert [batch.seq for batch in wal.pending_batches()] == [s3]
    assert wal.committed_groups(after_seq=wal.covered_seq()) == []
    kinds = [record["type"] for record in wal.records()]
    assert "checkpoint" in kinds


@pytest.mark.parametrize("reopen", [False, True])
def test_sequences_continue_past_a_compaction_that_dropped_every_batch(tmp_path, reopen):
    """Numbering once restarted at 1 behind a compaction that left no batch
    record, so the next epoch's group hid behind the checkpoint horizon and a
    crash before the next checkpoint lost it."""
    path = str(tmp_path / "wal.jsonl")
    wal = DiskWal(path)
    s1 = wal.append_batch({"e": [(1,)]}, {})
    wal.append_commit(1, [s1])
    wal.append_checkpoint(1, s1)
    wal.compact(s1)
    if reopen:
        wal.close()
        wal = DiskWal(path)
    s2 = wal.append_batch({"e": [(2,)]}, {})
    wal.append_commit(2, [s2])
    assert s2 == s1 + 1
    assert [epoch for epoch, _ in wal.committed_groups(after_seq=wal.covered_seq())] == [2]
    wal.close()


def test_committed_group_past_compaction_horizon_is_an_error():
    wal = InMemoryWal()
    s1 = wal.append_batch({"e": [(1,)]}, {})
    s2 = wal.append_batch({"e": [(2,)]}, {})
    wal.append_commit(1, [s1, s2])
    # Force an inconsistent ask: the group is half-covered by the horizon.
    wal._records = [r for r in wal._records if r.get("seq") != s1]
    with pytest.raises(WalError):
        wal.committed_groups(after_seq=0)


def test_disk_wal_survives_reopen(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    wal = DiskWal(path)
    s1, s2, s3 = make_batch_log(wal)
    wal.close()
    reopened = DiskWal(path)
    assert reopened.last_seq() == s3
    assert [batch.seq for batch in reopened.pending_batches()] == [s3]
    assert reopened.aborted_seqs() == {s2}
    assert reopened.committed_groups()[0][0] == 7
    # symbol entries round-trip through JSON
    assert reopened.committed_groups()[0][1][0].symbols == (("a", 1 << 40),)
    reopened.close()


def test_disk_wal_fsyncs_on_markers_not_batches(tmp_path):
    wal = DiskWal(str(tmp_path / "wal.jsonl"))
    wal.append_batch({"e": [(1,)]}, {})
    assert wal.syncs == 0
    wal.append_commit(1, [1])
    assert wal.syncs == 1
    assert wal.commits == 1
    wal.close()


def test_disk_wal_discards_torn_tail(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    wal = DiskWal(path)
    wal.append_batch({"e": [(1,)]}, {})
    wal.append_commit(1, [1])
    wal.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"type": "batch", "seq": 2, "ins')  # crash mid-append
    reopened = DiskWal(path)
    assert reopened.last_seq() == 1
    assert reopened.pending_batches() == []
    reopened.close()


def test_disk_wal_compact_rewrites_file(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    wal = DiskWal(path)
    s1, s2, s3 = make_batch_log(wal)
    wal.compact(s2)
    wal.append_batch({"e": [(9,)]}, {})  # the handle survives the rewrite
    wal.close()
    with open(path, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    seqs = [r["seq"] for r in records if r["type"] == "batch"]
    assert seqs == [s3, s3 + 1]
    reopened = DiskWal(path)
    assert reopened.covered_seq() == s2
    assert reopened.last_seq() == s3 + 1
    reopened.close()


def test_closed_disk_wal_rejects_appends(tmp_path):
    wal = DiskWal(str(tmp_path / "wal.jsonl"))
    wal.close()
    with pytest.raises(WalError):
        wal.append_batch({"e": [(1,)]}, {})


rows_strategy = st.lists(
    st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=4
)
batch_strategy = st.tuples(rows_strategy, rows_strategy)


@given(
    batches=st.lists(batch_strategy, min_size=1, max_size=8),
    commit_mask=st.lists(st.sampled_from(["commit", "abort", "pending"]), min_size=8, max_size=8),
)
@settings(max_examples=25, deadline=None)
def test_wal_replay_round_trip(tmp_path_factory, batches, commit_mask):
    """Disk replay sees exactly the pending/committed partition it wrote."""
    path = str(tmp_path_factory.mktemp("wal") / "wal.jsonl")
    wal = DiskWal(path)
    expected_pending, expected_groups = [], []
    for index, (ins, rets) in enumerate(batches):
        seq = wal.append_batch({"edge": list(ins)}, {"edge": list(rets)})
        fate = commit_mask[index % len(commit_mask)]
        if fate == "commit":
            wal.append_commit(index + 1, [seq])
            expected_groups.append((index + 1, seq))
        elif fate == "abort":
            wal.append_abort([seq], reason="test")
        else:
            expected_pending.append(seq)
    wal.close()
    reopened = DiskWal(path)
    assert [b.seq for b in reopened.pending_batches()] == expected_pending
    groups = [(epoch, batch.seq) for epoch, group in reopened.committed_groups() for batch in group]
    assert groups == expected_groups
    for epoch, group in reopened.committed_groups():
        for batch in group:
            ins, rets = batches[batch.seq - 1]
            assert batch.inserts["edge"].tolist() == [list(r) for r in ins]
            assert batch.retracts["edge"].tolist() == [list(r) for r in rets]
    reopened.close()


def test_appends_racing_a_compaction_are_all_kept():
    """Submitters append batch records while the epoch worker appends markers
    and compacts: no record appended mid-compaction may vanish with the list
    compaction replaces, and no sequence number may be handed out twice."""
    import sys
    import threading

    wal = InMemoryWal()
    seqs: list[int] = []
    errors: list[BaseException] = []
    done = threading.Event()

    def submitter():
        try:
            for _ in range(300):
                seqs.append(wal.append_batch({"edge": [(1, 2)]}, {}))
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    def worker():
        try:
            while not done.is_set():
                wal.append_checkpoint(0, 0)
                wal.compact(0)  # drops no batch, but rebuilds the record list
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    submitters = [threading.Thread(target=submitter) for _ in range(4)]
    compactor = threading.Thread(target=worker)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        compactor.start()
        for thread in submitters:
            thread.start()
        for thread in submitters:
            thread.join(timeout=60)
        done.set()
        compactor.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in [*submitters, compactor]) and errors == []
    assert sorted(seqs) == list(range(1, 4 * 300 + 1))
    assert sorted(batch.seq for batch in wal.pending_batches()) == sorted(seqs)
