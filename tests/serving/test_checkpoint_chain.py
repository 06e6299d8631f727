"""Durable checkpoints as a chain: a base, then segments of appended rows.

A serving engine persists each epoch as a segment holding only the rows the
epoch appended, kept as a run stack under HISA's absorb rule; the stores fold
a chain back into one ordinary checkpoint on load.  These tests hold that
design to three things: the folded chain is the live database after every
epoch, the chain stays logarithmic and restarts from a base whenever a
relation is re-initialized, and a crash at any fsync boundary recovers to an
acknowledged state.
"""

import math
import os
import shutil

import pytest

from repro.device import FaultPlan
from repro.errors import CheckpointError
from repro.queries import SG_SOURCE
from repro.relational import DiskCheckpointStore, InMemoryCheckpointStore
from repro.serving import DiskWal, InMemoryWal, ServingEngine

#: a binary tree of depth 3; every batch below hangs two leaves off a node
BASE = [(i, 2 * i + 1) for i in range(7)] + [(i, 2 * i + 2) for i in range(7)]


def leaves(node):
    return [(node, 2 * node + 1), (node, 2 * node + 2)]


#: (kind, inserts, retracts) in order: the retract and the rolled-back
#: epoch re-initialize relations; "pending" is acknowledged into the WAL,
#: the engine crashes, and recovery's catch-up epoch commits it
HISTORY = [
    ("insert", leaves(7), []),
    ("insert", leaves(8), []),
    ("retract", [], leaves(7)),
    ("rollback", leaves(9), []),
    ("pending", leaves(10), []),
    ("insert", leaves(11), []),
    ("insert", leaves(12), []),
]


def fresh_answers():
    """``sg`` of a fault-free engine after each prefix of the history."""
    engine = ServingEngine(SG_SOURCE, {"edge": BASE}, background=False, num_shards=1, fault_plan="none")
    try:
        answers = [engine.query("sg").rows.tobytes()]
        for _, inserts, retracts in HISTORY:
            engine.submit(inserts={"edge": inserts}, retracts={"edge": retracts}).result()
            answers.append(engine.query("sg").rows.tobytes())
        return answers
    finally:
        engine.close()


def run_history(open_parts, num_shards, on_ack):
    """Drive ``HISTORY`` through a durable engine; ``on_ack(engine, store,
    kind)`` runs after the bootstrap and after every acknowledged batch."""
    store, wal = open_parts()
    engine = ServingEngine(
        SG_SOURCE, {"edge": BASE}, background=False, num_shards=num_shards,
        fault_plan="none", checkpoint_store=store, wal=wal,
    )
    try:
        on_ack(engine, store, "bootstrap")
        for kind, inserts, retracts in HISTORY:
            if kind == "pending":
                engine.wal.append_batch({"edge": inserts}, {})
                engine.crash()
                store, wal = open_parts()
                engine = ServingEngine.recover(store, wal, background=False, fault_plan="none")
                on_ack(engine, store, kind)
                continue
            if kind == "rollback":
                plan = FaultPlan.parse("alloc:*:at=2:times=1")
                for device in engine.devices:
                    device.fault_plan = plan
            result = engine.submit(inserts={"edge": inserts}, retracts={"edge": retracts}).result()
            if kind == "rollback":
                assert result.attempts > 1
                for device in engine.devices:
                    device.fault_plan = None
            on_ack(engine, store, kind)
    finally:
        engine.close()


# ----------------------------------------------------------------------
# Invariants after every epoch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_shards", [1, 2])
@pytest.mark.parametrize("store_kind", ["memory", "disk"])
def test_chain_invariants_after_every_epoch(tmp_path, store_kind, num_shards):
    memory = (InMemoryCheckpointStore(), InMemoryWal())

    def open_parts():
        if store_kind == "memory":
            return memory
        return DiskCheckpointStore(str(tmp_path / "ckpt")), DiskWal(str(tmp_path / "wal.jsonl"))

    kinds_seen = []

    def check(engine, store, kind):
        head = store.list_ids()[-1]
        chain = store.chain(head)
        kinds_seen.append((kind, len(chain)))
        # The folded chain is the live database.
        folded = store.load(head)
        assert folded.parent == "" and folded.checkpoint_id == head
        for name, relation in engine.relations.items():
            assert {tuple(row) for row in folded.relation_rows(name).tolist()} == relation.as_set()
        # A run stack: every link more than twice its newer neighbour.
        rows = sum(relation.full_count for relation in engine.relations.values())
        assert len(chain) <= 1 + math.ceil(math.log2(rows))
        assert chain[0].parent == "" and all(link.parent for link in chain[1:])
        if kind in ("bootstrap", "retract", "rollback"):
            assert len(chain) == 1

    run_history(open_parts, num_shards, check)
    # Insert epochs after a base write segments on top of it.
    assert ("insert", 2) in kinds_seen


# ----------------------------------------------------------------------
# Every crash point: what was fsynced is what recovery gets
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_shards", [1, 2])
def test_every_fsync_prefix_recovers_an_acknowledged_state(tmp_path, monkeypatch, num_shards):
    live = tmp_path / "live"
    crashes: list[tuple[str, int]] = []
    synced: dict[int, int] = {}
    held: dict[int, int] = {}
    acked = 0
    real_fsync = os.fsync

    def crash_copy():
        """The directory as a machine that stopped now would find it: each
        file cut to the length it was last fsynced at (never: empty)."""
        target = str(tmp_path / f"crash-{len(crashes):03d}")
        shutil.copytree(live, target)
        for folder, _, names in os.walk(live):
            for name in names:
                source = os.path.join(folder, name)
                copy = os.path.join(target, os.path.relpath(source, live))
                os.truncate(copy, min(os.path.getsize(copy), synced.get(os.stat(source).st_ino, 0)))
        crashes.append((target, acked))

    def fsync(fd):
        crash_copy()  # a crash just before this fsync
        real_fsync(fd)
        status = os.fstat(fd)
        # Holding the file open keeps its inode from naming a later file.
        if status.st_ino not in held:
            held[status.st_ino] = os.dup(fd)
        synced[status.st_ino] = status.st_size

    def on_ack(engine, store, kind):
        nonlocal acked
        if kind != "bootstrap":
            acked += 1

    def open_parts():
        return DiskCheckpointStore(str(live / "ckpt")), DiskWal(str(live / "wal.jsonl"))

    monkeypatch.setattr(os, "fsync", fsync)
    try:
        run_history(open_parts, num_shards, on_ack)
        crash_copy()
    finally:
        monkeypatch.undo()
        for descriptor in held.values():
            os.close(descriptor)
    assert acked == len(HISTORY)

    answers = fresh_answers()
    for directory, acknowledged in crashes:
        try:
            engine = ServingEngine.recover(
                DiskCheckpointStore(os.path.join(directory, "ckpt")),
                DiskWal(os.path.join(directory, "wal.jsonl")),
                background=False,
                fault_plan="none",
            )
        except CheckpointError:
            # Only before the bootstrap base is durable: nothing was promised.
            assert acknowledged == 0
            continue
        try:
            recovered = engine.query("sg").rows.tobytes()
        finally:
            engine.close()
        assert recovered in answers[acknowledged : acknowledged + 2], (directory, acknowledged)


# ----------------------------------------------------------------------
# Regression: reopening a pruned disk store
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store_kind", ["memory", "disk"])
def test_recover_twice_after_pruning_loses_nothing(tmp_path, store_kind):
    """6 epochs, crash, recover, 4 more, crash, recover: a reopened disk
    store once numbered its next checkpoint by counting the survivors of
    ``keep=2`` pruning, so it sorted before them, ``latest`` returned a
    checkpoint the WAL had been compacted past, and four epochs vanished."""
    batches = [leaves(node) for node in range(7, 17)]
    memory = (InMemoryCheckpointStore(keep=2), InMemoryWal())

    def open_parts():
        if store_kind == "memory":
            return memory
        return DiskCheckpointStore(str(tmp_path / "ckpt"), keep=2), DiskWal(str(tmp_path / "wal.jsonl"))

    store, wal = open_parts()
    engine = ServingEngine(
        SG_SOURCE, {"edge": BASE}, background=False, num_shards=1, fault_plan="none",
        checkpoint_store=store, wal=wal,
    )
    for start, stop in ((0, 6), (6, 10)):
        for batch in batches[start:stop]:
            engine.submit(inserts={"edge": batch}).result()
        engine.crash()
        engine = ServingEngine.recover(*open_parts(), background=False, fault_plan="none")
    try:
        recovered = engine.query("sg").rows.tobytes()
    finally:
        engine.close()
    clean = ServingEngine(
        SG_SOURCE, {"edge": BASE + [edge for batch in batches for edge in batch]},
        background=False, num_shards=1, fault_plan="none",
    )
    try:
        assert recovered == clean.query("sg").rows.tobytes()
    finally:
        clean.close()
