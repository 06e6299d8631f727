"""The commit record as a chain: a base, then segments of appended rows.

A serving engine records each committed epoch as a segment holding only the
rows the epoch appended, kept in memory as a run stack under HISA's absorb
rule; that chain is its rollback target, and a checkpoint store receives its
links and folds them back into one ordinary checkpoint on load.  These tests
hold that design to three things: the folded chain — in memory and durable —
is the live database after every epoch, the chain stays logarithmic and
restarts from a base whenever a relation is re-initialized, and a crash at
any fsync boundary recovers to an acknowledged state.
"""

import math
import os

import pytest

from repro.device import FaultPlan
from repro.errors import CheckpointError
from repro.queries import SG_SOURCE
from repro.relational import DiskCheckpointStore, InMemoryCheckpointStore
from repro.relational.checkpoint import fold_chain
from repro.serving import DiskWal, InMemoryWal, ServingEngine
from tests.helpers import CrashCopies

#: a binary tree of depth 3; every batch below hangs two leaves off a node
BASE = [(i, 2 * i + 1) for i in range(7)] + [(i, 2 * i + 2) for i in range(7)]


def leaves(node):
    return [(node, 2 * node + 1), (node, 2 * node + 2)]


#: (kind, inserts, retracts) in order: the retract and the rolled-back
#: epochs re-initialize relations ("exchange" is an exchange fault, whose
#: rollback rebuilds the crashed shard, on 2 shards, and a plain insert on
#: 1); "pending" is acknowledged into the WAL, the engine crashes, and
#: recovery's catch-up epoch commits it (a plain insert with no WAL)
HISTORY = [
    ("insert", leaves(7), []),
    ("insert", leaves(8), []),
    ("retract", [], leaves(7)),
    ("rollback", leaves(9), []),
    ("exchange", leaves(13), []),
    ("pending", leaves(10), []),
    ("insert", leaves(11), []),
    ("insert", leaves(12), []),
]

#: the fault each rolled-back kind injects after the bootstrap, by shard count
FAULTS = {
    ("rollback", 1): "alloc:*:at=2:times=1",
    ("rollback", 2): "alloc:*:at=2:times=1",
    ("exchange", 2): "exchange:*:at=1:times=1",
}


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
            if kind == "pending" and wal is not None:
                engine.wal.append_batch({"edge": inserts}, {})
                engine.crash()
                store, wal = open_parts()
                engine = ServingEngine.recover(store, wal, background=False, fault_plan="none")
                on_ack(engine, store, kind)
                continue
            fault = FAULTS.get((kind, num_shards))
            if fault:
                plan = FaultPlan.parse(fault)
                for device in engine.devices:
                    device.fault_plan = plan
            result = engine.submit(inserts={"edge": inserts}, retracts={"edge": retracts}).result()
            if fault:
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
@pytest.mark.parametrize("store_kind", ["none", "memory", "disk"])
def test_chain_invariants_after_every_epoch(tmp_path, store_kind, num_shards):
    memory = (InMemoryCheckpointStore(), InMemoryWal())

    def open_parts():
        if store_kind == "none":
            return None, None
        if store_kind == "memory":
            return memory
        return DiskCheckpointStore(str(tmp_path / "ckpt")), DiskWal(str(tmp_path / "wal.jsonl"))

    kinds_seen = []

    def check(engine, store, kind):
        chains = {"in memory": [link.checkpoint for link in engine._chain]}
        if store is not None:
            head = store.list_ids()[-1]
            chains["durable"] = store.chain(head)
            folded = store.load(head)
            assert folded.parent == "" and folded.checkpoint_id == head
            assert chains["durable"][0].parent == "" and all(link.parent for link in chains["durable"][1:])
        rows = sum(relation.full_count for relation in engine.relations.values())
        for where, chain in chains.items():
            kinds_seen.append((where, kind, len(chain)))
            # The folded chain is the live database.
            folded = fold_chain(chain)
            for name, relation in engine.relations.items():
                assert {tuple(row) for row in folded.relation_rows(name).tolist()} == relation.as_set(), where
            # A run stack: every link more than twice its newer neighbour.
            assert len(chain) <= 1 + math.ceil(math.log2(rows)), where
            if kind in ("bootstrap", "retract") or (kind, num_shards) in FAULTS:
                assert len(chain) == 1, where

    run_history(open_parts, num_shards, check)
    # Insert epochs after a base add segments on top of it, in memory and in
    # the store (which writes each epoch's rows, not the whole fold).
    assert ("in memory", "insert", 2) in kinds_seen
    if store_kind != "none":
        assert ("durable", "insert", 2) in kinds_seen


# ----------------------------------------------------------------------
# Every crash point: what was fsynced is what recovery gets
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_shards", [1, 2])
def test_every_fsync_prefix_recovers_an_acknowledged_state(tmp_path, monkeypatch, num_shards):
    live = tmp_path / "live"
    acked = 0
    crashes = CrashCopies(live, tmp_path, tag=lambda: acked)

    def on_ack(engine, store, kind):
        nonlocal acked
        if kind != "bootstrap":
            acked += 1

    def open_parts():
        return DiskCheckpointStore(str(live / "ckpt")), DiskWal(str(live / "wal.jsonl"))

    with crashes.at_every_fsync(monkeypatch):
        run_history(open_parts, num_shards, on_ack)
        crashes.take()
    assert acked == len(HISTORY)

    answers = fresh_answers()
    for directory, acknowledged, _ in crashes.copies:
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
