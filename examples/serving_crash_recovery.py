#!/usr/bin/env python
"""Epoch-transactional serving: abort invisibly, crash, recover exactly.

A :class:`~repro.serving.ServingEngine` with a disk WAL and a disk
checkpoint store serves a stream of insert/retract epochs over 2 simulated
H100s while this script abuses it:

1. a few epochs commit normally (each one WAL-logged, committed with an
   fsync'd marker, and checkpointed at the epoch boundary — as a segment
   of the rows it appended, or as a new base once a retract re-initialized
   a relation);
2. a permanently faulty shard makes one epoch exhaust its retry ladder —
   the epoch aborts, state and snapshot versions roll back, and reads keep
   serving the last committed answer;
3. another batch is acknowledged into the WAL and the process "dies"
   (:meth:`~repro.serving.ServingEngine.crash` drops everything on the
   floor the way a real crash would, resolving nothing);
4. :meth:`~repro.serving.ServingEngine.recover` rebuilds the engine from
   the newest checkpoint, replays the committed WAL groups past its
   horizon, folds the acknowledged-but-uncommitted batch into a catch-up
   epoch, and resumes serving.

The recovered database must be byte-identical to a fault-free engine fed
the same acknowledged history — the script checks exactly that — and the
script ends by printing the checkpoint chain recovery would fold.
"""

import os
import tempfile

import numpy as np

from repro.device import FaultPlan
from repro.errors import EpochAborted
from repro.queries import REACH_SOURCE
from repro.relational import DiskCheckpointStore
from repro.serving import DiskWal, ServingEngine

NUM_SHARDS = 2
CHAIN = [(i, i + 1) for i in range(8)]


def snapshot_bytes(engine):
    return {name: engine.query(name).rows.tobytes() for name in ("edge", "reach")}


def print_chain(store):
    """The newest checkpoint's chain, base first: what recovery folds."""
    for link in store.chain(store.list_ids()[-1]):
        rows = sum(
            partition.full.shape[0]
            for state in link.relations.values()
            for partition in state.partitions
        )
        on_disk = sum(
            os.path.getsize(os.path.join(store.directory, link.checkpoint_id + suffix))
            for suffix in (".json", ".npz")
        )
        kind = "segment" if link.parent else "base"
        print(f"  {link.checkpoint_id}  {kind:7}  {rows:3d} rows  {on_disk:5d} bytes on disk")


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="serving-recovery-")
    wal_path = os.path.join(workdir, "wal.jsonl")
    store = DiskCheckpointStore(os.path.join(workdir, "checkpoints"), keep=2)

    engine = ServingEngine(
        REACH_SOURCE,
        {"edge": CHAIN},
        background=False,
        num_shards=NUM_SHARDS,
        fault_plan="none",
        wal=DiskWal(wal_path),
        checkpoint_store=store,
    )

    # 1. Normal committed epochs: logged, marked, checkpointed.
    engine.submit(inserts={"edge": [(8, 9)]}).result()
    engine.submit(retracts={"edge": [(3, 4)]}).result()
    print(
        f"committed {engine.epoch} epochs: |reach| = {engine.query('reach').count}, "
        f"health = {engine.health()}"
    )

    # 2. A permanent kernel fault aborts one epoch invisibly.
    versions_before = {n: engine.snapshot_version(n) for n in ("edge", "reach")}
    plan = FaultPlan.parse("kernel:*:every=1:times=1000000")
    for device in engine.devices:
        device.fault_plan = plan
    try:
        engine.submit(inserts={"edge": [(50, 51)]}).result()
        raise SystemExit("expected the permanent fault plan to abort the epoch")
    except EpochAborted as abort:
        print(
            f"epoch {abort.epoch} aborted after {abort.attempts} attempts; "
            f"health = {engine.health()}"
        )
    for device in engine.devices:
        device.fault_plan = None
    versions_after = {n: engine.snapshot_version(n) for n in ("edge", "reach")}
    print(f"  snapshot versions unchanged by the abort: {versions_before == versions_after}")

    # 3. Acknowledge one more batch straight into the WAL, then die.
    engine.wal.append_batch({"edge": [(9, 10)]}, {})
    expected_epoch = engine.epoch
    engine.crash()
    print(f"crashed at epoch {expected_epoch} with 1 acknowledged batch pending in the WAL")

    # 4. Recover from the durable artifacts alone.
    recovered = ServingEngine.recover(
        store,
        DiskWal(wal_path),
        background=False,
        fault_plan="none",
    )
    print(
        f"recovered to epoch {recovered.epoch} "
        f"(replayed WAL + 1 catch-up epoch), health = {recovered.health()}"
    )

    # Equivalence: a fault-free engine fed the same acknowledged history.
    clean = ServingEngine(
        REACH_SOURCE,
        {"edge": CHAIN},
        background=False,
        num_shards=NUM_SHARDS,
        fault_plan="none",
    )
    clean.submit(inserts={"edge": [(8, 9)]}).result()
    clean.submit(retracts={"edge": [(3, 4)]}).result()
    clean.submit(inserts={"edge": [(9, 10)]}).result()
    identical = snapshot_bytes(recovered) == snapshot_bytes(clean)
    print(f"recovered snapshots byte-identical to the fault-free history: {identical}")
    assert identical

    # The recovered engine keeps serving.
    result = recovered.submit(inserts={"edge": [(10, 11)]}).result()
    reach = recovered.query("reach").rows
    longest = int(np.max(reach[:, 1] - reach[:, 0]))
    print(
        f"post-recovery epoch {result.epoch} committed: |reach| = {reach.shape[0]}, "
        f"longest path spans {longest} nodes"
    )
    # That epoch added about as many rows as the chain held, so it absorbed
    # the chain into a new base.  Smaller epochs persist only the rows they
    # append, as segments stacked on top.
    recovered.submit(inserts={"edge": [(100 + 2 * i, 101 + 2 * i) for i in range(4)]}).result()
    recovered.submit(inserts={"edge": [(200, 201)]}).result()
    print("checkpoint chain after two small epochs (base first):")
    print_chain(store)

    clean.close()
    recovered.close()


if __name__ == "__main__":
    main()
