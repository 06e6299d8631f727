"""Crash recovery: checkpoint + WAL replay back to the pre-crash state.

The recovery contract mirrors ARIES in miniature.  A live engine leaves two
durable artifacts behind:

* the **checkpoint store** — the engine's commit record, one link per
  commit: a base, then segments of the full rows each epoch appended, plus
  serving metadata (epoch counter, snapshot versions, symbol table, WAL
  horizon), and
* the **write-ahead log** — every acknowledged ``submit()`` batch, commit
  markers naming the batches each epoch folded in, and abort markers for
  batches that will never commit (rolled-back epochs, shed batches).

:func:`recover_engine` stitches them back together:

1. load the newest checkpoint — the store folds its base and segments into
   one — and rebuild a :class:`ServingEngine` around it (program re-parsed
   from the interned source, symbol table restored, relations restored
   shard by shard, bootstrap skipped); the loaded chain becomes the bottom
   link of the engine's in-memory commit record;
2. **redo**: replay each committed WAL group past the checkpoint's horizon
   as its own epoch, preserving the crashed engine's epoch boundaries — the
   delta fixpoint is deterministic, so the replayed database (and its
   per-relation version counters) matches the pre-crash one exactly;
3. **catch up**: fold every acknowledged-but-uncommitted batch into one
   final epoch that earns a fresh commit marker — those submitters held
   tickets, so their writes must survive;  aborted batches are skipped (the
   crashed engine told those submitters their epoch failed);
4. replayed epochs extend only the in-memory record; if anything was
   replayed, everything above the newest durable link is written as one
   checkpoint (a segment, unless a replayed retract re-initialized a
   relation) and the WAL is compacted behind it; then start the background
   worker.  Nothing replayed, nothing written.

The engine reports ``recovering`` health for the duration and returns to
``healthy`` once the final checkpoint lands.
"""

from __future__ import annotations

from ..datalog.ast import Program
from ..errors import CheckpointError
from ..relational.checkpoint import CheckpointStore
from .engine import HEALTH_HEALTHY, HEALTH_RECOVERING, ServingEngine
from .wal import WriteAheadLog

__all__ = ["recover_engine"]


def recover_engine(
    store: CheckpointStore,
    wal: "WriteAheadLog | None" = None,
    **engine_kwargs,
) -> ServingEngine:
    """Rebuild a :class:`ServingEngine` from its durable artifacts.

    ``engine_kwargs`` pass through to the engine constructor (device preset,
    ``background``, admission settings, ...).  The program, shard count, and
    planner always come from the checkpoint — they define the state being
    restored and are not overridable.
    """
    checkpoint = store.latest()
    if checkpoint is None:
        raise CheckpointError("checkpoint store holds no serving checkpoint to recover from")
    meta = (checkpoint.metadata or {}).get("serving")
    if not meta:
        raise CheckpointError(
            f"checkpoint {checkpoint.checkpoint_id!r} carries no serving metadata; "
            "it was not written by a ServingEngine"
        )
    for forbidden in ("num_shards", "planner"):
        if forbidden in engine_kwargs:
            raise CheckpointError(
                f"{forbidden!r} is defined by the checkpoint and cannot be overridden "
                "during recovery"
            )
    program = Program.parse(
        checkpoint.program_source, name=checkpoint.program_name or "serving"
    )
    engine = ServingEngine(
        program,
        None,
        num_shards=int(meta.get("num_shards", checkpoint.num_shards)),
        planner=str(meta.get("planner")) if meta.get("planner") else None,
        wal=wal,
        checkpoint_store=store,
        _restore=checkpoint,
        **engine_kwargs,
    )
    engine._health = HEALTH_RECOVERING
    try:
        _replay_wal(engine, wal)
    except BaseException:
        engine.crash()
        raise
    engine._health = HEALTH_HEALTHY
    engine._start_worker()
    return engine


def _replay_wal(engine: ServingEngine, wal: "WriteAheadLog | None") -> None:
    """Redo committed groups, then one catch-up epoch for pending batches."""
    if wal is not None:
        covered = max(engine._committed_seq, wal.covered_seq())
        for _epoch, batches in wal.committed_groups(after_seq=covered):
            engine._apply_replay(batches, commit=False)
        pending = wal.pending_batches()
        if pending:
            engine._apply_replay(pending, commit=True)
    # A checkpoint makes the replayed epochs durable immediately — a second
    # crash before the first new epoch must not replay the log again from
    # the stale horizon.  It writes nothing when nothing was replayed, or
    # when the catch-up epoch already checkpointed.
    if engine.checkpoint_store is not None:
        engine._save_serving_checkpoint()
