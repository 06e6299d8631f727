"""Long-lived serving engine: differential fixpoints over resident relations.

Every batch-engine run is one-shot: load facts, run the fixpoint, download
results, free everything.  A client that inserts ten facts into a loaded
database re-derives the whole IDB from scratch — throwing away exactly the
O(Δ) semi-naïve machinery the evaluator is built on.  :class:`ServingEngine`
keeps the machinery *resident*:

* the program is compiled once through the shared
  :class:`~repro.serving.cache.ProgramCache` (keyed by rule-set hash), which
  also precompiles the *epoch version set* — one delta version per rule per
  body atom, EDB atoms included — and one full re-derive version per rule;
* per-relation HISA state stays on the simulated device across requests;
* :meth:`submit` enqueues insertions/retractions and returns a ticket; all
  mutations pending when an epoch starts are **coalesced** into one epoch
  (last-writer-wins per tuple), which runs semi-naïve **from the injected
  delta only** via the evaluator's ``delta_fixpoint`` entry point;
* retractions run **DRed** (delete-and-re-derive): over-delete the deletion
  cone with delta versions shadow-seeded from the retract set, apply the
  deletions with retraction-aware index rebuilds, re-derive survivors with
  the full versions, then propagate re-insertions through the same delta
  fixpoint as ordinary inserts;
* :meth:`query` reads per-relation **versioned snapshots**
  (:mod:`repro.serving.snapshot`): immutable canonical copies, materialized
  lazily — a commit only bumps the changed relations' versions, and the
  first query of a stale relation merges the rows appended since the
  previous snapshot, taken from the commit record, into it.  Repeat reads
  of an unchanged relation never block on in-flight epochs.

Charged-cost boundaries are unchanged from the batch engine: seed rows and
retract probes pay H2D, the commit step and a full snapshot build pay D2H
(outside the epoch's latency, which prices the maintenance), and every
kernel an epoch launches (joins, merges, retraction rebuilds, shard
exchanges) goes through the same cost model — epoch latencies in simulated
seconds are directly comparable to a full re-fixpoint of the same program.

Epochs are **transactions**, and the engine keeps one record of the last
committed state: its *commit record*, a chain of host links — a base, then
per commit a segment of the full rows the epoch appended — kept as a run
stack under HISA's absorb rule.  Each commit step downloads only the rows
past the top link's per-shard marks (charged under the checkpoint phase,
outside the epoch's latency).  A fault inside an epoch (kernel fault,
injected OOM, exchange error or shard crash, all scriptable via
:class:`~repro.device.faults.FaultPlan`) first rides the evaluator's own
retry/backoff ladder and then, at the serving layer, triggers whole-epoch
rollback — every relation restored from the folded record — and replay.
When the epoch retry budget is also exhausted the epoch **aborts**: state
and snapshot versions roll back to the last commit, only that epoch's
tickets fail (with :class:`~repro.errors.EpochAborted`), and reads keep
serving the pre-epoch snapshots.  With a
:class:`~repro.serving.wal.WriteAheadLog` every submission is logged before
its ticket is returned and every commit writes a durable marker; a
:class:`~repro.relational.checkpoint.CheckpointStore` receives each new link
as a checkpoint, and :meth:`ServingEngine.recover` rebuilds a crashed engine
to the exact pre-crash state (checkpoint + committed-group replay + one
catch-up epoch for acknowledged-but-uncommitted batches).  A bounded mutation queue
(``max_pending`` + ``block``/``reject``/``shed-oldest`` policies), a health
state machine (``healthy → degraded → recovering``), and backlog-widened
coalescing windows keep the engine graceful under overload.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from ..backend import host_rows_to_tuples
from ..datalog.ast import Program
from ..datalog.engine import DecodedRelation, FactValue, GPULogEngine, intern_program
from ..datalog.planner import RuleVersion
from ..device.spec import DeviceSpec
from ..errors import (
    AdmissionRejected,
    CheckpointError,
    DeviceError,
    EngineClosed,
    EpochAborted,
    ExchangeError,
    FixpointInterrupted,
    SchemaError,
)
from ..relational.checkpoint import CheckpointStore, EvaluationCheckpoint, fold_chain
from ..relational.hisa import first_absorbed
from .cache import DEFAULT_PROGRAM_CACHE, CompiledProgram, ProgramCache
from .snapshot import RelationSnapshot, SnapshotTable, canonical_rows, keys_alongside, merge_rows, row_keys
from .wal import WalBatch, WriteAheadLog

__all__ = ["ADMISSION_POLICIES", "EpochResult", "EpochTicket", "ServingEngine"]

#: Admission policies for a bounded mutation queue (``max_pending``):
#: ``block`` waits for space (until ``admission_timeout``), ``reject`` raises
#: :class:`AdmissionRejected` immediately, ``shed-oldest`` drops the oldest
#: queued batch (failing its ticket) to admit the newcomer.
ADMISSION_POLICIES = ("block", "reject", "shed-oldest")

#: Health states: ``healthy`` (committing normally), ``degraded`` (backlog at
#: or above the overload threshold, shedding, or a recent abort), and
#: ``recovering`` (mid rollback/replay, or replaying a WAL after a crash).
HEALTH_HEALTHY = "healthy"
HEALTH_DEGRADED = "degraded"
HEALTH_RECOVERING = "recovering"

FactRows = Iterable[Sequence[FactValue]]


@dataclass(frozen=True)
class EpochResult:
    """What one committed epoch did, in counts and charged time."""

    #: epoch number (1-based; 0 is the bootstrap fixpoint)
    epoch: int
    #: submissions coalesced into this epoch
    coalesced: int
    #: delta-fixpoint iterations the epoch ran (0 = every seed already known)
    iterations: int
    #: seed rows injected per relation (client inserts + DRed re-derivations)
    inserted: dict[str, int] = field(default_factory=dict)
    #: rows actually removed per relation, cascaded deletions included
    retracted: dict[str, int] = field(default_factory=dict)
    #: over-deleted rows that survived DRed re-derivation, per relation
    rederived: dict[str, int] = field(default_factory=dict)
    #: simulated seconds the epoch charged (max over shard devices), less the
    #: commit step's D2H, so that it prices only the maintenance
    simulated_seconds: float = 0.0
    #: host wall-clock seconds the epoch took
    host_seconds: float = 0.0
    #: snapshot versions this epoch published (changed relations only)
    snapshot_versions: dict[str, int] = field(default_factory=dict)
    #: whole-epoch attempts the transaction ladder needed (1 = no fault)
    attempts: int = 1
    #: engine health at commit time (``healthy`` / ``degraded``)
    health: str = HEALTH_HEALTHY

    @property
    def changed_relations(self) -> tuple[str, ...]:
        return tuple(sorted(self.snapshot_versions))


class EpochTicket:
    """Handle returned by :meth:`ServingEngine.submit`.

    Resolves to the :class:`EpochResult` of the epoch that committed the
    submission (several tickets share one result when their submissions
    coalesce).  In synchronous engines (``background=False``) calling
    :meth:`result` flushes pending mutations first, so a ticket never
    deadlocks waiting for a worker that does not exist.
    """

    def __init__(self, engine: "ServingEngine", future: "Future[EpochResult]") -> None:
        self._engine = engine
        self._future = future

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: float | None = None) -> EpochResult:
        if not self._future.done() and not self._engine.background:
            self._engine.flush()
        return self._future.result(timeout)


@dataclass
class _Mutation:
    inserts: dict[str, list[tuple[int, ...]]]
    retracts: dict[str, list[tuple[int, ...]]]
    future: "Future[EpochResult]"
    #: write-ahead-log sequence number (0 = engine runs without a WAL)
    seq: int = 0


class _Uncoalesce(Exception):
    """A coalesced epoch failed without a device fault and rolled back: its
    submissions are to be run one per epoch (:meth:`ServingEngine._commit`)."""


@dataclass(frozen=True)
class _ChainLink:
    """One link of the commit record: a base, or a segment of appended rows."""

    #: per relation and shard, the full rows appended past the link below
    #: (every row, in a base); its ``checkpoint_id`` is set, and its symbol
    #: entries filled in, once a checkpoint store holds it
    checkpoint: EvaluationCheckpoint
    #: per relation, the ``append_marks()`` the link ends at
    marks: dict[str, list[tuple[int, int]]]

    @property
    def rows(self) -> int:
        """Full rows the link holds itself: the size the absorb rule compares."""
        return sum(
            partition.full.shape[0]
            for state in self.checkpoint.relations.values()
            for partition in state.partitions
        )


@dataclass(frozen=True)
class _ReadMark:
    """Where a relation stood when its newest snapshot was built."""

    snapshot: RelationSnapshot
    #: the commit record's marks for the relation at that moment: per shard,
    #: the generation and full row count the snapshot's rows are made of
    marks: list[tuple[int, int]]
    #: ``row_keys(snapshot.rows)``, wide for good once an appended row did not
    #: fit narrow keys: what the next read's merge searches
    keys: np.ndarray


class ServingEngine:
    """A resident GPU Datalog database with incremental epochs and snapshots."""

    #: whole-epoch replays the transaction ladder makes before it aborts
    epoch_retries = 2

    def __init__(
        self,
        program: Union[Program, str],
        facts: Mapping[str, FactRows] | None = None,
        *,
        device: Union[DeviceSpec, str] = "h100",
        num_shards: int | None = None,
        planner: str | None = None,
        backend: "str | None" = None,
        cache: ProgramCache | None = None,
        background: bool = True,
        fault_plan: "str | None" = None,
        wal: WriteAheadLog | None = None,
        checkpoint_store: CheckpointStore | None = None,
        max_pending: int | None = None,
        admission_policy: str = "block",
        admission_timeout: float | None = None,
        overload_threshold: int | None = None,
        coalesce_window: float = 0.0,
        max_coalesce_window: float = 0.05,
        _restore: EvaluationCheckpoint | None = None,
    ) -> None:
        if isinstance(program, str):
            program = Program.parse(program, name="serving")
        if admission_policy not in ADMISSION_POLICIES:
            raise SchemaError(
                f"unknown admission policy {admission_policy!r}; "
                f"expected one of {', '.join(ADMISSION_POLICIES)}"
            )
        if max_pending is not None and int(max_pending) < 1:
            raise SchemaError(f"max_pending must be >= 1, got {max_pending}")
        self.background = bool(background)
        self.cache = cache if cache is not None else DEFAULT_PROGRAM_CACHE

        # Durability / admission configuration.
        self.wal = wal
        self.checkpoint_store = checkpoint_store
        self.max_pending = None if max_pending is None else int(max_pending)
        self.admission_policy = admission_policy
        self.admission_timeout = None if admission_timeout is None else float(admission_timeout)
        self.overload_threshold = None if overload_threshold is None else int(overload_threshold)
        self.coalesce_window = float(coalesce_window)
        self.max_coalesce_window = float(max_coalesce_window)
        #: epochs the transaction ladder aborted (state rolled back)
        self.epoch_aborts = 0
        #: batches dropped by the ``shed-oldest`` admission policy
        self.shed_batches = 0
        #: worker waits widened to ``max_coalesce_window`` under backlog
        self.widened_windows = 0
        self._health = HEALTH_HEALTHY
        self._replaying = False
        self._committed_seq = 0
        #: the commit record: every relation as of the last committed epoch,
        #: as host links kept as a run stack (base first) — the rollback
        #: target, and what a checkpoint store persists; durable links come
        #: first
        self._chain: list[_ChainLink] = []
        self.last_epoch: EpochResult | None = None
        self.snapshots = SnapshotTable()
        #: per relation, the newest snapshot's rows as the next read finds them
        self._read_marks: dict[str, _ReadMark] = {}

        # Mutation queue + optional background epoch worker.
        self._engine_lock = threading.RLock()
        self._queue = threading.Condition()
        self._encoding = threading.Lock()
        self._pending: list[_Mutation] = []
        self._inflight = False
        self._inflight_batch: list[_Mutation] | None = None
        self._closed = False
        self._worker: threading.Thread | None = None
        #: seconds close() waits for the worker before declaring it stuck
        self._close_join_timeout = 30.0

        #: the batch engine kept resident: it resolves shard count, planner,
        #: backend and fault plan (arguments, then the ``REPRO_*`` environment)
        #: and owns the devices, relations and symbol table (properties below)
        self._core = GPULogEngine(
            device, num_shards=num_shards, planner=planner, backend=backend, fault_plan=fault_plan
        )
        try:
            self._boot(program, facts, _restore)
        except BaseException:
            self._core.close()
            raise

    def _boot(
        self,
        program: Program,
        facts: Mapping[str, FactRows] | None,
        restore: EvaluationCheckpoint | None,
    ) -> None:
        """Compile, build and load through the batch engine; keep it all resident."""
        engine = self._core
        serving_meta: dict | None = None
        if restore is not None:
            serving_meta = (restore.metadata or {}).get("serving")
            if not serving_meta:
                raise CheckpointError(
                    "checkpoint carries no serving metadata; it was not written "
                    "by a ServingEngine"
                )
            # Restore the symbol table first: the interned program source and
            # every logged batch encode through these exact identifiers.  The
            # log's records count too, aborted ones included: each carries
            # the symbols interned since the record before it, which a later
            # batch may use without logging them again.
            self.symbols.restore_entries(restore.symbols)
            if self.wal is not None:
                self.symbols.restore_entries(self.wal.symbol_entries())

        # Compile (cached) and resolve the schema.
        self.program = intern_program(program, self.symbols)
        self.compiled: CompiledProgram = self.cache.get(self.program, planner=self.planner)
        for relation_name, rows in (facts or {}).items():
            if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu":
                engine.add_fact_array(relation_name, rows)
            else:
                engine.add_facts(relation_name, rows)
        #: symbols below this position are durable: in the checkpoint booted
        #: from (or the bootstrap's) or in a log record (see :meth:`submit`)
        self._logged_symbols = len(self.symbols)
        self._arities = engine._resolve_arities(self.program)
        if restore is not None:
            # Fact-only relations no rule mentions adopted their arity from
            # the original constructor facts; re-adopt from the checkpoint.
            for state in restore.relations.values():
                self._arities.setdefault(state.name, state.arity)

        # Resident relations carry *every* index any plan — bootstrap, epoch
        # delta versions, DRed full versions — will probe.  The plan is the
        # cached, data-independent one: no statistics.
        self._evaluator = engine._build(
            self.program, self.compiled.plan, self._arities, self.compiled.required_indexes
        )
        if restore is None:
            # Load the facts (the program's own and the constructor's), run
            # the bootstrap fixpoint, publish snapshot v1.
            idb_facts = engine._load_facts(self.program, self.compiled.analysis, {})
            engine.clear_facts()
            self._evaluator.evaluate(idb_facts)
            # Invariant: between epochs every delta is empty.  ``initialize``
            # leaves EDB deltas holding *all* rows (they are never end_iterated
            # by the bootstrap), which would make the first epoch re-join the
            # entire EDB as if it were new.
            for relation in self.relations.values():
                relation.clear_delta()
            self.epoch = 0
            # Snapshots are *lazy*: a commit only bumps the per-relation
            # version; the charged D2H download happens on the first query of
            # a changed relation.  Epoch latency therefore prices exactly the
            # incremental maintenance work, and relations nobody reads are
            # never downloaded.
            self._versions = {name: 1 for name in self.relations}
            self._changed_epoch = {name: 0 for name in self.relations}
            # Epoch-0 baseline: the state every first-epoch rollback (and
            # every recovery with no later checkpoint) returns to.
            self._record_commit(self.epoch)
            if self.checkpoint_store is not None:
                self._save_serving_checkpoint()
            self._start_worker()
            return

        # Recovery: no facts and no bootstrap fixpoint — each relation is
        # loaded from the checkpoint's (full, delta) partitions (``restore``
        # loads them as saved), and deltas are empty at an epoch boundary, so the
        # between-epoch invariant holds by construction.  The caller
        # (ServingEngine.recover) replays the WAL before starting the worker,
        # so replay epochs cannot interleave with fresh submissions.
        for relation_name, relation in self.relations.items():
            state = restore.relations.get(relation_name)
            if state is None:
                raise CheckpointError(
                    f"checkpoint {restore.checkpoint_id!r} is missing "
                    f"relation {relation_name!r}"
                )
            relation.restore(state)
        self._evaluator.exchange.invalidate()
        self.epoch = int(serving_meta.get("epoch", 0))
        self._versions = {
            str(k): int(v) for k, v in serving_meta.get("versions", {}).items()
        }
        self._changed_epoch = {
            str(k): int(v) for k, v in serving_meta.get("changed_epoch", {}).items()
        }
        for relation_name in self.relations:
            self._versions.setdefault(relation_name, 1)
            self._changed_epoch.setdefault(relation_name, 0)
        self._committed_seq = int(serving_meta.get("covered_seq", 0))
        # The loaded chain is the bottom link of the commit record: every row
        # the relations now hold is durable in it, nothing is downloaded.
        self._chain = [_ChainLink(restore, self._append_marks())]

    # The resident state lives in the batch engine; these are read-only views
    # of it (a shard rebuild swaps ``devices``, ``close`` empties ``relations``).
    devices = property(attrgetter("_core.devices"))
    device = property(attrgetter("_core.device"))
    relations = property(attrgetter("_core.relations"))
    symbols = property(attrgetter("_core.symbols"))
    num_shards = property(attrgetter("_core.num_shards"))
    planner = property(attrgetter("_core.planner"))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(
        self,
        inserts: Mapping[str, FactRows] | None = None,
        retracts: Mapping[str, FactRows] | None = None,
    ) -> EpochTicket:
        """Enqueue a mutation batch; returns a ticket for its epoch's result.

        Everything pending when the next epoch starts is coalesced into that
        one epoch.  Within an epoch the submissions' serial order is
        honoured per tuple (last writer wins): retract-then-insert nets to
        the row being present, insert-then-retract to absent.
        """
        # A batch that fails to encode leaves no string interned: the table
        # holds only strings of batches that encoded.  One submitter encodes
        # at a time, so its strings are the table's tail.
        with self._encoding:
            symbol_mark = len(self.symbols)
            try:
                encoded_inserts = {
                    relation_name: list(host_rows_to_tuples(self._encode_rows(relation_name, rows)))
                    for relation_name, rows in (inserts or {}).items()
                }
                encoded_retracts = {
                    relation_name: list(host_rows_to_tuples(self._encode_rows(relation_name, rows)))
                    for relation_name, rows in (retracts or {}).items()
                }
            except BaseException:
                self.symbols.truncate(symbol_mark)
                raise
        mutation = _Mutation(encoded_inserts, encoded_retracts, Future())
        deadline = (
            None
            if self.admission_timeout is None
            else time.monotonic() + self.admission_timeout
        )
        with self._queue:
            if self._closed:
                raise EngineClosed("serving engine is closed")
            while self.max_pending is not None and len(self._pending) >= self.max_pending:
                if self.admission_policy == "reject":
                    raise AdmissionRejected(
                        f"mutation queue is full ({len(self._pending)} pending, "
                        f"max_pending={self.max_pending})",
                        policy="reject",
                        pending=len(self._pending),
                    )
                if self.admission_policy == "shed-oldest":
                    shed = self._pending.pop(0)
                    self.shed_batches += 1
                    self._health = HEALTH_DEGRADED
                    if self.wal is not None and shed.seq:
                        self.wal.append_abort([shed.seq], reason="shed-oldest")
                    shed.future.set_exception(
                        AdmissionRejected(
                            "batch shed under backlog to admit newer work",
                            policy="shed-oldest",
                            pending=len(self._pending),
                        )
                    )
                    continue
                # block: wait for the worker to drain, up to the deadline
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise AdmissionRejected(
                        f"admission deadline ({self.admission_timeout:.3f}s) expired "
                        f"with {len(self._pending)} batches pending",
                        policy="block",
                        pending=len(self._pending),
                    )
                self._queue.wait(remaining)
                if self._closed:
                    raise EngineClosed("serving engine is closed")
            if self.wal is not None:
                # Logged *before* the ticket is returned: once the submitter
                # holds the ticket, the batch survives a process crash.  The
                # record carries every symbol interned since the last one, not
                # just this batch's: a refused batch keeps its strings
                # interned, and the next batch to use one logs nothing new.
                with self._encoding:
                    logged = len(self.symbols)
                    symbols = self.symbols.entries_from(self._logged_symbols)
                mutation.seq = self.wal.append_batch(mutation.inserts, mutation.retracts, symbols=symbols)
                self._logged_symbols = logged
            self._pending.append(mutation)
            self._queue.notify_all()
        return EpochTicket(self, mutation.future)

    def flush(self) -> None:
        """Block until every submission enqueued so far has committed.

        Synchronous engines run the pending epoch inline on the calling
        thread; background engines wait for the worker to drain the queue.
        """
        if self.background:
            with self._queue:
                while self._pending or self._inflight:
                    self._queue.wait()
            return
        while True:
            with self._queue:
                if not self._pending:
                    return
                batch, self._pending = self._pending, []
            self._commit(batch)

    def query(self, relation_name: str, *, decode: bool = False):
        """Read the newest committed snapshot of ``relation_name``.

        Returns the :class:`RelationSnapshot` (raw interned int64 rows in
        canonical order), or — with ``decode=True`` — a
        :class:`~repro.datalog.engine.DecodedRelation` over the snapshot's
        rows, the read-only sequence a batch result's ``relation(name)``
        returns: it decodes the tuples block by block as it is iterated.
        If the relation changed since it was last read, the first query
        merges in the rows appended since (and briefly synchronizes with
        the epoch worker); repeat reads of an unchanged relation return the
        cached immutable snapshot without blocking on in-flight epochs.
        """
        if relation_name not in self.relations:
            raise SchemaError(f"unknown relation {relation_name!r}")
        snapshot = self._materialize(relation_name)
        if not decode:
            return snapshot
        return DecodedRelation(snapshot.rows, self.symbols)

    def query_many(self, relation_names: list[str]) -> dict[str, RelationSnapshot]:
        """One consistent cut across several relations (single epoch boundary)."""
        for relation_name in relation_names:
            if relation_name not in self.relations:
                raise SchemaError(f"unknown relation {relation_name!r}")
        with self._engine_lock:
            return {name: self._materialize(name) for name in relation_names}

    def snapshot_version(self, relation_name: str) -> int:
        if relation_name not in self.relations:
            raise SchemaError(f"unknown relation {relation_name!r}")
        with self._engine_lock:
            return self._versions[relation_name]

    def relation_names(self) -> list[str]:
        return sorted(self.relations)

    def health(self) -> str:
        """Current health state: ``healthy``, ``degraded``, or ``recovering``."""
        return self._health

    @property
    def simulated_seconds(self) -> float:
        """Total simulated seconds charged so far (max over shard devices)."""
        return max(device.elapsed_seconds for device in self.devices)

    def close(self) -> None:
        """Stop the worker (committing nothing further) and free device state.

        Pending submissions fail with :class:`EngineClosed` (and are marked
        aborted in the WAL — the submitter was told they did not commit).  If
        the worker thread refuses to stop within 30 s the in-flight epoch's
        tickets are failed too and :class:`EngineClosed` is raised rather
        than silently leaking a live thread over freed device state.
        """
        with self._queue:
            if self._closed:
                return
            self._closed = True
            pending, self._pending = self._pending, []
            self._queue.notify_all()
        closed_error = EngineClosed("serving engine closed before this batch committed")
        for mutation in pending:
            if not mutation.future.done():
                mutation.future.set_exception(closed_error)
        if self.wal is not None:
            seqs = [mutation.seq for mutation in pending if mutation.seq]
            if seqs:
                self.wal.append_abort(seqs, reason="engine-closed")
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.join(timeout=self._close_join_timeout)
            if worker.is_alive():
                with self._queue:
                    stuck = list(self._inflight_batch or ())
                stuck_error = EngineClosed(
                    "serving worker thread failed to stop within 30s; "
                    "its epoch's tickets have been failed and device state "
                    "was left in place"
                )
                for mutation in stuck:
                    if not mutation.future.done():
                        mutation.future.set_exception(stuck_error)
                raise stuck_error
        if self.wal is not None:
            self.wal.close()
        with self._engine_lock:
            self._core.close()

    def crash(self) -> None:
        """Abandon the engine the way a dying process would (test/demo hook).

        Unlike :meth:`close`, no abort markers are written and pending
        tickets are left unresolved — exactly the artifacts a real crash
        leaves behind, so :meth:`recover` has honest input: the WAL keeps the
        acknowledged-but-uncommitted batches, the checkpoint store keeps the
        last durable state, and nothing pretends the work was cancelled.
        """
        with self._queue:
            if self._closed:
                return
            self._closed = True
            self._pending = []
            self._queue.notify_all()
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.join(timeout=self._close_join_timeout)
        if self.wal is not None:
            self.wal.close()
        with self._engine_lock:
            self._core.close()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @classmethod
    def recover(
        cls,
        store: CheckpointStore,
        wal: "WriteAheadLog | None" = None,
        **engine_kwargs,
    ) -> "ServingEngine":
        """Rebuild a crashed engine from its checkpoint store and WAL.

        Loads the newest serving checkpoint, replays every WAL commit group
        past its horizon epoch by epoch, then folds the acknowledged-but-
        uncommitted batches into one catch-up epoch — reaching the exact
        logical state the crashed engine had acknowledged.  See
        :mod:`repro.serving.recovery` for the replay plan details.
        """
        from .recovery import recover_engine

        return recover_engine(store, wal, **engine_kwargs)

    def _apply_replay(self, batches: "list[WalBatch]", *, commit: bool) -> None:
        """Run one recovery epoch from logged batches; raise if it fails.

        ``commit=False`` replays a group the crashed engine already committed
        (its marker is in the log; writing another would corrupt it) —
        ``commit=True`` is the catch-up epoch for pending batches, which
        earns a fresh commit marker like any live epoch.
        """
        mutations = [
            _Mutation(
                {name: list(rows) for name, rows in batch.inserts.items()},
                {name: list(rows) for name, rows in batch.retracts.items()},
                Future(),
                seq=batch.seq,
            )
            for batch in batches
        ]
        self._replaying = not commit
        try:
            self._commit(mutations)
        finally:
            self._replaying = False
        for mutation in mutations:
            mutation.future.result()

    # ------------------------------------------------------------------
    # Epoch execution
    # ------------------------------------------------------------------
    def _start_worker(self) -> None:
        if self.background and self._worker is None and not self._closed:
            self._worker = threading.Thread(
                target=self._worker_loop, name=f"serving-{self.program.name}", daemon=True
            )
            self._worker.start()

    def _coalesce_window_seconds(self) -> float:
        """Seconds the worker lingers gathering more submissions (lock held).

        Under backlog (``overload_threshold`` reached) the window widens to
        ``max_coalesce_window``: one bigger coalesced epoch amortizes its
        fixed per-epoch costs over more mutations — the graceful-degradation
        counterpart of shedding.
        """
        window = self.coalesce_window
        if (
            self.overload_threshold is not None
            and len(self._pending) >= self.overload_threshold
        ):
            self._health = HEALTH_DEGRADED
            if self.max_coalesce_window > window:
                window = self.max_coalesce_window
                self.widened_windows += 1
        return window

    def _worker_loop(self) -> None:
        while True:
            with self._queue:
                while not self._pending and not self._closed:
                    self._queue.wait()
                if self._closed:
                    return
                window = self._coalesce_window_seconds()
                if window > 0.0:
                    deadline = time.monotonic() + window
                    while not self._closed:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0.0:
                            break
                        self._queue.wait(remaining)
                    if self._closed:
                        return
                batch, self._pending = self._pending, []
                self._inflight = True
                self._inflight_batch = batch
                # Wake submitters blocked on admission: the queue drained.
                self._queue.notify_all()
            try:
                self._commit(batch)
            finally:
                with self._queue:
                    self._inflight = False
                    self._inflight_batch = None
                    self._queue.notify_all()

    def _commit(self, batch: list[_Mutation]) -> None:
        # The done() guards protect against a racing close(): a stuck-worker
        # close fails the in-flight tickets with EngineClosed, and resolving
        # them a second time here would raise InvalidStateError in the worker.
        try:
            result = self._run_epoch(batch)
        except _Uncoalesce:
            # The coalesced epoch failed for a reason of its own and rolled
            # back: one epoch per submission, so only a submission that
            # fails on its own gets the error.
            for mutation in batch:
                self._commit([mutation])
            return
        except BaseException as error:  # noqa: BLE001 - forwarded to tickets
            for mutation in batch:
                if not mutation.future.done():
                    mutation.future.set_exception(error)
            return
        for mutation in batch:
            if not mutation.future.done():
                mutation.future.set_result(result)

    def _run_epoch(self, batch: list[_Mutation]) -> EpochResult:
        """Run one epoch as a transaction.

        The serving rung of the fault ladder: the evaluator already retries
        transient kernels per version, chunks around OOM, and (with its own
        checkpoints) rebuilds crashed shards; whatever still escapes —
        :class:`FixpointInterrupted` from an exhausted evaluator budget, or a
        raw device fault from the DRed machinery that runs outside the
        fixpoint — triggers whole-epoch rollback and replay here.  When the
        epoch budget is exhausted too, the epoch aborts: state stays rolled
        back at the last commit, this batch's tickets get
        :class:`EpochAborted`, and reads keep serving.

        Any other exception (a bug, or a backend refusing a value that
        encoded fine) is no fault to retry: the epoch rolls back at once.  A
        live epoch that coalesced several submissions then raises
        :class:`_Uncoalesce`, and :meth:`_commit` runs them one per epoch; a
        lone submission aborts with the error itself.
        """
        with self._engine_lock:
            seqs = [mutation.seq for mutation in batch if mutation.seq]
            attempt = 0
            while True:
                attempt += 1
                try:
                    result = self._run_epoch_attempt(batch, attempt=attempt)
                except Exception as error:
                    self._health = HEALTH_RECOVERING
                    self._rollback(error)
                    transient = isinstance(error, (DeviceError, FixpointInterrupted))
                    if transient and attempt <= self.epoch_retries:
                        self._evaluator._charge_backoff(
                            attempt, label=f"serving_epoch{self.epoch + 1}"
                        )
                        continue
                    self._health = HEALTH_DEGRADED
                    if not transient and len(batch) > 1 and not self._replaying:
                        raise _Uncoalesce() from error
                    self.epoch_aborts += 1
                    if self.wal is not None and not self._replaying and seqs:
                        self.wal.append_abort(seqs, reason=f"epoch-aborted: {error}")
                    if not transient:
                        raise
                    raise EpochAborted(
                        f"epoch {self.epoch + 1} aborted after {attempt} attempts "
                        f"and rolled back to epoch {self.epoch}: {error}",
                        epoch=self.epoch + 1,
                        attempts=attempt,
                        cause=error,
                    ) from error
                self._finish_commit(seqs)
                return result

    def _finish_commit(self, seqs: list[int]) -> None:
        """Post-commit durability: WAL commit marker + checkpoint."""
        if seqs:
            self._committed_seq = max(self._committed_seq, max(seqs))
        if self.wal is not None and not self._replaying and seqs:
            self.wal.append_commit(self.epoch, seqs)
        if self.checkpoint_store is not None and not self._replaying:
            self._save_serving_checkpoint()

    def _rollback(self, error: BaseException) -> None:
        """Restore every relation to the last committed epoch's state.

        If the failure chain contains an :class:`ExchangeError` the receiving
        shard's device died with its buffers: the evaluator raised without
        rebuilding it (it had no fixpoint checkpoint of its own), so the
        rebuild happens here; every relation is then restored from the folded
        commit record.  Snapshot versions were never bumped mid-epoch, so
        committed reads stay valid throughout; ``discard_newer`` enforces
        exactly that invariant.

        Fault injection is suspended for the duration: rollback models
        driver-level recovery, and its own frees/uploads are not production
        fault sites — with injection live, an ``every=1`` plan would fault
        the restore mid-flight and leave exactly the torn state rollback
        exists to prevent.
        """
        with self._faults_suspended():
            self._rollback_unprotected(error)

    @contextmanager
    def _faults_suspended(self):
        """Detach every shard device's fault plan for the block.

        For driver-level bookkeeping (rollback, the commit step), which is not
        a production fault site.  The plans reattach by shard index: a shard
        rebuild inside the block may have swapped ``self.devices`` (the
        engine shares one plan instance).
        """
        plans = [device.fault_plan for device in self.devices]
        for device in self.devices:
            device.fault_plan = None
        try:
            yield
        finally:
            for device, plan in zip(self.devices, plans):
                device.fault_plan = plan

    def _rollback_unprotected(self, error: BaseException) -> None:
        seen: set[int] = set()
        cursor: BaseException | None = error
        while cursor is not None and id(cursor) not in seen:
            seen.add(id(cursor))
            if isinstance(cursor, ExchangeError):
                self._evaluator._rebuild_crashed_shard(cursor)
                self._core._adopt_devices(self._evaluator)
                break
            cursor = (
                getattr(cursor, "cause", None)
                or cursor.__cause__
                or cursor.__context__
            )
        committed = fold_chain([link.checkpoint for link in self._chain])
        for relation_name, relation in self.relations.items():
            relation.restore(committed.relations[relation_name])
        self._evaluator.exchange.invalidate()
        self.snapshots.discard_newer(self._versions)

    def _append_marks(self) -> dict[str, list[tuple[int, int]]]:
        return {name: relation.append_marks() for name, relation in self.relations.items()}

    def _record_commit(self, epoch: int) -> None:
        """The commit step: extend the commit record to the relations' state.

        Per relation and shard, only the full rows past the top link's marks
        cross the D2H edge, charged once under the checkpoint phase.  If any
        shard's generation moved since — a retract or a rollback's restore
        re-initialized it, or it is a rebuilt shard — the marks no longer
        name a prefix, and every row is downloaded as a new base.  The new
        link absorbs the newest links it is at least half as large as
        (:func:`~repro.relational.hisa.first_absorbed`) by concatenating
        their host rows, so a row crosses once and is copied
        O(log(|full| / |Δ|)) times on the host.  Fault plans are suspended:
        like rollback, this is driver-level bookkeeping.  Symbols are added
        only by :meth:`_save_serving_checkpoint`."""
        marks = self._append_marks()
        chain = self._chain
        if not (chain and all(relation.holds(chain[-1].marks[name]) for name, relation in self.relations.items())):
            chain = []
        since = chain[-1].marks if chain else {
            name: [(generation, 0) for generation, _ in shards] for name, shards in marks.items()
        }
        with self._faults_suspended():
            relations = {name: relation.appended_state(since[name]) for name, relation in self.relations.items()}
        link = _ChainLink(
            EvaluationCheckpoint(
                program_name=self.program.name,
                stratum_index=-1,
                iteration=epoch,
                num_shards=self.num_shards,
                relations=relations,
            ),
            marks,
        )
        first = first_absorbed([below.rows for below in chain], link.rows)
        if first < len(chain):
            folded = fold_chain([below.checkpoint for below in chain[first:]] + [link.checkpoint])
            link = _ChainLink(folded, marks)
        self._chain = chain[:first] + [link]

    def _save_serving_checkpoint(self) -> None:
        """Make the last committed epoch durable and compact the WAL behind it.

        The checkpoint store receives the commit record's links above its
        newest durable one, folded into one checkpoint whose parent is that
        link — after a live epoch, the one link its commit step left on top;
        after recovery, everything the replayed epochs added, whose commit
        steps extend only the in-memory chain.  With no durable link below,
        it is a base.  ``metadata["serving"]`` carries everything
        :meth:`recover` needs beyond relation state and symbols: epoch
        counter, snapshot versions and the WAL horizon the checkpoint covers.
        An epoch that is already durable writes nothing.  The symbol tail is
        read under the encoding lock: a failed encode frees its identifiers.
        """
        assert self.checkpoint_store is not None
        chain = self._chain
        durable = next(
            (index for index, link in enumerate(chain) if not link.checkpoint.checkpoint_id),
            len(chain),
        )
        if durable == len(chain):
            return
        folded = fold_chain([link.checkpoint for link in chain[durable:]])
        with self._encoding:
            symbols = self.symbols.entries_from(sum(len(link.checkpoint.symbols) for link in chain))
        checkpoint = replace(
            folded,
            symbols=folded.symbols + symbols,
            iteration=self.epoch,
            program_source=str(self.program),
            metadata={
                "serving": {
                    "epoch": self.epoch,
                    "versions": dict(self._versions),
                    "changed_epoch": dict(self._changed_epoch),
                    "covered_seq": self._committed_seq,
                    "planner": self.planner,
                    "num_shards": self.num_shards,
                }
            },
            parent=chain[durable - 1].checkpoint.checkpoint_id if durable else "",
        )
        checkpoint_id = self.checkpoint_store.save(checkpoint)
        self._chain = chain[:durable] + [_ChainLink(checkpoint, chain[-1].marks)]
        if self.wal is not None:
            self.wal.append_checkpoint(
                self.epoch, self._committed_seq, checkpoint_id=checkpoint_id
            )
            self.wal.compact(self._committed_seq)

    def _run_epoch_attempt(self, batch: list[_Mutation], *, attempt: int) -> EpochResult:
        with self._engine_lock:
            host_start = time.perf_counter()
            sim_start = [device.elapsed_seconds for device in self.devices]

            net_inserts, net_retracts = self._coalesce(batch)

            # --- DRed: over-delete, apply, re-derive --------------------
            retracted_counts: dict[str, int] = {}
            rederived_counts: dict[str, int] = {}
            survivors: dict[str, set[tuple[int, ...]]] = {}
            if net_retracts:
                deleted = self._over_delete(net_retracts)
                for relation_name in sorted(deleted):
                    rows = self._rows_array(deleted[relation_name], relation_name)
                    removed = self.relations[relation_name].retract(rows)
                    if removed:
                        retracted_counts[relation_name] = removed
                # The over-delete probes replicated inners the exchange built
                # lazily from the *pre-deletion* fulls; the re-derive must see
                # post-deletion state only.
                self._evaluator.exchange.invalidate()
                survivors = self._rederive(deleted)
                rederived_counts = {
                    relation_name: len(rows) for relation_name, rows in survivors.items() if rows
                }

            # --- Insert epoch: delta fixpoint from the injected seeds ---
            seeds: dict[str, np.ndarray] = {}
            inserted_counts: dict[str, int] = {}
            for relation_name, rows in net_inserts.items():
                if rows:
                    seeds[relation_name] = self._rows_array(rows, relation_name)
            for relation_name, rows in survivors.items():
                if not rows:
                    continue
                fresh = self._rows_array(rows, relation_name)
                if relation_name in seeds:
                    seeds[relation_name] = np.concatenate([seeds[relation_name], fresh], axis=0)
                else:
                    seeds[relation_name] = fresh
            for relation_name, rows in seeds.items():
                inserted_counts[relation_name] = int(rows.shape[0])

            history_marks = {
                relation_name: len(relation.history)
                for relation_name, relation in self.relations.items()
            }
            iterations = 0
            if seeds:
                iterations, _, _ = self._evaluator.delta_fixpoint(
                    list(self.compiled.epoch_versions), seeds
                )

            # --- Commit: bump and publish snapshots of changed relations
            changed = set(retracted_counts)
            for relation_name, relation in self.relations.items():
                for entry in relation.history[history_marks[relation_name] :]:
                    if entry.delta_count:
                        changed.add(relation_name)
                        break

            # The epoch's latency prices its maintenance; the commit step's
            # D2H is on the device clock, under the checkpoint phase.  It
            # runs *before* the epoch counter or any version moves, with no
            # fault site in it.
            sim_end = [device.elapsed_seconds for device in self.devices]
            self._record_commit(self.epoch + 1)
            self.epoch += 1
            published: dict[str, int] = {}
            for relation_name in sorted(changed):
                self._versions[relation_name] += 1
                self._changed_epoch[relation_name] = self.epoch
                published[relation_name] = self._versions[relation_name]

            with self._queue:
                backlog = len(self._pending)
            if self.overload_threshold is not None and backlog >= self.overload_threshold:
                self._health = HEALTH_DEGRADED
            else:
                self._health = HEALTH_HEALTHY

            result = EpochResult(
                epoch=self.epoch,
                coalesced=len(batch),
                iterations=iterations,
                inserted=inserted_counts,
                retracted=retracted_counts,
                rederived=rederived_counts,
                simulated_seconds=max(
                    (end - start for start, end in zip(sim_start, sim_end)), default=0.0
                ),
                host_seconds=time.perf_counter() - host_start,
                snapshot_versions=published,
                attempts=attempt,
                health=self._health,
            )
            self.last_epoch = result
            return result

    def _coalesce(
        self, batch: list[_Mutation]
    ) -> tuple[dict[str, list[tuple[int, ...]]], dict[str, list[tuple[int, ...]]]]:
        """Fold a batch into net per-tuple operations (last writer wins)."""
        final_op: dict[str, dict[tuple[int, ...], str]] = defaultdict(dict)
        for mutation in batch:
            for relation_name, rows in mutation.retracts.items():
                for row in rows:
                    final_op[relation_name][row] = "retract"
            for relation_name, rows in mutation.inserts.items():
                for row in rows:
                    final_op[relation_name][row] = "insert"
        net_inserts: dict[str, list[tuple[int, ...]]] = {}
        net_retracts: dict[str, list[tuple[int, ...]]] = {}
        for relation_name, ops in final_op.items():
            inserts = sorted(row for row, op in ops.items() if op == "insert")
            retracts = sorted(row for row, op in ops.items() if op == "retract")
            if inserts:
                net_inserts[relation_name] = inserts
            if retracts:
                net_retracts[relation_name] = retracts
        return net_inserts, net_retracts

    def _over_delete(
        self, net_retracts: dict[str, list[tuple[int, ...]]]
    ) -> dict[str, set[tuple[int, ...]]]:
        """DRed phase 1: the deletion cone, computed against pre-deletion fulls.

        Seeds the frontier with the requested retractions that actually
        exist, then repeatedly shadow-presents each relation's frontier as
        its delta and executes the epoch's delta versions: any currently-
        present head tuple one join step away from a deleted tuple joins the
        cone.  Probing pre-deletion fulls is what makes this the textbook
        over-approximation — every derivation that *uses* a deleted tuple is
        found, including ones whose other support is also doomed.
        """
        deleted: dict[str, set[tuple[int, ...]]] = {}
        frontier: dict[str, set[tuple[int, ...]]] = {}
        for relation_name, rows in net_retracts.items():
            present = self.relations[relation_name].present_rows(
                self._rows_array(rows, relation_name)
            )
            tuples = {tuple(int(value) for value in row) for row in present}
            if tuples:
                deleted[relation_name] = set(tuples)
                frontier[relation_name] = tuples
        while frontier:
            next_frontier: dict[str, set[tuple[int, ...]]] = defaultdict(set)
            for version in self.compiled.epoch_versions:
                source = version.initial.relation
                if source not in frontier:
                    continue
                shadow = self._rows_array(frontier[source], source)
                with self.relations[source].shadow_delta(shadow):
                    derived = self._collect_version_rows(version)
                if not derived.shape[0]:
                    continue
                head = version.head_relation
                candidates = {
                    tuple(int(value) for value in row) for row in derived
                } - deleted.get(head, set())
                if not candidates:
                    continue
                present = self.relations[head].present_rows(
                    self._rows_array(candidates, head)
                )
                fresh = {
                    tuple(int(value) for value in row) for row in present
                } - deleted.get(head, set())
                if fresh:
                    next_frontier[head] |= fresh
            frontier = {}
            for head, fresh in next_frontier.items():
                deleted.setdefault(head, set()).update(fresh)
                frontier[head] = fresh
        return deleted

    def _rederive(
        self, deleted: dict[str, set[tuple[int, ...]]]
    ) -> dict[str, set[tuple[int, ...]]]:
        """DRed phase 3: over-deleted tuples still derivable from what remains.

        Runs each affected rule's *full* version against the post-deletion
        database and intersects the output with that rule's share of the
        deletion cone.  Survivors are seeded back through the insert-epoch
        delta fixpoint, which transitively resurrects anything derivable
        from them — the standard DRed completeness argument.
        """
        idb = self.compiled.idb_relations
        targets = {name for name, rows in deleted.items() if rows and name in idb}
        survivors: dict[str, set[tuple[int, ...]]] = {}
        if not targets:
            return survivors
        for version in self.compiled.full_versions:
            head = version.head_relation
            if head not in targets:
                continue
            derived = self._collect_version_rows(version)
            if not derived.shape[0]:
                continue
            # Membership on packed keys of one format: ``derived`` is the
            # rule's whole output, the cone is small.
            derived_keys, cone = keys_alongside(derived, row_keys(derived), self._rows_array(deleted[head], head))
            regained = derived[np.isin(derived_keys, cone)]
            if regained.shape[0]:
                survivors.setdefault(head, set()).update(host_rows_to_tuples(regained))
        return survivors

    def _collect_version_rows(self, version: RuleVersion) -> np.ndarray:
        """Execute one rule version and download its head rows (charged D2H)."""
        parts = []
        for device, batch in zip(self.devices, self._evaluator._execute_version(version)):
            if len(batch):
                rows = batch.as_rows(label=f"{version.head_relation}.dred_materialize")
                parts.append(device.kernels.to_host(rows, label=f"{version.head_relation}.d2h_dred"))
        if not parts:
            return np.empty((0, len(version.head)), dtype=np.int64)
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)

    # ------------------------------------------------------------------
    # Snapshots / encoding helpers
    # ------------------------------------------------------------------
    def _materialize(self, relation_name: str) -> RelationSnapshot:
        """Return the current snapshot, building it if the cache is stale.

        Fast path (no engine lock): the cached snapshot already matches the
        committed version.  Slow path: take the engine lock — briefly
        serializing with the epoch worker — re-check, then build the new
        version and publish it for later readers.  When every shard still
        holds the generation the previous snapshot was built from, the rows
        appended since are merged into it from the commit record, whose
        commit steps already downloaded them; otherwise (first read, or a
        re-initialization since) the whole relation crosses the charged D2H
        edge and is sorted.
        """
        target = self._versions[relation_name]
        try:
            cached = self.snapshots.read(relation_name)
            if cached.version == target:
                return cached
        except KeyError:
            pass
        with self._engine_lock:
            target = self._versions[relation_name]
            try:
                cached = self.snapshots.read(relation_name)
                if cached.version == target:
                    return cached
            except KeyError:
                pass
            relation = self.relations[relation_name]
            mark = self._read_marks.get(relation_name)
            appended = None if mark is None else self._committed_since(relation_name, mark.marks)
            if appended is None:
                rows = canonical_rows(relation.full_rows_host(charge=True), relation.arity)
                keys = row_keys(rows)
            else:
                rows, keys = merge_rows(mark.snapshot.rows, mark.keys, appended)
            snapshot = RelationSnapshot(
                name=relation_name,
                version=target,
                epoch=self._changed_epoch[relation_name],
                rows=rows,
            )
            self._read_marks[relation_name] = _ReadMark(snapshot, self._chain[-1].marks[relation_name], keys)
            self.snapshots.publish({relation_name: snapshot})
            return snapshot

    def _committed_since(self, relation_name: str, marks: list[tuple[int, int]]) -> np.ndarray | None:
        """The commit record's host rows of ``relation_name`` past ``marks``,
        or ``None`` once a generation moved: every link shares its base's
        generations, so per shard they are the newest links' rows, the
        oldest of them cut at the mark."""
        top = self._chain[-1].marks[relation_name]
        if [generation for generation, _ in marks] != [generation for generation, _ in top]:
            return None
        parts = [np.empty((0, self.relations[relation_name].arity), dtype=np.int64)]
        for shard, ((_, start), (_, end)) in enumerate(zip(marks, top)):
            for link in reversed(self._chain):
                if end <= start:
                    break
                rows = link.checkpoint.relations[relation_name].partitions[shard].full
                parts.append(rows[max(0, rows.shape[0] - (end - start)) :])
                end -= rows.shape[0]
        return np.concatenate(parts, axis=0)

    def _encode_rows(self, relation_name: str, rows: FactRows) -> np.ndarray:
        """Encode client rows (ints/strings) into an int64 host array."""
        known_arity = self._arities.get(relation_name)
        if known_arity is None:
            raise SchemaError(f"unknown relation {relation_name!r}")
        if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu":
            encoded = np.asarray(rows, dtype=np.int64)
            if encoded.ndim != 2:
                raise SchemaError(f"fact array for {relation_name!r} must be 2-D")
        else:
            materialized = [
                tuple(self.symbols.encode(value) for value in row) for row in rows
            ]
            if not materialized:
                encoded = np.empty((0, known_arity), dtype=np.int64)
            else:
                widths = {len(row) for row in materialized}
                if len(widths) != 1:
                    raise SchemaError(
                        f"facts for {relation_name!r} have inconsistent arities {sorted(widths)}"
                    )
                encoded = np.asarray(materialized, dtype=np.int64)
        if encoded.shape[0] and encoded.shape[1] != known_arity:
            raise SchemaError(
                f"relation {relation_name!r} has arity {known_arity}, "
                f"got rows of width {encoded.shape[1]}"
            )
        return encoded.reshape(-1, known_arity)

    def _rows_array(
        self, rows: "Iterable[tuple[int, ...]]", relation_name: str
    ) -> np.ndarray:
        arity = self.relations[relation_name].arity
        rows = sorted(rows) if isinstance(rows, set) else list(rows)
        if not rows:
            return np.empty((0, arity), dtype=np.int64)
        return np.asarray(rows, dtype=np.int64).reshape(-1, arity)
