"""Semi-naïve fixpoint evaluation (Figure 3 of the paper): the one driver.

:class:`SemiNaiveEvaluator` executes a compiled
:class:`~repro.datalog.planner.ProgramPlan` stratum by stratum over relations
hash-partitioned across ``N >= 1`` shard devices.  Within a recursive stratum
it repeats:

1. **Join phase** — every recursive rule version joins the *delta* version of
   its chosen atom against the *full* indexes of the other atoms, shard by
   shard, and appends the results to the head relation's *new* version on
   their owner shards.  Between join steps the exchange layer
   (:class:`~repro.datalog.sharded.ShardExchange`) puts the flowing batches
   where the next probe finds its matches; with one shard that is a no-op.
2. **Populate delta / index delta / merge / clear new** — handled per relation
   by :class:`~repro.relational.sharded.ShardedRelation.end_iteration`.

The loop terminates when every relation of the stratum produced an empty
*global* delta.  All kernels are charged to the shard device they run on,
tagged with the fixpoint iteration and phase so that Table 1 and Figure 6 can
be regenerated.  Each shard's iteration runs inside a double-buffered
**overlap window**: the exchange for iteration i+1 is modeled as in flight
while iteration i's join computes, so the per-window cost is
``max(compute, transfer)`` instead of their sum (``overlap=False`` restores
the bulk-synchronous cost model; a window with no exchange earns no credit).

The recovery ladder (retry, OOM chunks, shard rebuild, checkpoint rollback) is
the same for every shard count.  What does depend on ``num_shards`` is listed,
with reasons, in ``docs/architecture.md``: the generic join and the fused
ablation kernel need one shard, and the pre-init snapshot needs more than one.
"""

from __future__ import annotations

from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..backend import TUPLE_ITEMSIZE
from ..device.cost import KernelCost
from ..device.device import Device
from ..device.profiler import PHASE_JOIN, PHASE_RECOVERY
from ..errors import (
    DeviceOutOfMemoryError,
    EvaluationError,
    ExchangeError,
    FixpointInterrupted,
    TransientDeviceError,
)
from ..relational.checkpoint import CheckpointStore, EvaluationCheckpoint
from ..relational.columnbatch import ColumnBatch
from ..relational.operators import LiveOuter, fused_nway_join, hash_join, select
from ..relational.sharded import ShardedRelation, partition_rows_host
from ..relational.wcoj import generic_join
from .planner import DELTA, WCOJ, ProgramPlan, RuleVersion
from .sharded import DEFAULT_REPLICATE_MAX_BYTES, ShardExchange

#: Deepest recursive halving of a rule version's input scan under OOM; at
#: depth 12 a chunk is 1/4096 of the scan and further splitting cannot help.
OOM_CHUNK_MAX_DEPTH = 12

#: Runaway guard: a stratum that has not converged after this many iterations
#: is reported as an :class:`EvaluationError` instead of spinning forever.
MAX_ITERATIONS = 1_000_000

#: Simulated backoff before retry k is ``RETRY_BACKOFF_SECONDS * 2**(k-1)``,
#: recorded under the recovery phase (never a wall-clock sleep).
RETRY_BACKOFF_SECONDS = 1e-3


@dataclass
class StratumResult:
    """Evaluation statistics for one stratum."""

    index: int
    relations: tuple[str, ...]
    recursive: bool
    iterations: int
    #: index merges (across relations and iterations) absorbed in place
    in_place_merges: int = 0
    #: index merges that fell back to the legacy scratch rebuild
    rebuild_merges: int = 0


@dataclass
class IterationTrace:
    """Work counters of one semi-naïve iteration (iteration 0 = initialisation).

    What the comparison baselines of :mod:`repro.engines` price.  ``outer``
    is every executed rule version's scan of its first atom; ``probes`` and
    ``match_tuples`` are the outer rows each binary join step was handed and
    the matches its probe counted — before distinct-before-expand, so a
    baseline prices the plain join; a version run as one generic join or one
    fused n-way kernel has no steps to count.  ``new`` is the rows the
    versions appended to *new*; ``delta``/``full`` are the iteration's
    stratum relations after it.  Every ``*_bytes`` field is its tuples times
    their arity times ``TUPLE_ITEMSIZE`` (int64 columns).
    """

    iteration: int
    outer_tuples: int = 0
    outer_bytes: int = 0
    probes: int = 0
    match_tuples: int = 0
    match_bytes: int = 0
    new_tuples: int = 0
    new_bytes: int = 0
    delta_tuples: int = 0
    delta_bytes: int = 0
    full_tuples_before: int = 0
    full_bytes_before: int = 0
    full_tuples_after: int = 0
    full_bytes_after: int = 0
    largest_join_output_bytes: int = 0


@dataclass
class WorkloadTrace:
    """Per-iteration trace of one :meth:`SemiNaiveEvaluator.evaluate` run.

    Counts are global (summed over shards, taken before any exchange), so the
    trace is the same for every shard count; a retried, OOM-chunked or
    rolled-back attempt counts once, as the attempt that stood.  Serving
    epochs (:meth:`SemiNaiveEvaluator.delta_fixpoint`) record nothing.
    """

    iterations: list[IterationTrace] = field(default_factory=list)
    relation_counts: dict[str, int] = field(default_factory=dict)
    relation_arities: dict[str, int] = field(default_factory=dict)
    edb_relations: set[str] = field(default_factory=set)

    @property
    def iteration_count(self) -> int:
        """Number of fixpoint iterations (the initialisation pass is excluded)."""
        return sum(1 for trace in self.iterations if trace.iteration > 0)

    @property
    def total_match_tuples(self) -> int:
        return sum(trace.match_tuples for trace in self.iterations)

    @property
    def total_new_tuples(self) -> int:
        return sum(trace.new_tuples for trace in self.iterations)

    @property
    def total_delta_tuples(self) -> int:
        return sum(trace.delta_tuples for trace in self.iterations)

    @property
    def final_full_bytes(self) -> int:
        if not self.iterations:
            return 0
        return self.iterations[-1].full_bytes_after

    @property
    def edb_bytes(self) -> int:
        return sum(
            self.relation_counts.get(name, 0) * self.relation_arities.get(name, 1) * TUPLE_ITEMSIZE
            for name in self.edb_relations
        )


class _VersionWork:
    """One rule version's execution as the trace counts it: scan, per join
    step probes and matches, output rows — summed over the OOM chunks of the
    attempt that stood."""

    def __init__(self, version: RuleVersion) -> None:
        self.version = version
        self.outer_tuples = 0
        self.outer_bytes = 0
        self.probes = [0] * len(version.joins)
        self.matches = [0] * len(version.joins)
        self.rows = 0

    def add(self, other: "_VersionWork") -> None:
        self.outer_tuples += other.outer_tuples
        self.outer_bytes += other.outer_bytes
        self.probes = [a + b for a, b in zip(self.probes, other.probes)]
        self.matches = [a + b for a, b in zip(self.matches, other.matches)]
        self.rows += other.rows

    def record(self, item: IterationTrace, *, new: bool) -> None:
        """Add the scan and join counts to ``item``, and the output rows as
        *new* when they went there (not at stratum initialisation)."""
        item.outer_tuples += self.outer_tuples
        item.outer_bytes += self.outer_bytes
        for step, probes, matches in zip(self.version.joins, self.probes, self.matches):
            match_bytes = matches * len(step.schema) * TUPLE_ITEMSIZE
            item.probes += probes
            item.match_tuples += matches
            item.match_bytes += match_bytes
            item.largest_join_output_bytes = max(item.largest_join_output_bytes, match_bytes)
        if new:
            item.new_tuples += self.rows
            item.new_bytes += self.rows * len(self.version.head) * TUPLE_ITEMSIZE


@dataclass
class EvaluationStats:
    """Aggregate statistics produced by :class:`SemiNaiveEvaluator.evaluate`."""

    strata: list[StratumResult] = field(default_factory=list)
    #: what the run did, per iteration, for the baselines' cost models
    trace: WorkloadTrace = field(default_factory=WorkloadTrace)

    @property
    def total_iterations(self) -> int:
        return sum(result.iterations for result in self.strata)

    @property
    def in_place_merges(self) -> int:
        """Merges the incremental path absorbed without acquiring a buffer."""
        return sum(result.in_place_merges for result in self.strata)

    @property
    def rebuild_merges(self) -> int:
        """Merges that paid the full O(|full|) scratch rebuild."""
        return sum(result.rebuild_merges for result in self.strata)


class SemiNaiveEvaluator:
    """Executes a compiled program plan over hash-partitioned relations."""

    def __init__(
        self,
        devices: list[Device],
        plan: ProgramPlan,
        relations: dict[str, ShardedRelation],
        *,
        materialize_nway: bool = True,
        checkpoint_every: int = 0,
        checkpoint_store: CheckpointStore | None = None,
        max_retries: int = 3,
        program_name: str = "",
        program_source: str = "",
        overlap: bool = True,
        replicate_max_bytes: int = DEFAULT_REPLICATE_MAX_BYTES,
    ) -> None:
        self.devices = list(devices)
        self.num_shards = len(self.devices)
        self.plan = plan
        self.relations = relations
        self.materialize_nway = bool(materialize_nway)
        #: snapshot (full, delta) of every shard each N iterations (0 = off)
        self.checkpoint_every = int(checkpoint_every)
        self.checkpoint_store = checkpoint_store
        #: transient-fault retries per rule version, and global restores
        self.max_retries = int(max_retries)
        self.program_name = program_name
        self.program_source = program_source
        #: double-buffered exchange/compute overlap lever
        self.overlap = bool(overlap)
        #: the exchange layer; shares this driver's device list and relations
        self.exchange = ShardExchange(
            self.devices,
            plan,
            relations,
            replicate_max_bytes=replicate_max_bytes,
        )
        self.last_checkpoint: EvaluationCheckpoint | None = None
        # Recovery counters (surfaced by the engine result).
        self.transient_retries = 0
        self.checkpoints_taken = 0
        self.checkpoint_restores = 0
        self.shard_rebuilds = 0
        self.oom_chunked_joins = 0
        #: per-version observed output rows and distinct-before-expand
        #: counters, keyed by (rule identity, delta atom); feeds ``explain()``
        self.version_observations: dict[tuple[int, int | None], dict] = {}

    # ------------------------------------------------------------------
    def evaluate(
        self,
        idb_facts: dict[str, np.ndarray] | None = None,
        *,
        resume_from: EvaluationCheckpoint | None = None,
    ) -> EvaluationStats:
        """Run every stratum to its global fixpoint (all shards' deltas empty).

        ``idb_facts`` optionally supplies ground facts for IDB relations
        (loaded together with the non-recursive rule results when the
        relation's stratum starts).  ``resume_from`` skips every stratum the
        checkpoint already completed, restores all relations from its
        snapshot, and continues the checkpointed stratum at the recorded
        iteration boundary.
        """
        try:
            return self._evaluate(dict(idb_facts or {}), resume_from)
        finally:
            # Replicas hold real pool buffers; they are run-scoped caches,
            # not results — release them so ``close()`` finds every shard
            # device empty.
            self.exchange.invalidate()

    def _evaluate(self, idb_facts: dict, resume_from: EvaluationCheckpoint | None) -> EvaluationStats:
        stats = EvaluationStats()
        trace = stats.trace
        init = IterationTrace(iteration=0)
        trace.iterations.append(init)
        analysis = self.plan.analysis
        for stratum in analysis.strata:
            non_recursive, recursive = self.plan.versions_for_stratum(stratum.index)
            idb_in_stratum = sorted(stratum.relations & set(analysis.idb_relations))
            result = StratumResult(
                index=stratum.index,
                relations=tuple(idb_in_stratum),
                recursive=stratum.recursive,
                iterations=0,
            )
            stats.strata.append(result)
            if resume_from is not None and stratum.index < resume_from.stratum_index:
                continue  # completed before the checkpoint; its state is inside it
            start_iteration = 0
            if (
                resume_from is not None
                and stratum.index == resume_from.stratum_index
                and not resume_from.metadata.get("pre_init")
            ):
                self.restore_checkpoint(resume_from)
                start_iteration = resume_from.iteration
                resume_from = None
            else:
                stratum_facts = {
                    name: idb_facts.pop(name) for name in idb_in_stratum if name in idb_facts
                }
                if resume_from is not None:
                    # A pre-init snapshot: restore the pre-stratum state and
                    # replay initialization (its staged ground facts travel
                    # in the checkpoint metadata).
                    self.restore_checkpoint(resume_from)
                    for name, rows in resume_from.metadata.get("idb_facts", {}).items():
                        relation = self.relations[name]
                        stratum_facts[name] = np.asarray(rows, dtype=np.int64).reshape(
                            -1, relation.arity
                        )
                    resume_from = None
                elif self.checkpoint_every and self.last_checkpoint is None and self.num_shards > 1:
                    # First stratum: snapshot the pre-init state (EDB facts,
                    # empty IDB) so a shard crash while initial parts are
                    # routed has a boundary to roll back to.  One shard
                    # routes nothing, so it has no such crash to insure.
                    self.save_checkpoint(
                        stratum.index, 0, pre_init=True, stratum_facts=stratum_facts
                    )
                self._initialize_stratum(
                    stratum.index, idb_in_stratum, non_recursive, stratum_facts, init
                )

            if recursive:
                result.iterations, result.in_place_merges, result.rebuild_merges = self._run_fixpoint(
                    stratum.index, idb_in_stratum, recursive, start_iteration=start_iteration, trace=trace
                )
            else:
                # Nothing recursive: clear deltas so later strata see stable fulls.
                for name in idb_in_stratum:
                    self.relations[name].clear_delta()
        init.full_tuples_after, init.full_bytes_after = init.delta_tuples, init.delta_bytes
        trace.relation_counts = {name: relation.full_count for name, relation in self.relations.items()}
        trace.relation_arities = {name: relation.arity for name, relation in self.relations.items()}
        trace.edb_relations = set(analysis.edb_relations)
        return stats

    def _initialize_stratum(
        self,
        stratum_index: int,
        idb_in_stratum: list[str],
        non_recursive: list[RuleVersion],
        stratum_facts: dict,
        init: IterationTrace,
    ) -> None:
        """Initialise the stratum: facts + non-recursive rule results, every
        part already routed to its owner shard; the attempt that stands adds
        its versions' work and the loaded deltas to ``init``.

        Exchange faults (a shard dying while initial parts are routed) are
        recovered here: initialization is a pure function of the stratum's
        ground facts plus the state earlier strata left behind, so the
        crashed device is rebuilt, every shard rolls back to the last
        checkpoint (the first stratum's pre-init snapshot or the previous
        stratum's final one), and the block replays from scratch —
        ``initialize_shard`` replaces state wholesale, so a partial first
        attempt leaves no residue.
        """
        attempts = 0
        while True:
            try:
                initial_parts: dict[str, list[list]] = {
                    name: [[] for _ in range(self.num_shards)] for name in idb_in_stratum
                }
                for name, rows in stratum_facts.items():
                    self._stage_ground_facts(name, rows, initial_parts[name])
                works = []
                for version in non_recursive:
                    def stage(shard, batch, name=version.head_relation):
                        # Held lazy: fact loading's deduplication gathers the
                        # columns it indexes, on the device.
                        initial_parts[name][shard].append(batch)

                    works.append(self._execute_with_recovery(version, stage))
                for name in idb_in_stratum:
                    relation = self.relations[name]
                    for shard, parts in enumerate(initial_parts[name]):
                        device = self.devices[shard]
                        if len(parts) == 1:
                            batch = parts[0]
                        else:
                            with device.fused(f"{name}.gather_init"):
                                batch = ColumnBatch.concatenate(
                                    device, parts, arity=relation.arity, label=f"{name}.gather_init"
                                )
                        relation.initialize_shard(shard, batch)
                for work in works:
                    work.record(init, new=False)
                for name in idb_in_stratum:
                    relation = self.relations[name]
                    init.delta_tuples += relation.delta_count
                    init.delta_bytes += relation.delta_count * relation.arity * TUPLE_ITEMSIZE
                return
            except ExchangeError as error:
                # The boundary must still hold the rebuilt shard's pre-stratum
                # partitions (EDB facts, earlier strata): the first stratum's
                # pre-init snapshot or the previous stratum's final one.
                attempts += 1
                self._roll_back(error, attempts, f"stratum {stratum_index} initialization")

    def _stage_ground_facts(self, name: str, rows, buckets: list[list]) -> None:
        """Partition host ground facts by owner and upload each part (charged H2D)."""
        relation = self.relations[name]
        parts = partition_rows_host(rows, relation.shard_column, self.num_shards)
        for shard, part in enumerate(parts):
            if part.shape[0]:
                buckets[shard].append(
                    ColumnBatch.from_host(self.devices[shard], part, relation.arity, label=f"{name}.h2d_facts")
                )

    # ------------------------------------------------------------------
    def delta_fixpoint(
        self,
        versions: list[RuleVersion],
        seeds: dict[str, "np.ndarray"],
        *,
        relation_names: list[str] | None = None,
    ) -> tuple[int, int, int]:
        """Run one delta-seeded semi-naïve fixpoint (a serving epoch).

        ``seeds`` maps relation names to *host* row arrays to inject; each is
        routed to its owner shards through the charged ``add_new`` H2D edge
        and distilled into a delta by ``end_iteration`` (rows already present
        are filtered by populate-delta, so re-inserting a known fact is a
        no-op).  The loop then runs exactly the recursive machinery of
        :meth:`_run_fixpoint` over ``versions`` — the caller supplies delta
        versions for *every* body atom of every rule (EDB atoms included),
        which is the complete incremental-maintenance version set for
        positive programs: any new derivation must use at least one delta
        tuple in some body position, and joint (delta × delta) derivations
        are covered because every delta is merged into its full version at
        the previous iteration boundary.

        Preconditions (the serving engine maintains them as invariants):
        every relation's delta is empty on entry, and every index any of
        ``versions`` probes was registered before the relation initialized.
        Returns ``(iterations, in_place_merges, rebuild_merges)``; zero
        iterations means every seed was already present.

        Exchange caches are invalidated on entry *and* exit: replicated EDB
        inners were built against pre-epoch fulls, and a mutation
        (especially a retraction applied between epochs) makes them stale —
        they would serve deleted tuples.  They are rebuilt,
        charged, on first use inside the epoch.
        """
        names = sorted(relation_names if relation_names is not None else self.relations)
        self.exchange.invalidate()
        try:
            total_delta = 0
            for name in sorted(seeds):
                rows = seeds[name]
                relation = self.relations[name]
                if len(rows):
                    relation.add_new(rows)
                total_delta += relation.end_iteration().delta_count
            if total_delta == 0:
                return 0, 0, 0
            # Stratum -1: the epoch fixpoint is joint across strata (sound for
            # the positive programs this engine evaluates — monotonicity makes
            # stratum order a scheduling choice, not a semantic one).
            return self._run_fixpoint(-1, names, versions)
        finally:
            self.exchange.invalidate()

    # ------------------------------------------------------------------
    def _run_fixpoint(
        self,
        stratum_index: int,
        idb_in_stratum: list[str],
        recursive: list[RuleVersion],
        *,
        start_iteration: int = 0,
        trace: WorkloadTrace | None = None,
    ) -> tuple[int, int, int]:
        """Iterate to the stratum's global fixpoint; with ``trace``, append one
        :class:`IterationTrace` per iteration that stands (numbered on from the
        strata before, so iteration 0 stays the initialisation pass)."""
        iteration = start_iteration
        in_place_merges = 0
        rebuild_merges = 0
        restores = 0
        offset = trace.iterations[-1].iteration if trace is not None else 0
        if self.checkpoint_every and iteration == 0:
            # Baseline snapshot right after stratum init, so even an
            # iteration-1 fault has a boundary to roll back to.
            self.save_checkpoint(stratum_index, iteration)
        self._restart_overlap()
        while True:
            iteration += 1
            if iteration > MAX_ITERATIONS:
                raise EvaluationError(
                    f"stratum {stratum_index} exceeded {MAX_ITERATIONS} iterations without reaching a fixpoint"
                )
            item = IterationTrace(offset + iteration)
            for name in idb_in_stratum:
                relation = self.relations[name]
                item.full_tuples_before += relation.full_count
                item.full_bytes_before += relation.full_count * relation.arity * TUPLE_ITEMSIZE
            works = []
            try:
                with ExitStack() as stack:
                    for device in self.devices:
                        stack.enter_context(device.profiler.iteration(iteration))
                    if self.overlap:
                        # One overlap window per shard per iteration: this
                        # window's exchange hides under the previous window's
                        # compute (double buffering); the credit is granted
                        # when the window closes at the iteration boundary.
                        for device in self.devices:
                            stack.enter_context(device.profiler.overlap_window())
                    for version in recursive:
                        # Skip on the *global* delta: a shard with an empty
                        # local delta still receives foreign-keyed rows via
                        # exchange.
                        if self.relations[version.initial.relation].delta_count == 0:
                            continue

                        # add_new materializes the batch's head columns: the
                        # join's output write (and may deduplicate it on
                        # arrival, which the version's observation counts).
                        works.append(self._execute_with_recovery(
                            version,
                            partial(
                                self.relations[version.head_relation].add_new_shard,
                                report=self._observation(version)["arrival_dedup"],
                            ),
                        ))
                    total_delta = 0
                    for name in idb_in_stratum:
                        result = self.relations[name].end_iteration()
                        total_delta += result.delta_count
                        in_place_merges += result.in_place_merges
                        rebuild_merges += result.rebuild_merges
                        arity = self.relations[name].arity
                        item.delta_tuples += result.delta_count
                        item.delta_bytes += result.delta_count * arity * TUPLE_ITEMSIZE
                        item.full_tuples_after += result.full_count
                        item.full_bytes_after += result.full_count * arity * TUPLE_ITEMSIZE
            except (ExchangeError, TransientDeviceError) as error:
                # A shard died mid-exchange (possibly mid-overlap: the
                # in-flight window is simply dropped — its credits were only
                # granted at window close), or per-version retries are
                # exhausted, or the fault hit a non-idempotent step (merge).
                restores += 1
                self._roll_back(error, restores, f"stratum {stratum_index} iteration {iteration}")
                self._restart_overlap()
                iteration = self.last_checkpoint.iteration
                if trace is not None:
                    # The iterations past the checkpoint replay: drop their items.
                    trace.iterations[:] = [
                        kept for kept in trace.iterations if kept.iteration <= offset + iteration
                    ]
                continue
            if trace is not None:
                for work in works:
                    work.record(item, new=True)
                trace.iterations.append(item)
            if self.checkpoint_every and (
                iteration % self.checkpoint_every == 0 or total_delta == 0
            ):
                # The fixpoint itself is always snapshotted: the next
                # stratum's initialization rolls back to it if a shard
                # crashes while initial parts are routed.
                self.save_checkpoint(stratum_index, iteration)
            if total_delta == 0:
                break
        return iteration, in_place_merges, rebuild_merges

    def _restart_overlap(self) -> None:
        """Fill (or, after a rollback, refill) the exchange pipeline: the next
        window has no in-flight predecessor to hide behind."""
        if self.overlap:
            for device in self.devices:
                device.profiler.begin_overlap_schedule()

    # ------------------------------------------------------------------
    # Per-version observations (``explain()``)
    # ------------------------------------------------------------------
    @staticmethod
    def _version_key(version: RuleVersion) -> tuple[int, int | None]:
        return (id(version.rule), version.delta_atom_index)

    def _observation(self, version: RuleVersion) -> dict:
        return self.version_observations.setdefault(
            self._version_key(version),
            {
                "rows": 0.0,
                "executions": 0,
                # what the version's joins report about distinct-before-expand
                # (``LiveOuter.report``)
                "distinct_outer": Counter(),
                # the output parts its head relation deduplicated on arrival
                # (``Relation.add_new``)
                "arrival_dedup": Counter(),
            },
        )

    def _observe_version(self, version: RuleVersion, rows: int) -> None:
        entry = self._observation(version)
        entry["rows"] += float(rows)
        entry["executions"] += 1

    # ------------------------------------------------------------------
    # Fault recovery
    # ------------------------------------------------------------------
    def save_checkpoint(
        self,
        stratum_index: int,
        iteration: int,
        *,
        pre_init: bool = False,
        stratum_facts: dict | None = None,
    ) -> EvaluationCheckpoint:
        """Snapshot every relation across every shard at an iteration boundary.

        A ``pre_init`` snapshot captures the state *before* the stratum's
        initialization ran; resuming from one replays initialization, so any
        staged IDB ground facts ride along in the metadata.
        """
        metadata: dict = {}
        if pre_init:
            metadata["pre_init"] = True
            metadata["idb_facts"] = {
                name: np.asarray(rows, dtype=np.int64).tolist()
                for name, rows in (stratum_facts or {}).items()
            }
        checkpoint = EvaluationCheckpoint(
            program_name=self.program_name,
            stratum_index=stratum_index,
            iteration=iteration,
            num_shards=self.num_shards,
            relations={
                name: relation.checkpoint_state() for name, relation in self.relations.items()
            },
            program_source=self.program_source,
            metadata=metadata,
        )
        if self.checkpoint_store is not None:
            self.checkpoint_store.save(checkpoint)
        self.last_checkpoint = checkpoint
        self.checkpoints_taken += 1
        return checkpoint

    def restore_checkpoint(self, checkpoint: EvaluationCheckpoint) -> None:
        """Roll every shard of every relation back to the checkpoint boundary."""
        for name, state in checkpoint.relations.items():
            relation = self.relations.get(name)
            if relation is not None:
                relation.restore(state)
        self.last_checkpoint = checkpoint
        self.checkpoint_restores += 1
        # Replicas were built from the pre-rollback fulls and may live on a
        # device that no longer exists: drop them, they are rebuilt (and
        # re-charged) on demand from the restored state.
        self.exchange.invalidate()

    def _roll_back(self, error: Exception, attempt: int, where: str) -> None:
        """Global recovery: every relation returns to the last checkpoint.

        After an :class:`ExchangeError` the receiving shard's partitions are
        gone and the surviving shards may have advanced past the snapshot
        boundary, so the dead device is rebuilt first and then *every* shard
        rolls back.  Without a checkpoint (or with the budget of
        ``max_retries`` rollbacks spent) the fixpoint cannot be replayed
        safely and is interrupted instead.
        """
        if self.last_checkpoint is None or attempt > self.max_retries:
            raise FixpointInterrupted(
                f"{where}: {error}", checkpoint=self.last_checkpoint, cause=error
            ) from error
        crashed = isinstance(error, ExchangeError)
        if crashed:
            self._rebuild_crashed_shard(error)
        self.restore_checkpoint(self.last_checkpoint)
        self._charge_backoff(attempt, label="shard_rebuild" if crashed else "fixpoint_restore")

    def _rebuild_crashed_shard(self, error: ExchangeError) -> None:
        """Replace the device that died mid-exchange with a fresh clone.

        The replacement keeps the crashed device's profiler (the cluster
        time it burned is real) and the shared fault plan (occurrence
        counters are cluster-global), but starts with an empty memory pool —
        the old buffers died with the device.  Every relation swaps in an
        empty shard on the clone; :meth:`restore_checkpoint` then reloads
        its partitions.
        """
        crashed = error.device if error.device in self.devices else self.devices[0]
        index = self.devices.index(crashed)
        replacement = Device(
            crashed.spec,
            memory_capacity_bytes=crashed.pool.capacity_bytes,
            oom_enabled=crashed.pool.oom_enabled,
            backend=crashed.backend,
            profiler=crashed.profiler,
            fault_plan=crashed.fault_plan,
        )
        self.devices[index] = replacement
        for relation in self.relations.values():
            relation.rebuild_shard(index, replacement)
        self.shard_rebuilds += 1
        self.exchange.invalidate()

    def _execute_with_recovery(
        self,
        version: RuleVersion,
        consume,
        *,
        part: tuple[int, int] = (0, 1),
        depth: int = 0,
        work: _VersionWork | None = None,
    ) -> _VersionWork:
        """Execute one rule version; ``consume(shard, batch)`` takes its output.

        Transient kernel faults retry the whole (idempotent) version with
        exponential backoff; re-executed appends at worst duplicate tuples
        that deduplication removes.  An out-of-memory failure degrades
        gracefully instead: the version re-executes over halved row ranges
        of its input scan (recursively, down to single rows; every shard
        halves its own partition of the scan), each chunk consumed
        independently — every extra pass is charged through the cost model,
        so degradation is visible in the profile.  Returns the work of the
        attempts that stood (one, or the chunks that replaced it).
        """
        label = f"{version.head_relation}<-{version.initial.relation}"
        if work is None:
            work = _VersionWork(version)
        try:
            retries = 0
            while True:
                attempt = _VersionWork(version)
                try:
                    batches = self._execute_version(version, part=part, work=attempt)
                    attempt.rows = sum(len(batch) for batch in batches)
                    self._observe_version(version, attempt.rows)
                    for shard, batch in enumerate(batches):
                        if len(batch):
                            # Consuming writes the join's output, so it is
                            # attributed to the join phase.
                            with self.devices[shard].profiler.phase(PHASE_JOIN):
                                consume(shard, batch)
                    work.add(attempt)
                    return work
                except TransientDeviceError:
                    retries += 1
                    self.transient_retries += 1
                    if retries > self.max_retries:
                        raise
                    self._charge_backoff(retries, label=label)
        except DeviceOutOfMemoryError:
            index, parts = part
            if self._part_span(version, part) <= 1 or depth >= OOM_CHUNK_MAX_DEPTH:
                raise
            self.oom_chunked_joins += 1
            self.devices[0].profiler.record(
                KernelCost(kernel=f"oom_degrade[{label}]", launches=0),
                0.0,
                phase=PHASE_RECOVERY,
            )
            for chunk in (2 * index, 2 * index + 1):
                self._execute_with_recovery(
                    version, consume, part=(chunk, 2 * parts), depth=depth + 1, work=work
                )
            return work

    def _part_span(self, version: RuleVersion, part: tuple[int, int]) -> int:
        """Most rows of the version's input scan chunk ``part`` covers on any shard."""
        index, parts = part
        spans = []
        for shard in self.relations[version.initial.relation].shards:
            count = shard.delta_count if version.initial.version == DELTA else shard.full_count
            spans.append((count * (index + 1)) // parts - (count * index) // parts)
        return max(spans)

    def _charge_backoff(self, attempt: int, *, label: str) -> None:
        """Record the simulated exponential backoff before retry ``attempt``.

        Deterministic: the wait is charged straight into shard 0's (the
        coordinator's) profiler under the recovery phase — the simulation
        never sleeps.
        """
        seconds = RETRY_BACKOFF_SECONDS * (2 ** (attempt - 1))
        self.devices[0].profiler.record(
            KernelCost(kernel=f"retry_backoff[{label}]", launches=0),
            seconds,
            phase=PHASE_RECOVERY,
            fixed_seconds=seconds,
        )

    # ------------------------------------------------------------------
    # Rule-version execution (per shard, with exchange barriers)
    # ------------------------------------------------------------------
    def _execute_version(
        self,
        version: RuleVersion,
        *,
        part: tuple[int, int] = (0, 1),
        work: _VersionWork | None = None,
    ) -> list[ColumnBatch]:
        """Execute one rule version; returns per-shard head batches, already
        routed to the head relation's owner shards.  The scan and every
        binary join step add their counts to ``work``."""
        if work is None:
            work = _VersionWork(version)
        batches = self._initial_rows(version, part, work)
        if self.runs_generic_join(version):
            # Per-row min-side intersection over the level candidates.
            if len(batches[0]):
                with self.devices[0].profiler.phase(PHASE_JOIN):
                    batches = [
                        generic_join(
                            self.devices[0],
                            batches[0],
                            version.wcoj_levels,
                            self._index_for,
                            label=f"{version.head_relation}.wcoj",
                        )
                    ]
        elif (
            self.num_shards == 1
            and not self.materialize_nway
            and len(version.joins) > 1
            and self._fusable(version)
        ):
            if len(batches[0]):
                with self.devices[0].profiler.phase(PHASE_JOIN):
                    batches = [self._execute_fused(version, batches[0])]
        else:
            # Temporarily-materialized join chain (Section 5.2): one kernel
            # per step per shard.  Each step's "materialization" is a lazy
            # batch — balanced per-thread workloads are preserved (one binary
            # join per kernel), but only the columns the next step or the
            # head actually reads are ever gathered.  A shard's empty batch
            # passes through untouched: nothing downstream reads its width.
            # Each join is told which outer columns are still live, so it can
            # stop expanding outer rows that differ only in dead ones, and
            # reports what it did with that into the version's observations
            # — its match count too, which the trace takes from there.
            live_before, _ = version.live_columns
            report = self._observation(version)["distinct_outer"]
            for index, step in enumerate(version.joins):
                probes = sum(len(batch) for batch in batches)
                if not probes:
                    break
                work.probes[index] += probes
                matches_before = report["matches"]
                batches, inners = self.exchange.place(version, index, batches)
                live = LiveOuter(live_before[index], report)
                joined = []
                for device, batch, inner in zip(self.devices, batches, inners):
                    if len(batch):
                        with device.profiler.phase(PHASE_JOIN):
                            batch = hash_join(
                                device,
                                batch,
                                step.outer_key_positions,
                                inner.index_for(step.join_columns),
                                step.output,
                                comparisons=step.filters,
                                label=f"{version.head_relation}<-{step.relation}",
                                live_outer=live,
                            )
                            if step.post_projection is not None and len(batch):
                                batch = batch.project(step.post_projection)
                    joined.append(batch)
                batches = joined
                work.matches[index] += report["matches"] - matches_before

        head_parts = []
        for device, batch in zip(self.devices, batches):
            with device.profiler.phase(PHASE_JOIN):
                if len(batch) and version.final_filters:
                    batch = select(
                        device, batch, version.final_filters, label=f"{version.head_relation}.filter"
                    )
                head_parts.append(self._project_head(version, batch, device))
        return self.exchange.route_head(version, head_parts)

    def runs_generic_join(self, version: RuleVersion) -> bool:
        """True if ``version`` executes as a generic (worst-case-optimal) join.

        The generic join probes every atom's index from one flowing row, which
        no exchange barrier can sit inside: with more than one shard a WCOJ
        version runs as its decomposed binary steps instead.
        """
        return version.algorithm == WCOJ and self.num_shards == 1

    def _initial_rows(
        self, version: RuleVersion, part: tuple[int, int], work: _VersionWork
    ) -> list[ColumnBatch]:
        """Each shard's scan of the version's first atom, filtered and projected."""
        initial = version.initial
        out = []
        for device, local in zip(self.devices, self.relations[initial.relation].shards):
            # Zero-copy columnar scan over the shard's stored columns.
            batch = local.delta_batch if initial.version == DELTA else local.full_batch()
            arity = batch.arity
            if part != (0, 1):
                # Degraded (OOM) re-execution: one contiguous row range of the
                # scan, as views of the same stored columns.
                n = len(batch)
                index, parts = part
                start, stop = (n * index) // parts, (n * (index + 1)) // parts
                batch = ColumnBatch.from_columns(
                    device,
                    [column[start:stop] for column in batch.columns(charge=False)],
                    length=stop - start,
                )
            work.outer_tuples += len(batch)
            work.outer_bytes += len(batch) * arity * TUPLE_ITEMSIZE
            if len(batch):
                with device.profiler.phase(PHASE_JOIN):
                    if initial.filters:
                        batch = select(
                            device, batch, initial.filters, label=f"{initial.relation}.scan_filter"
                        )
                    if tuple(initial.projection) != tuple(range(arity)):
                        batch = batch.project(initial.projection)
            out.append(batch)
        return out

    def _execute_fused(self, version: RuleVersion, rows: ColumnBatch) -> ColumnBatch:
        """Non-materialized nested n-way join (ablation baseline of Section 5.2)."""
        stages = []
        for step in version.joins:
            inner = self._index_for(step.relation, step.join_columns)
            stages.append((step.outer_key_positions, inner, step.output))
        return fused_nway_join(
            self.devices[0],
            rows,
            stages,
            comparisons=list(version.joins[-1].filters),
            label=f"{version.head_relation}.fused",
        )

    def _index_for(self, relation: str, columns: tuple[int, ...]):
        """One-shard index lookup (the generic join and the fused kernel)."""
        return self.relations[relation].shards[0].index_for(columns)

    def _fusable(self, version: RuleVersion) -> bool:
        """A version can run fused only if intermediate steps carry no filters."""
        for step in version.joins[:-1]:
            if step.filters or step.post_projection is not None:
                return False
        return version.joins[-1].post_projection is None

    def _project_head(self, version: RuleVersion, batch: ColumnBatch, device: Device) -> ColumnBatch:
        if len(batch) == 0:
            return ColumnBatch.empty(device, len(version.head))
        # Head variables are routed lazily (no copy); only constant columns
        # are written here.
        return batch.assemble(version.head_entries, label=f"{version.head_relation}.project_head")
