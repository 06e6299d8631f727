"""Sharded semi-naïve fixpoint evaluation across multiple simulated devices.

The single-device evaluator (:mod:`repro.datalog.seminaive`) is bound by one
device's memory and bandwidth.  This module runs the same compiled plan over
``N`` shard devices with a pipelined, volume-minimizing exchange schedule:

* every relation is hash-partitioned by its *canonical shard column* (the
  first join column its indexes are probed through most often — see
  :func:`shard_columns_for_plan`), so a probe keyed on that column finds all
  of its matches on the shard the key hashes to;
* flowing tuples move between operators as lazy
  :class:`~repro.relational.columnbatch.ColumnBatch` objects *across shard
  boundaries too*: a shipment carries only the columns a downstream plan
  step still reads (the planner's backward liveness analysis,
  :func:`~repro.datalog.planner.version_live_columns`), with selection
  chains resolved sender-side, so dead columns never cross the interconnect;
* before a repartition or broadcast, a **semi-join filter** — an exact
  per-shard key set built from the inner relation's join column and
  refreshed incrementally from deltas on merge
  (:class:`~repro.relational.semijoin.ExchangeFilterBank`) — drops outer
  rows that cannot match on the receiving shard; small static EDB inners
  are instead **replicated** once to every shard (charged through the same
  broadcast edge), turning their probes shard-local, and when every
  remaining step is local the flowing batch is **pre-routed** by the head's
  shard key so the final head route disappears entirely;
* each shard's iteration runs inside a double-buffered **overlap window**:
  the exchange for iteration i+1 is modeled as in flight while iteration
  i's join computes, so the per-window cost is ``max(compute, transfer)``
  instead of their sum (negative-seconds credits under the
  ``exchange_overlap`` profiler phase);
* the global fixpoint is reached when **all** shards' deltas are empty.

Both levers ablate independently: ``semijoin_filter=False`` restores
unfiltered, unreplicated, tail-routed exchanges, ``overlap=False`` restores
the bulk-synchronous cost model.  All cross-shard movement still goes
through the charged ``device_to_device`` / ``broadcast_to`` kernels
(``KernelCost.transfer_bytes`` at the NVLink-class interconnect bandwidth,
recorded under the ``shard_exchange`` phase), so filters and replicas only
pay off when the rows they avoid shipping outweigh the keys they cost.
Fault recovery composes unchanged: a crash mid-overlap rolls every shard
back to the last iteration-boundary checkpoint, drops the in-flight window,
and invalidates filters and replicas (they are rebuilt, charged, on demand).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from ..device.cost import KernelCost
from ..device.device import Device
from ..device.profiler import PHASE_JOIN, PHASE_RECOVERY, PHASE_SHARD_EXCHANGE
from ..errors import (
    EvaluationError,
    ExchangeError,
    FixpointInterrupted,
    TransientDeviceError,
)
from ..relational.checkpoint import CheckpointStore, EvaluationCheckpoint
from ..relational.columnbatch import ColumnBatch
from ..relational.operators import hash_join, select
from ..relational.relation import Relation
from ..relational.semijoin import ExchangeFilterBank
from ..relational.sharded import ShardedRelation, partition_rows_host, shard_owners
from .planner import DELTA, ProgramPlan, RuleVersion, head_shard_variable, version_live_columns
from .seminaive import EvaluationStats, StratumResult

__all__ = ["ShardedSemiNaiveEvaluator", "shard_columns_for_plan"]

#: Default ceiling for replicating a static EDB inner to every shard (bytes).
DEFAULT_REPLICATE_MAX_BYTES = 4 << 20


def shard_columns_for_plan(plan: ProgramPlan, arities: dict[str, int]) -> dict[str, int]:
    """Canonical shard column per relation: the most-probed first join column.

    Counts every join *step* across every rule version (not the deduplicated
    index signatures), so a column probed by ten rules outweighs one probed
    through two distinct indexes; partitioning by the most common first join
    column makes the most probes shard-local (ties break toward the smaller
    column; relations the plan never probes default to column 0).
    """
    probe_counts: dict[str, Counter] = defaultdict(Counter)
    for rule_plan in plan.rule_plans.values():
        for version in rule_plan.versions:
            for step in version.joins:
                probe_counts[step.relation][step.join_columns[0]] += 1
    columns: dict[str, int] = {}
    for relation_name, arity in arities.items():
        counter = probe_counts.get(relation_name)
        if counter:
            columns[relation_name] = max(counter.items(), key=lambda item: (item[1], -item[0]))[0]
        else:
            columns[relation_name] = 0
    return columns


@dataclass(frozen=True)
class _VersionPlan:
    """Per-rule-version exchange schedule, computed once and cached.

    ``modes[i]`` is how step ``i``'s probe reaches its inner: ``"local"``
    (the inner is replicated on every shard), ``"aligned"`` (repartition the
    outer by the probe key) or ``"broadcast"``.  ``live_before[i]`` is the
    set of flowing-schema positions still read at or after step ``i`` — the
    only columns an exchange in front of the step may ship.  When
    ``route_before`` is set, the flowing batch is pre-routed by the head's
    shard-key variable (at ``route_position`` of that step's input schema)
    and the final head route is skipped: every later step is local, so rows
    never leave their head-owner shard again.
    """

    modes: tuple[str, ...]
    schemas: tuple[tuple[str, ...], ...]
    live_before: tuple[frozenset, ...]
    live_final: frozenset
    route_before: int | None
    route_position: int | None


class ShardedSemiNaiveEvaluator:
    """Executes a compiled program plan over hash-partitioned relations."""

    def __init__(
        self,
        devices: list[Device],
        plan: ProgramPlan,
        relations: dict[str, ShardedRelation],
        *,
        max_iterations: int = 1_000_000,
        checkpoint_every: int = 0,
        checkpoint_store: CheckpointStore | None = None,
        max_retries: int = 3,
        retry_backoff_seconds: float = 1e-3,
        program_name: str = "",
        program_source: str = "",
        semijoin_filter: bool = True,
        overlap: bool = True,
        replicate_max_bytes: int = DEFAULT_REPLICATE_MAX_BYTES,
    ) -> None:
        self.devices = list(devices)
        self.num_shards = len(self.devices)
        self.plan = plan
        self.relations = relations
        self.max_iterations = int(max_iterations)
        #: snapshot (full, delta) of every shard each N iterations (0 = off)
        self.checkpoint_every = int(checkpoint_every)
        self.checkpoint_store = checkpoint_store
        self.max_retries = int(max_retries)
        self.retry_backoff_seconds = float(retry_backoff_seconds)
        self.program_name = program_name
        self.program_source = program_source
        #: semi-join filtering + EDB replication + head pre-routing lever
        self.semijoin_filter = bool(semijoin_filter)
        #: double-buffered exchange/compute overlap lever
        self.overlap = bool(overlap)
        self.replicate_max_bytes = int(replicate_max_bytes)
        self.last_checkpoint: EvaluationCheckpoint | None = None
        #: tuples moved across shards (the exchange volume in rows)
        self.exchange_tuples = 0
        #: join steps whose probe was shard-local after a key repartition
        self.aligned_joins = 0
        #: join steps that actually replicated outer rows (a filtered
        #: broadcast that ships nothing does not count)
        self.broadcast_joins = 0
        #: join steps answered from a replicated EDB inner (no exchange)
        self.replicated_joins = 0
        #: outer rows dropped by semi-join filters before shipping
        self.semijoin_rows_dropped = 0
        # Recovery counters (surfaced by the engine result).
        self.transient_retries = 0
        self.checkpoints_taken = 0
        self.checkpoint_restores = 0
        self.shard_rebuilds = 0
        # Exchange-schedule state (rebuilt on demand, dropped on rollback).
        self._filters = ExchangeFilterBank(self.devices)
        self._replicas: dict[str, list[Relation]] = {}
        self._replica_decision: dict[str, bool] = {}
        self._version_plans: dict[int, _VersionPlan] = {}

    @property
    def exchange_bytes(self) -> float:
        """Total interconnect bytes moved (sender-side, no double counting)."""
        return sum(device.profiler.interconnect_bytes for device in self.devices)

    # ------------------------------------------------------------------
    def evaluate(self, idb_facts=None, *, resume_from: EvaluationCheckpoint | None = None) -> EvaluationStats:
        """Run every stratum to its global fixpoint (all shards' deltas empty)."""
        idb_facts = dict(idb_facts or {})
        stats = EvaluationStats()
        analysis = self.plan.analysis

        try:
            return self._evaluate(idb_facts, stats, analysis, resume_from)
        finally:
            # Replicas hold real pool buffers and filters hold key arrays;
            # both are run-scoped caches, not results — release them so
            # ``close()`` finds every shard device empty.
            self._invalidate_exchange_state()

    def _evaluate(self, idb_facts, stats, analysis, resume_from) -> EvaluationStats:
        for stratum in analysis.strata:
            non_recursive, recursive = self.plan.versions_for_stratum(stratum.index)
            idb_in_stratum = sorted(stratum.relations & set(analysis.idb_relations))
            start_iteration = 0

            if resume_from is not None and stratum.index < resume_from.stratum_index:
                # Completed before the checkpoint; its state is inside it.
                stats.strata.append(
                    StratumResult(
                        index=stratum.index,
                        relations=tuple(idb_in_stratum),
                        recursive=stratum.recursive,
                        iterations=0,
                    )
                )
                continue
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
                elif self.checkpoint_every and self.last_checkpoint is None:
                    # First stratum: snapshot the pre-init state (EDB facts,
                    # empty IDB) so a shard crash while initial parts are
                    # routed has a boundary to roll back to.
                    self.save_checkpoint(
                        stratum.index, 0, pre_init=True, stratum_facts=stratum_facts
                    )
                self._initialize_stratum(
                    stratum.index, idb_in_stratum, non_recursive, stratum_facts
                )

            iterations = 0
            in_place_merges = 0
            rebuild_merges = 0
            if recursive:
                iterations, in_place_merges, rebuild_merges = self._run_fixpoint(
                    stratum.index, idb_in_stratum, recursive, start_iteration=start_iteration
                )
            else:
                for name in idb_in_stratum:
                    self.relations[name].clear_delta()

            stats.strata.append(
                StratumResult(
                    index=stratum.index,
                    relations=tuple(idb_in_stratum),
                    recursive=stratum.recursive,
                    iterations=iterations,
                    in_place_merges=in_place_merges,
                    rebuild_merges=rebuild_merges,
                )
            )
        return stats

    def _initialize_stratum(
        self,
        stratum_index: int,
        idb_in_stratum: list[str],
        non_recursive: list[RuleVersion],
        stratum_facts: dict,
    ) -> None:
        """Initialise the stratum: facts + non-recursive rule results, every
        part already routed to its owner shard.

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
                for version in non_recursive:
                    parts = self._retry_transient(
                        lambda version=version: self._execute_version(version),
                        label=f"{version.head_relation}<-{version.initial.relation}",
                    )
                    bucket = initial_parts[version.head_relation]
                    for shard, batch in enumerate(parts):
                        if len(batch):
                            bucket[shard].append(batch)
                for name in idb_in_stratum:
                    relation = self.relations[name]
                    for shard in range(self.num_shards):
                        backend = self.devices[shard].backend
                        parts = [
                            part.as_rows(label=f"{name}.init_materialize")
                            if isinstance(part, ColumnBatch)
                            else part
                            for part in initial_parts[name][shard]
                        ]
                        if not parts:
                            rows = backend.empty((0, relation.arity), dtype=backend.int64)
                        elif len(parts) == 1:
                            rows = parts[0]
                        else:
                            rows = backend.concatenate(parts, axis=0)
                        relation.initialize_shard(shard, rows, device_resident=True)
                return
            except ExchangeError as error:
                attempts += 1
                # Recovery needs a boundary that still holds the rebuilt
                # shard's pre-stratum partitions (EDB facts, earlier strata):
                # the first stratum's pre-init snapshot or the previous
                # stratum's final one.  Without checkpointing there is none.
                if attempts > self.max_retries or self.last_checkpoint is None:
                    raise FixpointInterrupted(
                        f"stratum {stratum_index} initialization: {error}",
                        checkpoint=self.last_checkpoint,
                        cause=error,
                    ) from error
                self._rebuild_crashed_shard(error)
                self.restore_checkpoint(self.last_checkpoint)
                self._charge_backoff(attempts, label="shard_rebuild")

    def _stage_ground_facts(self, name: str, rows, buckets: list[list]) -> None:
        """Partition host ground facts by owner and upload each part (charged H2D)."""
        relation = self.relations[name]
        parts = partition_rows_host(rows, relation.shard_column, self.num_shards)
        for shard, part in enumerate(parts):
            if part.shape[0]:
                device = self.devices[shard]
                buckets[shard].append(
                    device.kernels.from_host(part, dtype=device.backend.int64, label=f"{name}.h2d_facts")
                )

    # ------------------------------------------------------------------
    def delta_fixpoint(
        self,
        versions: list[RuleVersion],
        seeds: dict[str, "np.ndarray"],
        *,
        relation_names: list[str] | None = None,
    ) -> tuple[int, int, int]:
        """Run one delta-seeded fixpoint across the shard cluster (an epoch).

        The sharded twin of
        :meth:`~repro.datalog.seminaive.SemiNaiveEvaluator.delta_fixpoint`:
        host seed rows are routed to their owner shards (charged per-shard
        H2D), distilled into per-shard deltas, and the cluster fixpoint runs
        the supplied all-atom delta versions through the ordinary exchange
        machinery until every shard's delta is empty.

        Exchange caches are invalidated on entry *and* exit: replicated EDB
        inners and semi-join filters were built against pre-epoch fulls, and
        a mutation (especially a retraction applied between epochs) makes
        them stale — replicas would serve deleted tuples, which is a
        correctness bug, not just a pruning inefficiency.  They are rebuilt,
        charged, on first use inside the epoch.
        """
        names = sorted(relation_names if relation_names is not None else self.relations)
        self._invalidate_exchange_state()
        try:
            total_delta = 0
            for name in sorted(seeds):
                rows = seeds[name]
                relation = self.relations[name]
                if len(rows):
                    relation.add_new(rows)
                result = relation.end_iteration()
                total_delta += result.delta_count
                if result.delta_count and self._filters.has_relation(name):
                    self._filters.refresh(name, relation.shards)
            if total_delta == 0:
                return 0, 0, 0
            # Stratum -1: joint across strata, sound for positive programs.
            return self._run_fixpoint(-1, names, list(versions))
        finally:
            self._invalidate_exchange_state()

    # ------------------------------------------------------------------
    def _run_fixpoint(
        self,
        stratum_index: int,
        idb_in_stratum: list[str],
        recursive: list[RuleVersion],
        *,
        start_iteration: int = 0,
    ) -> tuple[int, int, int]:
        iteration = start_iteration
        in_place_merges = 0
        rebuild_merges = 0
        restores = 0
        if self.checkpoint_every and iteration == 0:
            # Baseline snapshot right after stratum init, so even an
            # iteration-1 crash has a boundary to roll back to.
            self.save_checkpoint(stratum_index, iteration)
        if self.overlap:
            for device in self.devices:
                device.profiler.begin_overlap_schedule()
        while True:
            iteration += 1
            if iteration > self.max_iterations:
                raise EvaluationError(
                    f"stratum {stratum_index} exceeded {self.max_iterations} iterations without reaching a fixpoint"
                )
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
                        parts = self._retry_transient(
                            lambda version=version: self._execute_version(version),
                            label=f"{version.head_relation}<-{version.initial.relation}",
                        )
                        head = self.relations[version.head_relation]
                        for shard, batch in enumerate(parts):
                            if len(batch):
                                with self.devices[shard].profiler.phase(PHASE_JOIN):
                                    head.add_new_shard(shard, batch, device_resident=True)
                    total_delta = 0
                    for name in idb_in_stratum:
                        result = self.relations[name].end_iteration()
                        total_delta += result.delta_count
                        in_place_merges += result.in_place_merges
                        rebuild_merges += result.rebuild_merges
                        # Fold the just-merged delta keys into any semi-join
                        # filters tracking this relation: the delta rows are
                        # exactly the keys that entered full this iteration.
                        if result.delta_count and self._filters.has_relation(name):
                            self._filters.refresh(name, self.relations[name].shards)
            except ExchangeError as error:
                # A shard died mid-exchange (possibly mid-overlap: the
                # in-flight window is simply dropped — its credits were only
                # granted at window close).  Its partitions are gone, and
                # the surviving shards may have advanced past the snapshot
                # boundary, so recovery is global: rebuild the dead device,
                # then roll *every* shard back to the last checkpoint.
                restores += 1
                if self.last_checkpoint is None or restores > self.max_retries:
                    raise FixpointInterrupted(
                        f"stratum {stratum_index} iteration {iteration}: {error}",
                        checkpoint=self.last_checkpoint,
                        cause=error,
                    ) from error
                self._rebuild_crashed_shard(error)
                self.restore_checkpoint(self.last_checkpoint)
                self._charge_backoff(restores, label="shard_rebuild")
                self._restart_overlap()
                iteration = self.last_checkpoint.iteration
                continue
            except TransientDeviceError as error:
                # Per-version retries are exhausted, or the fault hit a
                # non-idempotent step (merge): global rollback and replay.
                restores += 1
                if self.last_checkpoint is None or restores > self.max_retries:
                    raise FixpointInterrupted(
                        f"stratum {stratum_index} iteration {iteration}: {error}",
                        checkpoint=self.last_checkpoint,
                        cause=error,
                    ) from error
                self.restore_checkpoint(self.last_checkpoint)
                self._charge_backoff(restores, label="fixpoint_restore")
                self._restart_overlap()
                iteration = self.last_checkpoint.iteration
                continue
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
        """Refill the pipeline after a rollback: the first replayed window
        has no in-flight predecessor to hide behind."""
        if self.overlap:
            for device in self.devices:
                device.profiler.begin_overlap_schedule()

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
        # Filters were built from the pre-rollback fulls and replicas may
        # live on a device that no longer exists: drop both, they are
        # rebuilt (and re-charged) on demand from the restored state.
        self._invalidate_exchange_state()

    def _invalidate_exchange_state(self) -> None:
        """Drop semi-join filters and EDB replicas (rollback/rebuild path)."""
        for replicas in self._replicas.values():
            for replica in replicas:
                try:
                    replica.free()
                except Exception:
                    # A replica on the crashed device died with its pool.
                    pass
        self._replicas.clear()
        self._filters.invalidate()

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
        self._invalidate_exchange_state()

    def _retry_transient(self, attempt, *, label: str):
        """Retry an idempotent step on transient kernel faults with backoff."""
        retries = 0
        while True:
            try:
                return attempt()
            except TransientDeviceError:
                retries += 1
                self.transient_retries += 1
                if retries > self.max_retries:
                    raise
                self._charge_backoff(retries, label=label)

    def _charge_backoff(self, attempt: int, *, label: str) -> None:
        """Record simulated exponential backoff on shard 0 (the coordinator)."""
        seconds = self.retry_backoff_seconds * (2 ** (attempt - 1))
        self.devices[0].profiler.record(
            KernelCost(kernel=f"retry_backoff[{label}]", launches=0),
            seconds,
            phase=PHASE_RECOVERY,
            fixed_seconds=seconds,
        )

    # ------------------------------------------------------------------
    # Exchange scheduling (per rule version, cached)
    # ------------------------------------------------------------------
    def _replicable(self, name: str) -> bool:
        """True if ``name`` is a small static EDB inner worth replicating."""
        if not self.semijoin_filter or self.num_shards == 1:
            return False
        cached = self._replica_decision.get(name)
        if cached is not None:
            return cached
        relation = self.relations[name]
        payload_bytes = relation.full_count * relation.arity * 8
        decision = (
            name not in self.plan.analysis.idb_relations
            and 0 < payload_bytes <= self.replicate_max_bytes
        )
        self._replica_decision[name] = decision
        return decision

    def _version_plan(self, version: RuleVersion) -> _VersionPlan:
        plan = self._version_plans.get(id(version))
        if plan is not None:
            return plan
        live_before, live_final = version_live_columns(version)
        schemas = tuple(
            [tuple(version.initial.schema)] + [tuple(step.schema) for step in version.joins]
        )
        modes = []
        for step in version.joins:
            if self._replicable(step.relation):
                modes.append("local")
            elif self.relations[step.relation].aligned_with(step.join_columns):
                modes.append("aligned")
            else:
                modes.append("broadcast")
        route_before: int | None = None
        route_position: int | None = None
        if self.semijoin_filter and version.joins and self.num_shards > 1:
            head_var = head_shard_variable(
                version, self.relations[version.head_relation].shard_column
            )
            if head_var is not None:
                for index in range(len(version.joins)):
                    if head_var in schemas[index] and all(
                        mode == "local" for mode in modes[index:]
                    ):
                        route_before = index
                        route_position = schemas[index].index(head_var)
                        break
        plan = _VersionPlan(
            modes=tuple(modes),
            schemas=schemas,
            live_before=live_before,
            live_final=live_final,
            route_before=route_before,
            route_position=route_position,
        )
        self._version_plans[id(version)] = plan
        return plan

    def _replica_for(self, name: str, probe_columns: tuple[int, ...]) -> list[Relation]:
        """Full copies of EDB relation ``name``, one per shard device.

        Built once: every shard broadcasts its partition to all peers over
        the charged interconnect, each device concatenates what it received
        and pays the normal dedup/index build of ``Relation.initialize``.
        Only the index a probe actually uses is built (``probe_columns``,
        extended on demand when another rule probes a different column set
        — the source relation's identity index, for example, exists for
        merge/dedup, which a read-only replica never does).  Dropped (and
        rebuilt on demand) when a fault rolls the cluster back.
        """
        replicas = self._replicas.get(name)
        if replicas is not None:
            for replica in replicas:
                replica.build_index(probe_columns)
            return replicas
        relation = self.relations[name]
        parts_per_target: list[list] = [[] for _ in range(self.num_shards)]
        for source in range(self.num_shards):
            device = self.devices[source]
            rows = relation.shards[source].full_rows()
            if not len(rows):
                continue
            parts_per_target[source].append(rows)
            targets = [shard for shard in range(self.num_shards) if shard != source]
            copies = device.kernels.broadcast_to(
                rows, [self.devices[target] for target in targets], label=f"{name}.replicate"
            )
            for target, copy in zip(targets, copies):
                parts_per_target[target].append(copy)
        replicas = []
        try:
            for shard in range(self.num_shards):
                device = self.devices[shard]
                replica = Relation(
                    device,
                    f"{name}.replica",
                    relation.arity,
                    identity_index=False,
                    **relation._relation_config,
                )
                replica.require_index(probe_columns)
                parts = parts_per_target[shard]
                if not parts:
                    rows = device.backend.empty((0, relation.arity), dtype=device.backend.int64)
                elif len(parts) == 1:
                    rows = parts[0]
                else:
                    with device.profiler.phase(PHASE_SHARD_EXCHANGE):
                        rows = device.kernels.concatenate_rows(parts, label=f"{name}.replicate.gather")
                replica.initialize(rows, device_resident=True)
                replicas.append(replica)
        except BaseException:
            for replica in replicas:
                replica.free()
            raise
        self._replicas[name] = replicas
        return replicas

    # ------------------------------------------------------------------
    # Rule-version execution (per shard, with exchange barriers)
    # ------------------------------------------------------------------
    def _execute_version(self, version: RuleVersion) -> list[ColumnBatch]:
        """Execute one rule version; returns per-shard head batches, already
        routed to the head relation's owner shards."""
        plan = self._version_plan(version)
        batches = self._initial_rows(version)
        routed = False
        for index, step in enumerate(version.joins):
            if self._total(batches) == 0:
                return self._empties(len(version.head))
            if not routed and plan.route_before == index:
                batches = self._exchange(
                    batches,
                    key_position=plan.route_position,
                    width=len(plan.schemas[index]),
                    live=set(plan.live_before[index]) | {plan.route_position},
                    label=f"{version.head_relation}.route_early",
                )
                routed = True
            inner = self.relations[step.relation]
            mode = plan.modes[index]
            if mode == "local":
                self.replicated_joins += 1
                inners = self._replica_for(step.relation, tuple(step.join_columns))
            elif mode == "aligned":
                self.aligned_joins += 1
                batches = self._exchange(
                    batches,
                    key_position=step.outer_key_positions[0],
                    width=len(plan.schemas[index]),
                    live=set(plan.live_before[index]),
                    label=f"{version.head_relation}<-{step.relation}.route",
                    filter_key=(step.relation, step.join_columns[0]),
                )
                inners = inner.shards
            else:
                batches, shipped = self._broadcast(
                    batches,
                    key_position=step.outer_key_positions[0],
                    width=len(plan.schemas[index]),
                    live=set(plan.live_before[index]),
                    label=f"{version.head_relation}<-{step.relation}.bcast",
                    filter_key=(step.relation, step.join_columns[0]),
                )
                if shipped:
                    self.broadcast_joins += 1
                inners = inner.shards
            next_batches = []
            for shard, batch in enumerate(batches):
                device = self.devices[shard]
                if len(batch) == 0:
                    next_batches.append(ColumnBatch.empty(device, len(step.schema)))
                    continue
                with device.profiler.phase(PHASE_JOIN):
                    out = hash_join(
                        device,
                        batch,
                        step.outer_key_positions,
                        inners[shard].index_for(step.join_columns),
                        step.output,
                        comparisons=step.filters,
                        label=f"{version.head_relation}<-{step.relation}",
                    )
                    if step.post_projection is not None and len(out):
                        out = out.project(step.post_projection)
                if len(out) == 0:
                    out = ColumnBatch.empty(device, len(step.schema))
                next_batches.append(out)
            batches = next_batches

        head_parts = []
        for shard, batch in enumerate(batches):
            device = self.devices[shard]
            with device.profiler.phase(PHASE_JOIN):
                if len(batch) and version.final_filters:
                    batch = select(
                        device, batch, version.final_filters, label=f"{version.head_relation}.filter"
                    )
                head_parts.append(self._project_head(version, batch, device))
        if routed:
            # The flow was pre-routed by the head's shard key and every later
            # step was shard-local, so each head batch already sits on its
            # owner (the pre-route hash *is* the ownership hash): no tail
            # exchange at all.
            return head_parts
        head_relation = self.relations[version.head_relation]
        return self._exchange(
            head_parts,
            key_position=head_relation.shard_column,
            width=len(version.head),
            live=set(range(len(version.head))),
            label=f"{version.head_relation}.route_new",
        )

    def _initial_rows(self, version: RuleVersion) -> list[ColumnBatch]:
        initial = version.initial
        relation = self.relations[initial.relation]
        out = []
        for shard in range(self.num_shards):
            device = self.devices[shard]
            local = relation.shards[shard]
            batch = local.delta_batch if initial.version == DELTA else local.full_batch()
            if len(batch) == 0:
                out.append(ColumnBatch.empty(device, len(initial.schema)))
                continue
            with device.profiler.phase(PHASE_JOIN):
                arity = batch.arity
                if initial.filters:
                    batch = select(
                        device, batch, initial.filters, label=f"{initial.relation}.scan_filter"
                    )
                identity = tuple(initial.projection) == tuple(range(arity))
                if not identity and len(batch):
                    batch = batch.project(initial.projection)
            if len(batch) == 0:
                batch = ColumnBatch.empty(device, len(initial.schema))
            out.append(batch)
        return out

    def _project_head(self, version: RuleVersion, batch: ColumnBatch, device: Device) -> ColumnBatch:
        if len(batch) == 0:
            return ColumnBatch.empty(device, len(version.head))
        return batch.assemble(version.head_entries, label=f"{version.head_relation}.project_head")

    # ------------------------------------------------------------------
    # Exchange barriers
    # ------------------------------------------------------------------
    def _filter_bank(self, filter_key: tuple[str, int] | None) -> ExchangeFilterBank | None:
        """The filter bank with ``filter_key``'s key sets built, or ``None``."""
        if not self.semijoin_filter or filter_key is None:
            return None
        name, column = filter_key
        self._filters.ensure(name, column, self.relations[name].shards)
        return self._filters

    def _exchange(
        self,
        parts: list,
        *,
        key_position: int,
        width: int,
        live,
        label: str,
        filter_key: tuple[str, int] | None = None,
    ) -> list[ColumnBatch]:
        """Repartition flowing batches so each row sits on ``hash(row[key])``.

        Rows already on their key's shard never move, rows whose key misses
        the target shard's semi-join filter are dropped before shipping, and
        a shipped slice carries only its ``live`` columns (selection chains
        resolved sender-side) — each surviving slice crosses the interconnect
        exactly once, charged to the sender.  All of a source's outbound
        slices resolve and pack through one fused kernel sequence
        (:meth:`_ship_partitioned`); only the per-link DMA stays per target.
        """
        if self.num_shards == 1:
            return [ColumnBatch.wrap(self.devices[0], parts[0])]
        bank = self._filter_bank(filter_key)
        live_positions = sorted({int(position) for position in live} | {int(key_position)})
        slices: list[list[ColumnBatch]] = [[] for _ in range(self.num_shards)]
        for source, part in enumerate(parts):
            device = self.devices[source]
            batch = ColumnBatch.wrap(device, part)
            if len(batch) == 0:
                continue
            backend = device.backend
            with device.profiler.phase(PHASE_SHARD_EXCHANGE):
                keys = batch.column(key_position, label=f"{label}.key")
                owners = shard_owners(device, keys, self.num_shards, label=f"{label}.partition")
                outbound: list[tuple[int, object]] = []
                for target in range(self.num_shards):
                    indices = backend.nonzero_indices(owners == target)
                    if bank is not None and indices.shape[0]:
                        present = bank.probe(
                            device,
                            filter_key[0],
                            filter_key[1],
                            target,
                            backend.take(keys, indices),
                            label=f"{label}.semijoin",
                        )
                        if present is not None:
                            kept = indices[present]
                            self.semijoin_rows_dropped += int(indices.shape[0] - kept.shape[0])
                            indices = kept
                    if indices.shape[0] == 0:
                        continue
                    if target == source:
                        slices[target].append(batch.take(indices, label=f"{label}.local"))
                    else:
                        outbound.append((target, indices))
                        self.exchange_tuples += int(indices.shape[0])
                for target, shipped in self._ship_partitioned(
                    device, batch, outbound, live_positions, width, label
                ):
                    slices[target].append(shipped)
        return [
            self._gather_batches(target, slices[target], width, live_positions, label)
            for target in range(self.num_shards)
        ]

    def _broadcast(
        self,
        parts: list,
        *,
        key_position: int,
        width: int,
        live,
        label: str,
        filter_key: tuple[str, int] | None = None,
    ) -> tuple[list[ColumnBatch], int]:
        """Replicate flowing batches to every shard (misaligned probe).

        Correct for any partitioning because each *inner* tuple still lives
        on exactly one shard, so every match is produced exactly once.  With
        a semi-join filter the replication is per-target: a row ships only
        to the shards whose inner partition contains its probe key (possibly
        several, possibly none), and a target receiving nothing gets no
        transfer launch at all.  Returns ``(batches, rows_replicated)`` so
        the caller can keep ``broadcast_joins`` meaning "rows actually
        replicated".
        """
        if self.num_shards == 1:
            return [ColumnBatch.wrap(self.devices[0], parts[0])], 0
        bank = self._filter_bank(filter_key)
        live_positions = sorted({int(position) for position in live} | {int(key_position)})
        slices: list[list[ColumnBatch]] = [[] for _ in range(self.num_shards)]
        shipped_rows = 0
        for source, part in enumerate(parts):
            device = self.devices[source]
            batch = ColumnBatch.wrap(device, part)
            if len(batch) == 0:
                continue
            backend = device.backend
            if bank is None:
                # Unfiltered: one staged payload of the live columns, one
                # charged transfer per peer link.
                slices[source].append(batch)
                targets = [shard for shard in range(self.num_shards) if shard != source]
                with device.profiler.phase(PHASE_SHARD_EXCHANGE):
                    columns = batch.ship_columns(live_positions, label=label)
                    stacked = backend.column_stack(columns)
                    device.kernels.transform(
                        len(batch),
                        bytes_per_item=8.0 * len(live_positions),
                        ops_per_item=float(len(live_positions)),
                        label=f"{label}.pack",
                    )
                    copies = device.kernels.broadcast_to(
                        stacked, [self.devices[target] for target in targets], label=f"{label}.d2d"
                    )
                for target, copy in zip(targets, copies):
                    slices[target].append(
                        ColumnBatch.from_shipped(self.devices[target], copy, live_positions, width)
                    )
                shipped_rows += int(len(batch)) * len(targets)
                self.exchange_tuples += int(len(batch)) * len(targets)
                continue
            with device.profiler.phase(PHASE_SHARD_EXCHANGE):
                keys = batch.column(key_position, label=f"{label}.key")
                outbound: list[tuple[int, object]] = []
                for target in range(self.num_shards):
                    present = bank.probe(
                        device,
                        filter_key[0],
                        filter_key[1],
                        target,
                        keys,
                        label=f"{label}.semijoin",
                    )
                    if present is None:
                        indices = backend.nonzero_indices(backend.ones(len(batch), dtype=backend.bool_))
                    else:
                        indices = backend.nonzero_indices(present)
                        self.semijoin_rows_dropped += int(len(batch) - indices.shape[0])
                    if indices.shape[0] == 0:
                        continue
                    if target == source:
                        slices[target].append(batch.take(indices, label=f"{label}.local"))
                    else:
                        outbound.append((target, indices))
                        shipped_rows += int(indices.shape[0])
                        self.exchange_tuples += int(indices.shape[0])
                for target, shipped in self._ship_partitioned(
                    device, batch, outbound, live_positions, width, label
                ):
                    slices[target].append(shipped)
        return (
            [
                self._gather_batches(target, slices[target], width, live_positions, label)
                for target in range(self.num_shards)
            ],
            shipped_rows,
        )

    def _ship_partitioned(
        self,
        device: Device,
        batch: ColumnBatch,
        outbound: list,
        live_positions: list[int],
        width: int,
        label: str,
    ) -> list[tuple[int, ColumnBatch]]:
        """Move one source's outbound slices to their target shards, fused.

        ``outbound`` is ``[(target, row_indices), ...]`` for the foreign
        targets that keep at least one row.  Rather than resolving, packing
        and launching per target, the sender concatenates every outbound
        row-index set, resolves the batch's selection chains *once* at the
        combined length (live columns only), and packs all slices into one
        target-segmented buffer with a single charged kernel — per-iteration
        exchange launch latency stays flat in the shard count.  Only the
        per-link DMA (and nothing on the receiver, which takes a passive
        DMA write) remains per target; each target's segment is a zero-copy
        slice of the packed buffer.
        """
        if not outbound:
            return []
        backend = device.backend
        order = backend.concatenate([indices for _target, indices in outbound])
        sub_batch = batch.take(order, label=f"{label}.slice")
        columns = sub_batch.ship_columns(live_positions, label=label)
        stacked = backend.column_stack(columns)
        device.kernels.transform(
            len(sub_batch),
            bytes_per_item=8.0 * len(live_positions),
            ops_per_item=float(len(live_positions)),
            label=f"{label}.pack",
        )
        segments = []
        start = 0
        for target, indices in outbound:
            stop = start + int(indices.shape[0])
            segments.append((stacked[start:stop], self.devices[target]))
            start = stop
        copies = device.kernels.scatter_to(segments, label=f"{label}.d2d")
        return [
            (target, ColumnBatch.from_shipped(self.devices[target], copy, live_positions, width))
            for (target, _indices), copy in zip(outbound, copies)
        ]

    def _gather_batches(
        self, shard: int, parts: list[ColumnBatch], width: int, live_positions: list[int], label: str
    ) -> ColumnBatch:
        """Concatenate the slices a shard kept/received, live columns only."""
        device = self.devices[shard]
        if not parts:
            return ColumnBatch.empty(device, width)
        if len(parts) == 1:
            return parts[0]
        with device.profiler.phase(PHASE_SHARD_EXCHANGE):
            # One fused segmented-concat launch: every live column of every
            # received slice lands in its output offset in a single pass.
            with device.fused(f"{label}.gather_fused"):
                materialized = [
                    [part.column(position, label=f"{label}.gather") for position in live_positions]
                    for part in parts
                ]
                columns = device.kernels.concatenate_columns(materialized, label=f"{label}.gather")
        total = sum(len(part) for part in parts)
        live_map = {position: index for index, position in enumerate(live_positions)}
        placeholder = None
        full_columns = []
        for position in range(width):
            index = live_map.get(position)
            if index is not None:
                full_columns.append(columns[index])
            else:
                if placeholder is None:
                    placeholder = device.backend.zeros(total, dtype=device.backend.int64)
                full_columns.append(placeholder)
        return ColumnBatch.from_columns(device, full_columns, length=total)

    # ------------------------------------------------------------------
    def _total(self, batches: list) -> int:
        return sum(len(batch) for batch in batches)

    def _empties(self, width: int) -> list[ColumnBatch]:
        return [ColumnBatch.empty(device, width) for device in self.devices]
