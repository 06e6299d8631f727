"""Semi-naïve fixpoint evaluation (Figure 3 of the paper).

The evaluator executes a compiled :class:`~repro.datalog.planner.ProgramPlan`
stratum by stratum.  Within a recursive stratum it repeats:

1. **Join phase** — every recursive rule version joins the *delta* version of
   its chosen atom against the *full* indexes of the other atoms and appends
   the results to the head relation's *new* version.
2. **Populate delta / index delta / merge / clear new** — handled per relation
   by :class:`~repro.relational.relation.Relation.end_iteration`.

The loop terminates when every relation of the stratum produced an empty
delta.  All kernels are charged to the engine's device, tagged with the
fixpoint iteration and phase so that Table 1 and Figure 6 can be regenerated.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..device.cost import KernelCost
from ..device.device import Device
from ..device.profiler import PHASE_JOIN, PHASE_RECOVERY
from ..errors import (
    DeviceOutOfMemoryError,
    EvaluationError,
    FixpointInterrupted,
    TransientDeviceError,
)
from ..relational.checkpoint import CheckpointStore, EvaluationCheckpoint, RelationState
from ..relational.columnbatch import ColumnBatch
from ..relational.operators import fused_nway_join, hash_join, select
from ..relational.relation import Relation
from ..relational.wcoj import generic_join
from .planner import DELTA, WCOJ, ProgramPlan, RuleVersion

#: Deepest recursive halving of a rule version's input scan under OOM; at
#: depth 12 a chunk is 1/4096 of the scan and further splitting cannot help.
OOM_CHUNK_MAX_DEPTH = 12


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
class EvaluationStats:
    """Aggregate statistics produced by :class:`SemiNaiveEvaluator.evaluate`."""

    strata: list[StratumResult] = field(default_factory=list)

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
    """Executes a compiled program plan over a set of relations."""

    def __init__(
        self,
        device: Device,
        plan: ProgramPlan,
        relations: dict[str, Relation],
        *,
        materialize_nway: bool = True,
        max_iterations: int = 1_000_000,
        checkpoint_every: int = 0,
        checkpoint_store: CheckpointStore | None = None,
        max_retries: int = 3,
        retry_backoff_seconds: float = 1e-3,
        program_name: str = "",
        program_source: str = "",
        replan_every: int = 0,
        replanner=None,
    ) -> None:
        self.device = device
        self.plan = plan
        self.relations = relations
        self.materialize_nway = bool(materialize_nway)
        self.max_iterations = int(max_iterations)
        #: snapshot (full, delta) of every relation each N iterations (0 = off)
        self.checkpoint_every = int(checkpoint_every)
        self.checkpoint_store = checkpoint_store
        #: transient-fault retries per rule version, and global restores
        self.max_retries = int(max_retries)
        #: simulated backoff before retry k is ``base * 2**(k-1)`` seconds,
        #: recorded under the recovery phase (never a wall-clock sleep)
        self.retry_backoff_seconds = float(retry_backoff_seconds)
        self.program_name = program_name
        self.program_source = program_source
        #: adaptively re-plan recursive versions every N fixpoint iterations
        #: (0 = static plans); requires ``replanner``
        self.replan_every = int(replan_every)
        #: callable ``(version) -> RuleVersion | None`` producing a fresh plan
        #: for one rule version against *current* statistics (and building
        #: whatever new indexes the fresh plan probes)
        self.replanner = replanner
        self.last_checkpoint: EvaluationCheckpoint | None = None
        # Recovery counters (surfaced by the engine result).
        self.transient_retries = 0
        self.checkpoints_taken = 0
        self.checkpoint_restores = 0
        self.oom_chunked_joins = 0
        #: recursive versions whose pipeline actually changed on a replan
        self.replans = 0
        #: per-version observed output rows, keyed by (rule identity, delta
        #: atom) so the key survives version swaps; feeds ``explain()`` and
        #: the adaptive replanning drift test
        self.version_observations: dict[tuple[int, int | None], dict] = {}

    # ------------------------------------------------------------------
    def evaluate(
        self,
        idb_facts: dict[str, np.ndarray] | None = None,
        *,
        resume_from: EvaluationCheckpoint | None = None,
    ) -> EvaluationStats:
        """Run every stratum to its fixpoint.

        ``idb_facts`` optionally supplies ground facts for IDB relations
        (loaded together with the non-recursive rule results when the
        relation's stratum starts).  ``resume_from`` skips every stratum the
        checkpoint already completed, restores all relations from its
        snapshot, and continues the checkpointed stratum at the recorded
        iteration boundary.
        """
        idb_facts = dict(idb_facts or {})
        stats = EvaluationStats()
        analysis = self.plan.analysis

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
            if resume_from is not None and stratum.index == resume_from.stratum_index:
                self.restore_checkpoint(resume_from)
                start_iteration = resume_from.iteration
                resume_from = None
            else:
                # ------------------------------------------------------
                # Initialise the stratum: facts + non-recursive results.
                # ------------------------------------------------------
                backend = self.device.backend
                initial_rows: dict[str, list] = defaultdict(list)
                for name in idb_in_stratum:
                    if name in idb_facts:
                        # Ground IDB facts are host payloads: the stratum-init
                        # edge uploads them through the charged H2D transfer.
                        initial_rows[name].append(
                            self.device.kernels.from_host(
                                idb_facts.pop(name), dtype=backend.int64, label=f"{name}.h2d_facts"
                            )
                        )
                for version in non_recursive:
                    def stage(result, version=version):
                        # Stratum initialization is a materialization edge:
                        # the rows feed fact loading, which indexes them all.
                        # Charged as join output; the rows stay
                        # device-resident — no PCIe crossing here.
                        with self.device.profiler.phase(PHASE_JOIN):
                            initial_rows[version.head_relation].append(
                                result.as_rows(label=f"{version.head_relation}.materialize_init")
                            )

                    self._execute_with_recovery(version, stage)
                for name in idb_in_stratum:
                    relation = self.relations[name]
                    parts = initial_rows.get(name, [])
                    if parts:
                        rows = backend.concatenate(parts, axis=0)
                    else:
                        rows = backend.empty((0, relation.arity), dtype=backend.int64)
                    relation.initialize(rows, device_resident=True)

            iterations = 0
            in_place_merges = 0
            rebuild_merges = 0
            if recursive:
                iterations, in_place_merges, rebuild_merges = self._run_fixpoint(
                    stratum.index, idb_in_stratum, recursive, start_iteration=start_iteration
                )
            else:
                # Nothing recursive: clear deltas so later strata see stable fulls.
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
        appended through the charged ``add_new`` H2D edge and distilled into
        a delta by ``end_iteration`` (rows already present are filtered by
        populate-delta, so re-inserting a known fact is a no-op).  The loop
        then runs exactly the recursive machinery of :meth:`_run_fixpoint`
        over ``versions`` — the caller supplies delta versions for *every*
        body atom of every rule (EDB atoms included), which is the complete
        incremental-maintenance version set for positive programs: any new
        derivation must use at least one delta tuple in some body position,
        and joint (delta × delta) derivations are covered because every delta
        is merged into its full version at the previous iteration boundary.

        Preconditions (the serving engine maintains them as invariants):
        every relation's delta is empty on entry, and every index any of
        ``versions`` probes was registered before the relation initialized.
        Returns ``(iterations, in_place_merges, rebuild_merges)``; zero
        iterations means every seed was already present.
        """
        names = sorted(relation_names if relation_names is not None else self.relations)
        total_delta = 0
        for name in sorted(seeds):
            rows = seeds[name]
            if len(rows):
                self.relations[name].add_new(rows)
            total_delta += self.relations[name].end_iteration().delta_count
        if total_delta == 0:
            return 0, 0, 0
        # Stratum -1: the epoch fixpoint is joint across strata (sound for
        # the positive programs this engine evaluates — monotonicity makes
        # stratum order a scheduling choice, not a semantic one).
        return self._run_fixpoint(-1, names, list(versions))

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
            # iteration-1 fault has a boundary to roll back to.
            self.save_checkpoint(stratum_index, iteration)
        while True:
            iteration += 1
            if iteration > self.max_iterations:
                raise EvaluationError(
                    f"stratum {stratum_index} exceeded {self.max_iterations} iterations without reaching a fixpoint"
                )
            try:
                with self.device.profiler.iteration(iteration):
                    for version in recursive:
                        delta_relation = self.relations[version.initial.relation]
                        if delta_relation.delta_count == 0:
                            continue

                        def append_new(result, version=version):
                            # add_new materializes the result's head columns;
                            # that is the join's output write, so it is
                            # attributed to the join phase.  Join outputs are
                            # device-resident — no PCIe crossing at this edge.
                            with self.device.profiler.phase(PHASE_JOIN):
                                self.relations[version.head_relation].add_new(
                                    result, device_resident=True
                                )

                        self._execute_with_recovery(version, append_new)
                    total_delta = 0
                    for name in idb_in_stratum:
                        result = self.relations[name].end_iteration()
                        total_delta += result.delta_count
                        in_place_merges += result.in_place_merges
                        rebuild_merges += result.rebuild_merges
            except TransientDeviceError as error:
                # Per-version retries are exhausted, or the fault hit a
                # non-idempotent step (merge).  Roll every relation back to
                # the last iteration boundary and replay from there; without
                # a checkpoint the fixpoint cannot be replayed safely.
                restores += 1
                if self.last_checkpoint is None or restores > self.max_retries:
                    raise FixpointInterrupted(
                        f"stratum {stratum_index} iteration {iteration}: {error}",
                        checkpoint=self.last_checkpoint,
                        cause=error,
                    ) from error
                self.restore_checkpoint(self.last_checkpoint)
                self._charge_backoff(restores, label="fixpoint_restore")
                iteration = self.last_checkpoint.iteration
                continue
            if self.checkpoint_every and (
                iteration % self.checkpoint_every == 0 or total_delta == 0
            ):
                # The fixpoint itself is always snapshotted, mirroring the
                # sharded evaluator's stratum-final boundary.
                self.save_checkpoint(stratum_index, iteration)
            if total_delta == 0:
                break
            if (
                self.replanner is not None
                and self.replan_every
                and iteration % self.replan_every == 0
            ):
                recursive[:] = [self._maybe_replan(version) for version in recursive]
        return iteration, in_place_merges, rebuild_merges

    # ------------------------------------------------------------------
    # Adaptive replanning
    # ------------------------------------------------------------------
    @staticmethod
    def _version_key(version: RuleVersion) -> tuple[int, int | None]:
        return (id(version.rule), version.delta_atom_index)

    def _observe_version(self, version: RuleVersion, rows: int) -> None:
        entry = self.version_observations.setdefault(
            self._version_key(version),
            {"version": version, "rows": 0.0, "executions": 0, "window_rows": 0.0, "window_executions": 0},
        )
        entry["version"] = version
        entry["rows"] += float(rows)
        entry["executions"] += 1
        entry["window_rows"] += float(rows)
        entry["window_executions"] += 1

    def _maybe_replan(self, version: RuleVersion) -> RuleVersion:
        """Swap in a fresh plan when observed output drifts ≥ 2x from estimate.

        Drift is measured over the window since the last replan check; a
        version whose average observed output stays within [0.5x, 2x] of its
        estimate keeps its pipeline.  A replacement with the same atom order
        and algorithm only refreshes the estimates (same kernels); a changed
        pipeline counts as a replan.
        """
        entry = self.version_observations.get(self._version_key(version))
        if entry is None or not entry["window_executions"]:
            return version
        estimated = version.estimated_rows
        observed = entry["window_rows"] / entry["window_executions"]
        entry["window_rows"] = 0.0
        entry["window_executions"] = 0
        if estimated is None:
            return version
        ratio = max(observed, 1.0) / max(estimated, 1.0)
        if 0.5 <= ratio <= 2.0:
            return version
        replacement = self.replanner(version)
        if replacement is None:
            return version
        if (replacement.atom_order, replacement.algorithm) != (
            version.atom_order,
            version.algorithm,
        ):
            self.replans += 1
        entry["version"] = replacement
        return replacement

    # ------------------------------------------------------------------
    # Fault recovery
    # ------------------------------------------------------------------
    def save_checkpoint(self, stratum_index: int, iteration: int) -> EvaluationCheckpoint:
        """Snapshot every relation's (full, delta) at an iteration boundary."""
        checkpoint = EvaluationCheckpoint(
            program_name=self.program_name,
            stratum_index=stratum_index,
            iteration=iteration,
            num_shards=1,
            relations={
                name: RelationState(
                    name=name, arity=relation.arity, partitions=[relation.checkpoint_state()]
                )
                for name, relation in self.relations.items()
            },
            program_source=self.program_source,
        )
        if self.checkpoint_store is not None:
            self.checkpoint_store.save(checkpoint)
        self.last_checkpoint = checkpoint
        self.checkpoints_taken += 1
        return checkpoint

    def restore_checkpoint(self, checkpoint: EvaluationCheckpoint) -> None:
        """Roll every relation back to the checkpoint's iteration boundary."""
        for name, state in checkpoint.relations.items():
            relation = self.relations.get(name)
            if relation is not None:
                relation.restore(state.partitions[0])
        self.last_checkpoint = checkpoint
        self.checkpoint_restores += 1

    def _execute_with_recovery(
        self,
        version: RuleVersion,
        consume,
        *,
        part: tuple[int, int] = (0, 1),
        depth: int = 0,
    ) -> None:
        """Execute one rule version and hand its output to ``consume``.

        Transient kernel faults retry the whole (idempotent) version with
        exponential backoff; re-executed appends at worst duplicate tuples
        that deduplication removes.  An out-of-memory failure degrades
        gracefully instead: the version re-executes over halved row ranges
        of its input scan (recursively, down to single rows), each chunk
        consumed independently — every extra pass is charged through the
        cost model, so degradation is visible in the profile.
        """
        label = f"{version.head_relation}<-{version.initial.relation}"
        try:
            retries = 0
            while True:
                try:
                    result = self._execute_version(version, part=part)
                    self._observe_version(version, len(result))
                    if len(result):
                        consume(result)
                    return
                except TransientDeviceError:
                    retries += 1
                    self.transient_retries += 1
                    if retries > self.max_retries:
                        raise
                    self._charge_backoff(retries, label=label)
        except DeviceOutOfMemoryError:
            index, parts = part
            span = self._part_span(version, part)
            if span <= 1 or depth >= OOM_CHUNK_MAX_DEPTH:
                raise
            self.oom_chunked_joins += 1
            self.device.profiler.record(
                KernelCost(kernel=f"oom_degrade[{label}]", launches=0),
                0.0,
                phase=PHASE_RECOVERY,
            )
            self._execute_with_recovery(version, consume, part=(2 * index, 2 * parts), depth=depth + 1)
            self._execute_with_recovery(version, consume, part=(2 * index + 1, 2 * parts), depth=depth + 1)

    def _part_span(self, version: RuleVersion, part: tuple[int, int]) -> int:
        """Rows of the version's input scan covered by chunk ``part``."""
        relation = self.relations[version.initial.relation]
        count = relation.delta_count if version.initial.version == DELTA else relation.full_count
        index, parts = part
        return (count * (index + 1)) // parts - (count * index) // parts

    def _charge_backoff(self, attempt: int, *, label: str) -> None:
        """Record the simulated exponential backoff before retry ``attempt``.

        Deterministic: the wait is charged straight into the profiler under
        the recovery phase — the simulation never sleeps.
        """
        seconds = self.retry_backoff_seconds * (2 ** (attempt - 1))
        self.device.profiler.record(
            KernelCost(kernel=f"retry_backoff[{label}]", launches=0),
            seconds,
            phase=PHASE_RECOVERY,
            fixed_seconds=seconds,
        )

    # ------------------------------------------------------------------
    # Rule-version execution
    # ------------------------------------------------------------------
    def _execute_version(self, version: RuleVersion, *, part: tuple[int, int] = (0, 1)) -> ColumnBatch:
        with self.device.profiler.phase(PHASE_JOIN):
            rows = self._initial_rows(version, part=part)
            if len(rows) == 0:
                return ColumnBatch.empty(self.device, len(version.head))
            if version.algorithm == WCOJ:
                # Generic join: per-row min-side intersection over the
                # level candidates.
                rows = generic_join(
                    self.device,
                    rows,
                    version.wcoj_levels,
                    self._index_for,
                    label=f"{version.head_relation}.wcoj",
                )
            elif self.materialize_nway or len(version.joins) <= 1 or not self._fusable(version):
                rows = self._execute_materialized(version, rows)
            else:
                rows = self._execute_fused(version, rows)
            if len(rows) and version.final_filters:
                rows = select(self.device, rows, version.final_filters, label=f"{version.head_relation}.filter")
            return self._project_head(version, rows)

    def _initial_rows(self, version: RuleVersion, part: tuple[int, int] = (0, 1)) -> ColumnBatch:
        initial = version.initial
        relation = self.relations[initial.relation]
        # Zero-copy columnar scan over the relation's stored columns.
        rows = relation.delta_batch if initial.version == DELTA else relation.full_batch()
        arity = rows.arity
        if part != (0, 1):
            # Degraded (OOM) re-execution: one contiguous row range of the
            # scan, as views of the same stored columns.
            n = len(rows)
            index, parts = part
            start, stop = (n * index) // parts, (n * (index + 1)) // parts
            rows = ColumnBatch.from_columns(
                self.device,
                [column[start:stop] for column in rows.columns(charge=False)],
                length=stop - start,
            )
        if len(rows) == 0:
            return ColumnBatch.empty(self.device, len(initial.schema))
        if initial.filters:
            rows = select(self.device, rows, initial.filters, label=f"{initial.relation}.scan_filter")
        identity = tuple(initial.projection) == tuple(range(arity))
        if not identity:
            rows = rows.project(initial.projection)
        return rows

    def _execute_materialized(self, version: RuleVersion, rows: ColumnBatch) -> ColumnBatch:
        """Temporarily-materialized join chain (Section 5.2): one kernel per step.

        Each step's "materialization" is a lazy batch — balanced per-thread
        workloads are preserved (one binary join per kernel), but only the
        columns the next step or the head actually reads are ever gathered.
        """
        for step in version.joins:
            if len(rows) == 0:
                break
            inner = self.relations[step.relation].index_for(step.join_columns)
            rows = hash_join(
                self.device,
                rows,
                step.outer_key_positions,
                inner,
                step.output,
                comparisons=step.filters,
                label=f"{version.head_relation}<-{step.relation}",
            )
            if step.post_projection is not None and len(rows):
                rows = rows.project(step.post_projection)
        return rows

    def _execute_fused(self, version: RuleVersion, rows: ColumnBatch) -> ColumnBatch:
        """Non-materialized nested n-way join (ablation baseline of Section 5.2).

        The fused kernel is row-at-a-time; its output rejoins the pipeline as
        column views of the rows it wrote.
        """
        stages = []
        comparisons = []
        for step in version.joins:
            inner = self.relations[step.relation].index_for(step.join_columns)
            stages.append((step.outer_key_positions, inner, step.output))
        comparisons.extend(version.joins[-1].filters)
        return ColumnBatch.from_rows(
            self.device,
            fused_nway_join(
                self.device,
                rows,
                stages,
                comparisons=comparisons,
                label=f"{version.head_relation}.fused",
            ),
        )

    def _index_for(self, relation: str, columns: tuple[int, ...]):
        return self.relations[relation].index_for(columns)

    def _fusable(self, version: RuleVersion) -> bool:
        """A version can run fused only if intermediate steps carry no filters."""
        for step in version.joins[:-1]:
            if step.filters or step.post_projection is not None:
                return False
        return version.joins[-1].post_projection is None

    def _project_head(self, version: RuleVersion, rows: ColumnBatch) -> ColumnBatch:
        if len(rows) == 0:
            return ColumnBatch.empty(self.device, len(version.head))
        # Head variables are routed lazily (no copy); only constant columns
        # are written here.
        return rows.assemble(version.head_entries, label=f"{version.head_relation}.project_head")
