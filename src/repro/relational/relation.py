"""Semi-naïve relation storage: full / delta / new versions backed by HISA.

Figure 3 of the paper shows the per-iteration lifecycle of every IDB relation:
relational-algebra kernels append tuples to *new*; *delta* is populated by
removing from new everything already in *full*; delta is indexed and merged
into full; new is cleared.  :class:`Relation` implements exactly that
lifecycle, maintaining one HISA index of the full version per join-column set
requested by the query plan (Datalog engines index for every query), plus one
canonical all-column index used for deduplication.

The transfer boundary
---------------------

Relations are device-resident: every array they hold belongs to the device's
:class:`~repro.backend.base.ArrayBackend`.  Host payloads cross the PCIe
boundary exactly twice, and both edges are charged to the cost model:

* **into** the relation — :meth:`initialize` and :meth:`add_new` upload host
  rows via the charged ``from_host`` kernel unless the caller certifies the
  rows are already device-resident (``device_resident=True``, which the
  evaluator does for join outputs and materialized batches);
* **out of** the relation — callers extracting rows for host consumption
  (result collection) download via the charged ``to_host`` kernel.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from ..backend import Array, host_rows_to_tuples
from ..device.device import Device
from ..device.kernels import PackedColumns
from ..device.memory import Buffer
from ..device.profiler import (
    PHASE_CHECKPOINT,
    PHASE_DEDUPLICATION,
    PHASE_INDEX_DELTA,
    PHASE_INDEX_FULL,
    PHASE_MERGE,
    PHASE_POPULATE_DELTA,
    PHASE_RECOVERY,
    PHASE_RETRACTION,
)
from ..errors import DeviceOutOfMemoryError, SchemaError
from .buffers import MergeBufferManager, make_buffer_manager
from .checkpoint import PartitionState
from .columnbatch import ColumnBatch
from .hashtable import DEFAULT_LOAD_FACTOR
from .hisa import HISA
from .operators import RowsLike, deduplicate, difference, union

#: Smallest row count OOM degradation will split a dedup down to; below this
#: the scratch is a few KiB and a failure means the device is genuinely full.
OOM_DEDUP_FLOOR_ROWS = 256


@dataclass
class IterationStats:
    """Per-iteration bookkeeping returned by :meth:`Relation.end_iteration`."""

    iteration: int
    new_count: int
    delta_count: int
    full_count: int
    #: per-index merges absorbed in place (delta fit the data buffer headroom)
    in_place_merges: int = 0
    #: always 0: there is one merge path and it never rebuilds.  Read by
    #: ``bench/drivers.py`` (``count.rebuild_merges``); goes with that metric
    #: in the next ``benchmark`` PR.
    rebuild_merges: int = 0
    #: rows the rule versions appended to *new* this iteration, before
    #: deduplication (``new_count`` is what survived it): the duplication the
    #: join side produced and the dedup side had to sort away
    raw_count: int = 0


class Relation:
    """One Datalog relation with full/delta/new versions on a simulated device."""

    def __init__(
        self,
        device: Device,
        name: str,
        arity: int,
        *,
        load_factor: float = DEFAULT_LOAD_FACTOR,
        eager_buffers: bool = True,
        identity_index: bool = True,
        stats: "object | None" = None,
    ) -> None:
        if arity <= 0:
            raise SchemaError(f"relation {name!r} must have positive arity, got {arity}")
        self.device = device
        self.backend = device.backend
        self.name = name
        self.arity = int(arity)
        #: Optional StatsCatalog; every index merge reports its (free)
        #: delta/total counts into it for the cost-based planner.
        self.stats = stats
        self.load_factor = float(load_factor)
        self.eager_buffers = bool(eager_buffers)

        self._all_columns = tuple(range(self.arity))
        # The canonical all-column index backs full_rows()/full_count and the
        # merge/dedup cycle; probe-only relations (cross-shard replicas that
        # are only ever a join inner) skip it and pay for just the indexes
        # their probes require.
        self._index_column_sets: set[tuple[int, ...]] = (
            {self._all_columns} if identity_index else set()
        )
        self.full_indexes: dict[tuple[int, ...], HISA] = {}
        self._buffer_managers: dict[tuple[int, ...], MergeBufferManager] = {}
        self._delta: RowsLike = self.backend.empty((0, self.arity), dtype=self.backend.int64)
        self._delta_rows_view: Array | None = None
        self._new_parts: list[RowsLike] = []
        self._new_buffers: list[Buffer] = []
        self._delta_buffer: Buffer | None = None
        self._iteration = 0
        self.history: list[IterationStats] = []
        #: dedup passes that had to degrade into halved chunks after an OOM
        self.oom_degradations = 0

    # ------------------------------------------------------------------
    # Index registration
    # ------------------------------------------------------------------
    def require_index(self, join_columns: tuple[int, ...]) -> None:
        """Declare that the query plan range-queries this relation on ``join_columns``."""
        join_columns = tuple(int(c) for c in join_columns)
        if not join_columns:
            raise SchemaError("an index needs at least one join column")
        if any(c < 0 or c >= self.arity for c in join_columns):
            raise SchemaError(f"index columns {join_columns} out of range for {self.name!r}")
        self._index_column_sets.add(join_columns)

    def build_index(self, join_columns: tuple[int, ...]) -> None:
        """Ensure an index on ``join_columns`` exists, building it if needed.

        ``require_index`` only *registers* a column set before
        ``initialize``; this also backfills the index on an
        already-initialized relation — the path a probe-only replica takes
        when a second rule probes it on a column set the first build didn't
        cover.  Every HISA stores complete tuples, so any existing index can
        seed the new one.
        """
        join_columns = tuple(int(c) for c in join_columns)
        self.require_index(join_columns)
        if join_columns in self.full_indexes or not self.full_indexes:
            return
        seed = next(iter(self.full_indexes.values()))
        with self.device.profiler.phase(PHASE_INDEX_FULL):
            self.full_indexes[join_columns] = HISA(
                self.device,
                seed.natural_rows(),
                join_columns,
                load_factor=self.load_factor,
                label=f"{self.name}[{','.join(map(str, join_columns))}]",
            )
            self._buffer_managers[join_columns] = make_buffer_manager(
                self.device,
                eager=self.eager_buffers,
                label=f"{self.name}.merge_buffer",
            )
            self._attach_stats(self.full_indexes[join_columns], join_columns)

    @property
    def index_column_sets(self) -> set[tuple[int, ...]]:
        return set(self._index_column_sets)

    def index_for(self, join_columns: tuple[int, ...]) -> HISA:
        """Return the full-version HISA indexed on ``join_columns``."""
        join_columns = tuple(int(c) for c in join_columns)
        if join_columns not in self.full_indexes:
            raise SchemaError(
                f"relation {self.name!r} has no index on columns {join_columns}; "
                "call require_index() before initialize()"
            )
        return self.full_indexes[join_columns]

    @property
    def canonical_index(self) -> HISA:
        """The all-column index used for deduplication / membership tests."""
        return self.index_for(self._all_columns)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialize(self, rows: Array, *, device_resident: bool = False) -> None:
        """Load the initial facts: full = delta = deduplicated ``rows``.

        ``rows`` is treated as a *host* payload unless ``device_resident``
        certifies it already lives on the device (the evaluator's stratum
        initialization does); host rows pay the charged H2D transfer — the
        PCIe edge the cost model previously ignored.
        """
        if not device_resident:
            rows = self.device.kernels.from_host(
                rows, dtype=self.backend.int64, label=f"{self.name}.h2d_facts"
            )
        rows = self._coerce(rows)
        with self.device.profiler.phase(PHASE_DEDUPLICATION):
            rows = deduplicate(self.device, rows, label=f"{self.name}.init_dedup")
        self._delta = rows
        self._delta_rows_view = None
        with self.device.profiler.phase(PHASE_INDEX_FULL):
            # ``deduplicate`` left ``rows`` in natural lexicographic order, so
            # every index whose column order is the identity permutation (the
            # canonical all-column index and all prefix indexes) adopts that
            # one shared sort instead of re-sorting.
            for columns in sorted(self._index_column_sets):
                self.full_indexes[columns] = HISA(
                    self.device,
                    rows,
                    columns,
                    load_factor=self.load_factor,
                    label=f"{self.name}[{','.join(map(str, columns))}]",
                    assume_sorted=True,
                )
                self._buffer_managers[columns] = make_buffer_manager(
                    self.device,
                    eager=self.eager_buffers,
                    label=f"{self.name}.merge_buffer",
                )
                self._attach_stats(self.full_indexes[columns], columns)

    def add_new(self, rows: RowsLike, *, device_resident: bool = False) -> None:
        """Append freshly derived tuples (rows or a columnar batch) to *new*.

        A :class:`ColumnBatch` is materialized column-wise here — the
        delta-merge boundary of the late-materialization contract: every
        column that survived the rule's head projection is about to be read
        by deduplication anyway, and pinning values now decouples the batch
        from producer storage that later merges will grow.  Batches are
        device-resident by construction; row arrays are host payloads unless
        the caller says otherwise, and pay the charged H2D transfer.
        """
        if isinstance(rows, ColumnBatch):
            if rows.arity != self.arity:
                raise SchemaError(
                    f"relation {self.name!r} has arity {self.arity}, got a batch of arity {rows.arity}"
                )
            if len(rows) == 0:
                return
            # Resolving every lazy column of the incoming batch is one
            # multi-column gather kernel, not one launch per column.
            with self.device.fused(f"{self.name}.new_gather"):
                rows.columns(charge=True, label=f"{self.name}.new_gather")
        else:
            if not device_resident:
                rows = self.device.kernels.from_host(
                    rows, dtype=self.backend.int64, label=f"{self.name}.h2d_new"
                )
            rows = self._coerce(rows)
            if rows.shape[0] == 0:
                return
        buffer = self.device.allocate(rows.nbytes, label=f"{self.name}.new", charge_cost=False)
        self._new_parts.append(rows)
        self._new_buffers.append(buffer)

    def end_iteration(self) -> IterationStats:
        """Run the populate-delta / merge / clear-new steps of Figure 3."""
        self._iteration += 1
        profiler = self.device.profiler
        raw_count = self.new_count

        with profiler.phase(PHASE_DEDUPLICATION):
            if self._new_parts:
                new_rows = self._deduplicate_new(self._gather_new())
            else:
                new_rows = self.backend.empty((0, self.arity), dtype=self.backend.int64)
        new_count = len(new_rows)

        with profiler.phase(PHASE_POPULATE_DELTA):
            if new_count and self.full_count:
                delta = difference(self.device, new_rows, self.canonical_index, label=f"{self.name}.populate_delta")
            else:
                delta = new_rows
        delta_count = len(delta)

        # Retire the previous delta buffer and the accumulated new buffers.
        self._release_new_buffers()
        if self._delta_buffer is not None:
            self.device.free(self._delta_buffer, charge_cost=False)
            self._delta_buffer = None
        self._delta = delta
        self._delta_rows_view = None
        if delta_count:
            self._delta_buffer = self.device.allocate(delta.nbytes, label=f"{self.name}.delta", charge_cost=False)

        in_place_merges = 0
        if delta_count:
            delta_indexes: dict[tuple[int, ...], HISA] = {}
            with profiler.phase(PHASE_INDEX_DELTA):
                # ``delta`` is a subset of the deduplicated (sorted) new rows
                # with order preserved, so the per-iteration delta sort is
                # performed once and shared by every identity-order index.
                # No hash table: the merge consumes only the delta's sorted
                # data and cached keys, and nothing ever probes a delta index.
                for columns in sorted(self._index_column_sets):
                    # A prefix index adopts the dedup sort directly, so its
                    # build is column reorder + index adoption + run finding —
                    # elementwise stages over one pass, fused into one launch.
                    # Non-prefix indexes re-sort (a real multi-pass kernel)
                    # and keep their per-stage launches.
                    adopts_sort = columns == tuple(range(len(columns)))
                    with self.device.fused(f"{self.name}.delta.build_fused") if adopts_sort else nullcontext():
                        delta_indexes[columns] = HISA(
                            self.device,
                            delta,
                            columns,
                            load_factor=self.load_factor,
                            label=f"{self.name}.delta[{','.join(map(str, columns))}]",
                            assume_sorted=True,
                            build_hash_index=False,
                        )
            with profiler.phase(PHASE_MERGE):
                for columns in sorted(self._index_column_sets):
                    manager = self._buffer_managers[columns]
                    merged = self.full_indexes[columns].merge(delta_indexes[columns], manager)
                    self.full_indexes[columns] = merged
                    if merged.last_merge_in_place:
                        in_place_merges += 1

        stats = IterationStats(
            iteration=self._iteration,
            new_count=new_count,
            delta_count=delta_count,
            full_count=self.full_count,
            in_place_merges=in_place_merges,
            raw_count=raw_count,
        )
        self.history.append(stats)
        return stats

    def _gather_new(self) -> "RowsLike | PackedColumns":
        """Concatenate the accumulated *new* parts for deduplication.

        Columnar parts whose observed column ranges fit one 64-bit sort key
        are packed straight into a single key buffer — dedup is the only
        consumer, and it sorts exactly that key — so the ``arity``
        concatenated columns are never written.  Anything else is a plain
        :func:`union`.  Same kernel, same charge either way.
        """
        label = f"{self.name}.gather_new"
        if all(isinstance(part, ColumnBatch) for part in self._new_parts):
            packed = self.device.kernels.concatenate_packed(
                [part.columns(label=label) for part in self._new_parts], label=label
            )
            if packed is not None:
                return packed
        return union(self.device, self._new_parts, arity=self.arity, label=label)

    def _deduplicate_new(self, rows: "RowsLike | PackedColumns") -> RowsLike:
        """Deduplicate the gathered new rows with an accounted sort scratch.

        The radix sort inside deduplication needs O(n) transient device
        scratch; this models it as a real pool allocation so memory pressure
        (or an injected ``alloc`` fault) can surface here.  When the scratch
        cannot be satisfied the pass *degrades* instead of failing: each half
        is deduplicated with a half-size scratch and the sorted halves are
        merged with an adjacent-unique compaction — the same sorted,
        duplicate-free output, bought with extra charged merge passes.
        """
        try:
            scratch = self.device.allocate(
                int(rows.nbytes), label=f"{self.name}.dedup_scratch", charge_cost=False
            )
        except DeviceOutOfMemoryError:
            n = len(rows)
            if n <= OOM_DEDUP_FLOOR_ROWS:
                raise
            self.oom_degradations += 1
            if isinstance(rows, PackedColumns):
                rows = ColumnBatch.from_columns(self.device, rows.unpack())
            if isinstance(rows, ColumnBatch):
                rows = rows.as_rows(label=f"{self.name}.dedup_degrade_materialize")
            mid = n // 2
            left = self._deduplicate_new(rows[:mid])
            right = self._deduplicate_new(rows[mid:])
            merged = self.device.kernels.merge_sorted_rows(
                left, right, label=f"{self.name}.dedup_degrade_merge"
            )
            mask = self.device.kernels.adjacent_unique_mask(
                merged, label=f"{self.name}.dedup_degrade_unique"
            )
            return self.device.kernels.stream_compact(
                merged, mask, label=f"{self.name}.dedup_degrade_compact"
            )
        try:
            return deduplicate(self.device, rows, label=f"{self.name}.dedup_new")
        finally:
            self.device.free(scratch, charge_cost=False)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint_state(self, *, charge: bool = True) -> PartitionState:
        """Snapshot (full, delta) to host memory — the complete resumable state.

        Indexes, hash tables and buffer managers are deterministically
        rebuildable from these two column sets, so they are not serialized.
        The D2H downloads are charged under the checkpoint phase so snapshot
        overhead is visible in profiles (and in the robustness benchmark).
        """
        with self.device.profiler.phase(PHASE_CHECKPOINT):
            full = self.full_rows()
            delta = self.delta_rows
            if charge:
                full = self.device.kernels.to_host(full, label=f"{self.name}.d2h_checkpoint")
                delta = self.device.kernels.to_host(delta, label=f"{self.name}.d2h_checkpoint")
            else:
                full = self.backend.to_host(full)
                delta = self.backend.to_host(delta)
        return PartitionState(full=full, delta=delta, iteration=self._iteration)

    def restore(self, partition: PartitionState) -> None:
        """Rebuild every version and index from a host checkpoint partition.

        The inverse of :meth:`checkpoint_state`: frees whatever state the
        relation currently holds, re-uploads the snapshot's full rows through
        the ordinary :meth:`initialize` path (which rebuilds all HISA indexes
        from the sorted data), then overrides the delta version with the
        snapshot's delta.  All uploads are charged under the recovery phase.
        """
        self.free()
        with self.device.profiler.phase(PHASE_RECOVERY):
            self.initialize(partition.full)
            delta = self.device.kernels.from_host(
                partition.delta, dtype=self.backend.int64, label=f"{self.name}.h2d_restore_delta"
            )
            delta = self._coerce(delta)
            self._delta = delta
            self._delta_rows_view = None
            if len(delta):
                self._delta_buffer = self.device.allocate(
                    delta.nbytes, label=f"{self.name}.delta", charge_cost=False
                )
        self._iteration = int(partition.iteration)
        del self.history[self._iteration :]

    # ------------------------------------------------------------------
    # Serving-epoch support (membership probes, retraction, shadow deltas)
    # ------------------------------------------------------------------
    def present_rows(self, rows, *, device_resident: bool = False) -> "Array":
        """Host rows of ``rows`` that currently exist in the full version.

        The membership semi-join the serving engine's DRed over-delete phase
        starts from: requested retractions (and candidate over-deletions) are
        intersected with the resident full version before they enter the
        deletion frontier.  Host payloads pay the charged H2D upload, the
        probe is the canonical index's exact ``contains`` lookup, and the
        surviving rows come back through the charged D2H edge.
        """
        if not device_resident:
            rows = self.device.kernels.from_host(
                rows, dtype=self.backend.int64, label=f"{self.name}.h2d_present_probe"
            )
        rows = self._coerce(rows)
        if rows.shape[0] == 0 or self.full_count == 0:
            return np.empty((0, self.arity), dtype=np.int64)
        with self.device.profiler.phase(PHASE_RETRACTION):
            mask = self.canonical_index.contains(rows)
            kept = self.device.kernels.stream_compact(
                rows, mask, label=f"{self.name}.present_compact"
            )
            return self.device.kernels.to_host(kept, label=f"{self.name}.d2h_present")

    def retract(self, rows, *, device_resident: bool = False) -> int:
        """Remove ``rows`` from the full version; returns how many were removed.

        The apply step of a DRed deletion epoch.  HISA's merge path is
        insert-only, so retraction rebuilds: a temporary all-column index over
        the retract set masks the full version, survivors are stream-compacted,
        and every registered index is rebuilt from the compacted rows through
        the ordinary :meth:`initialize` path (all of it charged under the
        retraction phase).  The delta is cleared afterwards — between serving
        epochs every delta is empty by invariant.
        """
        if not device_resident:
            rows = self.device.kernels.from_host(
                rows, dtype=self.backend.int64, label=f"{self.name}.h2d_retract"
            )
        rows = self._coerce(rows)
        if rows.shape[0] == 0 or self.full_count == 0:
            self.clear_delta()
            return 0
        with self.device.profiler.phase(PHASE_RETRACTION):
            probe = HISA(
                self.device,
                rows,
                self._all_columns,
                load_factor=self.load_factor,
                label=f"{self.name}.retract_probe",
            )
            try:
                full = self.full_rows()
                doomed = probe.contains(full)
            finally:
                probe.free()
            keep = self.backend.compare("==", doomed, False)
            remaining = self.device.kernels.stream_compact(
                full, keep, label=f"{self.name}.retract_compact"
            )
            removed = self.full_count - int(remaining.shape[0])
            if removed == 0:
                self.clear_delta()
                return 0
            self.free()
            self.initialize(remaining, device_resident=True)
        self.clear_delta()
        return removed

    @contextmanager
    def shadow_delta(self, rows, *, device_resident: bool = False):
        """Temporarily present ``rows`` as this relation's delta version.

        The DRed over-delete phase executes delta rule versions with the
        deletion frontier standing in for the delta while the full version
        (still pre-deletion) serves the probes.  The real delta (empty
        between epochs by invariant) is restored on exit; the shadow rows
        are never merged and never allocate a delta buffer.
        """
        if not device_resident:
            rows = self.device.kernels.from_host(
                rows, dtype=self.backend.int64, label=f"{self.name}.h2d_shadow_delta"
            )
        rows = self._coerce(rows)
        saved = self._delta
        saved_view = self._delta_rows_view
        self._delta = rows
        self._delta_rows_view = None
        try:
            yield self
        finally:
            self._delta = saved
            self._delta_rows_view = saved_view

    def clear_delta(self) -> None:
        """Drop the delta version (used when a stratum reaches its fixpoint)."""
        self._delta = self.backend.empty((0, self.arity), dtype=self.backend.int64)
        self._delta_rows_view = None
        if self._delta_buffer is not None:
            self.device.free(self._delta_buffer, charge_cost=False)
            self._delta_buffer = None

    def free(self) -> None:
        """Release every simulated device buffer held by this relation."""
        for hisa in self.full_indexes.values():
            hisa.free()
        self.full_indexes.clear()
        for manager in self._buffer_managers.values():
            manager.release()
        self._buffer_managers.clear()
        self._release_new_buffers()
        self.clear_delta()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def full_count(self) -> int:
        if self._all_columns in self.full_indexes:
            return self.full_indexes[self._all_columns].tuple_count
        return 0

    @property
    def delta_count(self) -> int:
        return len(self._delta)

    @property
    def delta_rows(self) -> Array:
        """The delta version as a device-resident row array (row-pipeline view).

        A columnar delta is assembled into rows once and cached until the
        next delta replaces it.  Host consumers must download the result
        through the charged ``to_host`` kernel themselves.
        """
        if isinstance(self._delta, ColumnBatch):
            if self._delta_rows_view is None:
                self._delta_rows_view = self._delta.as_rows(charge=False)
            return self._delta_rows_view
        return self._delta

    @property
    def delta_batch(self) -> ColumnBatch:
        """The delta version as a columnar batch (zero-copy wrap)."""
        return ColumnBatch.wrap(self.device, self._delta)

    @property
    def new_count(self) -> int:
        return sum(len(part) for part in self._new_parts)

    def full_rows(self) -> Array:
        """All tuples of the full version in schema column order (device-resident)."""
        if self._all_columns in self.full_indexes:
            return self.full_indexes[self._all_columns].natural_rows()
        return self.backend.empty((0, self.arity), dtype=self.backend.int64)

    def full_rows_host(self, *, charge: bool = True):
        """Download the full version to host rows (the charged D2H edge)."""
        rows = self.full_rows()
        if charge:
            return self.device.kernels.to_host(rows, label=f"{self.name}.d2h_result")
        return self.backend.to_host(rows)

    def full_batch(self) -> ColumnBatch:
        """The full version as a columnar batch — zero-copy views of the
        canonical index's stored columns (the columnar scan fast path)."""
        if self._all_columns in self.full_indexes:
            hisa = self.full_indexes[self._all_columns]
            return ColumnBatch.from_columns(self.device, hisa.natural_columns(), length=hisa.tuple_count)
        return ColumnBatch.empty(self.device, self.arity)

    def as_set(self) -> set[tuple[int, ...]]:
        """The full version as a Python set of tuples (for tests; uncharged)."""
        return set(host_rows_to_tuples(self.full_rows_host(charge=False)))

    def memory_bytes(self) -> int:
        """Simulated device bytes currently attributable to this relation."""
        total = sum(hisa.nbytes for hisa in self.full_indexes.values())
        total += int(self._delta.nbytes)
        total += sum(int(part.nbytes) for part in self._new_parts)
        return total

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _attach_stats(self, hisa: HISA, columns: tuple[int, ...]) -> None:
        """Point one index's merge observer at the shared stats catalog.

        The initial build counts as a merge of the whole relation (iteration
        1's delta scan reads exactly these rows), so the catalog is seeded
        immediately rather than waiting for the first end_iteration.
        """
        if self.stats is None:
            return
        catalog, name, arity = self.stats, self.name, self.arity

        def observe(*, delta_rows, delta_distinct, total_rows, total_distinct, max_multiplicity=None):
            catalog.observe_merge(
                name,
                arity,
                columns,
                delta_rows=delta_rows,
                delta_distinct=delta_distinct,
                total_rows=total_rows,
                total_distinct=total_distinct,
                max_multiplicity=max_multiplicity,
            )

        hisa.stats_observer = observe
        observe(
            delta_rows=hisa.tuple_count,
            delta_distinct=hisa.distinct_key_count,
            total_rows=hisa.tuple_count,
            total_distinct=hisa.distinct_key_count,
            max_multiplicity=hisa.max_run_length,
        )

    def _coerce(self, rows: Array) -> Array:
        backend = self.backend
        rows = backend.asarray(rows, dtype=backend.int64)
        if rows.size == 0:
            return backend.empty((0, self.arity), dtype=backend.int64)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        if rows.ndim != 2 or rows.shape[1] != self.arity:
            raise SchemaError(
                f"relation {self.name!r} has arity {self.arity}, got tuples of shape {rows.shape}"
            )
        return backend.as_rows(rows)

    def _release_new_buffers(self) -> None:
        for buffer in self._new_buffers:
            self.device.free(buffer, charge_cost=False)
        self._new_buffers.clear()
        self._new_parts.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name!r}, arity={self.arity}, full={self.full_count}, delta={self.delta_count})"
