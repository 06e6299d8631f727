"""Semi-naïve relation storage: full / delta / new versions backed by HISA.

Figure 3 of the paper shows the per-iteration lifecycle of every IDB relation:
relational-algebra kernels append tuples to *new*; *delta* is populated by
removing from new everything already in *full*; delta is indexed and merged
into full; new is cleared.  :class:`Relation` implements exactly that
lifecycle.  The full version's tuples live once, in one
:class:`~repro.relational.buffers.ColumnStore` per relation (per shard), in
the order they were derived; over it sits one HISA index per join-column set
the query plan requests (Datalog engines index for every query), plus one
canonical all-column index used for deduplication.  Each index is a column
order with its own sorted runs and hash table; an iteration appends its delta
to the store once, then merges the delta's sorted positions and keys into
every index.

The transfer boundary
---------------------

One rule: **a bare ``(n, arity)`` array is host data, a**
:class:`~repro.relational.columnbatch.ColumnBatch` **is device data, and
nothing else exists.**  Every version a relation holds — full (the HISA
indexes), delta, the accumulated *new* parts — is columnar, and the type of an
argument says which side of PCIe it is on:

* **in** — :meth:`ColumnBatch.from_host` is the only place a host array
  becomes device data: the charged ``from_host`` kernel, then column views of
  the uploaded block.  :meth:`Relation.initialize` and
  :meth:`Relation.add_new` take either form (a host array is uploaded
  first); :meth:`Relation.restore` takes host arrays.  The serving engine's
  DRed never crosses: :meth:`Relation.present_rows` and
  :meth:`Relation.shadow_delta` take device batches, and
  :meth:`Relation.retract` a device index.
* **out** — :meth:`ColumnBatch.to_host` is the only place device data becomes
  a host array again: the columns stacked into a row block and handed to the
  charged ``to_host`` kernel (:meth:`Relation.full_rows_host`,
  :meth:`Relation.checkpoint_state`).
"""

from __future__ import annotations

import itertools
from collections import Counter
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
from .buffers import ColumnStore, make_buffer_manager
from .checkpoint import PartitionState
from .columnbatch import ColumnBatch
from .hashtable import DEFAULT_LOAD_FACTOR
from .hisa import HISA
from .operators import DISTINCT_FANOUT, deduplicate, difference

#: Smallest row count OOM degradation will split a dedup down to; below this
#: the scratch is a few KiB and a failure means the device is genuinely full.
OOM_DEDUP_FLOOR_ROWS = 256

#: One counter for every relation in the process: a relation draws a fresh
#: generation when it is built and on every :meth:`Relation.initialize`, so two
#: different data tiers — a shard and the replacement a rebuild put in its
#: place included — never share one.
_GENERATIONS = itertools.count(1)


@dataclass
class IterationStats:
    """Per-iteration bookkeeping returned by :meth:`Relation.end_iteration`."""

    iteration: int
    new_count: int
    delta_count: int
    full_count: int
    #: data-tier appends absorbed in place (the delta fit the store's
    #: reserved headroom): at most one per relation per iteration
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
    ) -> None:
        if arity <= 0:
            raise SchemaError(f"relation {name!r} must have positive arity, got {arity}")
        self.device = device
        self.backend = device.backend
        self.name = name
        self.arity = int(arity)
        self.load_factor = float(load_factor)
        self.eager_buffers = bool(eager_buffers)

        self._all_columns = tuple(range(self.arity))
        # The canonical all-column index backs full_batch()/full_count and the
        # merge/dedup cycle; probe-only relations (cross-shard replicas that
        # are only ever a join inner) skip it and pay for just the indexes
        # their probes require.
        self._index_column_sets: set[tuple[int, ...]] = (
            {self._all_columns} if identity_index else set()
        )
        #: the full version's data tier (``None`` until loaded), read by every index
        self._store: ColumnStore | None = None
        self.full_indexes: dict[tuple[int, ...], HISA] = {}
        self._delta = ColumnBatch.empty(device, self.arity)
        self._new_parts: list[ColumnBatch] = []
        self._new_buffers: list[Buffer] = []
        #: rows the rule versions appended to *new* since it was last
        #: cleared, before any dedup on arrival (``IterationStats.raw_count``)
        self._raw_new_rows = 0
        self._delta_buffer: Buffer | None = None
        self._iteration = 0
        self.history: list[IterationStats] = []
        #: dedup passes that had to degrade into halved chunks after an OOM
        self.oom_degradations = 0
        #: Names the full version's data tier.  Between two loads it only
        #: grows by appends (every merge writes past the live rows, in place
        #: or into a grown copy), so while the generation is unchanged the
        #: rows at positions ``[n, full_count)`` are exactly those merged in
        #: since ``full_count`` was ``n`` (:meth:`appended_state`).
        self.generation = next(_GENERATIONS)

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
        cover.  The new index builds its index and table tiers over the
        relation's store.
        """
        join_columns = tuple(int(c) for c in join_columns)
        self.require_index(join_columns)
        if join_columns in self.full_indexes or self._store is None:
            return
        with self.device.profiler.phase(PHASE_INDEX_FULL):
            self.full_indexes[join_columns] = self._index(self._store, join_columns)

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
    def initialize(self, rows: "Array | ColumnBatch") -> None:
        """Load the initial facts: full = delta = deduplicated ``rows``.

        A host array pays the charged H2D transfer; a batch
        (stratum initialization, a retraction's survivors, a replica's
        shipment) is already on the device.
        """
        if not isinstance(rows, ColumnBatch):
            rows = self._upload(rows, "h2d_facts")
        self._check_arity(rows)
        self._load(rows, deduplicate_rows=True)

    def _load(self, rows: ColumnBatch, *, deduplicate_rows: bool) -> None:
        """Replace every version by ``rows``: full = delta = ``rows``,
        deduplicated first unless they already are a distinct full version
        (a checkpoint's, loaded in its saved order)."""
        # A load replaces whatever the relation held: a retraction's or a
        # restore's previous version, the empty indexes of a rolled-back stratum.
        self.free()
        self.generation = next(_GENERATIONS)
        if deduplicate_rows:
            with self.device.profiler.phase(PHASE_DEDUPLICATION):
                rows = deduplicate(self.device, rows, label=f"{self.name}.init_dedup")
        self._delta = rows
        with self.device.profiler.phase(PHASE_INDEX_FULL):
            self._store = ColumnStore(
                self.device,
                rows,
                label=self.name,
                manager=make_buffer_manager(self.device, eager=self.eager_buffers, label=f"{self.name}.merge_buffer"),
            )
            # ``deduplicate`` leaves ``rows`` in natural lexicographic order,
            # so every index whose column order is the identity permutation
            # (the canonical all-column index and all prefix indexes) adopts
            # that one shared sort instead of re-sorting.  Rows loaded as
            # they are keep their order in the store, and each index sorts
            # its own index tier.
            for columns in sorted(self._index_column_sets):
                self.full_indexes[columns] = self._index(self._store, columns, assume_sorted=deduplicate_rows)

    def add_new(self, rows: "Array | ColumnBatch", *, report: "Counter | None" = None) -> ColumnBatch:
        """Append freshly derived tuples (a batch, or host rows to upload) to
        *new*; returns the part as *new* holds it.

        The batch is materialized column-wise here — the delta-merge boundary
        of the late-materialization contract: every column that survived the
        rule's head projection is about to be read by deduplication anyway,
        and pinning values now decouples the batch from producer storage that
        later merges will grow.

        **Dedup on arrival.**  A part that no single launch holds resident
        (more than ``device.spec.resident_threads`` rows), arriving at a
        relation whose previous iteration produced at least
        :data:`~repro.relational.operators.DISTINCT_FANOUT` raw rows per
        distinct one, is deduplicated before it is appended, so *new* holds
        its distinct rows only and the raw ones are never gathered:
        :func:`~repro.relational.operators.deduplicate` packs the lazy head
        columns into its sort key straight from their sources, in its own
        launches under the deduplication phase, with the scratch and OOM
        degradation of :meth:`_deduplicate_new`.
        ``report`` (the rule version's observation) then counts the part:
        ``fired``, ``rows_in`` and ``rows_out``.
        """
        if not isinstance(rows, ColumnBatch):
            rows = self._upload(rows, "h2d_new")
        self._check_arity(rows)
        if len(rows) == 0:
            return rows
        self._raw_new_rows += len(rows)
        if self._fans_out(len(rows)):
            with self.device.profiler.phase(PHASE_DEDUPLICATION):
                distinct = self._deduplicate_new(rows, stage="arrival_")
            if report is not None:
                report.update(fired=1, rows_in=len(rows), rows_out=len(distinct))
            rows = distinct
        else:
            # Resolving every lazy column of the incoming batch is one
            # multi-column gather kernel, not one launch per column.
            with self.device.fused(f"{self.name}.new_gather"):
                rows.columns(charge=True, label=f"{self.name}.new_gather")
        buffer = self.device.allocate(rows.nbytes, label=f"{self.name}.new", charge_cost=False)
        self._new_parts.append(rows)
        self._new_buffers.append(buffer)
        return rows

    def add_swap(self, rows: ColumnBatch, *, resident: bool) -> None:
        """Append a mirrored rule version's output to *new*: rows an executed
        partner produced, with the two columns swapped.

        They are not a join's output, so ``raw_count`` does not count them,
        and they are never deduplicated on arrival: the swap of a part
        :meth:`add_new` deduplicated is distinct already, and a raw part's
        swap is deduplicated with the union in :meth:`end_iteration`.  A
        ``resident`` swap is a column reorder of a part this relation holds
        (one shard: it never moved), so it is appended as it is — its columns
        are resolved and it takes no buffer of its own.  Rows that crossed
        shards are gathered into a buffer like any arriving part.
        """
        self._check_arity(rows)
        if len(rows) == 0:
            return
        if not resident:
            with self.device.fused(f"{self.name}.new_gather"):
                rows.columns(charge=True, label=f"{self.name}.new_gather")
            self._new_buffers.append(
                self.device.allocate(rows.nbytes, label=f"{self.name}.new", charge_cost=False)
            )
        self._new_parts.append(rows)

    def _fans_out(self, rows: int) -> bool:
        """The dedup-on-arrival rule (:meth:`add_new`) for a part of ``rows`` rows."""
        if rows <= self.device.spec.resident_threads or not self.history:
            return False
        last = self.history[-1]
        return last.new_count > 0 and last.raw_count >= DISTINCT_FANOUT * last.new_count

    def end_iteration(self) -> IterationStats:
        """Run the populate-delta / merge / clear-new steps of Figure 3.

        A tail iteration, whose *new* rows (the parts as :meth:`add_new` kept
        them) one launch can hold resident (``device.spec.resident_threads``),
        runs gather, dedup, ``new - full`` and the delta index builds as one
        cooperative launch (``{name}.tail_fused``) under the deduplication
        phase, every stage's bytes and ops still charged: the long tail's
        per-iteration overhead (*Scaling-Up In-Memory Datalog Processing*,
        PAPERS.md).  The merge keeps its own launches.
        """
        self._iteration += 1
        profiler = self.device.profiler
        raw_count = self._raw_new_rows
        tail = 0 < self.new_count <= self.device.spec.resident_threads
        fused = self.device.fused(f"{self.name}.tail_fused") if tail else nullcontext()
        with profiler.phase(PHASE_DEDUPLICATION), fused:
            new_count, delta_indexes = self._populate_delta()
        delta_count = len(self._delta)

        in_place_merges = 0
        if delta_count:
            with profiler.phase(PHASE_MERGE):
                in_place_merges = int(self._store.append(self._delta.columns()))
                for columns in sorted(self._index_column_sets):
                    self.full_indexes[columns].merge(delta_indexes[columns])

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

    def _populate_delta(self) -> tuple[int, dict[tuple[int, ...], HISA]]:
        """Deduplicate *new* (in the caller's deduplication phase), make
        ``new - full`` the delta and index it; returns ``(new_count, delta_indexes)``."""
        profiler = self.device.profiler
        if self._new_parts:
            new_rows = self._deduplicate_new(self._gather_new())
        else:
            new_rows = ColumnBatch.empty(self.device, self.arity)

        with profiler.phase(PHASE_POPULATE_DELTA):
            if len(new_rows) and self.full_count:
                delta = difference(self.device, new_rows, self.canonical_index, label=f"{self.name}.populate_delta")
            else:
                delta = new_rows

        # Retire the previous delta buffer and the accumulated new buffers.
        self._release_new_buffers()
        if self._delta_buffer is not None:
            self.device.free(self._delta_buffer, charge_cost=False)
            self._delta_buffer = None
        self._delta = delta
        delta_indexes: dict[tuple[int, ...], HISA] = {}
        if not len(delta):
            return len(new_rows), delta_indexes
        self._delta_buffer = self.device.allocate(delta.nbytes, label=f"{self.name}.delta", charge_cost=False)
        with profiler.phase(PHASE_INDEX_DELTA):
            # ``delta`` is a subset of the deduplicated (sorted) new rows
            # with order preserved, so the per-iteration delta sort is
            # performed once and shared by every identity-order index.
            # No hash table and no data: the merge consumes only the delta's
            # sorted positions and cached keys, its rows reach the store by
            # one append, and nothing ever probes a delta index.
            rows = ColumnStore(self.device, delta, label=f"{self.name}.delta")
            for columns in sorted(self._index_column_sets):
                # A prefix index adopts the dedup sort directly, so its
                # build is index adoption — an elementwise stage over one
                # pass, one launch.  Non-prefix indexes re-sort (a real
                # multi-pass kernel) and keep their per-stage launches.
                adopts_sort = columns == tuple(range(len(columns)))
                with self.device.fused(f"{self.name}.delta.build_fused") if adopts_sort else nullcontext():
                    delta_indexes[columns] = self._index(
                        rows, columns, label=f"{self.name}.delta", assume_sorted=True, build_hash_index=False
                    )
        return len(new_rows), delta_indexes

    def _gather_new(self) -> "ColumnBatch | PackedColumns":
        """Concatenate the accumulated *new* parts for deduplication.

        Parts whose observed column ranges fit one 64-bit sort key are packed
        straight into a single key buffer — dedup is the only consumer, and it
        sorts exactly that key — so the ``arity`` concatenated columns are
        never written.  Anything else is a plain column-wise concatenation.
        Same kernel, same charge either way.
        """
        label = f"{self.name}.gather_new"
        packed = self.device.kernels.concatenate_packed(
            [part.columns(label=label) for part in self._new_parts], label=label
        )
        if packed is not None:
            return packed
        return ColumnBatch.concatenate(self.device, self._new_parts, arity=self.arity, label=label)

    def _deduplicate_new(self, rows: "ColumnBatch | PackedColumns", *, stage: str = "") -> ColumnBatch:
        """Deduplicate *new* rows with an accounted sort scratch: the gathered
        parts in :meth:`end_iteration`, or one part on arrival (``stage``
        ``"arrival_"``, which prefixes the labels).

        The radix sort inside deduplication needs O(n) transient device
        scratch; this models it as a real pool allocation so memory pressure
        (or an injected ``alloc`` fault) can surface here.  When the scratch
        cannot be satisfied the pass *degrades* instead of failing: each half
        is deduplicated with a half-size scratch, and the two sorted,
        duplicate-free halves are concatenated and deduplicated once more —
        the same sorted, duplicate-free output, bought with extra charged
        passes.
        """
        try:
            scratch = self.device.allocate(
                int(rows.nbytes), label=f"{self.name}.{stage}dedup_scratch", charge_cost=False
            )
        except DeviceOutOfMemoryError:
            n = len(rows)
            if n <= OOM_DEDUP_FLOOR_ROWS:
                raise
            self.oom_degradations += 1
            columns = rows.unpack() if isinstance(rows, PackedColumns) else rows.columns()
            halves = [
                self._deduplicate_new(
                    ColumnBatch.from_columns(self.device, [column[span] for column in columns]), stage=stage
                )
                for span in (slice(None, n // 2), slice(n // 2, None))
            ]
            label = f"{self.name}.{stage}dedup_degrade_merge"
            return deduplicate(
                self.device,
                ColumnBatch.concatenate(self.device, halves, arity=self.arity, label=label),
                label=label,
            )
        try:
            return deduplicate(self.device, rows, label=f"{self.name}.{stage}dedup_new")
        finally:
            self.device.free(scratch, charge_cost=False)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> PartitionState:
        """Snapshot (full, delta) to host memory — the complete resumable state.

        Indexes, hash tables and buffer managers are deterministically
        rebuildable from these two column sets, so they are not serialized.
        The D2H downloads are charged under the checkpoint phase so snapshot
        overhead is visible in profiles (and in the robustness benchmark).
        """
        return self.appended_state(0)

    def appended_state(self, start: int) -> PartitionState:
        """:meth:`checkpoint_state` of the full rows from data position
        ``start`` on: while :attr:`generation` is unchanged, the rows merged
        in since ``full_count`` was ``start``.  Only a non-empty part pays
        its charged D2H: an empty one is no transfer and launches nothing."""
        label = f"{self.name}.d2h_checkpoint"
        empty = np.empty((0, self.arity), dtype=np.int64)
        with self.device.profiler.phase(PHASE_CHECKPOINT):
            full = self.full_batch(start).to_host(label=label) if self.full_count > start else empty
            delta = self._delta.to_host(label=label) if len(self._delta) else empty
        return PartitionState(full=full, delta=delta, iteration=self._iteration)

    def restore(self, partition: PartitionState) -> None:
        """Rebuild every version and index from a host checkpoint partition.

        The inverse of :meth:`checkpoint_state`: re-uploads the snapshot's
        full rows and loads them as they are — they already are the distinct
        full version, in the order it was derived, which the data tier keeps
        while each index sorts its own index tier — then overrides the delta
        version with the snapshot's delta.  Everything is charged under the
        recovery phase.
        """
        with self.device.profiler.phase(PHASE_RECOVERY):
            self._load(self._upload(partition.full, "h2d_facts"), deduplicate_rows=False)
            delta = self._upload(partition.delta, "h2d_restore_delta")
            self._delta = delta
            if len(delta):
                self._delta_buffer = self.device.allocate(
                    delta.nbytes, label=f"{self.name}.delta", charge_cost=False
                )
        self._iteration = int(partition.iteration)
        del self.history[self._iteration :]

    # ------------------------------------------------------------------
    # Serving-epoch support (membership probes, retraction, shadow deltas)
    # ------------------------------------------------------------------
    def present_rows(self, batch: ColumnBatch) -> ColumnBatch:
        """The rows of ``batch`` that exist in the full version, on the device.

        The membership semi-join of the serving engine's DRed (retracts and
        over-deletions against a resident full, re-derived rows against a
        cone): the canonical index's membership test and a compaction,
        charged under the retraction phase; nothing crosses PCIe.
        """
        if len(batch) == 0 or self.full_count == 0:
            return ColumnBatch.empty(self.device, self.arity)
        with self.device.profiler.phase(PHASE_RETRACTION):
            columns = batch.columns(label=f"{self.name}.present_gather")
            kept = self.device.kernels.compact_columns(
                columns, self.canonical_index.contains_columns(columns), label=f"{self.name}.present_compact"
            )
            return ColumnBatch.from_columns(self.device, kept)

    def retract(self, doomed: HISA) -> int:
        """Remove every row the all-column index ``doomed`` (a DRed cone's,
        on this device) holds from the full version; returns how many.

        HISA's merge path is insert-only, so retraction rebuilds: ``doomed``
        masks the full version, survivors are stream-compacted, and every
        index is rebuilt through :meth:`initialize` (all charged under the
        retraction phase).  The delta is cleared afterwards — between
        serving epochs every delta is empty by invariant.
        """
        if self.full_count == 0:
            self.clear_delta()
            return 0
        with self.device.profiler.phase(PHASE_RETRACTION):
            full = self.full_batch().columns()
            keep = self.backend.compare("==", doomed.contains_columns(full), False)
            remaining = ColumnBatch.from_columns(
                self.device,
                self.device.kernels.compact_columns(full, keep, label=f"{self.name}.retract_compact"),
            )
            removed = self.full_count - len(remaining)
            if removed:
                self.initialize(remaining)
        self.clear_delta()
        return removed

    @contextmanager
    def shadow_delta(self, batch: ColumnBatch):
        """Temporarily present the device ``batch`` as this relation's delta.

        DRed's over-delete runs delta rule versions with its frontier (a
        cone's delta) standing in for the delta while the pre-deletion full
        serves the probes.  The real delta (empty between epochs) is restored
        on exit; the shadow rows are never merged and hold no buffer here.
        """
        saved = self._delta
        self._delta = batch
        try:
            yield self
        finally:
            self._delta = saved

    def clear_delta(self) -> None:
        """Drop the delta version (used when a stratum reaches its fixpoint)."""
        self._delta = ColumnBatch.empty(self.device, self.arity)
        if self._delta_buffer is not None:
            self.device.free(self._delta_buffer, charge_cost=False)
            self._delta_buffer = None

    def free(self) -> None:
        """Release every simulated device buffer held by this relation."""
        for hisa in self.full_indexes.values():
            hisa.free()
        self.full_indexes.clear()
        if self._store is not None:
            self._store.free()
            self._store = None
        self._release_new_buffers()
        self.clear_delta()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def full_count(self) -> int:
        return len(self._store) if self._store is not None else 0

    @property
    def delta_count(self) -> int:
        return len(self._delta)

    @property
    def delta_batch(self) -> ColumnBatch:
        """The delta version."""
        return self._delta

    @property
    def new_count(self) -> int:
        """Rows *new* holds: each part as :meth:`add_new` kept it."""
        return sum(len(part) for part in self._new_parts)

    def full_rows_host(self, *, charge: bool = True) -> np.ndarray:
        """Download the full version to host rows (the charged D2H edge)."""
        return self.full_batch().to_host(label=f"{self.name}.d2h_result", charge=charge)

    def full_batch(self, start: int = 0) -> ColumnBatch:
        """The full version (from data position ``start`` on) as a columnar
        batch — zero-copy views of the store's columns (the columnar scan
        fast path)."""
        if self._store is None:
            return ColumnBatch.empty(self.device, self.arity)
        columns = [column[start:] for column in self._store.live_columns()]
        return ColumnBatch.from_columns(self.device, columns, length=self.full_count - start)

    def as_set(self) -> set[tuple[int, ...]]:
        """The full version as a Python set of tuples (for tests; uncharged)."""
        return set(host_rows_to_tuples(self.full_rows_host(charge=False)))

    def memory_bytes(self) -> int:
        """Simulated device bytes currently attributable to this relation:
        the store, each index's index and table tiers, delta and *new*."""
        total = self._store.nbytes if self._store is not None else 0
        total += sum(hisa.nbytes for hisa in self.full_indexes.values())
        if self._delta_buffer is not None:
            # a loaded or shadowed delta is a view of rows held elsewhere
            total += self._delta_buffer.nbytes
        # a resident swap (``add_swap``) is a view of a part and holds no buffer
        total += sum(buffer.nbytes for buffer in self._new_buffers)
        return total

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _index(self, store: ColumnStore, columns: tuple[int, ...], *, label: str | None = None, **options) -> HISA:
        """A HISA over ``store`` on ``columns``, labelled ``{label}[columns]``."""
        return HISA(
            self.device,
            store,
            columns,
            load_factor=self.load_factor,
            label=f"{label or self.name}[{','.join(map(str, columns))}]",
            **options,
        )

    def _upload(self, rows: Array, edge: str) -> ColumnBatch:
        return ColumnBatch.from_host(self.device, rows, self.arity, label=f"{self.name}.{edge}")

    def _check_arity(self, batch: ColumnBatch) -> None:
        if batch.arity != self.arity:
            raise SchemaError(
                f"relation {self.name!r} has arity {self.arity}, got a batch of arity {batch.arity}"
            )

    def _release_new_buffers(self) -> None:
        for buffer in self._new_buffers:
            self.device.free(buffer, charge_cost=False)
        self._new_buffers.clear()
        self._new_parts.clear()
        self._raw_new_rows = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name!r}, arity={self.arity}, full={self.full_count}, delta={self.delta_count})"
