"""Relational-algebra kernels over HISA relations (Section 5.1).

These are the compute kernels the fixpoint loop of Figure 3 executes:

* :func:`hash_join` — Algorithm 3: iterate the outer relation's data array in
  strides, hash each tuple's join columns, probe the inner HISA's hash table,
  scan the matched run of the sorted index array, and emit result tuples.
* :func:`fused_nway_join` — the *non*-materialized nested n-way join used as
  the baseline of the Section 5.2 ablation: one kernel performs both joins,
  so warp divergence is charged on the combined per-thread workload.
* :func:`select`, :func:`deduplicate`, :func:`difference` — the remaining
  operators of the evaluation pipeline.

There is one layout: every operator takes a :class:`ColumnBatch` and returns
one, whose columns are gathered only when a downstream consumer touches them
(``hash_join`` returns the match-index pairs wrapped as a lazy batch instead
of materializing output tuples).  Projection and concatenation are batch
methods (:meth:`ColumnBatch.project`, :meth:`ColumnBatch.concatenate`).

Every array is owned by the device's
:class:`~repro.backend.base.ArrayBackend`; no operator calls an array library
directly, so the same code runs on NumPy, CuPy or the guard backend.
"""

from __future__ import annotations

from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Sequence

from ..backend import Array, INDEX_ITEMSIZE, TUPLE_ITEMSIZE
from ..device.cost import KernelCost
from ..device.device import Device
from ..device.kernels import PackedColumns
from ..device.simt import warp_divergence_factor
from ..errors import SchemaError
from .columnbatch import ColumnBatch
from .hisa import HISA

OUTER = "outer"
INNER = "inner"

@dataclass(frozen=True)
class JoinOutput:
    """One output column of a join: copy ``column`` from ``source``.

    ``source`` is ``"outer"`` or ``"inner"``; ``column`` is the natural
    (schema-order) column index within that relation.
    """

    source: str
    column: int

    def __post_init__(self) -> None:
        if self.source not in (OUTER, INNER):
            raise SchemaError(f"join output source must be 'outer' or 'inner', got {self.source!r}")
        if self.column < 0:
            raise SchemaError("join output column must be non-negative")


@dataclass(frozen=True)
class ColumnComparison:
    """A comparison predicate applied to result tuples (e.g. ``x != y``).

    Evaluation routes through the backend's ``compare`` kernel (the one
    comparison implementation every backend shares), so a backend overriding
    it for device-side evaluation is honoured.
    """

    op: str
    left_column: int
    right_column: int | None = None
    constant: int | None = None

    _OPS = ("==", "!=", "<", "<=", ">", ">=")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise SchemaError(f"unsupported comparison operator {self.op!r}")
        if (self.right_column is None) == (self.constant is None):
            raise SchemaError("exactly one of right_column or constant must be given")

    def evaluate_batch(self, batch: ColumnBatch, *, charge: bool = True, label: str = "compare") -> Array:
        """Evaluate on a columnar batch — materializes only the referenced columns."""
        left = batch.column(self.left_column, charge=charge, label=label)
        if self.right_column is not None:
            right = batch.column(self.right_column, charge=charge, label=label)
        else:
            right = self.constant
        return batch.device.backend.compare(self.op, left, right)


def _divergence(device: Device, work_per_item: Array) -> float:
    """Warp-divergence factor of per-lane work (host-side cost modelling).

    The SIMT model is analytic host code; backend arrays cross to host via
    the *uncharged* raw ``to_host`` — this is introspection of the cost
    model, not datapath payload movement.
    """
    return warp_divergence_factor(device.backend.to_host(work_per_item), device.spec.warp_size)


# ----------------------------------------------------------------------
# Binary hash join (Algorithm 3)
# ----------------------------------------------------------------------

#: A join makes its outer distinct on the live columns before expanding it only
#: when the probe found at least this many matches per outer row: the distinct
#: (a gather and a packed value sort of the ``n`` outer rows) then costs at most
#: 1/8 of the expansion work it can remove.  Measured on the benchmark's CSPA
#: instance (``load_dataset("httpd")``, ``h100``, median wall of 5 runs; the
#: steps the rule fires on fan out 20-98x there, every SG step fans out 3x and
#: never qualifies): 2, 4, 8, 16 and 32 all fire on the same 7 joins and give
#: 0.011487 simulated s and 493-561 ms; 64 fires on 5 (0.012064 s, 666 ms);
#: never firing is 0.015122 s and 1,135 ms.  The curve is flat, 8 is the margin.
DISTINCT_FANOUT = 8


@dataclass(frozen=True)
class LiveOuter:
    """The outer columns anything *after* a join still reads.

    The caller (the fixpoint driver, from ``RuleVersion.live_columns``) names
    them; :func:`hash_join` adds what it reads itself — probe keys and the
    outer columns its guards compare — and may then treat outer rows that
    agree on all of those as one row.  ``report`` is where the joins handed
    this object say what they did (the caller may share one between objects):
    the ``matches`` their probes counted before any distinct (what the plain
    join expands), ``eligible`` joins whose live set left out an outer
    column, of those the ``fired`` ones that replaced their outer by its
    distinct projection, and the outer ``rows_in`` / ``rows_out`` of that
    distinct.
    """

    columns: frozenset[int]
    report: Counter = field(default_factory=Counter)


def _distinct_launches(width: int) -> int:
    """Kernel launches distinct-before-expand adds to a join, ``width`` live
    columns: their gather, :meth:`DeviceKernels.unique_columns` (a radix pass
    and a gather per column, adjacent-compare, compact) and the second fused
    scope of the probe pipeline the distinct splits in two."""
    return 1 + (2 * width + 2) + 1


def hash_join(
    device: Device,
    outer: ColumnBatch,
    outer_join_columns: Sequence[int],
    inner: HISA,
    output: Sequence[JoinOutput],
    *,
    comparisons: Sequence[ColumnComparison] = (),
    label: str = "join",
    charge: bool = True,
    live_outer: LiveOuter | None = None,
) -> ColumnBatch:
    """Join an outer batch against an inner HISA.

    ``outer_join_columns[j]`` is the outer column matched against the inner's
    ``join_columns[j]``.  ``output`` lists the columns of the result tuple;
    ``comparisons`` (evaluated on the result layout) filter the output, which
    is how guards such as ``x != y`` in SG are applied inside the join kernel.

    Only the outer key columns are gathered to probe, and the result is a
    lazy batch of (match index, stored column) pairs — no output tuple is
    materialized until someone reads it.

    **Distinct before expand.**  ``live_outer`` names the outer columns
    anything downstream still reads (``None``: all of them).  Outer rows that
    agree on every live column produce outputs that differ only in columns
    nobody will read, so once the probe has counted the matches and *before
    anything of that size is written* the join replaces its outer by the
    distinct projection on the live columns iff (a) the live set omits an
    outer column, (b) the probe found at least :data:`DISTINCT_FANOUT`
    matches per outer row, and (c) the expansion is bandwidth-bound on this
    device: the modelled memory time of the ``scan_inner`` charge it is about
    to make is at least the launch latency of the kernels the distinct adds.
    The result then carries placeholders in its dead outer columns and holds
    the same tuple *set* on the live ones, in fewer rows.  (b) alone is not
    enough: a small join with a high fan-out is launch-bound, and the
    distinct's launches would cost more than the bytes it saves.
    """
    backend = device.backend
    outer_join_columns = [int(c) for c in outer_join_columns]
    if len(outer_join_columns) != inner.n_join:
        raise SchemaError(
            f"outer join columns {outer_join_columns} do not match inner key width {inner.n_join}"
        )
    out_arity = len(output)
    for spec in output:
        if spec.source == OUTER and spec.column >= outer.arity:
            raise SchemaError(f"outer column {spec.column} out of range")
        if spec.source == INNER and spec.column >= inner.natural_arity:
            raise SchemaError(f"inner column {spec.column} out of range")
    n = len(outer)
    if n == 0 or inner.tuple_count == 0:
        streamed_bytes = _streamed_key_bytes(outer, outer_join_columns)
        if charge and streamed_bytes:
            device.charge(KernelCost(kernel=f"{label}.scan_outer", sequential_bytes=streamed_bytes))
        return ColumnBatch.empty(device, out_arity)

    # The whole probe pipeline — key gather, hash, table probe, key verify,
    # match expansion and guard evaluation — is a chain of elementwise
    # stages over the same index space, which a real engine compiles into
    # one fused kernel.  The fusion scope folds every stage's bytes/ops
    # into a single launch; the stages below keep charging their own work
    # descriptions so the memory/compute accounting stays per-stage exact.
    with ExitStack() as fusion:
        fusion.enter_context(device.fused(f"{label}.probe_fused"))
        # 1-2. Read the outer key columns, hash them, probe the inner table.
        runs, lengths = _probe(device, outer, outer_join_columns, inner, label, charge)
        total_matches = int(lengths.sum())
        if live_outer is not None:
            live_outer.report["matches"] += total_matches

        # 2b. Distinct before expand (docstring).  A radix sort is not an
        #     elementwise stage: the probe so far closes as its own launch,
        #     the distinct pays its own, and the distinct keys are probed
        #     again (``d <= total_matches / DISTINCT_FANOUT`` of them) in a
        #     new scope that expansion and the guards then share.
        live = _live_outer_columns(live_outer, outer, outer_join_columns, output, comparisons)
        if live is not None:
            live_outer.report["eligible"] += 1
            if charge and _distinct_pays(device, n, total_matches, len(live)):
                fusion.close()
                outer = _distinct_outer(device, outer, live, label)
                live_outer.report.update(fired=1, rows_in=n, rows_out=len(outer))
                fusion.enter_context(device.fused(f"{label}.expand_fused"))
                runs, lengths = _probe(device, outer, outer_join_columns, inner, label, charge)
                total_matches = int(lengths.sum())

        # 3. Expand the matched runs into (probe index, data position) pairs.
        #    Only the two index vectors are written — tuple values stay put.
        if charge:
            device.charge(_scan_inner_cost(label, total_matches, _divergence(device, lengths)))
        if total_matches == 0:
            return ColumnBatch.empty(device, out_arity)
        probe_idx, data_positions = inner.expand_matches(runs, lengths)

        # 4. Wire the output columns as lazy gathers: outer columns route
        #    through the probe indices, inner columns reference the HISA's
        #    stored columns selected by data position.  Nothing is copied or
        #    composed here — selection chains resolve when (and only if) a
        #    column is read.
        routed_outer = outer.take(probe_idx, label=f"{label}.route_outer", monotone=True)
        inner_specs = [
            (inner.natural_column(spec.column), data_positions)
            for spec in output
            if spec.source == INNER
        ]
        extended = routed_outer.append_lazy(inner_specs)
        positions: list[int] = []
        inner_position = routed_outer.arity
        for spec in output:
            if spec.source == OUTER:
                positions.append(spec.column)
            else:
                positions.append(inner_position)
                inner_position += 1
        result = extended.project(positions)

        # 5. In-kernel comparison guards materialize only the columns they
        #    read; the guard mask and compaction ride in the fused kernel.
        if comparisons:
            mask = backend.ones(len(result), dtype=backend.bool_)
            for comparison in comparisons:
                mask &= comparison.evaluate_batch(result, charge=charge, label=f"{label}.guard")
            result = result.filter(mask, charge=charge, label=f"{label}.guard_compact")
    return result


def _streamed_key_bytes(outer: ColumnBatch, outer_join_columns: Sequence[int]) -> float:
    """Bytes of the outer key columns a probe streams (the materialized ones)."""
    streamed = sum(1 for column in outer_join_columns if outer.is_materialized(column))
    return float(len(outer)) * streamed * TUPLE_ITEMSIZE


def _probe(
    device: Device,
    outer: ColumnBatch,
    outer_join_columns: Sequence[int],
    inner: HISA,
    label: str,
    charge: bool,
):
    """Steps 1-2 of Algorithm 3: ``(runs, lengths)`` of every outer row's matches."""
    # Read only the outer *key* columns (the columnar saving: non-key columns
    # of the outer batch are not touched by the probe).  Already-materialized
    # key columns are charged here as a streaming scan; lazy ones pay their
    # own gather in ``column()`` instead, so a fully lazy key set charges
    # only the per-tuple probe ops.
    if charge:
        device.charge(
            KernelCost(
                kernel=f"{label}.scan_outer",
                sequential_bytes=_streamed_key_bytes(outer, outer_join_columns),
                ops=float(len(outer)),
            )
        )
    key_columns = [
        outer.column(column, charge=charge, label=f"{label}.gather_keys")
        for column in outer_join_columns
    ]
    return inner.lookup_columns(key_columns, charge=charge)


def _scan_inner_cost(label: str, total_matches: int, divergence: float = 1.0) -> KernelCost:
    """Match expansion: walk the matched runs, write the two index vectors."""
    return KernelCost(
        kernel=f"{label}.scan_inner",
        random_bytes=float(total_matches) * INDEX_ITEMSIZE,
        sequential_bytes=2.0 * float(total_matches) * INDEX_ITEMSIZE,
        ops=float(total_matches),
        divergence=divergence,
    )


def _live_outer_columns(
    live_outer: LiveOuter | None,
    outer: ColumnBatch,
    outer_join_columns: Sequence[int],
    output: Sequence[JoinOutput],
    comparisons: Sequence[ColumnComparison],
) -> list[int] | None:
    """Condition (a): the outer columns this join or anything after it reads,
    ascending, or ``None`` when that is every column (nothing to drop)."""
    if live_outer is None:
        return None
    live = set(live_outer.columns) | set(outer_join_columns)
    for comparison in comparisons:
        for position in (comparison.left_column, comparison.right_column):
            if position is not None and output[position].source == OUTER:
                live.add(output[position].column)
    return sorted(live) if len(live) < outer.arity else None


def _distinct_pays(device: Device, n: int, total_matches: int, width: int) -> bool:
    """Conditions (b) and (c) of distinct-before-expand (see :func:`hash_join`)."""
    if total_matches < DISTINCT_FANOUT * n:
        return False
    cost_model = device.cost_model
    added = KernelCost(kernel="distinct_outer", launches=_distinct_launches(width))
    return cost_model.memory_seconds(_scan_inner_cost("", total_matches)) >= cost_model.launch_seconds(added)


def _distinct_outer(device: Device, outer: ColumnBatch, live: list[int], label: str) -> ColumnBatch:
    """``outer``'s distinct projection on the ``live`` columns, at full arity.

    Charged like every other deduplication — a multi-column gather, then
    :meth:`DeviceKernels.unique_columns` with its own launches — and wrapped
    back into the flowing schema with unread placeholders in the dead
    positions, as an exchanged shipment is.
    """
    with device.fused(f"{label}.distinct_outer.gather"):
        columns = [outer.column(column, label=f"{label}.distinct_outer.gather") for column in live]
    distinct = device.kernels.unique_columns(columns, label=f"{label}.distinct_outer")
    return ColumnBatch.from_live_columns(device, distinct, live, outer.arity, names=outer.names)


# ----------------------------------------------------------------------
# Fused (non-materialized) n-way join — the Section 5.2 ablation baseline
# ----------------------------------------------------------------------

def fused_nway_join(
    device: Device,
    outer: ColumnBatch,
    stages: Sequence[tuple[Sequence[int], HISA, Sequence[JoinOutput]]],
    *,
    comparisons: Sequence[ColumnComparison] = (),
    label: str = "fused_join",
) -> ColumnBatch:
    """Evaluate a chain of joins inside a single simulated kernel.

    ``stages`` is a list of ``(outer_join_columns, inner_hisa, output)``
    entries; the output of stage *i* becomes the outer relation of stage
    *i + 1*.  Results are identical to running :func:`hash_join` per stage,
    but the cost is charged as one kernel whose per-thread workload is the
    *entire* downstream match count of each original outer tuple — threads
    whose tuple finds no matches idle until the busiest warp lane finishes
    every nested loop (Figure 5).
    """
    backend = device.backend
    if not stages:
        raise SchemaError("fused_nway_join requires at least one stage")

    # One launch: the outer gather and every stage's index probe fold their
    # own charges into it; the nested match walks are charged at the end,
    # once the per-lane workload (and so the divergence) is known.
    with device.fused(label):
        n_outer = len(outer)
        current = outer.columns(label=f"{label}.gather_outer")
        # Track, for every original outer tuple, how much nested work it generates.
        origin = backend.arange(n_outer, dtype=backend.int64)
        per_origin_work = backend.zeros(n_outer, dtype=backend.int64)
        total_random_bytes = 0.0
        total_ops = 0.0

        for join_cols, inner, output in stages:
            if origin.shape[0] == 0:
                current = [backend.empty(0, dtype=backend.int64) for _ in output]
                break
            runs, lengths = inner.lookup_columns([current[int(c)] for c in join_cols])
            backend.add_at(per_origin_work, origin, lengths)
            total_matches = int(lengths.sum())
            total_random_bytes += float(total_matches) * (max(1, inner.natural_arity) * TUPLE_ITEMSIZE + 8.0)
            total_ops += float(total_matches) * max(1, inner.natural_arity)

            probe_idx, data_positions = inner.expand_matches(runs, lengths)
            current = [
                current[spec.column][probe_idx]
                if spec.source == OUTER
                else inner.natural_column(spec.column)[data_positions]
                for spec in output
            ]
            origin = origin[probe_idx]

        result = ColumnBatch.from_columns(device, current, length=int(origin.shape[0]))
        if comparisons and len(result):
            mask = backend.ones(len(result), dtype=backend.bool_)
            for comparison in comparisons:
                mask &= comparison.evaluate_batch(result, label=f"{label}.guard")
            result = ColumnBatch.from_columns(device, [column[mask] for column in current])

        divergence = _divergence(device, per_origin_work)
        # Idle lanes issue no memory requests, so the whole warp's effective
        # bandwidth drops with divergence too — this is exactly the thread
        # starvation of Figure 5 that temporary materialization removes.
        device.charge(
            KernelCost(
                kernel=label,
                sequential_bytes=float(outer.nbytes) + float(result.nbytes),
                random_bytes=total_random_bytes * divergence,
                ops=max(total_ops, float(n_outer)),
                divergence=divergence,
            )
        )
    return result


# ----------------------------------------------------------------------
# Remaining relational operators
# ----------------------------------------------------------------------

def select(
    device: Device,
    batch: ColumnBatch,
    comparisons: Sequence[ColumnComparison],
    *,
    label: str = "select",
    charge: bool = True,
) -> ColumnBatch:
    """Filter ``batch`` by conjunction of comparison predicates.

    Only the columns the predicates read are materialized; the surviving
    rows stay lazy (one selection compose per source).
    """
    if len(batch) == 0 or not comparisons:
        return batch
    mask = device.backend.ones(len(batch), dtype=device.backend.bool_)
    for comparison in comparisons:
        mask &= comparison.evaluate_batch(batch, charge=charge, label=label)
    return batch.filter(mask, charge=charge, label=f"{label}.compact")


def deduplicate(
    device: Device, rows: "ColumnBatch | PackedColumns", *, label: str = "deduplicate"
) -> ColumnBatch:
    """Sort + adjacent-compare + compact deduplication [R4], as charged.

    :meth:`DeviceKernels.unique_columns` packs the columns into one 64-bit
    sort key when their observed ranges allow and sorts column by column
    otherwise; a batch that already is one packed key column
    (:class:`PackedColumns`, the gathered *new* version) is consumed as it
    is.  A batch's lazy columns are packed straight from their sources
    (:meth:`ColumnBatch.packed`), so the raw columns are never written; the
    device is charged their gathers either way.  On the host a packed batch
    with a dense key space marks an occupancy table instead of sorting.
    Every route leaves the result in natural lexicographic order and charges
    the device the same sort.
    """
    if isinstance(rows, PackedColumns):
        if len(rows) <= 1:
            return ColumnBatch.from_columns(device, rows.unpack())
        with device.fused(f"{label}.dedup_fused", launches=3):
            deduped = device.kernels.unique_columns(rows, label=label)
        return ColumnBatch.from_columns(device, deduped)
    if len(rows) <= 1:
        return rows
    if rows.arity == 0:
        # All zero-arity tuples are equal: one survivor.
        return ColumnBatch.from_columns(device, [], length=1, names=rows.names)
    # Column gather, sort epilogue, adjacent-compare and compaction
    # fuse around the multi-pass sort core: two radix passes plus one
    # fused gather/mask/compact kernel.
    with device.fused(f"{label}.dedup_fused", launches=3):
        columns = rows.packed(label=f"{label}.gather")
        if columns is None:
            columns = rows.columns(label=f"{label}.gather")
        deduped = device.kernels.unique_columns(columns, label=label)
    return ColumnBatch.from_columns(device, deduped, names=rows.names)


def difference(
    device: Device,
    rows: ColumnBatch,
    existing: HISA,
    *,
    label: str = "difference",
    charge: bool = True,
) -> ColumnBatch:
    """Return the tuples of ``rows`` not present in ``existing`` (populate-delta).

    ``existing`` must be indexed on all of its columns (the canonical ``full``
    index) so that membership can be answered by one range probe per tuple.
    The batch's columns are hashed directly — no row tuples are assembled for
    the membership probe.
    """
    if len(rows) == 0 or existing.tuple_count == 0:
        return rows
    # The membership probe is one fused kernel: gather, hash, table
    # probe, verify and compact all stream the same rows once.
    with device.fused(f"{label}.diff_fused"):
        columns = rows.columns(charge=charge, label=f"{label}.gather")
        present = existing.contains_columns(columns, charge=charge)
        keep = ~present
        # Compact eagerly: the delta feeds every index build next, so each
        # column is streamed once here instead of re-gathered per consumer.
        if charge:
            kept_columns = device.kernels.compact_columns(columns, keep, label=f"{label}.compact")
        else:
            kept_columns = [column[keep] for column in columns]
    return ColumnBatch.from_columns(
        device, kept_columns, length=device.backend.count_nonzero(keep), names=rows.names
    )
