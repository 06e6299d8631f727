"""Worst-case-optimal generic join over HISA indexes (columnar pipeline).

The planner's ``cost+wcoj`` mode compiles a cyclic rule version into a
sequence of :class:`~repro.datalog.planner.WCOJLevel`\\ s — one per variable
beyond the outer atom's — and every level lists the body atoms (candidates)
that constrain its variable.  :func:`generic_join` executes those levels with
the classic generic-join recipe, vectorised over the whole frontier batch:

1. **Probe** every candidate's bound-column HISA index with the frontier's
   already-bound columns, yielding per-row match counts (``lookup_columns``
   returns run lengths; a miss is 0).
2. **Pick the minimum side per row** — the worst-case-optimality argument:
   each frontier row expands only its *smallest* candidate run, never a
   larger one, so the per-level work is bounded by the intersection size
   times the number of candidates (up to the membership probes).  The
   argmin is deterministic: ties keep the lowest candidate position.
3. **Expand** each candidate's chosen rows through its sorted-run index
   (``expand_matches``) and append the level variable's values as a lazy
   column — same late-materialization wiring as the binary columnar join.
4. **Membership-check** the expanded rows against every *other* candidate's
   full-arity (deduplicated) index and compact the survivors.
5. **Concatenate** the per-candidate parts in candidate order.

Everything is charged to the simulated device with deterministic kernel
names (level index + candidate atom index), so fault plans targeting WCOJ
kernels replay exactly like binary-join plans.  With more than one shard the
driver never calls this operator — a WCOJ version's decomposed expand/check
:class:`~repro.datalog.planner.JoinStep`\\ s run through the ordinary
exchange machinery instead — so this file is the single-device columnar
fast path.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..backend import INDEX_ITEMSIZE
from ..device.cost import KernelCost
from ..device.device import Device
from .columnbatch import ColumnBatch
from .hisa import HISA
from .operators import _divergence

__all__ = ["generic_join"]

#: Resolves (relation name, join columns) to the relation's full-version HISA.
IndexResolver = Callable[[str, tuple[int, ...]], HISA]


def generic_join(
    device: Device,
    outer: ColumnBatch,
    levels: Sequence,
    index_for: IndexResolver,
    *,
    label: str = "wcoj",
    charge: bool = True,
) -> ColumnBatch:
    """Extend ``outer`` by one variable per level via multi-way intersection.

    ``outer`` flows in the version's initial schema; the result batch appends
    one column per level, matching the decomposed plan's final schema.
    """
    batch = outer
    total_levels = len(levels)
    for depth, level in enumerate(levels):
        if len(batch) == 0:
            return ColumnBatch.empty(device, batch.arity + total_levels - depth)
        batch = _extend_level(
            device, batch, level, index_for, label=f"{label}.l{depth}", charge=charge
        )
    return batch


def _extend_level(
    device: Device,
    batch: ColumnBatch,
    level,
    index_for: IndexResolver,
    *,
    label: str,
    charge: bool,
) -> ColumnBatch:
    """One generic-join level: per-row min-side expansion + membership checks."""
    backend = device.backend
    n = len(batch)
    out_arity = batch.arity + 1

    # The probe / argmin / expand / check chain is one fused launch per
    # level, like the binary join's probe pipeline; stages keep charging
    # their own bytes/ops so the accounting stays per-stage exact.
    with device.fused(f"{label}.intersect_fused"):
        # 1. Probe every candidate's bound-column index for match counts.
        probes: list[tuple[object, HISA, object, object]] = []
        for candidate in level.candidates:
            index = index_for(candidate.relation, candidate.join_columns)
            keys = [
                batch.column(position, charge=charge, label=f"{label}.gather_keys")
                for position in candidate.outer_key_positions
            ]
            runs, lengths = index.lookup_columns(keys, charge=charge)
            probes.append((candidate, index, runs, lengths))

        # 2. Deterministic per-row argmin of the match counts: strict `<`
        #    keeps the earlier (lowest candidate position) side on ties.
        #    Complements come from a second compare so the whole selection
        #    stays inside the backend contract (compare + arithmetic).
        choice = backend.zeros(n, dtype=backend.int64)
        best = probes[0][3]
        for position in range(1, len(probes)):
            lengths_here = probes[position][3]
            smaller = backend.compare("<", lengths_here, best).astype(backend.int64)
            keep = backend.compare(">=", lengths_here, best).astype(backend.int64)
            choice = choice * keep + smaller * position
            best = best * keep + lengths_here * smaller
        if charge and len(probes) > 1:
            device.charge(
                KernelCost(
                    kernel=f"{label}.min_select",
                    sequential_bytes=float(n) * len(probes) * INDEX_ITEMSIZE,
                    ops=float(n) * len(probes),
                )
            )

        # 3-4. Expand each candidate's chosen rows, then semi-join the
        #      expansion against every other candidate's full-arity index.
        parts: list[ColumnBatch] = []
        for position, (candidate, index, runs, lengths) in enumerate(probes):
            if len(probes) == 1:
                part, runs_sel, lengths_sel = batch, runs, lengths
            else:
                mask = backend.compare("==", choice, position)
                row_indices = backend.nonzero_indices(mask)
                if charge:
                    device.kernels.transform(
                        n, bytes_per_item=float(INDEX_ITEMSIZE), ops_per_item=1.0,
                        label=f"{label}.route_min",
                    )
                if int(row_indices.shape[0]) == 0:
                    continue
                part = batch.take(row_indices, label=f"{label}.route_min")
                runs_sel = runs[row_indices]
                lengths_sel = lengths[row_indices]

            total = int(lengths_sel.sum())
            divergence = _divergence(device, lengths_sel)
            if charge:
                device.charge(
                    KernelCost(
                        kernel=f"{label}.expand[{candidate.atom_index}]",
                        random_bytes=float(total) * INDEX_ITEMSIZE,
                        sequential_bytes=2.0 * float(total) * INDEX_ITEMSIZE,
                        ops=float(total),
                        divergence=divergence,
                    )
                )
            if total == 0:
                continue
            probe_idx, data_positions = index.expand_matches(runs_sel, lengths_sel)
            expanded = part.take(probe_idx, label=f"{label}.route_expand")
            value_base = index.natural_column(candidate.value_column)
            expanded = expanded.append_lazy([(value_base, data_positions)])

            for other_position, (other, _other_index, _s, _l) in enumerate(probes):
                if other_position == position or len(expanded) == 0:
                    continue
                member = index_for(other.relation, tuple(range(other.arity)))
                columns = [
                    expanded.column(p, charge=charge, label=f"{label}.gather_member")
                    for p in other.member_positions
                ]
                keep = member.contains_columns(columns, charge=charge)
                expanded = expanded.filter(
                    keep, charge=charge, label=f"{label}.member[{other.atom_index}]"
                )
            if len(expanded):
                parts.append(expanded)

        # 5. Stitch the per-candidate parts back together in candidate order.
        return ColumnBatch.concatenate(
            device, parts, arity=out_arity, label=f"{label}.gather_parts", charge=charge
        )
