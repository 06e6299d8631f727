"""Data-parallel primitive kernels of the simulated device.

These are the Thrust-style bulk primitives GPUlog is built from, over
per-column arrays: gather, stable (radix-like) lexicographic sort,
adjacent-difference deduplication, stream compaction, concatenation, and the
host<->device and device<->device transfer edges.  Each primitive

1. executes the real algorithm through the device's
   :class:`~repro.backend.base.ArrayBackend` (results are exact on whatever
   array library the backend owns — NumPy by default, CuPy when selected), and
2. charges a :class:`~repro.device.cost.KernelCost` to the owning
   :class:`~repro.device.device.Device`, which converts it into simulated
   seconds via the device's cost model and records it in the profiler.

Higher layers (HISA, the relational operators) only touch the device through
these primitives plus :meth:`Device.charge` for bespoke kernels such as the
hash-probe join of Algorithm 3.  None of them calls an array library
directly: the backend is the single datapath.

The module-level helpers (:func:`host_lexsort_columns`, ...) are the
*host-side* conveniences of snapshot canonicalisation and byte accounting;
they delegate to the shared reference backend so the host and device
implementations can never diverge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..backend import (
    HOST_BACKEND,
    INDEX_DTYPE,
    INDEX_ITEMSIZE,
    TUPLE_DTYPE,
    TUPLE_ITEMSIZE,
    Array,
    ArrayBackend,
)
from ..backend.base import SortKeyLayout
from .cost import LINK_INTERCONNECT, KernelCost
from .profiler import PHASE_SHARD_EXCHANGE, PHASE_TRANSFER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from .device import Device

__all__ = [
    "DeviceKernels",
    "PackedColumns",
    "INDEX_DTYPE",
    "INDEX_ITEMSIZE",
    "TUPLE_DTYPE",
    "TUPLE_ITEMSIZE",
    "host_lexsort_columns",
    "is_monotone",
    "rows_nbytes",
]


def is_monotone(indices: Array) -> bool:
    """True if ``indices`` is non-decreasing (forward-only, coalescable reads)."""
    return HOST_BACKEND.is_monotone(indices)


def host_lexsort_columns(
    columns: "list[Array] | tuple[Array, ...]", n_rows: int | None = None
) -> np.ndarray:
    """Stable lexicographic argsort over per-column arrays (column 0 primary).

    The host-side "sort tuple rows" (snapshot canonicalisation, tests): the
    same packed-key argsort the device kernels run, on the reference backend.
    """
    return _lexsort(HOST_BACKEND, columns, n_rows)


#: A packed batch of ``n`` rows whose key space (``2**bits``) has at most this
#: many slots per row is deduplicated through an occupancy table instead of a
#: sort: on the host, marking and scanning the table beats sorting the keys up
#: to about 5 slots a row and loses from about 8.
DENSE_KEY_SLOTS_PER_ROW = 4
#: The occupancy table also has at most ``2**DENSE_KEY_MAX_BITS`` slots (4 MiB):
#: past that its scattered marks miss the cache, and it loses to the sort even
#: at 2 slots a row.
DENSE_KEY_MAX_BITS = 22


def _occupied_keys(backend: ArrayBackend, keys: Array, bits: int) -> Array:
    """The distinct values of ``keys`` (each below ``2**bits``), ascending:
    marked in a ``2**bits``-entry occupancy table and read back in order."""
    occupied = backend.zeros(1 << bits, dtype=backend.bool_)
    # An array-protocol scatter-write, indexed as int64: NumPy copies a
    # uint64 index array before it scatters.
    occupied[keys.view(backend.int64)] = True
    return backend.nonzero_indices(occupied).view(backend.uint64)


def rows_nbytes(n_rows: int, arity: int) -> int:
    """Bytes occupied by ``n_rows`` tuples of the given arity."""
    return int(n_rows) * int(arity) * TUPLE_ITEMSIZE


@dataclass(frozen=True)
class PackedColumns:
    """The columns of one tuple batch held as a single packed sort-key column.

    What :meth:`DeviceKernels.concatenate_packed` hands to
    :meth:`DeviceKernels.unique_columns` in place of ``arity`` concatenated
    columns (see :meth:`ArrayBackend.pack_sort_keys` for the key layout).
    The keys are the dedup's scratch: ``unique_columns`` may sort them in
    place.  ``len()`` and ``nbytes`` describe the logical batch — rows, and
    the bytes its unpacked columns would occupy — like a ``ColumnBatch``.
    """

    backend: ArrayBackend
    keys: Array
    layout: SortKeyLayout

    @property
    def arity(self) -> int:
        return len(self.layout)

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    @property
    def nbytes(self) -> int:
        return rows_nbytes(len(self), self.arity)

    def unpack(self) -> list[Array]:
        """The batch's per-column ``int64`` arrays, in the keys' current row order."""
        return self.backend.unpack_sort_keys(self.keys, self.layout)


class DeviceKernels:
    """Bulk primitives bound to one simulated :class:`Device`."""

    def __init__(self, device: "Device") -> None:
        self._device = device
        self._backend = device.backend

    @property
    def backend(self):
        """The array backend this device's kernels execute on."""
        return self._backend

    # ------------------------------------------------------------------
    # Host <-> device transfers (the charged PCIe boundary)
    # ------------------------------------------------------------------
    def from_host(self, data: Array, dtype=None, label: str = "h2d_transfer") -> Array:
        """Upload host data into a backend array, charged as a PCIe copy.

        This is the *only* sanctioned way host payloads enter the datapath
        (fact loading, externally supplied new tuples).  The simulated cost
        covers the DMA transfer plus the device-side write of the payload.
        """
        out = self._backend.from_host(data, dtype=dtype)
        nbytes = float(getattr(out, "nbytes", 0))
        self._device.charge(
            KernelCost(
                kernel=label,
                transfer_bytes=nbytes,
                sequential_bytes=nbytes,
                ops=float(getattr(out, "size", 0)),
            ),
            phase=PHASE_TRANSFER,
        )
        return out

    def to_host(self, array: Array, label: str = "d2h_transfer") -> np.ndarray:
        """Download a backend array to host NumPy, charged as a PCIe copy.

        The only sanctioned datapath exit (result collection, row-array
        extraction for host consumers).  Cost covers the device-side read
        plus the DMA transfer.
        """
        out = self._backend.to_host(array)
        nbytes = float(getattr(out, "nbytes", 0))
        self._device.charge(
            KernelCost(
                kernel=label,
                transfer_bytes=nbytes,
                sequential_bytes=nbytes,
                ops=float(getattr(out, "size", 0)),
            ),
            phase=PHASE_TRANSFER,
        )
        return out

    # ------------------------------------------------------------------
    # Device <-> device transfers (the charged interconnect boundary)
    # ------------------------------------------------------------------
    def device_to_device(self, array: Array, peer: "Device", label: str = "d2d_transfer") -> Array:
        """Move a device-resident array to ``peer`` over the interconnect.

        The sanctioned shard-exchange edge of sharded evaluation: delta
        tuples whose join key hashes to a foreign shard cross here.  The
        *sending* device is charged the DMA transfer (at the NVLink-class
        ``DeviceSpec.interconnect_bandwidth_gbps``) plus the device-side
        read; the *receiving* device is charged the payload write at memory
        bandwidth but no kernel launch — a peer DMA writes straight into the
        receiver's memory without the receiver scheduling anything.  Both
        charges land in the ``shard_exchange`` phase.
        """
        if self._device.fault_plan is not None:
            # An exchange fault fires before any payload moves or any cost is
            # charged: the transfer never happened, and the receiving peer is
            # reported as the crashed shard.
            self._device.fault_plan.on_exchange(label, peer)
        # Raw (uncharged) backend movement: simulated peers share host RAM,
        # so the physical copy is a no-op reinterpretation — the simulated
        # cost below is the entire point of this kernel.
        out = peer.backend.asarray(self._backend.to_host(array))
        nbytes = float(getattr(out, "nbytes", 0))
        size = float(getattr(out, "size", 0))
        self._device.charge(
            KernelCost(
                kernel=label,
                transfer_bytes=nbytes,
                transfer_link=LINK_INTERCONNECT,
                sequential_bytes=nbytes,
                ops=size,
            ),
            phase=PHASE_SHARD_EXCHANGE,
        )
        peer.charge(
            KernelCost(
                kernel=f"{label}.recv",
                sequential_bytes=nbytes,
                ops=size,
                recv_bytes=nbytes,
                launches=0,
            ),
            phase=PHASE_SHARD_EXCHANGE,
        )
        return out

    def scatter_to(
        self, segments: "list[tuple[Array, Device]]", label: str = "d2d_scatter"
    ) -> "list[Array]":
        """Send one distinct segment to each listed peer, as one fused launch.

        The all-to-all shape of sharded exchange: a source posts every
        outbound DMA from a single kernel (the way a fused scatter kernel
        or NCCL all-to-all would), so the sender pays launch latency *once*
        regardless of how many peers receive a slice, plus the summed link
        transfer and device-side read.  Each receiver still pays its own
        payload write — at bandwidth, with no launch, exactly as in
        :meth:`device_to_device`.  Fault hooks fire per peer *before* any
        payload moves or cost is charged, so a scripted ``exchange`` fault
        aborts the whole fused launch with nothing sent.
        """
        for _array, peer in segments:
            if self._device.fault_plan is not None:
                self._device.fault_plan.on_exchange(label, peer)
        out: "list[Array]" = []
        total_bytes = 0.0
        total_size = 0.0
        for array, peer in segments:
            copied = peer.backend.asarray(self._backend.to_host(array))
            nbytes = float(getattr(copied, "nbytes", 0))
            size = float(getattr(copied, "size", 0))
            total_bytes += nbytes
            total_size += size
            peer.charge(
                KernelCost(
                    kernel=f"{label}.recv",
                    sequential_bytes=nbytes,
                    ops=size,
                    recv_bytes=nbytes,
                    launches=0,
                ),
                phase=PHASE_SHARD_EXCHANGE,
            )
            out.append(copied)
        if segments:
            self._device.charge(
                KernelCost(
                    kernel=label,
                    transfer_bytes=total_bytes,
                    transfer_link=LINK_INTERCONNECT,
                    sequential_bytes=total_bytes,
                    ops=total_size,
                ),
                phase=PHASE_SHARD_EXCHANGE,
            )
        return out

    def broadcast_to(self, array: Array, peers: "list[Device]", label: str = "d2d_broadcast") -> "list[Array]":
        """Send one device-resident array to several peers over the interconnect.

        Simulated cost per link is identical to :meth:`device_to_device`
        (there is no multicast: every link carries its own DMA, and every
        peer pays its payload write) — but the host-side staging of the
        payload happens once per *source*, not once per peer, so an N-way
        broadcast does not re-read the array N times on the host.
        """
        staged = self._backend.to_host(array)
        out: "list[Array]" = []
        for peer in peers:
            if self._device.fault_plan is not None:
                self._device.fault_plan.on_exchange(label, peer)
            copied = peer.backend.asarray(staged)
            nbytes = float(getattr(copied, "nbytes", 0))
            size = float(getattr(copied, "size", 0))
            self._device.charge(
                KernelCost(
                    kernel=label,
                    transfer_bytes=nbytes,
                    transfer_link=LINK_INTERCONNECT,
                    sequential_bytes=nbytes,
                    ops=size,
                ),
                phase=PHASE_SHARD_EXCHANGE,
            )
            peer.charge(
                KernelCost(
                    kernel=f"{label}.recv",
                    sequential_bytes=nbytes,
                    ops=size,
                    recv_bytes=nbytes,
                    launches=0,
                ),
                phase=PHASE_SHARD_EXCHANGE,
            )
            out.append(copied)
        return out

    # ------------------------------------------------------------------
    # Columnar (SoA) primitives — the late-materialization datapath
    # ------------------------------------------------------------------
    def gather_column(
        self,
        base: Array,
        indices: Array,
        label: str = "gather_column",
        coalesced: bool | None = None,
    ) -> Array:
        """Materialise one column of a lazy batch: ``base[indices]``.

        Cost is charged *per column* and only for columns a downstream
        operator actually touches.  A monotone (non-decreasing) selection —
        the shape produced by match expansion and stream compaction — reads
        the base forward-only, which a GPU coalesces; only genuinely
        unordered selections pay the random-access rate.
        """
        backend = self._backend
        base = backend.asarray(base)
        indices = backend.asarray(indices, dtype=INDEX_DTYPE)
        out = backend.take(base, indices)
        if coalesced is None:
            coalesced = backend.is_monotone(indices)
        self._charge_gather_column(int(indices.size), base.dtype.itemsize, coalesced, label)
        return out

    def _charge_gather_column(self, n: int, itemsize: int, coalesced: bool, label: str) -> None:
        value_bytes = float(n) * itemsize
        self._device.charge(
            KernelCost(
                kernel=label,
                random_bytes=0.0 if coalesced else value_bytes,
                sequential_bytes=float(n) * (itemsize + INDEX_ITEMSIZE)
                + (value_bytes if coalesced else 0.0),
                ops=float(n),
            )
        )

    def compose_selection(
        self,
        selection: Array,
        indices: Array,
        label: str = "compose_selection",
        coalesced: bool | None = None,
    ) -> Array:
        """Compose two gather index vectors: ``selection[indices]``.

        Late materialization replaces per-operator tuple copies with this
        int64 index gather, performed once per *source* (not per column).
        Monotone ``indices`` (compaction / match-expansion shapes) coalesce.
        """
        backend = self._backend
        selection = backend.asarray(selection, dtype=INDEX_DTYPE)
        indices = backend.asarray(indices, dtype=INDEX_DTYPE)
        out = backend.take(selection, indices)
        index_bytes = float(indices.size) * INDEX_ITEMSIZE
        if coalesced is None:
            coalesced = backend.is_monotone(indices)
        self._device.charge(
            KernelCost(
                kernel=label,
                random_bytes=0.0 if coalesced else index_bytes,
                sequential_bytes=index_bytes * (3.0 if coalesced else 2.0),
                ops=float(indices.size),
            )
        )
        return out

    def concatenate_columns(
        self, parts: list[list[Array]], label: str = "concatenate_columns"
    ) -> list[Array]:
        """Concatenate per-column arrays of several batches (one pass per column)."""
        if not parts:
            return []
        backend = self._backend
        arity = len(parts[0])
        out: list[Array] = []
        total_bytes = 0.0
        total_rows = 0
        for column_index in range(arity):
            column = backend.concatenate([part[column_index] for part in parts])
            total_bytes += 2.0 * column.nbytes
            total_rows = column.shape[0]
            out.append(column)
        self._device.charge(
            KernelCost(kernel=label, sequential_bytes=total_bytes, ops=float(total_rows) * max(1, arity))
        )
        return out

    def concatenate_packed(
        self, parts: list[list[Array]], label: str = "concatenate_columns"
    ) -> "PackedColumns | None":
        """:meth:`concatenate_columns` straight into one packed sort-key column.

        For a concatenation whose only consumer is :meth:`unique_columns`:
        each part is packed into its slice of one preallocated key buffer, so
        the ``arity`` concatenated columns are never written.  Charged exactly
        as :meth:`concatenate_columns`; ``None`` (nothing charged) when the
        observed column ranges do not fit one 64-bit key.
        """
        packed = self._pack(*parts)
        if packed is not None:
            self._device.charge(
                KernelCost(
                    kernel=label,
                    sequential_bytes=2.0 * packed.nbytes,
                    ops=float(len(packed)) * packed.arity,
                )
            )
        return packed

    def gather_packed(
        self, sources: "list[tuple[Array, Array | None, bool | None]]", label: str = "gather_column"
    ) -> "PackedColumns | None":
        """Gather a batch's columns straight into one packed sort-key column.

        ``sources`` holds per column ``(base, selection, coalesced)``; a
        ``None`` selection means the base is the column, already paid for.
        The host packs from the bases (:meth:`ArrayBackend.pack_gathered_keys`),
        the device is charged :meth:`gather_column` for every selected column
        with its coalescing flag, as if the columns were gathered and then
        packed.  ``None`` (nothing charged) when the ranges do not fit one
        64-bit key.
        """
        packed = self._backend.pack_gathered_keys([(base, selection) for base, selection, _ in sources])
        if packed is None:
            return None
        for base, selection, coalesced in sources:
            if selection is not None:
                self._charge_gather_column(int(selection.shape[0]), base.dtype.itemsize, coalesced, label)
        return PackedColumns(self._backend, *packed)

    def _pack(self, *batches: list[Array]) -> "PackedColumns | None":
        packed = self._backend.pack_sort_keys(*batches)
        return None if packed is None else PackedColumns(self._backend, *packed)

    def adjacent_unique_mask_columns(
        self, sorted_columns: list[Array], n_rows: int, label: str = "adjacent_unique"
    ) -> Array:
        """Columnar adjacent-compare deduplication mask (one pass per column)."""
        mask = self._backend.adjacent_unique_mask(sorted_columns, n_rows=n_rows)
        column_bytes = sum(float(column.nbytes) for column in sorted_columns)
        self._charge_adjacent_unique(n_rows, column_bytes, len(sorted_columns), label)
        return mask

    def _charge_adjacent_unique(self, n_rows: int, column_bytes: float, arity: int, label: str) -> None:
        self._device.charge(
            KernelCost(
                kernel=label,
                sequential_bytes=2.0 * column_bytes + float(n_rows),
                ops=float(n_rows) * max(1, arity),
            )
        )

    def compact_columns(
        self, columns: list[Array], mask: Array, label: str = "compact_columns"
    ) -> list[Array]:
        """Stream-compact each column by a shared boolean mask.

        Charged as coalesced streaming (scan + scatter) per column — unlike a
        gather, compaction reads every element in order.
        """
        backend = self._backend
        mask = backend.asarray(mask, dtype=backend.bool_)
        out = [column[mask] for column in columns]
        in_bytes = sum(float(column.nbytes) for column in columns)
        out_bytes = sum(float(column.nbytes) for column in out)
        self._charge_compact_columns(in_bytes, out_bytes, int(mask.size), len(columns), label)
        return out

    def _charge_compact_columns(
        self, in_bytes: float, out_bytes: float, n_rows: int, arity: int, label: str
    ) -> None:
        self._device.charge(
            KernelCost(
                kernel=label,
                sequential_bytes=in_bytes + out_bytes + float(n_rows),
                ops=float(n_rows) * max(1, arity),
            )
        )

    def unique_columns(
        self, columns: "list[Array] | PackedColumns", label: str = "unique_columns"
    ) -> list[Array]:
        """Columnar deduplication: sort + adjacent-compare + compact.

        When the columns' observed ranges fit one 64-bit key (or the caller
        already holds them as :class:`PackedColumns`, which this consumes) the
        batch is packed and only the distinct keys are unpacked — no sort
        permutation, no per-column gather.  A dense key space (at most
        :data:`DENSE_KEY_SLOTS_PER_ROW` slots a row) finds them by marking an
        occupancy table; any other packed batch value-sorts its keys in place
        and compares adjacent keys.  Wider batches take the per-column
        lexsort.  Every route charges the same kernels with the same costs, in
        the same order: the route is a host matter, the simulated device runs
        radix passes over the key either way.
        """
        if isinstance(columns, PackedColumns):
            return self._unique_packed(columns, label)
        if not columns or columns[0].shape[0] == 0:
            return list(columns)
        packed = self._pack(columns)
        if packed is not None:
            return self._unique_packed(packed, label)
        order = self.lexsort_columns(columns, label=f"{label}.sort")
        # The sort permutation is shared by every column: test coalescing once.
        order_coalesced = self._backend.is_monotone(order)
        sorted_columns = [
            self.gather_column(column, order, label=f"{label}.gather", coalesced=order_coalesced)
            for column in columns
        ]
        mask = self.adjacent_unique_mask_columns(sorted_columns, order.size, label=f"{label}.mask")
        return self.compact_columns(sorted_columns, mask, label=f"{label}.compact")

    def _unique_packed(self, packed: PackedColumns, label: str) -> list[Array]:
        """The packed route of :meth:`unique_columns`; consumes ``packed.keys``.

        The distinct keys, ascending, come from one of two host routes chosen
        by the data.  A *dense* batch — one whose key space, ``2**bits`` for
        the layout's total width, has at most :data:`DENSE_KEY_SLOTS_PER_ROW`
        slots per row and at most ``2**DENSE_KEY_MAX_BITS`` slots — marks an
        occupancy table (:func:`_occupied_keys`); any other batch value-sorts
        its keys in place and compares adjacent keys.  Both charge the same
        radix sort, gathers, mask and compaction.
        """
        backend = self._backend
        keys, n, arity = packed.keys, len(packed), packed.arity
        # A stable sort permutation is monotone exactly when the input is
        # already sorted, which for one key column is a single ``>=`` pass.
        coalesced = backend.is_monotone(keys)
        bits = sum(width for _, width in packed.layout)
        if bits <= DENSE_KEY_MAX_BITS and (1 << bits) <= DENSE_KEY_SLOTS_PER_ROW * n:
            survivors = _occupied_keys(backend, keys, bits)
        else:
            if not coalesced:
                keys.sort()
            survivors = keys[backend.adjacent_unique_mask([keys], n_rows=n)]
        self._charge_lexsort(n, arity, f"{label}.sort")
        for _ in range(arity):
            self._charge_gather_column(n, TUPLE_ITEMSIZE, coalesced, f"{label}.gather")
        self._charge_adjacent_unique(n, float(packed.nbytes), arity, f"{label}.mask")
        self._charge_compact_columns(
            float(packed.nbytes),
            float(rows_nbytes(int(survivors.shape[0]), arity)),
            n,
            arity,
            f"{label}.compact",
        )
        return backend.unpack_sort_keys(survivors, packed.layout)

    # ------------------------------------------------------------------
    # Transform / map
    # ------------------------------------------------------------------
    def transform(
        self,
        n_items: int,
        bytes_per_item: float,
        ops_per_item: float = 1.0,
        label: str = "transform",
    ) -> None:
        """Charge an elementwise transform without a concrete payload.

        Used for column permutation (Algorithm 1 lines 1-5), selection
        predicates, and hash computation where the array work happens inline
        in the caller.
        """
        n_items = max(0, int(n_items))
        self._device.charge(
            KernelCost(
                kernel=label,
                sequential_bytes=float(n_items) * float(bytes_per_item),
                ops=float(n_items) * float(ops_per_item),
            )
        )

    # ------------------------------------------------------------------
    # Sorting and order maintenance
    # ------------------------------------------------------------------
    def lexsort_columns(
        self, columns: list[Array], label: str = "stable_sort", n_rows: int | None = None
    ) -> Array:
        """Stable lexicographic argsort over per-column arrays (SoA layout).

        Charged as Algorithm 1: one stable sort pass per column from least to
        most significant, each streaming the permutation indices and one
        contiguous key column through memory.  The host runs one argsort of
        the packed key when the columns fit 64 bits (:func:`_lexsort`).
        ``n_rows`` covers the zero-arity edge (identity permutation).
        """
        n = int(columns[0].shape[0]) if columns else int(n_rows or 0)
        order = _lexsort(self._backend, columns, n)
        self._charge_lexsort(n, len(columns), label)
        return order

    def _charge_lexsort(self, n: int, arity: int, label: str) -> None:
        pass_bytes = float(n) * (TUPLE_ITEMSIZE + 2 * INDEX_ITEMSIZE)
        self._device.charge(
            KernelCost(
                kernel=label,
                sequential_bytes=max(1, arity) * 2.0 * pass_bytes,
                ops=float(n) * max(1, arity) * 4.0,
                launches=max(1, arity),
            )
        )

    # ------------------------------------------------------------------
    # Random access charging helpers (hash table build / probe)
    # ------------------------------------------------------------------
    def random_access(
        self,
        n_accesses: int,
        bytes_per_access: float,
        ops_per_access: float = 1.0,
        divergence: float = 1.0,
        label: str = "random_access",
    ) -> None:
        """Charge ``n_accesses`` data-dependent memory accesses."""
        n_accesses = max(0, int(n_accesses))
        self._device.charge(
            KernelCost(
                kernel=label,
                random_bytes=float(n_accesses) * float(bytes_per_access),
                ops=float(n_accesses) * float(ops_per_access),
                divergence=float(divergence),
            )
        )

    # ------------------------------------------------------------------
    # Searching
    # ------------------------------------------------------------------
    @staticmethod
    def binary_search_cost(n_needles: int, haystack_size: int, key_bytes: float, label: str) -> KernelCost:
        """What a batch binary search of packed keys into a sorted array costs.

        Each of the ``n`` keys walks ``log2(|haystack|)`` random reads to find
        its rank: the incremental merge path, and a search of a sorted run
        (priced against a merge path there).  The array work (``searchsorted``
        on cached packed keys) happens inline in the caller, which charges
        the cost.
        """
        n_needles = max(0, int(n_needles))
        depth = max(1.0, math.log2(max(2, int(haystack_size))))
        return KernelCost(
            kernel=label,
            random_bytes=float(n_needles) * depth * float(key_bytes),
            sequential_bytes=float(n_needles) * (float(key_bytes) + 2.0 * INDEX_ITEMSIZE),
            ops=float(n_needles) * depth * 2.0,
        )


# ----------------------------------------------------------------------
# Host-side helpers (pure functions, no device cost)
# ----------------------------------------------------------------------

def _lexsort(backend, columns: "list[Array] | tuple[Array, ...]", n_rows: int | None = None) -> Array:
    """Stable lexicographic argsort of tuple columns (column 0 primary).

    One stable argsort of the packed key when the columns' observed ranges
    fit 64 bits (equal keys are equal tuples, so stability carries over);
    the backend's multi-key lexsort otherwise.
    """
    packed = backend.pack_sort_keys(columns) if len(columns) > 1 else None
    if packed is not None:
        columns = [packed[0]]
    return backend.lexsort(columns, n_rows=n_rows)
