"""The reference :class:`ArrayBackend`: host NumPy.

This backend is the semantics oracle for the conformance suite: every other
backend must match it bit-for-bit on the contract primitives.  ``to_host`` /
``from_host`` are logical no-copies (the "device" *is* host memory), but the
device kernels still charge them as PCIe transfers so the simulated cost
model treats every backend identically.
"""

from __future__ import annotations

import ctypes
import sys
from typing import Any, Sequence

import numpy as np

from .base import INDEX_DTYPE, TUPLE_DTYPE, Array, ArrayBackend

#: Freed host memory the pool keeps for reuse before handing any back to the
#: operating system (see :func:`_pool_host_memory`).
HOST_POOL_BYTES = 1 << 30


def _pool_host_memory() -> None:
    """Serve array memory from one reused pool, as GPU runtimes pool device memory.

    A fixpoint allocates and frees gigabytes of short-lived columns per run.
    glibc gives each block above its mmap threshold a fresh mapping and unmaps
    it on free, so every iteration pays the kernel to fault and zero the same
    pages again -- about a fifth of a ``cspa`` run when faults are cheap, and
    a cost that swings severalfold from one run to the next on hosts that
    reclaim a guest's free pages.  ``M_MMAP_MAX = 0`` takes large blocks from
    the heap instead, ``M_TRIM_THRESHOLD`` lets the heap keep
    :data:`HOST_POOL_BYTES` of freed memory at its top, and ``M_ARENA_MAX = 1``
    makes that one pool for all threads (a serving engine's worker would
    otherwise retain a second one), so after the first iterations the working
    set is reused without faults.  Process-wide, set once on import; a no-op
    where the C library has no ``mallopt``.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    m_trim_threshold, m_mmap_max, m_arena_max = -1, -4, -8  # <malloc.h>
    mallopt(m_arena_max, 1)
    mallopt(m_mmap_max, 0)
    mallopt(m_trim_threshold, HOST_POOL_BYTES)


_pool_host_memory()


class NumpyBackend(ArrayBackend):
    """Reference implementation of the array-backend contract on NumPy."""

    name = "numpy"

    # ------------------------------------------------------------------
    # Transfer boundary
    # ------------------------------------------------------------------
    def to_host(self, array: Array) -> np.ndarray:
        return np.asarray(array)

    def from_host(self, array: Any, dtype: Any = None) -> Array:
        return np.asarray(array, dtype=dtype)

    def is_array(self, obj: Any) -> bool:
        return isinstance(obj, np.ndarray)

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------
    def empty(self, shape: Any, dtype: Any = TUPLE_DTYPE) -> Array:
        return np.empty(shape, dtype=dtype)

    def zeros(self, shape: Any, dtype: Any = TUPLE_DTYPE) -> Array:
        return np.zeros(shape, dtype=dtype)

    def ones(self, shape: Any, dtype: Any = TUPLE_DTYPE) -> Array:
        return np.ones(shape, dtype=dtype)

    def full(self, shape: Any, fill_value: Any, dtype: Any = TUPLE_DTYPE) -> Array:
        return np.full(shape, fill_value, dtype=dtype)

    def arange(self, n: int, dtype: Any = INDEX_DTYPE) -> Array:
        return np.arange(n, dtype=dtype)

    def asarray(self, data: Any, dtype: Any = None) -> Array:
        return np.asarray(data, dtype=dtype)

    def ascontiguousarray(self, data: Any, dtype: Any = None) -> Array:
        return np.ascontiguousarray(data, dtype=dtype)

    # ------------------------------------------------------------------
    # Movement / combination
    # ------------------------------------------------------------------
    def concatenate(self, arrays: Sequence[Array], axis: int = 0) -> Array:
        return np.concatenate(list(arrays), axis=axis)

    def column_stack(self, columns: Sequence[Array]) -> Array:
        return np.column_stack(list(columns))

    def take(self, array: Array, indices: Array) -> Array:
        return array[indices]

    def scatter(self, target: Array, indices: Array, values: Any) -> None:
        target[indices] = values

    def repeat(self, values: Array, repeats: Array) -> Array:
        return np.repeat(values, repeats)

    # ------------------------------------------------------------------
    # Sorting and searching
    # ------------------------------------------------------------------
    def lexsort(self, columns: Sequence[Array], n_rows: int | None = None) -> Array:
        if not len(columns):
            return np.arange(int(n_rows or 0), dtype=INDEX_DTYPE)
        n = int(columns[0].shape[0])
        if n == 0:
            return np.empty(0, dtype=INDEX_DTYPE)
        # np.lexsort sorts by the last key first, so pass columns reversed.
        return np.lexsort(tuple(reversed(list(columns)))).astype(INDEX_DTYPE, copy=False)

    def searchsorted(self, haystack: Array, needles: Array, side: str = "left") -> Array:
        return np.searchsorted(haystack, needles, side=side).astype(INDEX_DTYPE, copy=False)

    def pack_lex_keys(self, columns: Sequence[Array], *, wide: bool = False) -> Array:
        """Narrow ``uint64`` keys when the values fit, else wide void records.

        Wide keys are the columns in offset-binary (sign bit flipped),
        byte-swapped to big-endian and viewed as one ``arity * 8``-byte void
        record per tuple, so the records' byte comparison is signed
        lexicographic tuple order.  Both formats cost one pass per column;
        narrow keys are half as large on two columns and compare, search and
        ``isin`` as machine words instead of through a byte compare.
        """
        columns = [np.asarray(column, dtype=TUPLE_DTYPE) for column in columns]
        arity = len(columns)
        n = int(columns[0].shape[0]) if arity else 0
        if not wide and _fits_narrow(columns):
            return _pack_narrow(columns, n)
        big_endian = np.empty((n, arity), dtype=">u8")
        for position, column in enumerate(columns):
            big_endian[:, position] = column.view(np.uint64) ^ np.uint64(1 << 63)
        return big_endian.view(np.dtype((np.void, max(1, arity) * 8))).ravel()

    def adjacent_unique_mask(self, columns: Sequence[Array], n_rows: int | None = None) -> Array:
        n = int(columns[0].shape[0]) if len(columns) else int(n_rows or 0)
        mask = np.empty(n, dtype=bool)
        if n == 0:
            return mask
        mask[0] = True
        if n > 1:
            mask[1:] = False
            for column in columns:
                mask[1:] |= column[1:] != column[:-1]
        return mask

    def is_monotone(self, indices: Array) -> bool:
        if indices.size < 2:
            return True
        if indices.dtype.kind == "V":
            # Wide sort keys: big-endian byte records order as byte strings.
            indices = indices.view(f"S{indices.dtype.itemsize}")
        return bool((indices[1:] >= indices[:-1]).all())

    # ------------------------------------------------------------------
    # Scans / reductions
    # ------------------------------------------------------------------
    def cumsum(self, values: Array) -> Array:
        return np.cumsum(values)

    def nonzero_indices(self, mask: Array) -> Array:
        return np.flatnonzero(mask).astype(INDEX_DTYPE, copy=False)

    def count_nonzero(self, mask: Array) -> int:
        return int(np.count_nonzero(mask))

    def add_at(self, target: Array, indices: Array, values: Any) -> None:
        np.add.at(target, indices, values)

    def or_at(self, target: Array, indices: Array, values: Any) -> None:
        np.bitwise_or.at(target, indices, values)

    def reduceat_sum(self, values: Array, starts: Array) -> Array:
        if int(starts.shape[0]) == 0:
            return np.empty(0, dtype=values.dtype)
        return np.add.reduceat(values, starts)


def _fits_narrow(columns: list[np.ndarray]) -> bool:
    """Whether every value fits the ``64 // k``-bit field of a narrow key."""
    if len(columns) < 2 or not columns[0].size:
        return True
    half = 1 << (64 // len(columns) - 1)
    return all(int(column.min()) >= -half and int(column.max()) < half for column in columns)


def _pack_narrow(columns: list[np.ndarray], n: int) -> np.ndarray:
    """One ``uint64`` per tuple: column ``j`` offset-binary in the ``j``-th
    ``64 // k``-bit field from the top (the contract's narrow layout)."""
    packed = np.zeros(n, dtype=np.uint64)
    for position, column in enumerate(columns):
        width = 64 // len(columns)
        field = (column - np.int64(-(1 << (width - 1)))).view(np.uint64)
        field <<= np.uint64(64 - (position + 1) * width)
        packed |= field
    return packed
