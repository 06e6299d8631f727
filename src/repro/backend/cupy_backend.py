"""CuPy :class:`ArrayBackend` — the real-GPU implementation of the contract.

Importable only when ``cupy`` is installed (the registry registers it lazily;
CI skip-marks every CuPy-parameterized test when the import fails).  The
implementation mirrors :class:`~repro.backend.numpy_backend.NumpyBackend`
primitive-for-primitive with two documented deviations:

* ``pack_lex_keys`` — CuPy has no void/structured dtypes, so multi-column
  packed sort keys cannot live on the device as opaque byte rows.  Keys pack
  into a single device-resident uint64 with a *fixed bit budget* of
  ``64 // n_columns`` bits per column (offset-binary so signed order is
  preserved).  The budget depends only on the column count, so keys packed by
  different calls stay mutually comparable — exactly what the incremental
  merge's cross-array ``searchsorted`` needs — and every downstream consumer
  (``empty`` with the key dtype, ``scatter``, ``adjacent_unique_mask``,
  ``nonzero_indices``) sees an ordinary device uint64 array.  Values outside
  the per-column budget raise :class:`~repro.errors.BackendError` loudly
  instead of mis-sorting; VFLog-style multi-pass radix keys are the known
  fix for wider domains.
* ``reduceat_sum`` — CuPy lacks ``add.reduceat``; the segmented sum is
  computed from an inclusive scan, which requires strictly increasing segment
  starts (the only shape the datapath produces: run starts).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

try:  # pragma: no cover - exercised only where cupy is installed
    import cupy as cp
    import cupyx
except ImportError as _error:  # pragma: no cover
    cp = None
    cupyx = None
    CUPY_IMPORT_ERROR: ImportError | None = _error
else:  # pragma: no cover
    CUPY_IMPORT_ERROR = None

from ..errors import BackendError, BackendUnavailableError
from .base import INDEX_DTYPE, TUPLE_DTYPE, Array, ArrayBackend

CUPY_AVAILABLE = cp is not None


class CupyBackend(ArrayBackend):  # pragma: no cover - requires a CUDA device
    """Array backend running the datapath on CuPy (CUDA/ROCm) arrays."""

    name = "cupy"

    def __init__(self) -> None:
        if not CUPY_AVAILABLE:
            raise BackendUnavailableError(
                f"cupy is not importable in this environment: {CUPY_IMPORT_ERROR}"
            )

    # ------------------------------------------------------------------
    # Transfer boundary
    # ------------------------------------------------------------------
    def to_host(self, array: Array) -> np.ndarray:
        if isinstance(array, np.ndarray):
            return array
        return cp.asnumpy(array)

    def from_host(self, array: Any, dtype: Any = None) -> Array:
        return cp.asarray(np.asarray(array, dtype=dtype))

    def is_array(self, obj: Any) -> bool:
        return isinstance(obj, cp.ndarray)

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------
    def empty(self, shape: Any, dtype: Any = TUPLE_DTYPE) -> Array:
        return cp.empty(shape, dtype=dtype)

    def zeros(self, shape: Any, dtype: Any = TUPLE_DTYPE) -> Array:
        return cp.zeros(shape, dtype=dtype)

    def ones(self, shape: Any, dtype: Any = TUPLE_DTYPE) -> Array:
        return cp.ones(shape, dtype=dtype)

    def full(self, shape: Any, fill_value: Any, dtype: Any = TUPLE_DTYPE) -> Array:
        return cp.full(shape, fill_value, dtype=dtype)

    def arange(self, n: int, dtype: Any = INDEX_DTYPE) -> Array:
        return cp.arange(n, dtype=dtype)

    def asarray(self, data: Any, dtype: Any = None) -> Array:
        return cp.asarray(data, dtype=dtype)

    def ascontiguousarray(self, data: Any, dtype: Any = None) -> Array:
        return cp.ascontiguousarray(cp.asarray(data, dtype=dtype))

    # ------------------------------------------------------------------
    # Movement / combination
    # ------------------------------------------------------------------
    def concatenate(self, arrays: Sequence[Array], axis: int = 0) -> Array:
        return cp.concatenate([cp.asarray(a) for a in arrays], axis=axis)

    def column_stack(self, columns: Sequence[Array]) -> Array:
        return cp.column_stack([cp.asarray(c) for c in columns])

    def take(self, array: Array, indices: Array) -> Array:
        return array[cp.asarray(indices)]

    def scatter(self, target: Array, indices: Array, values: Any) -> None:
        target[cp.asarray(indices)] = values

    def repeat(self, values: Array, repeats: Array) -> Array:
        return cp.repeat(values, repeats)

    # ------------------------------------------------------------------
    # Sorting and searching
    # ------------------------------------------------------------------
    def lexsort(self, columns: Sequence[Array], n_rows: int | None = None) -> Array:
        if not len(columns):
            return cp.arange(int(n_rows or 0), dtype=INDEX_DTYPE)
        n = int(columns[0].shape[0])
        if n == 0:
            return cp.empty(0, dtype=INDEX_DTYPE)
        stacked = cp.stack([cp.asarray(c) for c in reversed(list(columns))])
        return cp.lexsort(stacked).astype(INDEX_DTYPE)

    def searchsorted(self, haystack: Array, needles: Array, side: str = "left") -> Array:
        return cp.searchsorted(haystack, cp.asarray(needles), side=side).astype(INDEX_DTYPE)

    def pack_lex_keys(self, columns: Sequence[Array]) -> Array:
        """Device-resident packed keys with a fixed ``64 // k`` bit budget.

        Column ``j`` occupies bits ``[64 - (j+1)*width, 64 - j*width)`` of a
        uint64 after an offset-binary shift, so unsigned comparison of the
        packed word equals signed lexicographic tuple comparison.  The layout
        depends only on the column count — packings from different calls
        (full vs delta keys) stay mutually comparable.  Out-of-budget values
        fail loudly rather than mis-sort.
        """
        k = len(columns)
        if k == 0:
            return cp.empty(0, dtype=cp.uint64)
        if k == 1:
            column = cp.asarray(columns[0], dtype=TUPLE_DTYPE)
            return column.view(cp.uint64) ^ cp.uint64(1 << 63)
        width = 64 // k
        low = -(1 << (width - 1))
        high = (1 << (width - 1)) - 1
        packed = cp.zeros(int(columns[0].shape[0]), dtype=cp.uint64)
        for position, column in enumerate(columns):
            column = cp.asarray(column, dtype=TUPLE_DTYPE)
            if column.size and bool(((column < low) | (column > high)).any()):
                raise BackendError(
                    f"cupy pack_lex_keys: column {position} exceeds the "
                    f"{width}-bit budget for {k}-column keys "
                    f"(values must be in [{low}, {high}]); wider domains need "
                    "VFLog-style multi-pass radix keys"
                )
            offset = (column - low).astype(cp.uint64)
            packed |= offset << cp.uint64(64 - (position + 1) * width)
        return packed

    def adjacent_unique_mask(self, columns: Sequence[Array], n_rows: int | None = None) -> Array:
        n = int(columns[0].shape[0]) if len(columns) else int(n_rows or 0)
        mask = cp.empty(n, dtype=bool)
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
        return bool((indices[1:] >= indices[:-1]).all())

    # ------------------------------------------------------------------
    # Scans / reductions
    # ------------------------------------------------------------------
    def cumsum(self, values: Array) -> Array:
        return cp.cumsum(values)

    def nonzero_indices(self, mask: Array) -> Array:
        return cp.flatnonzero(mask).astype(INDEX_DTYPE)

    def count_nonzero(self, mask: Array) -> int:
        return int(cp.count_nonzero(mask))

    def add_at(self, target: Array, indices: Array, values: Any) -> None:
        cupyx.scatter_add(target, indices, values)

    def or_at(self, target: Array, indices: Array, values: Any) -> None:
        # ``ufunc.at`` of a bitwise ufunc compiles to one atomicOr per value.
        cp.bitwise_or.at(target, cp.asarray(indices), values)

    def reduceat_sum(self, values: Array, starts: Array) -> Array:
        """Segmented sum via inclusive scan; requires strictly increasing starts."""
        starts = cp.asarray(starts)
        if int(starts.shape[0]) == 0:
            return cp.empty(0, dtype=values.dtype)
        cum = cp.cumsum(values)
        ends = cp.concatenate([starts[1:], cp.asarray([values.shape[0]], dtype=starts.dtype)]) - 1
        totals = cum[ends]
        prev = cp.where(starts > 0, cum[cp.maximum(starts - 1, 0)], 0)
        return (totals - prev).astype(values.dtype)
