"""The :class:`ArrayBackend` contract — every array primitive the datapath needs.

The relational substrate (``repro.relational``) and the simulated device
kernels (``repro.device.kernels``) never import an array library directly;
they reach every primitive through the :class:`ArrayBackend` instance owned by
their :class:`~repro.device.device.Device`.  A backend owns its arrays: the
relational layer only ever holds arrays a backend handed out, applies the
contract primitives plus the *array protocol* (see below) to them, and crosses
back to host NumPy exclusively through :meth:`ArrayBackend.to_host` /
:meth:`ArrayBackend.from_host` — the two charged PCIe edges.

The contract has three parts:

1. **Abstract primitives** — creation (``empty``/``full``/``arange``/
   ``asarray``), movement (``concatenate``/``take``/``scatter``/``repeat``),
   order (``lexsort``/``searchsorted``/``pack_lex_keys``/
   ``adjacent_unique_mask``), scans and reductions (``cumsum``/``add_at``/
   ``or_at``/``reduceat_sum``/``nonzero_indices``/``count_nonzero``), and the transfer
   boundary (``to_host``/``from_host``).  Each backend implements these with
   its native library (NumPy, CuPy, ...).
2. **Derived helpers** — implemented once here in terms of the primitives and
   the array protocol (``as_rows``, ``compare``, ``hash_columns``,
   ``run_lengths_from_starts``, ``pack_sort_keys``/``unpack_sort_keys``), so
   every backend hashes, coerces, compares and packs sort keys identically.
3. **The array protocol** — backend arrays must support the NumPy-style
   operator surface the datapath uses in place: ``shape``/``size``/``nbytes``/
   ``dtype``, basic and fancy indexing (read and scatter-write), boolean
   masking, slicing, elementwise comparison/arithmetic/bitwise operators,
   ``astype``/``view``/``reshape``/``copy``, in-place value ``sort``, and
   reductions (``sum``, ``min``, ``max``, ``any``, ``all``).  NumPy and CuPy
   both satisfy this natively.

:data:`ARRAY_BACKEND_CONTRACT` is the frozen name set of parts 1 and 2 plus
the dtype attributes; :class:`~repro.backend.guard.GuardBackend` enforces it
at runtime by refusing any attribute outside the set.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

from ..errors import BackendError

#: Type alias for backend-owned arrays.  Backends own their array type (NumPy
#: ``ndarray``, CuPy ``ndarray``, ...); the datapath treats them opaquely.
Array = Any

#: Canonical element type of relation tuples (64-bit signed, Section 4.1).
TUPLE_DTYPE = np.dtype(np.int64)
TUPLE_ITEMSIZE = TUPLE_DTYPE.itemsize
#: Canonical element type of index vectors (sorted index array, selections).
INDEX_DTYPE = np.dtype(np.int64)
INDEX_ITEMSIZE = INDEX_DTYPE.itemsize


def is_wide_keys(keys: Array) -> bool:
    """Whether :meth:`ArrayBackend.pack_lex_keys` returned ``keys`` wide."""
    return keys.dtype != np.uint64


# splitmix64 constants (shared by every backend so hashes are identical)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

EMPTY_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)
"""Sentinel stored in unoccupied hash-table slots."""

_EMPTY_KEY_REMAP = np.uint64(0x123456789ABCDEF)

#: Layout of a packed sort key (:meth:`ArrayBackend.pack_sort_keys`): one
#: ``(minimum, bit width)`` pair per column, most-significant column first.
SortKeyLayout = tuple[tuple[int, int], ...]


def _u64(value: int) -> np.uint64:
    """``value`` as a uint64 scalar, modulo 2**64 (two's complement of negatives)."""
    return np.uint64(value % (1 << 64))


class ArrayBackend(ABC):
    """Abstract array backend: the one contract the whole datapath runs on."""

    #: short registry name, e.g. ``"numpy"`` or ``"cupy"``
    name: str = "abstract"

    # -- canonical dtypes (NumPy dtype objects; CuPy shares them) ----------
    int64 = np.dtype(np.int64)
    uint64 = np.dtype(np.uint64)
    bool_ = np.dtype(np.bool_)
    tuple_dtype = TUPLE_DTYPE
    index_dtype = INDEX_DTYPE

    # ------------------------------------------------------------------
    # Transfer boundary (the only host<->device crossings)
    # ------------------------------------------------------------------
    @abstractmethod
    def to_host(self, array: Array) -> np.ndarray:
        """Copy a backend array to host NumPy (device-to-host PCIe edge)."""

    @abstractmethod
    def from_host(self, array: Any, dtype: Any = None) -> Array:
        """Copy host data into a backend array (host-to-device PCIe edge)."""

    @abstractmethod
    def is_array(self, obj: Any) -> bool:
        """True if ``obj`` is an array this backend owns."""

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------
    @abstractmethod
    def empty(self, shape: Any, dtype: Any = TUPLE_DTYPE) -> Array:
        """Uninitialised array of the given shape."""

    @abstractmethod
    def zeros(self, shape: Any, dtype: Any = TUPLE_DTYPE) -> Array:
        """Zero-filled array."""

    @abstractmethod
    def ones(self, shape: Any, dtype: Any = TUPLE_DTYPE) -> Array:
        """One-filled array."""

    @abstractmethod
    def full(self, shape: Any, fill_value: Any, dtype: Any = TUPLE_DTYPE) -> Array:
        """Constant-filled array."""

    @abstractmethod
    def arange(self, n: int, dtype: Any = INDEX_DTYPE) -> Array:
        """``[0, n)`` as a 1-D array."""

    @abstractmethod
    def asarray(self, data: Any, dtype: Any = None) -> Array:
        """Coerce ``data`` (backend array, sequence, or scalar) to an array."""

    @abstractmethod
    def ascontiguousarray(self, data: Any, dtype: Any = None) -> Array:
        """Coerce to a C-contiguous array (dense column storage)."""

    # ------------------------------------------------------------------
    # Movement / combination
    # ------------------------------------------------------------------
    @abstractmethod
    def concatenate(self, arrays: Sequence[Array], axis: int = 0) -> Array:
        """Concatenate arrays along ``axis``."""

    @abstractmethod
    def column_stack(self, columns: Sequence[Array]) -> Array:
        """Stack 1-D columns into an ``(n, k)`` row array."""

    @abstractmethod
    def take(self, array: Array, indices: Array) -> Array:
        """Gather: ``array[indices]``."""

    @abstractmethod
    def scatter(self, target: Array, indices: Array, values: Any) -> None:
        """Scatter-write: ``target[indices] = values`` (in place)."""

    @abstractmethod
    def repeat(self, values: Array, repeats: Array) -> Array:
        """Element-wise repetition (match-run expansion)."""

    # ------------------------------------------------------------------
    # Sorting and searching
    # ------------------------------------------------------------------
    @abstractmethod
    def lexsort(self, columns: Sequence[Array], n_rows: int | None = None) -> Array:
        """Stable lexicographic argsort over per-column arrays, column 0
        primary.  ``n_rows`` covers the zero-arity edge: with no sort keys
        every order is (stably) sorted, so the identity permutation returns.
        """

    @abstractmethod
    def searchsorted(self, haystack: Array, needles: Array, side: str = "left") -> Array:
        """Batch binary search of ``needles`` into sorted ``haystack``."""

    @abstractmethod
    def pack_lex_keys(self, columns: Sequence[Array], *, wide: bool = False) -> Array:
        """Pack per-column tuple values into one sortable key per tuple.

        Key order is signed lexicographic tuple order, and two keys are equal
        exactly when their tuples are.  There are two formats:

        * **narrow** — one ``uint64`` per tuple.  Column ``j`` of ``k`` takes
          bits ``[64 - (j+1)*w, 64 - j*w)`` with ``w = 64 // k``, stored
          offset-binary (the value plus ``2**(w-1)``), so unsigned order of
          the word is tuple order.  Returned whenever every value fits its
          ``w``-bit field — always, for one column — and ``wide`` is false.
        * **wide** — a backend-private representation with no bit budget,
          returned otherwise.  A backend that has none raises
          :class:`~repro.errors.BackendError` instead.

        The layout of either format depends only on ``k``, so keys of one
        format are mutually comparable across packings (``searchsorted`` of
        one array into another works); keys of different formats are not.
        A caller holding a store of keys packs new keys with ``wide=``
        :func:`is_wide_keys` of its store, and re-packs the store wide once
        when a packing does not fit it: formats widen, never narrow.
        Callers only ever compare, merge-scatter and binary-search keys.
        """

    @abstractmethod
    def adjacent_unique_mask(self, columns: Sequence[Array], n_rows: int | None = None) -> Array:
        """Mask of sorted tuples that differ from their predecessor, per column.

        ``n_rows`` covers the zero-arity edge: with no columns every tuple
        equals its predecessor (one survivor).
        """

    @abstractmethod
    def is_monotone(self, indices: Array) -> bool:
        """True if ``indices`` is non-decreasing (coalescable gather).

        Also answers for packed sort keys of either format
        (:meth:`pack_lex_keys`): whether they are in tuple order.
        """

    # ------------------------------------------------------------------
    # Scans / reductions / compaction support
    # ------------------------------------------------------------------
    @abstractmethod
    def cumsum(self, values: Array) -> Array:
        """Inclusive prefix sum."""

    @abstractmethod
    def nonzero_indices(self, mask: Array) -> Array:
        """Indices of true mask entries as an :data:`INDEX_DTYPE` vector."""

    @abstractmethod
    def count_nonzero(self, mask: Array) -> int:
        """Number of true entries (host int)."""

    @abstractmethod
    def add_at(self, target: Array, indices: Array, values: Any) -> None:
        """Unbuffered scatter-add: ``target[indices] += values`` with repeats."""

    @abstractmethod
    def or_at(self, target: Array, indices: Array, values: Any) -> None:
        """Unbuffered scatter-OR: ``target[indices] |= values`` with repeats.

        Every value reaches its word however many share an index (an atomic
        OR on the GPU), which a plain ``scatter`` of OR-ed values would not.
        """

    @abstractmethod
    def reduceat_sum(self, values: Array, starts: Array) -> Array:
        """Segmented sum: total of ``values[starts[i]:starts[i+1]]`` per segment."""

    # ------------------------------------------------------------------
    # Derived helpers (implemented once, shared by every backend)
    # ------------------------------------------------------------------
    def as_rows(self, data: Any) -> Array:
        """Coerce ``data`` to a C-contiguous 2-D :data:`TUPLE_DTYPE` row array."""
        rows = self.asarray(data, dtype=TUPLE_DTYPE)
        if rows.ndim == 1:
            rows = rows.reshape(-1, 1)
        if rows.ndim != 2:
            raise ValueError(f"expected a 2-D tuple array, got shape {rows.shape}")
        return self.ascontiguousarray(rows)

    def compare(self, op: str, left: Any, right: Any) -> Array:
        """Elementwise comparison kernel (the guard/filter primitive)."""
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        raise BackendError(f"unsupported comparison operator {op!r}")

    def run_lengths_from_starts(self, starts: Array, n_rows: int) -> Array:
        """Segment lengths given sorted segment starts and the total length."""
        if int(starts.shape[0]) == 0:
            return self.empty(0, dtype=INDEX_DTYPE)
        bounds = self.concatenate([starts[1:], self.asarray([n_rows], dtype=INDEX_DTYPE)])
        return (bounds - starts).astype(INDEX_DTYPE)

    def pack_sort_keys(self, *batches: Sequence[Array]) -> "tuple[Array, SortKeyLayout] | None":
        """Pack tuple columns into one uint64 sort key per row, if they fit.

        Each batch is a sequence of per-column ``int64`` arrays; the keys cover
        the batches' rows concatenated in order (one batch is the usual call).
        Every column is offset by its observed minimum and given the bit width
        of its observed range; the fields are concatenated most-significant
        column first, so unsigned order of the keys equals signed
        lexicographic order of the tuples and equal keys mean equal tuples.
        Returns ``(keys, layout)``, or ``None`` when there are no columns or
        the widths sum to more than 64 bits — the caller then sorts column by
        column.  The layout is data dependent: keys of different packings are
        *not* mutually comparable (that is what ``pack_lex_keys`` is for).
        """
        arity = len(batches[0])
        if arity == 0:
            return None
        batches = [
            [self.asarray(column, dtype=TUPLE_DTYPE) for column in columns]
            for columns in batches
            if int(columns[0].shape[0])
        ]
        if not batches:
            return self.empty(0, dtype=self.uint64), ((0, 0),) * arity
        # Python ints: an int64 column holding both extremes has a 64-bit range.
        lows = [min(int(columns[j].min()) for columns in batches) for j in range(arity)]
        highs = [max(int(columns[j].max()) for columns in batches) for j in range(arity)]
        layout = tuple((low, (high - low).bit_length()) for low, high in zip(lows, highs))
        if sum(width for _, width in layout) > 64:
            return None
        lengths = [int(columns[0].shape[0]) for columns in batches]
        keys = self.empty(sum(lengths), dtype=self.uint64)
        offset = 0
        for columns, length in zip(batches, lengths):
            # Horner form, in place in the key buffer: uint64 arithmetic wraps,
            # so ``column - minimum`` is exact even where int64 would overflow.
            part = keys[offset : offset + length]
            offset += length
            for position, (column, (minimum, width)) in enumerate(zip(columns, layout)):
                if position == 0:
                    part[...] = column.view(self.uint64)
                else:
                    if 0 < width < 64:  # width 64 means every earlier field is 0 wide
                        part <<= np.uint64(width)
                    part += column.view(self.uint64)
                part -= _u64(minimum)
        return keys, layout

    def unpack_sort_keys(self, keys: Array, layout: SortKeyLayout) -> list[Array]:
        """Invert :meth:`pack_sort_keys`: the per-column ``int64`` arrays of ``keys``."""
        columns: list[Array] = []
        shift = sum(width for _, width in layout)
        for minimum, width in layout:
            shift -= width
            if width == 0:
                columns.append(self.full(int(keys.shape[0]), minimum, dtype=TUPLE_DTYPE))
                continue
            field = keys >> np.uint64(shift)
            if width < 64:
                field &= np.uint64((1 << width) - 1)
            field += _u64(minimum)
            columns.append(field.view(TUPLE_DTYPE))
        return columns

    def _splitmix64(self, values: Array) -> Array:
        z = values + _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def hash_columns(self, columns: Sequence[Array]) -> Array:
        """Vectorised splitmix64 fold of join-key columns into uint64 hashes.

        This is *the* key-hash fold; every layout (rows or columns) and every
        backend produces byte-identical hashes for the same key values.
        """
        if not len(columns):
            raise BackendError("hash_columns requires at least one key column")
        first = self.asarray(columns[0], dtype=TUPLE_DTYPE)
        n = int(first.shape[0])
        acc = self.full(n, np.uint64(len(columns) + 1), dtype=self.uint64)
        for column in columns:
            column = self.asarray(column, dtype=TUPLE_DTYPE)
            acc = self._splitmix64(acc ^ column.view(self.uint64))
        # Reserve the EMPTY_KEY sentinel; remap the (vanishingly rare) clash.
        acc[acc == EMPTY_KEY] = _EMPTY_KEY_REMAP
        return acc

    def hash_rows(self, rows: Array) -> Array:
        """Hash each row of an ``(n, k)`` tuple array into a uint64 value."""
        rows = self.asarray(rows, dtype=TUPLE_DTYPE)
        if rows.ndim == 1:
            rows = rows.reshape(-1, 1)
        if rows.ndim != 2:
            raise BackendError(f"expected a 2-D array of join keys, got shape {rows.shape}")
        n, arity = rows.shape
        if arity == 0:
            return self.full(n, np.uint64(1), dtype=self.uint64)
        return self.hash_columns([rows[:, column] for column in range(arity)])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


#: Every attribute a datapath component may touch on a backend instance.
#: :class:`~repro.backend.guard.GuardBackend` raises on anything else.
ARRAY_BACKEND_CONTRACT = frozenset(
    {
        # identity + dtypes
        "name",
        "int64",
        "uint64",
        "bool_",
        "tuple_dtype",
        "index_dtype",
        # transfer boundary
        "to_host",
        "from_host",
        "is_array",
        # creation
        "empty",
        "zeros",
        "ones",
        "full",
        "arange",
        "asarray",
        "ascontiguousarray",
        # movement / combination
        "concatenate",
        "column_stack",
        "take",
        "scatter",
        "repeat",
        # sorting and searching
        "lexsort",
        "searchsorted",
        "pack_lex_keys",
        "adjacent_unique_mask",
        "is_monotone",
        # scans / reductions
        "cumsum",
        "nonzero_indices",
        "count_nonzero",
        "add_at",
        "or_at",
        "reduceat_sum",
        # derived helpers
        "as_rows",
        "compare",
        "run_lengths_from_starts",
        "hash_columns",
        "hash_rows",
        "pack_sort_keys",
        "unpack_sort_keys",
    }
)
