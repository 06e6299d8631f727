"""Conformance suite for the :class:`ArrayBackend` contract.

Every registered backend (plus the guard wrapper) must implement the
primitive surface with identical semantics — the NumPy reference backend is
the oracle.  The suite leans on the shapes the datapath actually produces:
empty inputs, arity-1 columns, and duplicate-heavy key sets, with
hypothesis-generated tuples for the order-sensitive primitives.

CuPy parameterizations are skip-marked automatically when ``cupy`` is not
importable (the CI containers have no CUDA device).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import (
    ARRAY_BACKEND_CONTRACT,
    CUPY_AVAILABLE,
    GuardBackend,
    NumpyBackend,
    available_backends,
    get_backend,
)
from repro.errors import BackendContractError, BackendUnavailableError

from tests.helpers import reference_unique

BACKEND_PARAMS = [
    pytest.param("numpy", id="numpy"),
    pytest.param("guard", id="guard"),
    pytest.param(
        "cupy",
        id="cupy",
        marks=pytest.mark.skipif(not CUPY_AVAILABLE, reason="cupy is not importable"),
    ),
]


@pytest.fixture(params=BACKEND_PARAMS)
def backend(request):
    return get_backend(request.param)


values = st.integers(min_value=-(2**62), max_value=2**62)
# Duplicate-heavy: a tiny value domain makes collisions near-certain.
dup_values = st.integers(min_value=-3, max_value=3)


def to_host_list(backend, array):
    return backend.to_host(array).tolist()


# ----------------------------------------------------------------------
# Registry and environment resolution
# ----------------------------------------------------------------------

def test_numpy_backend_is_registered():
    assert "numpy" in available_backends()


def test_get_backend_passthrough_and_guard():
    inner = NumpyBackend()
    assert get_backend(inner) is inner
    guard = get_backend("guard")
    assert guard.name == "guard(numpy)"
    assert isinstance(guard, GuardBackend)


def test_get_backend_unknown_name():
    with pytest.raises(BackendUnavailableError):
        get_backend("no-such-backend")


def test_env_var_controls_default(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "guard")
    assert get_backend(None).name == "guard(numpy)"
    monkeypatch.delenv("REPRO_BACKEND")
    assert get_backend(None).name == "numpy"


# ----------------------------------------------------------------------
# Transfer boundary
# ----------------------------------------------------------------------

def test_to_host_from_host_roundtrip(backend):
    payload = [[1, -2], [3, 4], [-5, 6]]
    device_array = backend.from_host(payload, dtype=backend.int64)
    assert backend.is_array(device_array)
    assert not backend.is_array(payload)
    host = backend.to_host(device_array)
    assert isinstance(host, np.ndarray)
    assert host.tolist() == payload


def test_roundtrip_empty(backend):
    device_array = backend.from_host(np.empty((0, 3), dtype=np.int64))
    assert backend.to_host(device_array).shape == (0, 3)


# ----------------------------------------------------------------------
# Creation / movement
# ----------------------------------------------------------------------

def test_creation_primitives(backend):
    assert to_host_list(backend, backend.zeros(3, dtype=backend.int64)) == [0, 0, 0]
    assert to_host_list(backend, backend.ones(2, dtype=backend.int64)) == [1, 1]
    assert to_host_list(backend, backend.full(2, 7, dtype=backend.int64)) == [7, 7]
    assert to_host_list(backend, backend.arange(4)) == [0, 1, 2, 3]
    assert backend.empty((2, 2), dtype=backend.int64).shape == (2, 2)


def test_as_rows_coerces_1d_and_rejects_3d(backend):
    rows = backend.as_rows(backend.from_host([1, 2, 3]))
    assert backend.to_host(rows).tolist() == [[1], [2], [3]]
    with pytest.raises(ValueError):
        backend.as_rows(backend.from_host(np.zeros((2, 2, 2), dtype=np.int64)))


def test_concatenate_and_column_stack(backend):
    a = backend.from_host([1, 2], dtype=backend.int64)
    b = backend.from_host([3], dtype=backend.int64)
    assert to_host_list(backend, backend.concatenate([a, b])) == [1, 2, 3]
    stacked = backend.column_stack([a, backend.from_host([8, 9], dtype=backend.int64)])
    assert backend.to_host(stacked).tolist() == [[1, 8], [2, 9]]


def test_take_scatter_repeat(backend):
    base = backend.from_host([10, 20, 30, 40], dtype=backend.int64)
    idx = backend.from_host([3, 0, 0], dtype=backend.index_dtype)
    assert to_host_list(backend, backend.take(base, idx)) == [40, 10, 10]
    target = backend.zeros(4, dtype=backend.int64)
    backend.scatter(target, idx, backend.from_host([1, 2, 3], dtype=backend.int64))
    # Duplicate targets: one write per slot survives (CAS-race semantics).
    host = to_host_list(backend, target)
    assert host[3] == 1 and host[0] in (2, 3) and host[1] == 0 and host[2] == 0
    rep = backend.repeat(
        backend.from_host([5, 6], dtype=backend.int64),
        backend.from_host([0, 3], dtype=backend.int64),
    )
    assert to_host_list(backend, rep) == [6, 6, 6]


def test_take_empty_indices(backend):
    base = backend.from_host([1, 2, 3], dtype=backend.int64)
    out = backend.take(base, backend.empty(0, dtype=backend.index_dtype))
    assert out.shape[0] == 0


# ----------------------------------------------------------------------
# Sorting / searching (hypothesis-backed against Python semantics)
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(column=st.lists(values, max_size=60))
def test_lexsort_arity1_matches_stable_sort(column):
    for spec in ("numpy", "guard"):
        backend = get_backend(spec)
        order = backend.lexsort([backend.from_host(column, dtype=backend.int64)])
        host_order = backend.to_host(order).tolist()
        assert sorted(range(len(column)), key=lambda i: (column[i], i)) == host_order


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(dup_values, dup_values, dup_values), max_size=60))
def test_lexsort_multi_column_matches_tuple_sort(rows):
    for spec in ("numpy", "guard"):
        backend = get_backend(spec)
        columns = [
            backend.from_host([row[c] for row in rows], dtype=backend.int64) for c in range(3)
        ]
        order = backend.to_host(backend.lexsort(columns, n_rows=len(rows))).tolist()
        assert order == sorted(range(len(rows)), key=lambda i: (rows[i], i))


def test_lexsort_zero_arity_identity(backend):
    assert to_host_list(backend, backend.lexsort([], n_rows=4)) == [0, 1, 2, 3]
    assert to_host_list(backend, backend.lexsort([], n_rows=0)) == []


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(values, values), max_size=50))
def test_pack_lex_keys_preserves_tuple_order(rows):
    backend = get_backend("numpy")
    columns = [backend.from_host([row[c] for row in rows], dtype=backend.int64) for c in range(2)]
    keys = backend.pack_lex_keys(columns)
    order_by_key = sorted(range(len(rows)), key=lambda i: (keys[i].tobytes(), i))
    order_by_tuple = sorted(range(len(rows)), key=lambda i: (rows[i], i))
    assert order_by_key == order_by_tuple


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# Per-column value domains of a sort-key batch: duplicate-heavy, negatives,
# symbol ids past 2**40, and the int64 extremes (a 64-bit range on their own).
sort_key_domains = st.sampled_from(
    [
        st.integers(-3, 3),
        st.integers(-(2**20), 2**20),
        st.integers(2**40, 2**40 + 1000),
        st.sampled_from([INT64_MIN, INT64_MAX, 0, -1]),
        st.just(7),
    ]
)


@st.composite
def sort_key_batches(draw):
    arity = draw(st.integers(1, 4))
    n = draw(st.integers(0, 40))
    domains = [draw(sort_key_domains) for _ in range(arity)]
    return [draw(st.lists(domain, min_size=n, max_size=n)) for domain in domains]


@settings(max_examples=120, deadline=None)
@given(batch=sort_key_batches(), split=st.integers(0, 40))
def test_pack_sort_keys_dedup_matches_reference(batch, split):
    """pack -> value sort -> adjacent != -> compact -> unpack == lexsort dedup."""
    for spec in ("numpy", "guard"):
        backend = get_backend(spec)
        columns = [backend.from_host(column, dtype=backend.int64) for column in batch]
        spans = [max(column) - min(column) if column else 0 for column in batch]
        packed = backend.pack_sort_keys(columns)
        if sum(span.bit_length() for span in spans) > 64:
            assert packed is None
            continue
        keys, layout = packed
        assert keys.dtype == backend.uint64 and keys.shape[0] == len(batch[0])
        # Several batches pack as their concatenation, under one layout.
        split = min(split, len(batch[0]))
        keys_split, layout_split = backend.pack_sort_keys(
            [column[:split] for column in columns], [column[split:] for column in columns]
        )
        assert layout_split == layout and to_host_list(backend, keys_split) == to_host_list(backend, keys)
        # Unsorted keys unpack to the input, row for row.
        assert [to_host_list(backend, c) for c in backend.unpack_sort_keys(keys, layout)] == batch
        keys.sort()
        survivors = keys[backend.adjacent_unique_mask([keys])]
        unique = backend.unpack_sort_keys(survivors, layout)
        assert all(column.dtype == backend.int64 for column in unique)
        expected = reference_unique([np.asarray(column, dtype=np.int64) for column in batch])
        assert [to_host_list(backend, c) for c in unique] == [c.tolist() for c in expected]


def test_pack_sort_keys_edges(backend):
    def pack(*columns):
        return backend.pack_sort_keys([backend.from_host(c, dtype=backend.int64) for c in columns])

    assert backend.pack_sort_keys([]) is None  # zero arity: nothing to key on
    keys, layout = pack([], [])
    assert keys.shape[0] == 0 and [c.shape[0] for c in backend.unpack_sort_keys(keys, layout)] == [0, 0]
    keys, layout = pack([-5], [2**41])  # a single row needs no bits at all
    assert layout == ((-5, 0), (2**41, 0)) and to_host_list(backend, keys) == [0]
    # The full int64 range is exactly 64 bits: packable alone (the range is
    # taken in Python ints, so max - min does not overflow) ...
    keys, layout = pack([INT64_MAX, INT64_MIN, 0])
    assert layout == ((INT64_MIN, 64),) and to_host_list(backend, keys) == [2**64 - 1, 0, 2**63]
    assert to_host_list(backend, backend.unpack_sort_keys(keys, layout)[0]) == [INT64_MAX, INT64_MIN, 0]
    # ... and with constant neighbours, but not next to one more varying bit.
    assert pack([3, 3], [INT64_MIN, INT64_MAX], [9, 9]) is not None
    assert pack([3, 4], [INT64_MIN, INT64_MAX]) is None
    assert pack([0, 2**40], [0, 2**24]) is None  # 41 + 25 bits


def test_pack_lex_keys_orders_and_distinguishes(backend):
    """Packed keys sort like tuples and collide only on equal tuples.

    Small values keep every backend in range (CuPy's multi-column packing
    has a 64//k-bit per-column budget); byte comparison covers the NumPy
    void representation, integer comparison the device uint64 one.
    """
    rows = [(-3, 5), (2, -1), (-3, -7), (0, 0), (2, -1), (1, 9), (-3, 5)]
    columns = [backend.from_host([row[c] for row in rows], dtype=backend.int64) for c in range(2)]
    keys = backend.to_host(backend.pack_lex_keys(columns))

    def key_of(i):
        return keys[i].tobytes() if keys.dtype.kind == "V" else int(keys[i])

    assert sorted(range(len(rows)), key=lambda i: (key_of(i), i)) == sorted(
        range(len(rows)), key=lambda i: (rows[i], i)
    )
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert (key_of(i) == key_of(j)) == (rows[i] == rows[j])


@settings(max_examples=40, deadline=None)
@given(
    haystack=st.lists(dup_values, max_size=50),
    needles=st.lists(dup_values, max_size=20),
)
def test_searchsorted_matches_numpy(haystack, needles):
    for spec in ("numpy", "guard"):
        backend = get_backend(spec)
        hay = backend.from_host(sorted(haystack), dtype=backend.int64)
        need = backend.from_host(needles, dtype=backend.int64)
        for side in ("left", "right"):
            got = backend.to_host(backend.searchsorted(hay, need, side=side)).tolist()
            expected = np.searchsorted(np.sort(haystack), needles, side=side).tolist()
            assert got == expected


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(dup_values, dup_values), max_size=60))
def test_adjacent_unique_mask_dedups_sorted_tuples(rows):
    for spec in ("numpy", "guard"):
        backend = get_backend(spec)
        ordered = sorted(rows)
        columns = [
            backend.from_host([row[c] for row in ordered], dtype=backend.int64) for c in range(2)
        ]
        mask = backend.to_host(backend.adjacent_unique_mask(columns, n_rows=len(ordered)))
        survivors = [row for row, keep in zip(ordered, mask) if keep]
        assert survivors == sorted(set(rows))


def test_adjacent_unique_mask_edges(backend):
    # Empty input, and the zero-arity edge (all tuples equal, one survivor).
    assert to_host_list(backend, backend.adjacent_unique_mask([], n_rows=0)) == []
    assert to_host_list(backend, backend.adjacent_unique_mask([], n_rows=3)) == [
        True,
        False,
        False,
    ]


def test_is_monotone(backend):
    assert backend.is_monotone(backend.from_host([], dtype=backend.int64))
    assert backend.is_monotone(backend.from_host([1, 1, 2], dtype=backend.int64))
    assert not backend.is_monotone(backend.from_host([2, 1], dtype=backend.int64))


# ----------------------------------------------------------------------
# Scans / reductions
# ----------------------------------------------------------------------

def test_cumsum_nonzero_count(backend):
    vals = backend.from_host([1, 0, 2, 0], dtype=backend.int64)
    assert to_host_list(backend, backend.cumsum(vals)) == [1, 1, 3, 3]
    mask = backend.from_host([True, False, True, False], dtype=backend.bool_)
    assert to_host_list(backend, backend.nonzero_indices(mask)) == [0, 2]
    assert backend.count_nonzero(mask) == 2


def test_add_at_accumulates_duplicates(backend):
    target = backend.zeros(3, dtype=backend.int64)
    backend.add_at(
        target,
        backend.from_host([0, 0, 2], dtype=backend.index_dtype),
        backend.from_host([1, 10, 5], dtype=backend.int64),
    )
    assert to_host_list(backend, target) == [11, 0, 5]


@settings(max_examples=40, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 63), st.integers(0, 63)), min_size=0, max_size=40
    )
)
def test_or_at_keeps_every_duplicate_write(writes):
    """Duplicate-heavy: four words, so most indices repeat, and each write
    sets two bits — a scatter of OR-ed values would keep one write per word."""
    expected = [0] * 4
    for word, low, high in writes:
        expected[word] |= (1 << low) | (1 << high)
    for spec in ("numpy", "guard"):
        backend = get_backend(spec)
        target = backend.zeros(4, dtype=backend.uint64)
        backend.or_at(
            target,
            backend.from_host([word for word, _, _ in writes], dtype=backend.index_dtype),
            backend.from_host([(1 << low) | (1 << high) for _, low, high in writes], dtype=backend.uint64),
        )
        assert to_host_list(backend, target) == expected


@settings(max_examples=40, deadline=None)
@given(segments=st.lists(st.lists(dup_values, min_size=1, max_size=5), min_size=1, max_size=10))
def test_reduceat_sum_matches_segment_sums(segments):
    for spec in ("numpy", "guard"):
        backend = get_backend(spec)
        flat = [v for seg in segments for v in seg]
        starts, position = [], 0
        for seg in segments:
            starts.append(position)
            position += len(seg)
        got = backend.to_host(
            backend.reduceat_sum(
                backend.from_host(flat, dtype=backend.int64),
                backend.from_host(starts, dtype=backend.index_dtype),
            )
        ).tolist()
        assert got == [sum(seg) for seg in segments]


def test_run_lengths_from_starts(backend):
    starts = backend.from_host([0, 2, 3], dtype=backend.index_dtype)
    assert to_host_list(backend, backend.run_lengths_from_starts(starts, 7)) == [2, 1, 4]
    empty = backend.empty(0, dtype=backend.index_dtype)
    assert to_host_list(backend, backend.run_lengths_from_starts(empty, 0)) == []


# ----------------------------------------------------------------------
# Hashing (layout- and backend-invariant)
# ----------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(rows=st.lists(st.tuples(values, values), max_size=40))
def test_hash_rows_equals_hash_columns_across_backends(rows):
    reference = None
    for spec in ("numpy", "guard"):
        backend = get_backend(spec)
        row_array = backend.as_rows(backend.from_host([list(r) for r in rows] or np.empty((0, 2))))
        by_rows = backend.to_host(backend.hash_rows(row_array)).tolist()
        columns = [row_array[:, c] for c in range(2)] if len(rows) else []
        if columns:
            by_columns = backend.to_host(backend.hash_columns(columns)).tolist()
            assert by_rows == by_columns
        if reference is None:
            reference = by_rows
        assert by_rows == reference


def test_compare_kernel(backend):
    left = backend.from_host([1, 2, 3], dtype=backend.int64)
    right = backend.from_host([2, 2, 2], dtype=backend.int64)
    assert to_host_list(backend, backend.compare("<", left, right)) == [True, False, False]
    assert to_host_list(backend, backend.compare("!=", left, 2)) == [True, False, True]
    with pytest.raises(Exception):
        backend.compare("~", left, right)


# ----------------------------------------------------------------------
# The guard: contract enforcement
# ----------------------------------------------------------------------

def test_guard_rejects_non_contract_primitives():
    guard = get_backend("guard")
    with pytest.raises(BackendContractError):
        guard.flatnonzero  # a NumPy name that is NOT a contract primitive
    with pytest.raises(BackendContractError):
        guard.einsum


def test_guard_counts_primitive_calls():
    guard = get_backend("guard")
    guard.arange(3)
    guard.arange(2)
    guard.cumsum(guard.from_host([1, 2], dtype=guard.int64))
    assert guard.call_counts["arange"] == 2
    assert guard.call_counts["cumsum"] == 1
    assert guard.call_counts["from_host"] == 1


def test_guard_flattens_nesting():
    inner = NumpyBackend()
    double = GuardBackend(GuardBackend(inner))
    assert double.inner is inner


def test_contract_covers_every_public_backend_method():
    """Every public attribute of the reference backend is in the contract
    (no accidental extra surface the guard would hide)."""
    public = {name for name in dir(NumpyBackend()) if not name.startswith("_")}
    assert public == set(ARRAY_BACKEND_CONTRACT)
