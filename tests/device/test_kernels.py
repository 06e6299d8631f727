"""Tests for the bulk device kernels, including Hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device import Device
from repro.backend import HOST_BACKEND
from repro.device.kernels import PackedColumns

from tests.helpers import reference_unique


rows_strategy = st.lists(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-5, 5)),
    min_size=0,
    max_size=80,
).map(lambda rows: np.asarray(rows, dtype=np.int64).reshape(-1, 3))


@pytest.fixture
def kernels(device):
    return device.kernels


def _columns(rows):
    return [np.ascontiguousarray(rows[:, c]) for c in range(rows.shape[1])]


def test_lexsort_rows_matches_python_sort(kernels):
    rows = np.array([[2, 1, 5], [2, 5, 9], [2, 1, 2], [1, 0, 0]], dtype=np.int64)
    order = kernels.lexsort_columns(_columns(rows))
    sorted_rows = rows[order]
    assert [tuple(r) for r in sorted_rows] == sorted(map(tuple, rows.tolist()))


def test_sort_rows_charges_time(device):
    """Sorting tuples is an argsort plus one gather per column, both charged."""
    rows = np.arange(60, dtype=np.int64).reshape(-1, 3)[::-1].copy()
    before = device.elapsed_seconds
    order = device.kernels.lexsort_columns(_columns(rows))
    after_sort = device.elapsed_seconds
    result = np.column_stack([device.kernels.gather_column(column, order) for column in _columns(rows)])
    assert device.elapsed_seconds > after_sort > before
    assert result.tolist() == sorted(rows.tolist())


def test_unique_rows_removes_duplicates(kernels):
    rows = np.array([[1, 2], [1, 2], [3, 4], [0, 0], [3, 4]], dtype=np.int64)
    unique = np.column_stack(kernels.unique_columns(_columns(rows)))
    assert unique.tolist() == [[0, 0], [1, 2], [3, 4]]


def test_adjacent_unique_mask_requires_sorted_input(kernels):
    rows = np.array([[1, 1], [1, 1], [2, 2]], dtype=np.int64)
    mask = kernels.adjacent_unique_mask_columns(_columns(rows), n_rows=3)
    assert mask.tolist() == [True, False, True]


def test_stream_compact_checks_length(kernels):
    rows = np.array([[1, 2], [3, 4]], dtype=np.int64)
    assert [c.tolist() for c in kernels.compact_columns(_columns(rows), np.array([False, True]))] == [[3], [4]]
    with pytest.raises((IndexError, ValueError)):
        kernels.compact_columns(_columns(rows), np.array([True]))


def test_gather_rows_and_values(kernels):
    rows = np.array([[10, 11], [20, 21], [30, 31]], dtype=np.int64)
    gathered = [kernels.gather_column(column, np.array([2, 0])) for column in _columns(rows)]
    assert np.column_stack(gathered).tolist() == [[30, 31], [10, 11]]
    assert kernels.compose_selection(np.array([5, 6, 7]), np.array([1, 1])).tolist() == [6, 6]


@given(rows=rows_strategy)
@settings(max_examples=60, deadline=None)
def test_lex_rank_keys_preserve_order(rows):
    keys = HOST_BACKEND.pack_lex_keys(_columns(rows))
    python_order = sorted(range(rows.shape[0]), key=lambda i: tuple(rows[i]))
    key_order = np.argsort(keys, kind="stable")
    assert [tuple(rows[i]) for i in key_order] == [tuple(rows[i]) for i in python_order]


@given(rows=rows_strategy)
@settings(max_examples=60, deadline=None)
def test_unique_rows_is_exact_set(rows):
    device = Device("h100", oom_enabled=False)
    unique = np.column_stack(device.kernels.unique_columns(_columns(rows)))
    assert unique.tolist() == np.unique(rows, axis=0).tolist()


def _events(device):
    return [(event.phase, event.cost) for event in device.profiler.events]


@pytest.mark.parametrize("presorted", [False, True], ids=["unsorted", "presorted"])
@given(rows=rows_strategy)
@settings(max_examples=40, deadline=None)
def test_unique_columns_packed_and_lexsort_routes_agree(presorted, rows):
    """Same batch down both routes: identical output and KernelCost sequence.

    The lexsort route is forced by blinding ``pack_sort_keys`` on one device's
    backend; ``presorted`` exercises the coalesced-gather charge.
    """
    if presorted and rows.shape[0]:
        rows = rows[np.lexsort(tuple(rows[:, c] for c in reversed(range(3))))]
    packed_device = Device("h100", oom_enabled=False)
    lexsort_device = Device("h100", oom_enabled=False)
    lexsort_device.backend.pack_sort_keys = lambda *batches: None
    outputs = []
    for device in (packed_device, lexsort_device):
        columns = [np.ascontiguousarray(rows[:, c]) for c in range(3)]
        with device.fused("dedup_fused", launches=3):  # as operators.deduplicate runs it
            outputs.append(device.kernels.unique_columns(columns, label="t"))
        device.kernels.unique_columns(columns, label="unfused")
        device.kernels.lexsort_columns(columns, label="sort")
    assert [c.tolist() for c in outputs[0]] == [c.tolist() for c in outputs[1]]
    assert [c.tolist() for c in outputs[0]] == [c.tolist() for c in reference_unique(list(rows.T))]
    assert _events(packed_device) == _events(lexsort_device)
    assert packed_device.elapsed_seconds == lexsort_device.elapsed_seconds


def test_concatenate_packed_charges_like_concatenate_columns(device):
    parts = [
        [np.array([5, 1, 5], dtype=np.int64), np.array([-2, 9, -2], dtype=np.int64)],
        [np.array([1, 7], dtype=np.int64), np.array([9, 0], dtype=np.int64)],
    ]
    other = Device("h100", oom_enabled=False)
    packed = device.kernels.concatenate_packed(parts, label="gather")
    columns = other.kernels.concatenate_columns(parts, label="gather")
    assert isinstance(packed, PackedColumns)
    assert (len(packed), packed.arity, packed.nbytes) == (5, 2, 5 * 2 * 8)
    assert [c.tolist() for c in packed.unpack()] == [c.tolist() for c in columns]
    assert _events(device) == _events(other)
    # unique_columns consumes the packed batch (sorting its keys in place).
    unique = device.kernels.unique_columns(packed, label="dedup")
    expected = other.kernels.unique_columns(columns, label="dedup")
    assert [c.tolist() for c in unique] == [c.tolist() for c in expected] == [[1, 5, 7], [9, -2, 0]]
    assert _events(device) == _events(other)
    # Ranges past 64 bits: no packed form, nothing charged.
    wide = [[np.array([0, 2**62], dtype=np.int64), np.array([0, 2**62], dtype=np.int64)]]
    before = len(device.profiler.events)
    assert device.kernels.concatenate_packed(wide) is None
    assert len(device.profiler.events) == before
