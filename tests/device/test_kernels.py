"""Tests for the bulk device kernels, including Hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.device import Device
from repro.backend import HOST_BACKEND
from repro.device import kernels as kernels_module
from repro.device.kernels import (
    DENSE_KEY_MAX_BITS,
    DENSE_KEY_SLOTS_PER_ROW,
    PackedColumns,
    _occupied_keys as occupied_keys,
)
from repro.relational.operators import _distinct_outer

from tests.helpers import batch_of, reference_unique


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


@st.composite
def keyed_rows(draw):
    """Rows whose packed key space falls on either side of 4 slots a row.

    Each column spans at most ``2**bits`` values above a signed base, so the
    layout's total width runs from 0 bits (every column constant) to 15.
    """
    arity = draw(st.integers(1, 3))
    n = draw(st.integers(0, 60))
    columns = []
    for _ in range(arity):
        low = draw(st.integers(-(2**40), 2**40))
        bits = draw(st.integers(0, 5))
        columns.append(draw(st.lists(st.integers(low, low + (1 << bits) - 1), min_size=n, max_size=n)))
    return np.asarray(columns, dtype=np.int64).reshape(arity, n).T.copy()


@pytest.fixture
def table_spy(monkeypatch):
    """Counts the dedups that take the occupancy-table route."""
    fired = []

    def spy(backend, keys, bits):
        fired.append((int(keys.shape[0]), bits))
        return occupied_keys(backend, keys, bits)

    monkeypatch.setattr(kernels_module, "_occupied_keys", spy)
    return fired


@pytest.mark.parametrize("presorted", [False, True], ids=["unsorted", "presorted"])
@given(rows=keyed_rows())
@example(rows=np.full((5, 2), -7, dtype=np.int64))  # a 0-bit layout: one survivor
@example(rows=np.array([[-3, 2**40]], dtype=np.int64))  # a single row
@example(rows=np.array([[1, 3], [0, 0]], dtype=np.int64))  # 1 + 2 bits: exactly 4 slots a row
@example(rows=np.array([[-1, -2], [-1, -2], [-4, 0], [-2, -1], [-4, 0]], dtype=np.int64))
@settings(max_examples=40, deadline=None)
def test_unique_columns_packed_and_lexsort_routes_agree(presorted, rows):
    """Same batch down every route: identical output and KernelCost sequence.

    The routes are the occupancy table (the rule's slots-per-row bound raised
    past any key space), the packed value sort (the bound at 0), the
    per-column lexsort (``pack_sort_keys`` blinded) and the rule itself,
    which must take the table exactly when ``2**bits <= 4 * n``.
    ``presorted`` exercises the coalesced-gather charge.
    """
    arity = rows.shape[1]
    if presorted and rows.shape[0]:
        rows = rows[np.lexsort(tuple(rows[:, c] for c in reversed(range(arity))))]
    fired = []

    def spy(backend, keys, bits):
        fired.append(bits)
        return occupied_keys(backend, keys, bits)

    outputs, devices = [], []
    for slots_per_row, blind in ((None, False), (2**20, False), (0, False), (None, True)):
        device = Device("h100", oom_enabled=False)
        if blind:
            device.backend.pack_sort_keys = lambda *batches: None
        fired.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels_module, "_occupied_keys", spy)
            if slots_per_row is not None:
                patch.setattr(kernels_module, "DENSE_KEY_SLOTS_PER_ROW", slots_per_row)
            columns = [np.ascontiguousarray(rows[:, c]) for c in range(arity)]
            with device.fused("dedup_fused", launches=3):  # as operators.deduplicate runs it
                outputs.append(device.kernels.unique_columns(columns, label="t"))
            device.kernels.unique_columns(columns, label="unfused")
            device.kernels.lexsort_columns(columns, label="sort")
        if rows.shape[0] and not blind:
            bits = sum(width for _, width in device.backend.pack_sort_keys(columns)[1])
            bound = DENSE_KEY_SLOTS_PER_ROW if slots_per_row is None else slots_per_row
            dense = bits <= DENSE_KEY_MAX_BITS and (1 << bits) <= bound * rows.shape[0]
            assert fired == ([bits, bits] if dense else [])
        else:
            assert fired == []
        devices.append(device)
    expected = [c.tolist() for c in reference_unique(list(rows.T))]
    for output, device in zip(outputs, devices):
        assert [c.tolist() for c in output] == expected
        assert all(c.dtype == np.int64 for c in output)
        assert _events(device) == _events(devices[0])
        assert device.elapsed_seconds == devices[0].elapsed_seconds


def test_a_key_space_past_the_table_cap_is_sorted(table_spy, monkeypatch):
    """Slots per row are not enough: a table wider than the cap is not built."""
    rows = np.arange(64, dtype=np.int64).reshape(-1, 2) % 8  # 3 + 3 bits, 32 rows
    monkeypatch.setattr(kernels_module, "DENSE_KEY_MAX_BITS", 5)
    sorted_out = Device("h100", oom_enabled=False).kernels.unique_columns(_columns(rows))
    assert table_spy == []
    monkeypatch.setattr(kernels_module, "DENSE_KEY_MAX_BITS", 6)
    table_out = Device("h100", oom_enabled=False).kernels.unique_columns(_columns(rows))
    assert table_spy == [(32, 6)]
    assert [c.tolist() for c in table_out] == [c.tolist() for c in sorted_out]


def test_distinct_outer_takes_the_table_route_like_the_sort(table_spy):
    """Distinct-before-expand's projection dedups through the same kernel: a
    dense live projection takes the table and charges what the sort does."""
    rng = np.random.default_rng(7)
    rows = np.column_stack([rng.integers(-8, 8, 200), rng.integers(0, 10**6, 200), rng.integers(0, 4, 200)])
    outputs, devices = [], []
    for slots_per_row in (DENSE_KEY_SLOTS_PER_ROW, 0):
        device = Device("h100", oom_enabled=False)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels_module, "DENSE_KEY_SLOTS_PER_ROW", slots_per_row)
            distinct = _distinct_outer(device, batch_of(device, rows), [0, 2], "join")
        outputs.append(np.column_stack([distinct.column(c, charge=False) for c in (0, 2)]))
        devices.append(device)
    assert table_spy == [(200, 6)]  # 4 + 2 bits: 64 slots for 200 rows
    assert outputs[0].tolist() == outputs[1].tolist() == np.unique(rows[:, [0, 2]], axis=0).tolist()
    assert _events(devices[0]) == _events(devices[1])
    assert devices[0].elapsed_seconds == devices[1].elapsed_seconds


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
    # unique_columns consumes the packed batch (its keys are scratch).
    unique = device.kernels.unique_columns(packed, label="dedup")
    expected = other.kernels.unique_columns(columns, label="dedup")
    assert [c.tolist() for c in unique] == [c.tolist() for c in expected] == [[1, 5, 7], [9, -2, 0]]
    assert _events(device) == _events(other)
    # Ranges past 64 bits: no packed form, nothing charged.
    wide = [[np.array([0, 2**62], dtype=np.int64), np.array([0, 2**62], dtype=np.int64)]]
    before = len(device.profiler.events)
    assert device.kernels.concatenate_packed(wide) is None
    assert len(device.profiler.events) == before
