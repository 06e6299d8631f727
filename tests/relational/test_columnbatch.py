"""Tests for the columnar (SoA) ColumnBatch abstraction."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational import ColumnBatch


@pytest.fixture
def batch(device):
    rows = np.array([[0, 10, 100], [1, 11, 101], [2, 12, 102], [3, 13, 103]], dtype=np.int64)
    return ColumnBatch.from_rows(device, rows), rows


def test_from_rows_round_trip(batch):
    cb, rows = batch
    assert len(cb) == 4
    assert cb.arity == 3
    assert cb.as_rows().tolist() == rows.tolist()
    assert cb.column(1).tolist() == [10, 11, 12, 13]


def test_from_columns_validates_lengths(device):
    with pytest.raises(SchemaError):
        ColumnBatch.from_columns(
            device, [np.arange(3, dtype=np.int64), np.arange(4, dtype=np.int64)]
        )


def test_project_is_metadata_only(batch):
    cb, rows = batch
    projected = cb.project([2, 0, 2])
    assert projected.arity == 3
    assert projected.as_rows().tolist() == rows[:, [2, 0, 2]].tolist()
    with pytest.raises(SchemaError):
        cb.project([5])


def test_take_and_filter_route_lazily(batch):
    cb, rows = batch
    taken = cb.take(np.array([3, 1], dtype=np.int64))
    # Nothing materialized yet: routing manipulates selections only.
    assert taken.materialized_column_count == 0
    assert taken.as_rows().tolist() == rows[[3, 1]].tolist()
    filtered = cb.filter(rows[:, 0] % 2 == 0)
    assert filtered.as_rows().tolist() == rows[[0, 2]].tolist()


def test_chained_take_composes_correctly(batch):
    cb, rows = batch
    step1 = cb.take(np.array([3, 2, 1, 0], dtype=np.int64))
    step2 = step1.take(np.array([0, 3], dtype=np.int64))
    assert step2.as_rows().tolist() == rows[[3, 0]].tolist()


def test_take_rebases_cached_columns(batch):
    cb, rows = batch
    first = cb.column(0)
    assert first.tolist() == rows[:, 0].tolist()
    taken = cb.take(np.array([2, 0], dtype=np.int64))
    assert taken.column(0).tolist() == [2, 0]
    # Untouched columns still resolve through the original bases.
    assert taken.column(2).tolist() == [102, 100]


def test_column_out_of_range(batch):
    cb, _ = batch
    with pytest.raises(SchemaError):
        cb.column(3)


def test_filter_mask_length_checked(batch):
    cb, _ = batch
    with pytest.raises(SchemaError):
        cb.filter(np.ones(2, dtype=bool))


def test_lazy_columns_never_gathered_unless_read(device):
    base = np.arange(1000, dtype=np.int64)
    cb = ColumnBatch.from_columns(device, [base, base * 2, base * 3])
    routed = cb.take(np.array([5, 7, 9], dtype=np.int64))
    before = device.profiler.variable_seconds
    routed.column(1)
    after_one = device.profiler.variable_seconds
    assert routed.materialized_column_count == 1
    # Reading the cached column again charges nothing further.
    routed.column(1)
    assert device.profiler.variable_seconds == after_one
    assert after_one >= before


def test_concatenate_keeps_arity_when_all_parts_empty(device):
    out = ColumnBatch.concatenate(device, [ColumnBatch.empty(device, 3)], arity=3)
    assert len(out) == 0
    assert out.arity == 3
    mismatched = ColumnBatch.from_rows(device, np.array([[1, 2]], dtype=np.int64))
    with pytest.raises(SchemaError):
        ColumnBatch.concatenate(device, [mismatched], arity=3)


def test_concatenate_values(device):
    a = ColumnBatch.from_rows(device, np.array([[1, 2], [3, 4]], dtype=np.int64))
    b = ColumnBatch.from_rows(device, np.array([[5, 6]], dtype=np.int64))
    out = ColumnBatch.concatenate(device, [a, b], arity=2)
    assert out.as_rows().tolist() == [[1, 2], [3, 4], [5, 6]]


def test_assemble_routes_columns_and_writes_constants(batch):
    cb, rows = batch
    out = cb.assemble([("column", 2), ("constant", 42), ("column", 0)])
    assert out.as_rows().tolist() == [[100, 42, 0], [101, 42, 1], [102, 42, 2], [103, 42, 3]]
    with pytest.raises(SchemaError):
        cb.assemble([("column", 9)])


def test_wrap_passthrough_and_nbytes(device):
    """``from_rows`` wraps a row block as column views: no copy, nothing charged."""
    rows = np.array([[1, 2], [3, 4]], dtype=np.int64)
    cb = ColumnBatch.from_rows(device, rows)
    assert all(np.shares_memory(column, rows) for column in cb.columns())
    assert cb.nbytes == rows.nbytes
    assert device.elapsed_seconds == 0.0


def test_from_host_and_to_host_are_the_charged_pcie_edges(device):
    rows = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.int64)
    cb = ColumnBatch.from_host(device, rows, 2, label="t.h2d")
    out = cb.to_host(label="t.d2h")
    assert out.tolist() == rows.tolist() and out.flags.c_contiguous
    events = [(event.kernel, event.cost.transfer_bytes) for event in device.profiler.events]
    assert events == [("t.h2d", float(rows.nbytes)), ("t.d2h", float(rows.nbytes))]
    assert cb.to_host(charge=False).tolist() == rows.tolist()
    assert len(device.profiler.events) == 2
    # One 1-D tuple is one row; an empty payload of any shape keeps the arity.
    assert ColumnBatch.from_host(device, [7, 8], 2).as_rows().tolist() == [[7, 8]]
    assert ColumnBatch.from_host(device, [], 3).arity == 3
    with pytest.raises(SchemaError):
        ColumnBatch.from_host(device, rows, 3)


# ----------------------------------------------------------------------
# Selections that are monotone by construction skip the O(n) check
# ----------------------------------------------------------------------
@pytest.fixture
def monotone_checks(device, monkeypatch):
    """Lengths of the index vectors ``backend.is_monotone`` was asked about."""
    checked = []
    real = device.backend.is_monotone

    def recording(indices):
        checked.append(int(indices.shape[0]))
        return real(indices)

    monkeypatch.setattr(device.backend, "is_monotone", recording)
    return checked


def gather_costs(device):
    return [event.cost for event in device.profiler.events]


def test_certified_monotone_take_seeds_the_coalescing_flag(device, batch, monotone_checks):
    cb, rows = batch
    indices = np.array([0, 0, 2, 3, 3], dtype=np.int64)
    certified = cb.take(indices, monotone=True).project([2, 0])
    assert certified.column(0).tolist() == rows[indices, 2].tolist()
    certified.column(1)
    assert monotone_checks == []
    certified_costs = gather_costs(device)
    # The charge is the one the check would have produced.
    device.reset()
    checked = cb.take(indices).project([2, 0])
    checked.column(0), checked.column(1)
    assert monotone_checks == [5]  # once per source, as before
    assert gather_costs(device) == certified_costs


def test_monotone_flag_survives_composition_but_not_an_unknown_link(device, batch, monotone_checks):
    cb, rows = batch
    twice = cb.take(np.array([0, 1, 1, 3]), monotone=True).filter(np.array([True, False, True, True]))
    assert twice.column(1).tolist() == rows[[0, 1, 3], 1].tolist()
    assert monotone_checks == []  # non-decreasing maps compose
    shuffled = cb.take(np.array([3, 0, 2])).take(np.array([0, 1, 2]), monotone=True)
    assert shuffled.column(1).tolist() == rows[[3, 0, 2], 1].tolist()
    assert monotone_checks == [3, 3]  # first link never certified: the compose and the gather both ask


def test_filter_and_join_expansion_certify_their_selections(device, monotone_checks):
    from repro.relational import HISA, JoinOutput, hash_join

    edges = ColumnBatch.from_rows(device, np.array([(0, 1), (0, 2), (1, 2), (2, 0), (2, 1)], dtype=np.int64))
    inner = HISA(device, edges, join_columns=(0,), label="edge")
    joined = hash_join(
        device, edges, [1], inner,
        [JoinOutput("outer", 0), JoinOutput("outer", 1), JoinOutput("inner", 1)],
    )
    joined.column(0), joined.column(1)  # routed through the probe-major indices
    assert monotone_checks == []
    joined.column(2)  # inner data positions: not monotone by construction
    assert monotone_checks == [len(joined)]
