"""Tests for the Hash-Indexed Sorted Array."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device import Device
from repro.errors import HisaStateError, SchemaError
from repro.relational import OpenAddressingHashTable
from repro.relational import hisa as hisa_module

from tests.helpers import LOOKUP_BACKENDS, hisa_of as HISA, hisa_rows, hisa_runs, key_columns, lookup_per_run


rows_strategy = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(0, 3)),
    min_size=1,
    max_size=120,
).map(lambda rows: np.asarray(rows, dtype=np.int64))


@pytest.fixture
def edge_hisa(device, paper_edges):
    return HISA(device, paper_edges, join_columns=(0,), label="edge")


def test_data_array_preserves_tuples(device, paper_edges):
    hisa = HISA(device, paper_edges, join_columns=(1,), label="edge")
    assert {tuple(r) for r in hisa_rows(hisa).tolist()} == {tuple(r) for r in paper_edges.tolist()}
    assert hisa.tuple_count == paper_edges.shape[0]
    assert hisa.arity == 2


def test_sorted_index_orders_join_columns_first(device):
    rows = np.array([[2, 1, 5], [2, 5, 9], [2, 1, 2]], dtype=np.int64)
    # Join on the middle column, as in the Section 4.2 example: the sorted
    # order should be (1,2,2) < (1,2,5) < (5,2,9) in reordered space.
    hisa = HISA(device, rows, join_columns=(1,), label="example")
    (run,) = hisa_runs(hisa)
    assert run[:, 1].tolist() == [1, 1, 5]
    np.testing.assert_array_equal(run, hisa_rows(hisa, sorted_order=True))
    assert hisa._stores[0][: hisa.tuple_count].tolist() == [2, 0, 1]


def test_lookup_returns_runs(edge_hisa):
    runs, lengths = edge_hisa.lookup_columns(key_columns([[0], [4], [9]]))
    assert lengths.tolist() == [2, 2, 0]
    assert runs.starts[:, 2].tolist() == [-1]  # one sorted run, and key 9 misses it
    start = int(runs.starts[0, 1])
    rows = hisa_rows(edge_hisa, sorted_order=True)[start : start + 2]
    assert {tuple(r) for r in rows.tolist()} == {(4, 7), (4, 8)}


def test_lookup_wrong_key_width_rejected(edge_hisa):
    with pytest.raises(SchemaError):
        edge_hisa.lookup_columns(key_columns([[1, 2]]))


def test_expand_matches(edge_hisa):
    runs, lengths = edge_hisa.lookup_columns(key_columns([[1], [4]]))
    probe_idx, data_positions = edge_hisa.expand_matches(runs, lengths)
    assert probe_idx.tolist() == [0, 0, 1, 1]
    matched = hisa_rows(edge_hisa)[data_positions]
    assert {tuple(r) for r in matched.tolist()} == {(1, 3), (1, 4), (4, 7), (4, 8)}


def test_contains_requires_all_column_index(device, paper_edges):
    partial = HISA(device, paper_edges, join_columns=(0,))
    with pytest.raises(HisaStateError):
        partial.contains_columns(key_columns(paper_edges[:2]))
    full = HISA(device, paper_edges, join_columns=(0, 1))
    mask = full.contains_columns(key_columns([[0, 1], [0, 9]]))
    assert mask.tolist() == [True, False]


def test_duplicate_or_invalid_join_columns_rejected(device, paper_edges):
    with pytest.raises(SchemaError):
        HISA(device, paper_edges, join_columns=(0, 0))
    with pytest.raises(SchemaError):
        HISA(device, paper_edges, join_columns=(5,))


def test_memory_accounting_and_free(device, paper_edges):
    before = device.pool.in_use_bytes
    hisa = HISA(device, paper_edges, join_columns=(0,))
    assert device.pool.in_use_bytes > before
    breakdown = hisa.memory_breakdown()
    assert breakdown.total_bytes == hisa.nbytes > 0
    hisa.free()
    assert device.pool.in_use_bytes == before
    with pytest.raises(HisaStateError):
        hisa.lookup_columns(key_columns([[1]]))
    hisa.free()  # double free is a no-op


def test_merge_combines_disjoint_relations(device):
    full_rows = np.array([[0, 1], [1, 2]], dtype=np.int64)
    delta_rows = np.array([[0, 2], [2, 3]], dtype=np.int64)
    full = HISA(device, full_rows, join_columns=(0,), label="r")
    delta = HISA(device, delta_rows, join_columns=(0,), label="r.delta")
    merged = full.merge(delta)
    assert merged is full  # merge mutates the full index in place
    assert merged.tuple_count == 4
    assert {tuple(r) for r in hisa_rows(merged).tolist()} == {(0, 1), (1, 2), (0, 2), (2, 3)}
    starts, lengths = merged.lookup_columns(key_columns([[0]]))
    assert lengths.tolist() == [2]
    assert delta.is_freed  # the delta is consumed


def test_merge_schema_mismatch_rejected(device, paper_edges):
    a = HISA(device, paper_edges, join_columns=(0,))
    b = HISA(device, paper_edges, join_columns=(1,))
    with pytest.raises(SchemaError):
        a.merge(b)


@given(rows=rows_strategy, join_col=st.sampled_from([0, 1, 2]))
@settings(max_examples=50, deadline=None)
def test_lookup_matches_bruteforce(rows, join_col):
    device = Device("h100", oom_enabled=False)
    hisa = HISA(device, rows, join_columns=(join_col,))
    keys = np.unique(rows[:, join_col])
    runs, lengths = hisa.lookup_columns([keys], charge=False)
    probe_idx, data_positions = hisa.expand_matches(runs, lengths)
    found = hisa_rows(hisa)[data_positions]
    for probe, (key, length) in enumerate(zip(keys.tolist(), lengths.tolist())):
        assert length == int((rows[:, join_col] == key).sum())
        assert (found[probe_idx == probe, join_col] == key).all()


@given(rows=rows_strategy)
@settings(max_examples=40, deadline=None)
def test_merge_equals_union_property(rows):
    device = Device("h100", oom_enabled=False)
    unique = np.unique(rows, axis=0)
    if unique.shape[0] < 2:
        return
    split = unique.shape[0] // 2
    full = HISA(device, unique[:split], join_columns=(0,))
    delta = HISA(device, unique[split:], join_columns=(0,))
    merged = full.merge(delta)
    assert {tuple(r) for r in hisa_rows(merged).tolist()} == {tuple(r) for r in unique.tolist()}
    # Every sorted run of the merged index lists its tuples in sorted order.
    for run in hisa_runs(merged):
        assert run.tolist() == sorted(run.tolist())


@pytest.mark.parametrize("backend", sorted(LOOKUP_BACKENDS))
def test_a_lookup_probes_every_run_in_one_call(monkeypatch, backend):
    """On a k-run index, a lookup is one ``OpenAddressingHashTable.probe``
    over all (key, run) pairs, plus a resumed walk per round of hits on a key
    with the same hash; the per-run loop it replaced made k."""
    monkeypatch.setattr(hisa_module, "TABLE_MIN_ROWS", 0)  # a table for every run
    device = Device("h100", oom_enabled=False, backend=LOOKUP_BACKENDS[backend]())
    rows = np.array([(key, value) for key in range(40) for value in range(key % 5 + 1)], dtype=np.int64)
    order = np.random.default_rng(3).permutation(len(rows))
    full = HISA(device, rows[order[:80]], (0,), label="k")
    for delta in (order[80:110], order[110:120]):  # each less than half the run below: pushed
        full.merge(HISA(device, rows[delta], (0,), label="k.d", build_hash_index=False))
    assert len(full.run_sizes) == 3
    keys = key_columns(np.arange(-2, 44).reshape(-1, 1))

    walks = []
    probe = OpenAddressingHashTable.probe

    def counted(self, query_hashes, table=0, **options):
        walks.append("resumed" if options.get("start") is not None else "first")
        return probe(self, query_hashes, table, **options)

    monkeypatch.setattr(OpenAddressingHashTable, "probe", counted)
    runs, lengths = full.lookup_columns(keys)
    assert walks.count("first") == 1
    if backend == "colliding":
        assert "resumed" in walks
    else:
        assert walks == ["first"]
    walks.clear()
    reference, expected = lookup_per_run(full, keys)
    assert walks.count("first") == 3
    np.testing.assert_array_equal(runs.starts, reference.starts)
    np.testing.assert_array_equal(lengths, expected)
    assert lengths.tolist() == [0, 0] + [key % 5 + 1 for key in range(40)] + [0] * 4
