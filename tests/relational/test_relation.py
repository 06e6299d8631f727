"""Tests for the semi-naive Relation storage (full/delta/new lifecycle)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.engine import SymbolTable
from repro.device import Device, FaultPlan
from repro.device.kernels import PackedColumns
from repro.errors import SchemaError
from repro.relational import ColumnBatch, Relation, ShardedRelation

from tests.helpers import key_columns


def test_initialize_sets_full_and_delta(device, paper_edges):
    relation = Relation(device, "edge", 2)
    relation.require_index((0,))
    relation.initialize(paper_edges)
    assert relation.full_count == paper_edges.shape[0]
    assert relation.delta_count == paper_edges.shape[0]
    assert relation.index_for((0,)).tuple_count == paper_edges.shape[0]
    assert relation.canonical_index.n_join == 2


def test_initialize_deduplicates(device):
    relation = Relation(device, "r", 2)
    relation.initialize(np.array([[1, 2], [1, 2], [3, 4]], dtype=np.int64))
    assert relation.full_count == 2


def test_end_iteration_populates_delta_and_merges(device, paper_edges):
    relation = Relation(device, "reach", 2)
    relation.initialize(paper_edges)
    # New tuples: one duplicate of full, one new, one internal duplicate.
    relation.add_new(np.array([[0, 1], [0, 9], [0, 9]], dtype=np.int64))
    stats = relation.end_iteration()
    assert stats.new_count == 2  # after in-batch dedup
    assert stats.delta_count == 1
    assert relation.full_count == paper_edges.shape[0] + 1
    assert relation.delta_batch.to_host(charge=False).tolist() == [[0, 9]]

    # Second iteration with nothing new reaches the empty-delta fixpoint.
    stats = relation.end_iteration()
    assert stats.delta_count == 0
    assert relation.delta_count == 0


def test_history_records_iterations(device, paper_edges):
    relation = Relation(device, "reach", 2)
    relation.initialize(paper_edges)
    relation.add_new(np.array([[0, 9]], dtype=np.int64))
    relation.end_iteration()
    relation.end_iteration()
    assert [item.iteration for item in relation.history] == [1, 2]
    assert relation.history[0].delta_count == 1
    assert relation.history[1].delta_count == 0


def test_indexes_stay_consistent_after_merge(device, paper_edges):
    relation = Relation(device, "edge", 2)
    relation.require_index((1,))
    relation.initialize(paper_edges)
    relation.add_new(np.array([[7, 8]], dtype=np.int64))
    relation.end_iteration()
    index = relation.index_for((1,))
    starts, lengths = index.lookup_columns(key_columns([[8]]))
    assert lengths.tolist() == [3]  # (4,8), (5,8), (7,8)


def test_require_index_validation(device):
    relation = Relation(device, "r", 2)
    with pytest.raises(SchemaError):
        relation.require_index(())
    with pytest.raises(SchemaError):
        relation.require_index((3,))
    with pytest.raises(SchemaError):
        relation.index_for((1,))
    with pytest.raises(SchemaError):
        Relation(device, "bad", 0)


def test_arity_mismatch_rejected(device):
    relation = Relation(device, "r", 2)
    with pytest.raises(SchemaError):
        relation.initialize(np.array([[1, 2, 3]], dtype=np.int64))


def test_free_releases_device_memory(device, paper_edges):
    before = device.pool.in_use_bytes
    relation = Relation(device, "edge", 2)
    relation.require_index((0,))
    relation.initialize(paper_edges)
    relation.add_new(np.array([[9, 9]], dtype=np.int64))
    relation.end_iteration()
    assert device.pool.in_use_bytes > before
    relation.free()
    assert device.pool.in_use_bytes == before


def test_as_set_and_memory_bytes(device, paper_edges):
    relation = Relation(device, "edge", 2)
    relation.initialize(paper_edges)
    assert relation.as_set() == {tuple(r) for r in paper_edges.tolist()}
    assert relation.memory_bytes() > 0


def test_oom_halved_dedup_equals_one_shot_on_packed_new(monkeypatch):
    """The scratch-OOM degradation (unpack, halve, dedup the halves and their
    concatenation) matches the packed one-shot dedup."""
    monkeypatch.setattr("repro.relational.relation.OOM_DEDUP_FLOOR_ROWS", 4)
    rng = np.random.default_rng(5)
    parts = [rng.integers(-40, 40, size=(n, 2), dtype=np.int64) for n in (90, 1, 60)]
    deltas = {}
    for fault_plan in ("none", "alloc:*.dedup_scratch:at=1"):
        device = Device("h100", oom_enabled=False, fault_plan=FaultPlan.parse(fault_plan))
        relation = Relation(device, "r", 2)
        relation.initialize(parts[0][:10])
        for part in parts:
            relation.add_new(ColumnBatch.from_rows(device, part))
        assert isinstance(relation._gather_new(), PackedColumns)  # this input takes the packed route
        stats = relation.end_iteration()
        deltas[fault_plan] = (stats.new_count, relation.delta_batch.to_host(charge=False).tolist(), relation.as_set())
        assert relation.oom_degradations == (0 if fault_plan == "none" else 1)
    one_shot, degraded = deltas.values()
    assert one_shot == degraded
    everything = {tuple(row) for part in parts for row in part.tolist()}
    assert one_shot[0] == len(everything) and one_shot[2] == everything


# ----------------------------------------------------------------------
# The one ingest path, against a NumPy oracle
# ----------------------------------------------------------------------

#: few values per column (heavy duplicates); ``symbols`` reaches interned-string
#: ids, ``wide`` spans 63 bits per column so two columns cannot share one
#: 64-bit sort key and deduplication falls back to ``lexsort_columns``
PALETTES = {
    "symbols": np.array([0, 1, 2, SymbolTable.BASE, SymbolTable.BASE + 1], dtype=np.int64),
    "wide": np.array([-(2**62), 0, 2**62 - 1], dtype=np.int64),
}


def _tuples(rows: np.ndarray) -> set:
    return set(map(tuple, rows.tolist()))


@pytest.mark.parametrize("backend", ["numpy", "guard"])
@pytest.mark.parametrize("num_shards", [1, 3])
@pytest.mark.parametrize("palette", sorted(PALETTES))
@given(arity=st.integers(1, 4), data=st.data())
@settings(max_examples=15, deadline=None)
def test_host_ingest_matches_numpy_oracle(backend, num_shards, palette, arity, data):
    """``initialize`` then three ``add_new`` + ``end_iteration`` rounds from host
    arrays: full, delta and every ``IterationStats`` count equal set arithmetic
    on ``np.unique``."""
    values = PALETTES[palette]
    picks = st.lists(
        st.tuples(*[st.integers(0, len(values) - 1)] * arity), max_size=40
    ).map(lambda rows: values[np.asarray(rows, dtype=np.int64).reshape(-1, arity)])
    initial, *rounds = (data.draw(picks) for _ in range(4))
    if palette == "wide":
        # Both extremes in every column: from two columns up no packing fits.
        initial = np.concatenate([initial, np.tile(values[[0, -1]][:, None], (1, arity))])

    devices = [Device("h100", oom_enabled=False, backend=backend, fault_plan="none") for _ in range(num_shards)]
    if palette == "wide" and arity > 1:
        assert devices[0].backend.pack_sort_keys(list(initial.T)) is None
    relation = ShardedRelation(devices, "r", arity)
    relation.initialize(initial)

    def delta_tuples():
        return set().union(*(_tuples(shard.delta_batch.to_host(charge=False)) for shard in relation.shards))

    full = _tuples(np.unique(initial, axis=0))
    assert (relation.full_count, relation.delta_count) == (len(full), len(full))
    assert relation.as_set() == delta_tuples() == full
    for number, rows in enumerate(rounds, start=1):
        if len(rows):
            relation.add_new(rows)
        stats = relation.end_iteration()
        new = _tuples(np.unique(rows, axis=0))
        delta = new - full
        full |= delta
        assert (stats.iteration, stats.raw_count, stats.new_count, stats.delta_count, stats.full_count) == (
            number, len(rows), len(new), len(delta), len(full)
        )
        assert delta_tuples() == delta and relation.as_set() == full
    relation.free()
    assert all(device.pool.in_use_bytes == 0 for device in devices)
