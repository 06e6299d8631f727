"""Unit tests for the hash-partitioned relation router and its kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import HOST_BACKEND
from repro.device import LINK_INTERCONNECT, PHASE_SHARD_EXCHANGE, Device
from repro.errors import SchemaError
from repro.relational import Relation, ShardedRelation, partition_rows_host, shard_assignments


def make_devices(n):
    return [Device("h100", oom_enabled=False) for _ in range(n)]


# ----------------------------------------------------------------------
# Partitioning primitives
# ----------------------------------------------------------------------

def test_shard_assignments_match_host_and_device(device):
    values = np.array([0, 1, 2, 3, 10**12, -5], dtype=np.int64)
    host = shard_assignments(HOST_BACKEND, values, 4)
    dev = shard_assignments(device.backend, values, 4)
    assert np.array_equal(np.asarray(host), np.asarray(dev))
    assert ((np.asarray(host) >= 0) & (np.asarray(host) < 4)).all()


def test_partition_rows_is_a_permutation_grouped_by_owner(device):
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 1000, size=(200, 3), dtype=np.int64)
    parts = partition_rows_host(rows, 1, 4)
    assert len(parts) == 4
    assert sum(part.shape[0] for part in parts) == rows.shape[0]
    recombined = {tuple(row) for part in parts for row in np.asarray(part).tolist()}
    assert recombined == {tuple(row) for row in rows.tolist()}
    owners = np.asarray(shard_assignments(device.backend, rows[:, 1], 4))
    for shard, part in enumerate(parts):
        part = np.asarray(part)
        if part.shape[0]:
            assert (np.asarray(shard_assignments(device.backend, part[:, 1], 4)) == shard).all()
        assert part.shape[0] == int((owners == shard).sum())


def test_partition_rows_single_shard_and_empty(device):
    rows = np.array([[1, 2], [3, 4]], dtype=np.int64)
    assert len(partition_rows_host(rows, 0, 1)) == 1
    empty_parts = partition_rows_host(np.empty((0, 2), dtype=np.int64), 0, 3)
    assert len(empty_parts) == 3
    assert all(part.shape[0] == 0 for part in empty_parts)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(-(2**40), 2**40), st.integers(-(2**40), 2**40)),
        max_size=60,
    ),
    num_shards=st.integers(1, 5),
    column=st.integers(0, 1),
)
def test_hash_partition_dedup_union_is_permutation_of_unsharded(rows, num_shards, column):
    """hash-partition -> per-shard dedup -> union == unsharded dedup.

    The invariant sharded evaluation rests on: every tuple has exactly one
    owner shard, so shard-local deduplication composes into global
    deduplication with no cross-shard coordination.
    """
    array = np.array(rows, dtype=np.int64).reshape(-1, 2)
    owners = np.asarray(shard_assignments(HOST_BACKEND, array[:, column], num_shards))
    per_shard = [np.unique(array[owners == shard], axis=0) for shard in range(num_shards)]
    union = np.concatenate([part for part in per_shard if part.shape[0]] or [array[:0]], axis=0)
    expected = np.unique(array, axis=0)
    # Union of the per-shard dedups is a permutation of the global dedup:
    # same multiset, no tuple lost, none duplicated across shards.
    assert union.shape == expected.shape
    assert np.array_equal(np.unique(union, axis=0), expected)


# ----------------------------------------------------------------------
# device_to_device transfer kernel
# ----------------------------------------------------------------------

def test_device_to_device_charges_interconnect_on_sender():
    source, target = make_devices(2)
    rows = np.arange(12, dtype=np.int64).reshape(6, 2)
    out = source.kernels.device_to_device(rows, target, label="test.d2d")
    assert np.array_equal(np.asarray(out), rows)
    assert source.profiler.interconnect_bytes == rows.nbytes
    # The receiver writes the payload but does not double-count the link.
    assert target.profiler.interconnect_bytes == 0
    assert PHASE_SHARD_EXCHANGE in source.profiler.phase_seconds()
    assert PHASE_SHARD_EXCHANGE in target.profiler.phase_seconds()
    events = [e for e in source.profiler.events if e.cost.transfer_link == LINK_INTERCONNECT]
    assert len(events) == 1
    assert events[0].cost.transfer_bytes == rows.nbytes


def test_broadcast_to_charges_every_link_like_device_to_device():
    source, *peers = make_devices(3)
    rows = np.arange(20, dtype=np.int64).reshape(10, 2)
    copies = source.kernels.broadcast_to(rows, peers, label="test.bcast")
    assert len(copies) == 2
    for copy in copies:
        assert np.array_equal(np.asarray(copy), rows)
    # No multicast: the sender pays one DMA per link, each peer one write.
    assert source.profiler.interconnect_bytes == 2 * rows.nbytes
    for peer in peers:
        assert peer.profiler.interconnect_bytes == 0
        assert PHASE_SHARD_EXCHANGE in peer.profiler.phase_seconds()


def test_device_to_device_seconds_use_interconnect_bandwidth():
    source, target = make_devices(2)
    rows = np.zeros((1 << 16, 2), dtype=np.int64)
    source.kernels.device_to_device(rows, target)
    event = next(e for e in source.profiler.events if e.cost.transfer_link == LINK_INTERCONNECT)
    expected_transfer = rows.nbytes / source.spec.interconnect_bandwidth_bytes
    assert source.cost_model.transfer_seconds(event.cost) == pytest.approx(expected_transfer)
    # The same bytes over PCIe would be slower (H100: 450 GB/s vs 50 GB/s).
    pcie = rows.nbytes / source.spec.pcie_bandwidth_bytes
    assert expected_transfer < pcie


# ----------------------------------------------------------------------
# ShardedRelation router
# ----------------------------------------------------------------------

def test_sharded_relation_matches_single_device_contents():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 50, size=(120, 2), dtype=np.int64)
    single_device = Device("h100", oom_enabled=False)
    single = Relation(single_device, "edge", 2)
    single.require_index((1,))
    single.initialize(rows)

    devices = make_devices(3)
    sharded = ShardedRelation(devices, "edge", 2, shard_column=1)
    sharded.require_index((1,))
    sharded.initialize(rows)

    assert sharded.full_count == single.full_count
    assert sharded.as_set() == single.as_set()
    assert sharded.delta_count == single.delta_count


def test_sharded_relation_end_iteration_aggregates_counts():
    devices = make_devices(2)
    sharded = ShardedRelation(devices, "r", 2, shard_column=0)
    sharded.initialize(np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64))
    new_rows = np.array([[5, 6], [0, 1]], dtype=np.int64)  # one duplicate
    owners = np.asarray(shard_assignments(HOST_BACKEND, new_rows[:, 0], 2))
    for shard in range(2):
        part = new_rows[owners == shard]
        if part.shape[0]:
            sharded.add_new_shard(shard, part)
    stats = sharded.end_iteration()
    assert stats.new_count == 2
    assert stats.delta_count == 1  # (0, 1) already in full
    assert stats.full_count == 4
    assert sharded.as_set() == {(0, 1), (1, 2), (2, 3), (5, 6)}
    assert len(sharded.history) == 1


def test_history_survives_a_shard_rebuild_and_restore_truncates_it():
    devices = make_devices(2)
    sharded = ShardedRelation(devices, "r", 2, shard_column=0)
    sharded.initialize(np.array([[0, 1], [1, 2]], dtype=np.int64))
    for step in range(3):
        sharded.add_new(np.array([[10 + step, step], [20 + step, step]], dtype=np.int64))
        sharded.end_iteration()
        if step == 1:
            state = sharded.checkpoint_state()
    assert sharded.history is sharded.history  # a plain list, not rebuilt per read
    assert [(s.iteration, s.delta_count, s.full_count) for s in sharded.history] == [
        (1, 2, 4), (2, 2, 6), (3, 2, 8)
    ]
    # A rebuilt shard starts with no history of its own; the relation's
    # history must not be re-derived from (and truncated to) it.
    sharded.rebuild_shard(1, Device("h100", oom_enabled=False))
    sharded.restore(state)
    assert [(s.iteration, s.delta_count, s.full_count) for s in sharded.history] == [(1, 2, 4), (2, 2, 6)]
    sharded.add_new(np.array([[12, 2], [22, 2]], dtype=np.int64))
    assert sharded.end_iteration().iteration == 3
    assert [(s.iteration, s.full_count) for s in sharded.history] == [(1, 4), (2, 6), (3, 8)]


def test_full_rows_host_hands_over_a_lone_partition_without_copying(monkeypatch):
    sharded = ShardedRelation(make_devices(1), "r", 2)
    sharded.initialize(np.array([[0, 1], [1, 2]], dtype=np.int64))
    downloaded = []
    original = Relation.full_rows_host

    def spy(self, **kwargs):
        downloaded.append(original(self, **kwargs))
        return downloaded[-1]

    monkeypatch.setattr(Relation, "full_rows_host", spy)
    assert sharded.full_rows_host(charge=False) is downloaded[0]


def test_sharded_relation_free_releases_all_devices():
    devices = make_devices(3)
    sharded = ShardedRelation(devices, "r", 2, shard_column=0)
    sharded.require_index((1,))
    sharded.initialize(np.arange(40, dtype=np.int64).reshape(20, 2))
    assert any(device.pool.in_use_bytes > 0 for device in devices)
    sharded.free()
    for device in devices:
        assert device.pool.in_use_bytes == 0


def test_sharded_relation_validates_shard_column():
    with pytest.raises(SchemaError):
        ShardedRelation(make_devices(2), "r", 2, shard_column=5)
    with pytest.raises(SchemaError):
        ShardedRelation([], "r", 2)
