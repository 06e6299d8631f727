"""Tests for the open-addressing hash table (HISA tier 3)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device import Device
from repro.relational import OpenAddressingHashTable, hash_rows
from repro.relational.hashing import next_power_of_two
from repro.relational.hashtable import HashTableStats


def build_table(device, n_keys=1000, load_factor=0.8, seed=0):
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(0, 1 << 40, size=(n_keys, 2), dtype=np.int64), axis=0)
    hashes = hash_rows(keys)
    values = np.arange(hashes.size, dtype=np.int64)
    lengths = rng.integers(1, 5, size=hashes.size)
    table = OpenAddressingHashTable(device, hashes, values, lengths, load_factor=load_factor)
    return table, hashes, values, lengths


def test_probe_finds_every_inserted_key(device):
    table, hashes, values, lengths = build_table(device)
    found_values, found_lengths = table.probe(hashes)
    assert np.array_equal(found_values, values)
    assert np.array_equal(found_lengths, lengths)


def test_probe_misses_unknown_keys(device):
    table, hashes, _, _ = build_table(device, n_keys=100)
    unknown = hash_rows(np.array([[999_999_999, 123]], dtype=np.int64))
    positions, lengths = table.probe(unknown)
    assert positions.tolist() == [-1]
    assert lengths.tolist() == [0]


def test_capacity_respects_load_factor(device):
    table, *_ = build_table(device, n_keys=1000, load_factor=0.8)
    assert table.occupancy() <= 0.8
    assert table.capacity >= table.n_keys / 0.8


def test_low_load_factor_uses_more_memory(device):
    dense, *_ = build_table(device, n_keys=2000, load_factor=0.9)
    sparse, *_ = build_table(device, n_keys=2000, load_factor=0.4)
    assert sparse.nbytes > dense.nbytes
    assert sparse.stats.average_probes <= dense.stats.average_probes


def test_empty_table(device):
    table = OpenAddressingHashTable(device, np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
    positions, lengths = table.probe(np.array([1, 2, 3], dtype=np.uint64))
    assert positions.tolist() == [-1, -1, -1]
    assert len(table) == 0


def test_the_stack_may_start_empty(device):
    """A slab built with no keys holds no table and reserves nothing (an
    all-column index whose runs are all small); the first push reserves
    exactly its slots, and tables then stack and pop as usual."""
    hashes = hash_rows(np.arange(600, dtype=np.int64).reshape(300, 2))
    table = OpenAddressingHashTable(device)
    assert table.n_tables == 0 and table.capacity == 0 and table.nbytes == 0
    table.insert_batch(hashes[:100], np.arange(100, dtype=np.int64))
    assert table.n_tables == 1 and table.capacity == 128
    table.insert_batch(hashes[100:], np.arange(200, dtype=np.int64))
    assert table.n_tables == 2
    table.truncate(0)
    assert table.n_tables == 0 and len(table) == 0
    table.insert_batch(hashes, np.arange(300, dtype=np.int64))
    found, _ = table.probe(hashes)
    np.testing.assert_array_equal(found, np.arange(300, dtype=np.int64))


def test_mismatched_inputs_rejected(device):
    with pytest.raises(ValueError):
        OpenAddressingHashTable(device, np.zeros(2, dtype=np.uint64), np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        OpenAddressingHashTable(device, np.zeros(2, dtype=np.uint64), np.zeros(2, dtype=np.int64), load_factor=0.0)


def test_build_charges_device_time(device):
    before = device.elapsed_seconds
    build_table(device, n_keys=500)
    assert device.elapsed_seconds > before


@given(seed=st.integers(0, 1000), n_keys=st.integers(1, 400), load_factor=st.sampled_from([0.5, 0.8, 0.95]))
@settings(max_examples=40, deadline=None)
def test_probe_roundtrip_property(seed, n_keys, load_factor):
    device = Device("h100", oom_enabled=False)
    table, hashes, values, lengths = build_table(device, n_keys=n_keys, load_factor=load_factor, seed=seed)
    found_values, found_lengths = table.probe(hashes, charge=False)
    assert np.array_equal(found_values, values)
    assert np.array_equal(found_lengths, lengths)


def test_equal_hashes_each_claim_a_slot(device):
    """Keys with one 64-bit hash race for one slot: one wins it, the other takes
    the next, and a walk resumed past the first hit finds the second."""
    hashes = np.array([7, 7, 7, 12], dtype=np.uint64)
    table = OpenAddressingHashTable(device, hashes, np.array([10, 20, 30, 40], dtype=np.int64), load_factor=0.5)
    table.insert_batch(hashes[:2], np.array([50, 60], dtype=np.int64))
    found = np.empty(1, dtype=np.int64)
    seen, slots = [], []
    start = None
    for _ in range(2):
        values, _ = table.probe(hashes[:1], 1, charge=False, start=start, found=found)
        seen.append(int(values[0]))
        slots.append(int(found[0]))
        start = found + 1
    assert sorted(seen) == [50, 60] and slots[0] != slots[1]
    values, _ = table.probe(hashes[:1], 1, charge=False, start=start)
    assert values.tolist() == [-1]  # the walk ends at an empty slot
    # The table below holds all three 7s and the 12.
    values, _ = table.probe(np.array([12], dtype=np.uint64), 0, charge=False)
    assert values.tolist() == [40]


def test_one_batch_probes_each_hash_in_its_own_table():
    """Per-hash tables walk exactly the slots the per-table probes walk."""
    device = Device("h100", oom_enabled=False)
    keys = np.unique(np.random.default_rng(9).integers(0, 1 << 40, size=(700, 2), dtype=np.int64), axis=0)
    hashes = hash_rows(keys)
    table = OpenAddressingHashTable(device, hashes[:400], np.arange(400, dtype=np.int64))
    table.insert_batch(hashes[400:600], np.arange(400, 600, dtype=np.int64))
    table.insert_batch(hashes[600:], np.arange(600, hashes.size, dtype=np.int64))
    queries = np.concatenate([hashes, hashes[::3]])  # every table's keys, and misses in the others
    tables = np.arange(queries.size, dtype=np.int64) % 3

    before = len(device.profiler.events)
    batched, batched_lengths = table.probe(queries, tables)
    batched_bytes = sum(event.cost.random_bytes for event in device.profiler.events[before:])

    before = len(device.profiler.events)
    expected = np.full(queries.size, -1, dtype=np.int64)
    for index in range(3):
        rows = np.flatnonzero(tables == index)
        expected[rows] = table.probe(queries[rows], index)[0]
    assert batched_bytes == sum(event.cost.random_bytes for event in device.profiler.events[before:])
    np.testing.assert_array_equal(batched, expected)
    assert (batched_lengths[batched >= 0] == 1).all() and (batched >= 0).sum() > 700 // 3


def _hashes(rng, n_keys, slots, shape):
    """``n_keys`` hashes: uniform, in a few tight clusters (one straddling the
    slot range's wrap), or drawn from a handful of repeated values."""
    if shape == "uniform":
        return rng.integers(0, 1 << 63, size=n_keys, dtype=np.int64).astype(np.uint64)
    if shape == "clustered":
        centres = np.array([slots - 1, rng.integers(0, slots)], dtype=np.int64)
        homes = centres[rng.integers(0, 2, size=n_keys)] + rng.integers(0, max(1, n_keys // 8), size=n_keys)
        high = rng.integers(0, 1 << 20, size=n_keys, dtype=np.int64) * slots  # above the home bits
        return ((homes % slots) + high).astype(np.uint64)
    return rng.integers(0, 1 << 63, size=4, dtype=np.int64).astype(np.uint64)[rng.integers(0, 4, size=n_keys)]


@given(
    seed=st.integers(0, 10_000),
    n_keys=st.one_of(st.integers(0, 4096), st.sampled_from([1 << bits for bits in range(13)])),
    load_factor=st.sampled_from([0.4, 0.6, 0.8, 0.95, 1.0]),
    shape=st.sampled_from(["uniform", "clustered", "repeated"]),
    below=st.integers(0, 300),
)
@settings(max_examples=80, deadline=None)
def test_charged_probes_equal_the_emulated_build(seed, n_keys, load_factor, shape, below):
    """The probe count a push charges comes in closed form; the CAS-race
    emulation, run when the table is first read, walks exactly that many
    slots — power-of-two keys at a load factor of 1.0 fill their table."""
    device = Device("h100", oom_enabled=False)
    table = OpenAddressingHashTable(device, load_factor=load_factor)
    rng = np.random.default_rng(seed)
    table.insert_batch(rng.integers(0, 1 << 63, size=below, dtype=np.int64).astype(np.uint64), np.arange(below))
    slots = next_power_of_two(int(np.ceil(max(1, n_keys) / load_factor)))
    hashes = _hashes(rng, n_keys, slots, shape)
    table.insert_batch(hashes, np.arange(n_keys, dtype=np.int64))
    push = device.profiler.events[-1].cost
    charged = push.ops / 4
    assert table.stats.capacity == slots and table.stats.n_keys == n_keys
    assert charged == table.stats.total_probes
    if load_factor == 1.0 and n_keys == slots:
        assert table.occupancy() <= 1.0 and table.stats.load == 1.0
    found, _ = table.probe(hashes, 1, charge=False)
    assert (found >= 0).all()


def test_a_table_nothing_reads_is_never_built(device):
    """A push is charged at once and built on the host only when a read
    touches its table: a probe of one table builds that table, a popped
    table is dropped unbuilt, and a probe with a table per hash builds them all."""
    hashes = hash_rows(np.arange(2000, dtype=np.int64).reshape(1000, 2))
    table = OpenAddressingHashTable(device)
    build_one = OpenAddressingHashTable._build
    with mock.patch.object(OpenAddressingHashTable, "_build", autospec=True, side_effect=build_one) as build:
        before = device.elapsed_seconds
        for start in (0, 600, 900):
            table.insert_batch(hashes[start : start + 100], np.arange(100, dtype=np.int64))
        assert device.elapsed_seconds > before and build.call_count == 0
        table.probe(hashes[:10], 0)
        assert [call.args[1] for call in build.call_args_list] == [0]  # the oldest table's first slot
        table.truncate(1)  # the two pending tables go unbuilt
        table.insert_batch(hashes[100:200], np.arange(100, dtype=np.int64))
        assert build.call_count == 1
        table.probe(hashes[100:110], np.ones(10, dtype=np.int64))
        assert build.call_count == 2
        table.probe(hashes[:10], 0)
        assert build.call_count == 2  # each table is built once


def test_stats_describe_the_newest_table_on_the_stack(device):
    """``stats`` follows pushes and pops: the newest table on the stack, and
    zeros once the stack is empty."""
    hashes = hash_rows(np.arange(220, dtype=np.int64).reshape(110, 2))
    table = OpenAddressingHashTable(device, hashes[:100], np.arange(100, dtype=np.int64))
    table.insert_batch(hashes[100:], np.arange(10, dtype=np.int64))
    assert table.stats.n_keys == 10 and table.stats.capacity == 16
    table.truncate(1)
    assert table.stats.n_keys == 100 and table.stats.capacity == 128 and table.stats.total_probes >= 100
    table.truncate(0)
    assert table.n_tables == 0
    assert table.stats == HashTableStats(capacity=0, n_keys=0, build_rounds=0, total_probes=0)
