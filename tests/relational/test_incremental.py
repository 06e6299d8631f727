"""The run-stack index against a from-scratch build, after every merge.

``HISA.merge`` keeps the index tier as a stack of sorted runs: it pushes the
delta and absorbs the runs it is at least half as large as.  The oracle is
the constructor — ``HISA(device, all_rows, join_columns)`` sorts, scans and
hashes everything from nothing — and the contract is that no reader can tell
the two apart: same tuples, same ``lookup_columns`` / ``contains_columns`` answers, same
statistics, and after ``compact()`` the same bytes.  ``lookup_columns`` walks
every (key, run) pair in one batch; it is also held to a loop probing each
run on its own (``tests.helpers.lookup_per_run``), answer and charge.  An
all-column index keeps a table only for its runs of at least
``TABLE_MIN_ROWS`` tuples, the oldest ones; the property test draws that
threshold, so every mix of runs with and without tables is covered.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import NumpyBackend, is_wide_keys
from repro.device import Device
from repro.relational import (
    EagerBufferManager,
    OpenAddressingHashTable,
    Relation,
    SimpleBufferManager,
    hash_rows,
)
from repro.relational import hisa as hisa_module

from tests.helpers import LOOKUP_BACKENDS, CollidingBackend, hisa_of as HISA, hisa_rows, key_columns, lookup_per_run

#: all-column, prefix, prefix, non-prefix, non-prefix
INDEX_KINDS = [(0, 1, 2), (0,), (0, 1), (1,), (2, 0)]


def _fresh_device(**options):
    return Device("h100", oom_enabled=False, **options)


def _random_unique_rows(rng, n, arity=3, lo=0, hi=60):
    return np.unique(rng.integers(lo, hi, size=(n, arity), dtype=np.int64), axis=0)


def _split_batches(rows, n_batches, rng):
    """Partition unique rows into one initial chunk plus disjoint delta batches."""
    order = rng.permutation(rows.shape[0])
    return [rows[chunk] for chunk in np.array_split(order, n_batches + 1)]


def _row_pool(seed, size=6000):
    """``size`` distinct arity-3 rows in random order whose join keys recur:
    13 values in column 0 and 11 in column 1, so every delta repeats keys of
    the runs before it."""
    ids = np.random.default_rng(seed).permutation(size)
    return np.column_stack([ids % 13, (ids // 13) % 11, ids // 143]).astype(np.int64)


def _rows_per_key(hisa, keys):
    """``lookup_columns`` then ``expand_matches``: the matched tuples of each key, as sets."""
    runs, lengths = hisa.lookup_columns(key_columns(keys), charge=False)
    probe_idx, data_positions = hisa.expand_matches(runs, lengths)
    assert (np.diff(probe_idx) >= 0).all()  # probe-major
    matched = hisa_rows(hisa)[data_positions]
    found = [set() for _ in range(len(keys))]
    for probe, row in zip(probe_idx.tolist(), matched.tolist()):
        found[probe].add(tuple(row))
    assert [len(rows) for rows in found] == lengths.tolist()
    return found


def _assert_runs_geometric(hisa):
    sizes = hisa.run_sizes
    assert sum(sizes) == hisa.tuple_count
    for older, newer in zip(sizes, sizes[1:]):
        assert older > 2 * newer, sizes


def _assert_matches_scratch(full, rows: np.ndarray, join_columns):
    """``full`` (any number of sorted runs) answers like an index built from ``rows``."""
    scratch = HISA(_fresh_device(), rows, join_columns, label="ref")
    assert full.tuple_count == scratch.tuple_count == rows.shape[0]
    assert {tuple(r) for r in hisa_rows(full).tolist()} == {tuple(r) for r in rows.tolist()}
    assert full.distinct_key_count == scratch.distinct_key_count
    assert full.max_run_length == scratch.max_run_length

    present = np.unique(rows[:, list(join_columns)], axis=0)
    absent = present + 1000  # misses: no column ever reaches 1000
    keys = np.concatenate([present, absent])
    _assert_walk_matches_per_run(full, keys)
    found = _rows_per_key(full, keys)
    assert found == _rows_per_key(scratch, keys)
    assert all(found[: len(present)]) and not any(found[len(present) :])
    if len(join_columns) == rows.shape[1]:
        # A table (and membership filter) exactly for the runs of at least
        # TABLE_MIN_ROWS tuples, which are the oldest; the same answers as a
        # set of the rows, for a batch in any order and a sorted one.
        tabled = [size >= hisa_module.TABLE_MIN_ROWS for size in full.run_sizes]
        assert full.table.filtered and full.table.n_tables == sum(tabled)
        assert tabled == sorted(tabled, reverse=True)
        stored = {tuple(r) for r in rows.tolist()}
        probes = np.concatenate([rows, rows + 1000, rows[:, ::-1]])
        for batch in (probes, np.unique(probes, axis=0)):
            expected = np.array([tuple(p) in stored for p in batch.tolist()])
            np.testing.assert_array_equal(full.contains_columns(key_columns(batch), charge=False), expected)
            np.testing.assert_array_equal(scratch.contains_columns(key_columns(batch), charge=False), expected)
    else:
        assert not full.table.filtered and full.table.n_tables == len(full.run_sizes)


def _assert_walk_matches_per_run(hisa, keys):
    """One batched walk over every (key, run) pair returns what probing each
    run on its own does, and charges the same inside a fused launch."""
    columns = key_columns(keys)
    answers, charged = [], []
    for lookup in (hisa.lookup_columns, lambda columns: lookup_per_run(hisa, columns)):
        before = len(hisa.device.profiler.events)
        with hisa.device.fused("lookup"):
            answers.append(lookup(columns))
        charged.append([event.cost for event in hisa.device.profiler.events[before:]])
    (batched, totals), (per_run, expected) = answers
    np.testing.assert_array_equal(batched.starts, per_run.starts)
    np.testing.assert_array_equal(batched.lengths, per_run.lengths)
    np.testing.assert_array_equal(totals, expected)
    assert charged[0] == charged[1]


def _assert_compacts_to_scratch(full, rows: np.ndarray, join_columns):
    """After ``compact()`` the index tier is byte-identical to a scratch build's."""
    scratch = HISA(_fresh_device(), rows, join_columns, label="ref")
    full.compact()
    assert full.run_sizes == [rows.shape[0]]
    np.testing.assert_array_equal(hisa_rows(full, sorted_order=True), hisa_rows(scratch, sorted_order=True))
    np.testing.assert_array_equal(full.run_starts, scratch.run_starts)
    np.testing.assert_array_equal(full.run_lengths, scratch.run_lengths)


@pytest.mark.parametrize("manager_cls", [SimpleBufferManager, EagerBufferManager])
@pytest.mark.parametrize("join_columns", [(0,), (1,), (0, 1), (2, 0)])
def test_incremental_merge_matches_scratch_build(manager_cls, join_columns):
    rng = np.random.default_rng(7)
    rows = _random_unique_rows(rng, 900)
    batches = _split_batches(rows, 6, rng)

    device = _fresh_device()
    manager = manager_cls(device)
    full = HISA(device, batches[0], join_columns, label="inc")
    merged = batches[0]
    for batch in batches[1:]:
        full = full.merge(HISA(device, batch, join_columns, label="inc.delta"), manager)
        merged = np.concatenate([merged, batch])
        _assert_runs_geometric(full)
        _assert_matches_scratch(full, merged, join_columns)
    _assert_compacts_to_scratch(full, rows, join_columns)


def _delta_size(action: str, sizes: list[int], last: int) -> int:
    """A delta size that makes the next merge do ``action`` on runs of ``sizes``."""
    if action == "push":  # less than half the newest run: absorbs nothing
        return max(1, (sizes[-1] - 1) // 2)
    if action == "absorb-one":  # reaches the newest run, stops short of the next
        return (sizes[-1] + 1) // 2
    if action == "absorb-all":
        return sum(sizes)
    return last  # "equal": the chain of equal deltas


@given(
    backend=st.sampled_from(sorted(LOOKUP_BACKENDS)),
    table_min_rows=st.sampled_from([0, 4, hisa_module.TABLE_MIN_ROWS]),
    seed=st.integers(0, 10_000),
    base=st.integers(0, 40),
    first_delta=st.integers(1, 12),
    join_columns=st.sampled_from(INDEX_KINDS),
    schedule=st.lists(
        st.sampled_from(["push", "absorb-one", "absorb-all", "equal", "equal", "compact"]), min_size=1, max_size=12
    ),
    observed_from=st.integers(0, 12),
    wide_at=st.integers(0, 12),
)
@settings(max_examples=100, deadline=None)
def test_incremental_merge_equivalence_property(
    backend, table_min_rows, seed, base, first_delta, join_columns, schedule, observed_from, wide_at
):
    """Every schedule of merges and compactions, under a good hash, a
    colliding one and wide-only keys, with an all-column index's runs keeping
    a table from 0 tuples (all), 4 or the default (none at these sizes) on.
    A statistics observer is attached from merge ``observed_from`` on (12:
    never): without one a merge stops counting keys, and the first read
    recounts them; with one, every merge reports the counts the from-scratch
    build has.  The delta of merge ``wide_at`` (12:
    none) carries values past the narrow keys' 21-bit budget, so the stores
    turn wide mid-run — the deltas after it are narrow again — and stay wide."""
    with mock.patch.object(hisa_module, "TABLE_MIN_ROWS", table_min_rows):
        _check_merge_schedule(backend, seed, base, first_delta, join_columns, schedule, observed_from, wide_at)


def _check_merge_schedule(backend, seed, base, first_delta, join_columns, schedule, observed_from, wide_at):
    pool = _row_pool(seed)
    device = _fresh_device(backend=LOOKUP_BACKENDS[backend]())
    manager = EagerBufferManager(device)
    full = HISA(device, pool[:base], join_columns, label="p")
    observed = []
    used, last = base, first_delta
    for step, action in enumerate(schedule):
        if step == observed_from:
            full.stats_observer = lambda **totals: observed.append(totals)
        if action == "compact":
            _assert_compacts_to_scratch(full, pool[:used], join_columns)
            continue
        last = _delta_size(action, full.run_sizes, last)
        if used + last > len(pool):
            break
        if step == wide_at:
            pool[used : used + last, 2] += 1 << 40  # still distinct: no other row reaches 2**40
        delta = HISA(device, pool[used : used + last], join_columns, label="p.d", build_hash_index=False)
        used += last
        assert full.merge(delta, manager) is full
        assert is_wide_keys(full._stores[1]) == (backend == "wide" or bool((pool[:used, 2] >= 1 << 40).any()))
        if full.stats_observer is not None:
            assert observed[-1]["total_rows"] == used
            distinct, longest = observed[-1]["total_distinct"], observed[-1]["max_multiplicity"]
        _assert_runs_geometric(full)
        _assert_matches_scratch(full, pool[:used], join_columns)
        if full.stats_observer is not None:
            assert (distinct, longest) == (full.distinct_key_count, full.max_run_length)
    _assert_compacts_to_scratch(full, pool[:used], join_columns)


def test_equal_deltas_keep_the_stack_logarithmic():
    """The schedule that never merges under a ratio of 1: a chain of equal deltas."""
    pool = _row_pool(5)
    device = _fresh_device()
    full = HISA(device, pool[:20], (1,), label="chain")
    for step in range(1, 200):
        delta = HISA(device, pool[20 * step : 20 * step + 20], (1,), label="chain.d", build_hash_index=False)
        full.merge(delta, EagerBufferManager(device))
        _assert_runs_geometric(full)
        assert len(full.run_sizes) <= np.ceil(np.log2(step + 1)) + 1
    _assert_matches_scratch(full, pool[:4000], (1,))


def test_hash_collision_falls_through_to_a_miss():
    device = _fresh_device(backend=CollidingBackend())
    rows = np.array([[1, 10], [1, 11], [2, 20], [3, 30]], dtype=np.int64)
    full = HISA(device, rows, (0,), label="c")
    full.merge(HISA(device, np.array([[1, 12]], dtype=np.int64), (0,), label="c.d"), EagerBufferManager(device))
    assert len(full.run_sizes) == 2  # key 1 sits in both sorted runs
    keys = np.array([[1], [5]], dtype=np.int64)
    assert _rows_per_key(full, keys) == [{(1, 10), (1, 11), (1, 12)}, set()]
    # The tables alone cannot tell: key 5's hash hits key 1's entry in both runs.
    hashes = device.backend.hash_columns(key_columns(keys))
    for run in range(2):
        starts, lengths = full.table.probe(hashes, run, charge=False)
        assert starts[1] == starts[0] >= 0 and lengths[1] == lengths[0] > 0

    whole = HISA(device, rows[1:], (0, 1), label="w")
    whole.merge(HISA(device, np.array([[4, 40]], dtype=np.int64), (0, 1), label="w.d"), EagerBufferManager(device))
    probes = np.array([[4, 40], [8, 40], [1, 11], [5, 11]], dtype=np.int64)
    assert whole.contains_columns(key_columns(probes), charge=False).tolist() == [True, False, True, False]


def test_colliding_keys_both_keep_their_entries():
    """Two stored keys with one 64-bit hash: each gets a slot, and each is found
    behind the other — the walk goes on past a hash hit on a different key."""
    device = _fresh_device(backend=CollidingBackend())
    prefix = HISA(device, np.array([[1, 10], [5, 50], [2, 20]], dtype=np.int64), (0,), label="c")
    keys = np.array([[1], [5], [2], [9]], dtype=np.int64)
    assert _rows_per_key(prefix, keys) == [{(1, 10)}, {(5, 50)}, {(2, 20)}, set()]

    whole = HISA(device, np.array([[1, 7], [5, 7]], dtype=np.int64), (0, 1), label="w")
    probes = np.array([[1, 7], [5, 7], [9, 7], [5, 8]], dtype=np.int64)
    assert whole.contains_columns(key_columns(probes), charge=False).tolist() == [True, True, False, False]


def test_resumed_walks_are_the_only_extra_charge(monkeypatch):
    """A collision-free probe charges what it always did; a rejected hash hit
    adds the resumed walk and its key comparison, nothing else."""
    monkeypatch.setattr(hisa_module, "TABLE_MIN_ROWS", 0)  # a table for every run
    rows = np.array([[1, 7], [5, 7]], dtype=np.int64)
    charged = {}
    for name, backend in (("plain", NumpyBackend()), ("colliding", CollidingBackend())):
        device = _fresh_device(backend=backend)
        index = HISA(device, rows, (0, 1), label="w")
        before = len(device.profiler.events)
        assert index.contains_columns(key_columns(rows)).tolist() == [True, True]
        charged[name] = [event.cost.kernel for event in device.profiler.events[before:]]
    assert charged["plain"] == ["w.hash_keys", "w.filter_check", "w.probe", "w.verify_key"]
    # One of the two keys sits behind the other: one more walk, one more comparison.
    assert charged["colliding"] == [
        "w.hash_keys", "w.filter_check", "w.probe", "w.verify_key", "w.probe", "w.verify_key"
    ]


def test_run_filters_keep_absent_tuples_out_of_the_tables(monkeypatch):
    """Tuples no run holds are ruled out by the filters: only the false
    positives (well under 5 % at 16 bits per slot) walk a table."""
    monkeypatch.setattr(hisa_module, "TABLE_MIN_ROWS", 0)  # a table for every run
    pool = _row_pool(2)
    device = _fresh_device()
    full = HISA(device, pool[:3000], (0, 1, 2), label="f")
    full.merge(HISA(device, pool[3000:4000], (0, 1, 2), label="f.d", build_hash_index=False), EagerBufferManager(device))
    assert len(full.run_sizes) == 2
    before = len(device.profiler.events)
    absent = pool[:4000] + 1000
    assert not full.contains_columns(key_columns(absent)).any()
    probed = sum(
        event.cost.random_bytes / 16 for event in device.profiler.events[before:] if event.cost.kernel == "f.probe"
    )
    assert probed <= 0.05 * 2 * len(absent)


def test_a_wide_membership_batch_widens_the_searched_runs():
    """Runs without a table are searched by packed tuple key, in the store's
    format: a batch whose values do not fit narrow keys widens the store, once,
    as a merged delta would, and a narrow batch is then packed wide."""
    pool = _row_pool(3)
    device = _fresh_device()
    full = HISA(device, pool[:200], (0, 1, 2), label="w")
    full.merge(HISA(device, pool[200:260], (0, 1, 2), label="w.d", build_hash_index=False), EagerBufferManager(device))
    assert full.run_sizes == [200, 60] and full.table.n_tables == 0
    assert not is_wide_keys(full._stores[1])
    far = pool[:5] + np.array([0, 0, 1 << 40])
    probes = np.concatenate([pool[:260], far])
    assert full.contains_columns(key_columns(probes), charge=False).tolist() == [True] * 260 + [False] * 5
    assert is_wide_keys(full._stores[1])
    assert full.contains_columns(key_columns(pool[255:265]), charge=False).tolist() == [True] * 5 + [False] * 5
    full.merge(HISA(device, pool[260:300], (0, 1, 2), label="w.d", build_hash_index=False), EagerBufferManager(device))
    _assert_matches_scratch(full, pool[:300], (0, 1, 2))


def test_contains_after_incremental_merges():
    rng = np.random.default_rng(3)
    rows = _random_unique_rows(rng, 500, arity=2)
    batches = _split_batches(rows, 5, rng)
    device = _fresh_device()
    full = HISA(device, batches[0], (0, 1), label="full")
    for batch in batches[1:]:
        full = full.merge(HISA(device, batch, (0, 1), label="d"), EagerBufferManager(device))
    assert full.contains_columns(key_columns(rows), charge=False).all()
    absent = np.array([[999, 999], [-5, 3]], dtype=np.int64)
    assert not full.contains_columns(key_columns(absent), charge=False).any()


def test_memory_accounting_follows_capacity():
    """Every tier accounts what it has reserved, and ``free`` gives all of it
    back — the filters of an all-column index included."""
    for join_columns in ((1,), (0, 1, 2)):
        _check_memory_accounting(join_columns)


def _check_memory_accounting(join_columns):
    pool = _row_pool(11)
    device = _fresh_device()
    before = device.pool.in_use_bytes
    full = HISA(device, pool[:100], join_columns, label="m")
    manager = EagerBufferManager(device)
    whole = len(join_columns) == 3

    def reserved():
        # an all-column index's slab also holds a filter word per 4 slots
        slab = full.table.capacity * (26 if whole else 24)
        # per reserved index row: the position, the tuple key and (on fewer
        # columns) the join key, 8 bytes per key column whatever the host
        # packing of the keys
        stores = full._stores[0].shape[0] * 8 * (1 + 3 + (0 if whole else len(join_columns)))
        return full.memory_breakdown().data_bytes + stores + slab

    allocations = device.pool.stats.allocation_count
    for step in range(50):
        delta = HISA(
            device, pool[100 + 40 * step : 140 + 40 * step], join_columns, label="m.d", build_hash_index=False
        )
        full.merge(delta, manager)
        assert full.memory_breakdown().total_bytes == reserved()
        assert device.pool.in_use_bytes - before == reserved() + manager.spare_bytes
    # 50 deltas allocated 50 x (data, index); the full index grew geometrically.
    growths = device.pool.stats.allocation_count - allocations - 100
    if whole:
        # The table has a slot per tuple, so its slab grows with the data as
        # the stores do (the (1,) index's table holds a few distinct keys):
        # each of the three tiers grows at most ceil(log2(21)) + 1 times.
        assert growths <= 3 * (np.ceil(np.log2(2100 / 100)) + 1)
    else:
        assert growths <= 3 * np.log2(2100 / 100) + 3
    assert len(full.run_sizes) > 1
    full.compact()
    assert full.memory_breakdown().total_bytes == reserved()
    full.free()
    manager.release()
    assert device.pool.in_use_bytes == before


@pytest.mark.parametrize("join_columns", INDEX_KINDS)
def test_charges_ignore_the_host_key_format(join_columns):
    """Narrow and wide keys are host representations of the same index: one
    merge schedule charges the same kernels, reserves the same bytes and
    answers the same on both."""
    pool = _row_pool(4)
    recorded = {}
    for name in ("numpy", "wide"):
        device = _fresh_device(backend=LOOKUP_BACKENDS[name]())
        manager = EagerBufferManager(device)
        full = HISA(device, pool[:300], join_columns, label="c")
        breakdowns = [full.memory_breakdown()]
        for start, size in [(300, 40), (340, 10), (350, 200), (550, 5), (555, 3), (558, 900)]:
            full.merge(HISA(device, pool[start : start + size], join_columns, label="c.d"), manager)
            breakdowns.append(full.memory_breakdown())
        _, lengths = full.lookup_columns(key_columns(pool[:50, list(join_columns)]))
        full.compact()
        breakdowns.append(full.memory_breakdown())
        assert is_wide_keys(full._stores[1]) == (name == "wide")
        events = [(event.phase, event.cost) for event in device.profiler.events]
        recorded[name] = (events, breakdowns, lengths.tolist(), device.pool.in_use_bytes, device.pool.stats.peak_bytes)
    assert recorded["numpy"] == recorded["wide"]


def test_hash_table_growth_preserves_entries():
    """Tables stacked in one slab keep answering after the slab is reallocated."""
    device = _fresh_device()
    rng = np.random.default_rng(11)
    all_keys = np.unique(rng.integers(0, 1 << 40, size=(3000, 2), dtype=np.int64), axis=0)
    all_hashes = hash_rows(all_keys)

    table = OpenAddressingHashTable(
        device, all_hashes[:16], np.arange(16, dtype=np.int64), load_factor=0.8
    )
    bounds = [0, 16]
    growths = 0
    while bounds[-1] < all_hashes.size:
        start, end = bounds[-1], min(bounds[-1] + 128, all_hashes.size)
        slots, grew = table.insert_batch(all_hashes[start:end], np.arange(start, end, dtype=np.int64))
        assert (slots >= 0).all() and np.unique(slots).size == end - start
        growths += grew
        bounds.append(end)

    assert 1 <= growths <= np.log2(all_hashes.size)  # geometric
    assert len(table) == all_hashes.size
    assert table.occupancy() <= table.load_factor + 1e-9
    for index, (start, end) in enumerate(zip(bounds, bounds[1:])):
        found, _ = table.probe(all_hashes[start:end], index, charge=False)
        np.testing.assert_array_equal(found, np.arange(start, end, dtype=np.int64))
        missed, _ = table.probe(all_hashes[end : end + 64], index, charge=False)
        assert (missed == -1).all()

    # Popping tables frees their slots for the next push: no growth.
    table.truncate(2)
    capacity = table.capacity
    _, grew = table.insert_batch(all_hashes[bounds[2] :][:500], np.arange(500, dtype=np.int64))
    assert not grew and table.capacity == capacity
    found, _ = table.probe(all_hashes[bounds[2] :][:500], 2, charge=False)
    np.testing.assert_array_equal(found, np.arange(500, dtype=np.int64))


def test_insert_batch_slots_address_update_slots():
    device = _fresh_device()
    keys = np.unique(np.random.default_rng(5).integers(0, 1 << 40, size=(64, 2), dtype=np.int64), axis=0)
    hashes = hash_rows(keys)
    table = OpenAddressingHashTable(device, hashes[:8], np.arange(8, dtype=np.int64), load_factor=0.5)
    slots, _ = table.insert_batch(hashes[8:40], np.arange(32, dtype=np.int64))
    table.update_slots(slots, np.arange(32, dtype=np.int64) * 10, np.full(32, 3, dtype=np.int64))
    values, lengths = table.probe(hashes[8:40], 1, charge=False)
    np.testing.assert_array_equal(values, np.arange(32, dtype=np.int64) * 10)
    np.testing.assert_array_equal(lengths, np.full(32, 3, dtype=np.int64))
    values, _ = table.probe(hashes[:8], 0, charge=False)  # the table below is untouched
    np.testing.assert_array_equal(values, np.arange(8, dtype=np.int64))


def test_fixpoint_memory_accounting_leak_free():
    """A long fixpoint of in-place merges must not leak simulated memory."""
    device = _fresh_device()
    before = device.pool.in_use_bytes
    relation = Relation(device, "reach", 2)
    relation.require_index((1,))
    edges = np.array([[i, i + 1] for i in range(60)], dtype=np.int64)
    edge_map: dict[int, list[int]] = {}
    for a, b in edges.tolist():
        edge_map.setdefault(a, []).append(b)
    relation.initialize(edges)
    while True:
        new = [
            (a, c)
            for a, b in relation.delta_batch.as_rows().tolist()
            for c in edge_map.get(b, ())
        ]
        if new:
            relation.add_new(np.array(new, dtype=np.int64))
        if relation.end_iteration().delta_count == 0:
            break
    assert sum(stats.in_place_merges for stats in relation.history) > 0
    expected = {(i, j) for i in range(61) for j in range(i + 1, 61)}
    assert relation.as_set() == expected
    relation.free()
    assert device.pool.in_use_bytes == before


def test_empty_delta_merge_is_noop():
    device = _fresh_device()
    rows = np.array([[1, 2], [3, 4]], dtype=np.int64)
    full = HISA(device, rows, (0,), label="r")
    empty = HISA(device, np.empty((0, 2), dtype=np.int64), (0,), label="r.d")
    merged = full.merge(empty, SimpleBufferManager(device))
    assert merged is full
    assert merged.tuple_count == 2
    assert empty.is_freed


def test_merge_into_empty_full():
    device = _fresh_device()
    full = HISA(device, np.empty((0, 2), dtype=np.int64), (0,), label="r")
    delta = HISA(device, np.array([[5, 6], [1, 2]], dtype=np.int64), (0,), label="r.d")
    merged = full.merge(delta, EagerBufferManager(device))
    assert merged.tuple_count == 2
    assert merged.run_sizes == [2]
    _, lengths = merged.lookup_columns(key_columns([[5]]), charge=False)
    assert lengths.tolist() == [1]
