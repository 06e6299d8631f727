"""The run-stack index against a from-scratch build, after every merge.

``HISA.merge`` keeps the index tier as a stack of sorted runs: it pushes the
delta and absorbs the runs it is at least half as large as.  The oracle is
the constructor — ``HISA(device, all_rows, join_columns)`` sorts, scans and
hashes everything from nothing — and the contract is that no reader can tell
the two apart: same tuples and same ``lookup_columns`` / ``contains_columns``
answers; and the runs themselves, read on the host, are each sorted by their
cached keys, pairwise disjoint, and together the scratch build's sorted rows
and key runs.  ``lookup_columns`` walks
every (key, run) pair in one batch; it is also held to a loop probing each
run on its own (``tests.helpers.lookup_per_run``), answer and charge.  On
an index on fewer than all columns a run a merge writes keeps a table only
from ``TABLE_MIN_ROWS`` tuples, and the non-empty constructor run keeps one
at any size; the property test draws that threshold, so every mix of runs
with and without tables is covered.  An all-column index keeps no table at
any size: its membership tests search every run.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import GPULogEngine
from repro.backend import NumpyBackend, is_wide_keys
from repro.device import Device
from repro.errors import HisaStateError
from repro.queries import REACH_SOURCE
from repro.relational import (
    EagerBufferManager,
    OpenAddressingHashTable,
    Relation,
    SimpleBufferManager,
    hash_rows,
)
from repro.relational.buffers import ColumnStore
from repro.relational import hisa as hisa_module

from tests.helpers import (
    LOOKUP_BACKENDS,
    CollidingBackend,
    batch_of,
    hisa_of as HISA,
    hisa_rows,
    hisa_runs,
    key_columns,
    lex_sorted,
    lookup_per_run,
)

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


def _assert_matches_scratch(full, rows: np.ndarray, join_columns, *, base: int):
    """``full`` (any number of sorted runs) answers like an index built from
    ``rows``; its constructor was given the first ``base`` of them."""
    scratch = HISA(_fresh_device(), rows, join_columns, label="ref")
    assert full.tuple_count == scratch.tuple_count == rows.shape[0]
    assert {tuple(r) for r in hisa_rows(full).tolist()} == {tuple(r) for r in rows.tolist()}

    present = np.unique(rows[:, list(join_columns)], axis=0)
    absent = present + 1000  # misses: no column ever reaches 1000
    keys = np.concatenate([present, absent])
    _assert_walk_matches_per_run(full, keys)
    found = _rows_per_key(full, keys)
    assert found == _rows_per_key(scratch, keys)
    assert all(found[: len(present)]) and not any(found[len(present) :])
    # On an index on fewer columns, a table exactly for the runs of at least
    # TABLE_MIN_ROWS tuples and for the constructor's run while it holds
    # tuples and no merge has absorbed it (a merged run 0 holds more than
    # ``base``); the runs with tables are the oldest.  An all-column index
    # keeps none.
    whole = len(join_columns) == rows.shape[1]
    tabled = [not whole and size > 0 and size >= hisa_module.TABLE_MIN_ROWS for size in full.run_sizes]
    tabled[0] |= not whole and 0 < base == full.run_sizes[0]
    assert full.table.n_tables == sum(tabled)
    assert tabled == sorted(tabled, reverse=True)
    if whole:
        assert full.memory_breakdown().table_bytes == 0
        # Membership: the same answers as a set of the rows, for a batch in
        # any order and a sorted one.
        stored = {tuple(r) for r in rows.tolist()}
        probes = np.concatenate([rows, rows + 1000, rows[:, ::-1]])
        for batch in (probes, np.unique(probes, axis=0)):
            expected = np.array([tuple(p) in stored for p in batch.tolist()])
            np.testing.assert_array_equal(full.contains_columns(key_columns(batch), charge=False), expected)
            np.testing.assert_array_equal(scratch.contains_columns(key_columns(batch), charge=False), expected)


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


def _assert_runs_match_scratch(full, rows: np.ndarray, join_columns):
    """Each sorted run lists its tuples in the order of its cached tuple keys
    (and join keys), the runs are pairwise disjoint, and their union in
    sorted order is the scratch build's sorted rows and key runs."""
    scratch = HISA(_fresh_device(), rows, join_columns, label="ref")
    backend, order = full.backend, list(full.column_order)
    runs = hisa_runs(full)
    bounds = np.cumsum([0, *full.run_sizes])
    for run_rows, start, end in zip(runs, bounds, bounds[1:]):
        for store, width in ((1, full.arity), (-1, full.n_join)):
            keys = full._stores[store][start:end]
            packed = backend.pack_lex_keys(key_columns(run_rows[:, order[:width]]), wide=is_wide_keys(keys))
            np.testing.assert_array_equal(keys, packed)
            assert backend.is_monotone(keys)
    union = np.concatenate(runs)
    assert len({tuple(r) for r in union.tolist()}) == len(union) == rows.shape[0]
    union = lex_sorted(union, order)
    np.testing.assert_array_equal(union, hisa_rows(scratch, sorted_order=True))
    join = union[:, order[: full.n_join]]
    starts = np.flatnonzero(np.concatenate([[True], (join[1:] != join[:-1]).any(axis=1)]))[: len(union)]
    expected_starts, expected_lengths = hisa_module._runs_from_keys(scratch.backend, scratch._stores[-1])
    np.testing.assert_array_equal(starts, expected_starts)
    np.testing.assert_array_equal(np.diff(np.append(starts, len(union))), expected_lengths)


@pytest.mark.parametrize("manager_cls", [SimpleBufferManager, EagerBufferManager])
@pytest.mark.parametrize("join_columns", [(0,), (1,), (0, 1), (2, 0)])
def test_incremental_merge_matches_scratch_build(manager_cls, join_columns):
    rng = np.random.default_rng(7)
    rows = _random_unique_rows(rng, 900)
    batches = _split_batches(rows, 6, rng)

    device = _fresh_device()
    store = ColumnStore(device, batch_of(device, batches[0]), label="inc", manager=manager_cls(device))
    full = hisa_module.HISA(device, store, join_columns, label="inc")
    merged = batches[0]
    for batch in batches[1:]:
        full = full.merge(HISA(device, batch, join_columns, label="inc.delta"))
        merged = np.concatenate([merged, batch])
        _assert_runs_geometric(full)
        _assert_matches_scratch(full, merged, join_columns, base=len(batches[0]))
        _assert_runs_match_scratch(full, merged, join_columns)


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
        st.sampled_from(["push", "absorb-one", "absorb-all", "equal", "equal", "runs"]), min_size=1, max_size=12
    ),
    wide_at=st.integers(0, 12),
    reads=st.lists(st.booleans(), min_size=12, max_size=12),
)
@settings(max_examples=100, deadline=None)
def test_incremental_merge_equivalence_property(
    backend, table_min_rows, seed, base, first_delta, join_columns, schedule, wide_at, reads
):
    """Every schedule of merges and checks of the runs themselves, under a
    good hash, a colliding one and wide-only keys, with the runs a merge
    writes keeping a table from 0 tuples (all), 4 or the default (none at
    these sizes) on, on every index kind; a prefix index's constructor run
    keeps its table until a merge absorbs it.
    The delta of merge ``wide_at`` (12:
    none) carries values past the narrow keys' 21-bit budget, so the stores
    turn wide mid-run — the deltas after it are narrow again — and stay wide.
    The index is read after merge ``i`` only if ``reads[i]``: a table is
    built on the host when first read, so tables stay pending across pushes,
    pops and slab growths, and the last check reads every one."""
    with mock.patch.object(hisa_module, "TABLE_MIN_ROWS", table_min_rows):
        _check_merge_schedule(backend, seed, base, first_delta, join_columns, schedule, wide_at, reads)


def _check_merge_schedule(backend, seed, base, first_delta, join_columns, schedule, wide_at, reads):
    pool = _row_pool(seed)
    device = _fresh_device(backend=LOOKUP_BACKENDS[backend]())
    full = HISA(device, pool[:base], join_columns, label="p")
    used, last = base, first_delta
    for step, action in enumerate(schedule):
        if action == "runs":
            _assert_runs_match_scratch(full, pool[:used], join_columns)
            continue
        last = _delta_size(action, full.run_sizes, last)
        if used + last > len(pool):
            break
        if step == wide_at:
            pool[used : used + last, 2] += 1 << 40  # still distinct: no other row reaches 2**40
        delta = HISA(device, pool[used : used + last], join_columns, label="p.d", build_hash_index=False)
        used += last
        assert full.merge(delta) is full
        assert is_wide_keys(full._stores[1]) == (backend == "wide" or bool((pool[:used, 2] >= 1 << 40).any()))
        _assert_runs_geometric(full)
        if reads[step]:
            _assert_matches_scratch(full, pool[:used], join_columns, base=base)
    _assert_matches_scratch(full, pool[:used], join_columns, base=base)
    _assert_runs_match_scratch(full, pool[:used], join_columns)


def test_a_merge_takes_a_delta_of_one_run():
    """A delta is one sorted run, as its constructor builds it: a merge
    handed an index of several runs raises and leaves the full index as it
    was."""
    pool = _row_pool(6)
    device = _fresh_device()
    full = HISA(device, pool[:100], (0,), label="f")
    stacked = HISA(device, pool[100:200], (0,), label="s")
    stacked.merge(HISA(device, pool[200:210], (0,), label="s.d", build_hash_index=False))
    assert len(stacked.run_sizes) == 2
    with pytest.raises(HisaStateError):
        full.merge(stacked)
    assert full.run_sizes == [100] and not stacked.is_freed
    _assert_matches_scratch(full, pool[:100], (0,), base=100)


def test_equal_deltas_keep_the_stack_logarithmic(monkeypatch):
    """The schedule that never merges under a ratio of 1: a chain of equal
    deltas, every run with a table, so the walk covers the whole stack."""
    monkeypatch.setattr(hisa_module, "TABLE_MIN_ROWS", 0)  # a table for every run
    pool = _row_pool(5)
    device = _fresh_device()
    full = HISA(device, pool[:20], (1,), label="chain")
    for step in range(1, 200):
        delta = HISA(device, pool[20 * step : 20 * step + 20], (1,), label="chain.d", build_hash_index=False)
        full.merge(delta)
        _assert_runs_geometric(full)
        assert len(full.run_sizes) <= np.ceil(np.log2(step + 1)) + 1
    _assert_matches_scratch(full, pool[:4000], (1,), base=20)


def test_hash_collision_falls_through_to_a_miss(monkeypatch):
    monkeypatch.setattr(hisa_module, "TABLE_MIN_ROWS", 0)  # a table for every run
    device = _fresh_device(backend=CollidingBackend())
    rows = np.array([[1, 10], [1, 11], [2, 20], [3, 30]], dtype=np.int64)
    full = HISA(device, rows, (0,), label="c")
    full.merge(HISA(device, np.array([[1, 12]], dtype=np.int64), (0,), label="c.d"))
    assert len(full.run_sizes) == 2  # key 1 sits in both sorted runs
    keys = np.array([[1], [5]], dtype=np.int64)
    assert _rows_per_key(full, keys) == [{(1, 10), (1, 11), (1, 12)}, set()]
    # The tables alone cannot tell: key 5's hash hits key 1's entry in both runs.
    hashes = device.backend.hash_columns(key_columns(keys))
    for run in range(2):
        starts, lengths = full.table.probe(hashes, run, charge=False)
        assert starts[1] == starts[0] >= 0 and lengths[1] == lengths[0] > 0

    whole = HISA(device, rows[1:], (0, 1), label="w")
    whole.merge(HISA(device, np.array([[4, 40]], dtype=np.int64), (0, 1), label="w.d"))
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


def test_resumed_walks_are_the_only_extra_charge():
    """A collision-free probe charges what it always did; a rejected hash hit
    adds the resumed walk and its key comparison, nothing else."""
    rows = np.array([[1, 7], [5, 7]], dtype=np.int64)
    charged = {}
    for name, backend in (("plain", NumpyBackend()), ("colliding", CollidingBackend())):
        device = _fresh_device(backend=backend)
        index = HISA(device, rows, (0,), label="w")  # the constructor's run keeps a table
        before = len(device.profiler.events)
        runs, lengths = index.lookup_columns(key_columns(rows[:, :1]))
        assert runs.starts.tolist() == [[0, 1]] and lengths.tolist() == [1, 1]
        charged[name] = [event.cost.kernel for event in device.profiler.events[before:]]
    assert charged["plain"] == ["w.hash_keys", "w.probe", "w.verify_key"]
    # One of the two keys sits behind the other: one more walk, one more comparison.
    assert charged["colliding"] == ["w.hash_keys", "w.probe", "w.verify_key", "w.probe", "w.verify_key"]


def _assert_membership_is_exact(full, stored_rows, absent_rows, rng):
    """``contains_columns`` equals a host set of ``stored_rows`` on a sorted
    batch and on one in any order (with repeats), and the index has no table."""
    stored = {tuple(row) for row in stored_rows.tolist()}
    probes = np.concatenate([stored_rows[rng.permutation(len(stored_rows))[:500]], absent_rows, stored_rows[:7]])
    for batch in (np.unique(probes, axis=0), probes[rng.permutation(len(probes))]):
        expected = [tuple(row) in stored for row in batch.tolist()]
        assert full.contains_columns(key_columns(batch)).tolist() == expected
    assert full.table.n_tables == 0 and full.memory_breakdown().table_bytes == 0


@given(
    backend=st.sampled_from(sorted(LOOKUP_BACKENDS)),
    table_min_rows=st.sampled_from([16, 64]),
    seed=st.integers(0, 10_000),
    base=st.integers(1, 4),
    deltas=st.lists(st.integers(1, 40), min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_all_column_membership_is_exact_without_tables(backend, table_min_rows, seed, base, deltas):
    """An all-column index keeps no hash table for any run, the constructor's
    included: a run stack that straddles ``TABLE_MIN_ROWS`` answers every
    membership test by searching its runs, exactly as a set of its tuples
    does, under a good hash, a colliding one and wide-only keys."""
    with mock.patch.object(hisa_module, "TABLE_MIN_ROWS", table_min_rows):
        pool = _row_pool(seed)
        device = _fresh_device(backend=LOOKUP_BACKENDS[backend]())
        used = base * table_min_rows
        full = HISA(device, pool[:used], (0, 1, 2), label="m")
        for size in deltas:
            full.merge(HISA(device, pool[used : used + size], (0, 1, 2), label="m.d", build_hash_index=False))
            used += size
        assume(min(full.run_sizes) < table_min_rows <= max(full.run_sizes))
        _assert_membership_is_exact(full, pool[:used], pool[used : used + 60], np.random.default_rng(seed))


@pytest.mark.parametrize("backend", sorted(LOOKUP_BACKENDS))
def test_all_column_membership_is_exact_at_the_default_threshold(backend):
    """The same at the real ``TABLE_MIN_ROWS``: a constructor run above it and
    two merged runs below it keep no table."""
    size = hisa_module.TABLE_MIN_ROWS + 1000
    pool = _row_pool(12, size=size + 400)
    device = _fresh_device(backend=LOOKUP_BACKENDS[backend]())
    full = HISA(device, pool[:size], (0, 1, 2), label="m")
    for start, end in ((size, size + 300), (size + 300, size + 350)):
        full.merge(HISA(device, pool[start:end], (0, 1, 2), label="m.d", build_hash_index=False))
    assert full.run_sizes == [size, 300, 50]
    _assert_membership_is_exact(full, pool[: size + 350], pool[size + 350 :], np.random.default_rng(0))


def test_a_wide_membership_batch_widens_the_searched_runs():
    """Runs without a table are searched by packed tuple key, in the store's
    format: a batch whose values do not fit narrow keys widens the store, once,
    as a merged delta would, and a narrow batch is then packed wide."""
    pool = _row_pool(3)
    device = _fresh_device()
    full = HISA(device, pool[:200], (0, 1, 2), label="w")
    full.merge(HISA(device, pool[200:260], (0, 1, 2), label="w.d", build_hash_index=False))
    assert full.run_sizes == [200, 60] and full.table.n_tables == 0
    assert not is_wide_keys(full._stores[1])
    far = pool[:5] + np.array([0, 0, 1 << 40])
    probes = np.concatenate([pool[:260], far])
    assert full.contains_columns(key_columns(probes), charge=False).tolist() == [True] * 260 + [False] * 5
    assert is_wide_keys(full._stores[1])
    assert full.contains_columns(key_columns(pool[255:265]), charge=False).tolist() == [True] * 5 + [False] * 5
    full.merge(HISA(device, pool[260:300], (0, 1, 2), label="w.d", build_hash_index=False))
    _assert_matches_scratch(full, pool[:300], (0, 1, 2), base=200)


@pytest.mark.parametrize("backend", sorted(LOOKUP_BACKENDS))
@pytest.mark.parametrize("join_columns", [(0,), (0, 1), (2, 0)])
def test_searched_runs_answer_like_the_table_walk(backend, join_columns):
    """The runs a merge writes onto an index on fewer columns keep no table
    below TABLE_MIN_ROWS, and a lookup searches their join keys: the same
    ``(starts, lengths)`` and ``expand_matches`` pairs as the same merges
    with a table for every run, and the same pairs as a from-scratch build.
    Join keys recur within every run and across runs, and half the probe
    keys (in no particular order, some twice) are in no run."""
    pool = _row_pool(9)
    present = np.unique(pool[:1430, list(join_columns)], axis=0)
    keys = np.random.default_rng(1).permutation(np.concatenate([present, present + 1000, present[:20]]))
    answers = []
    for threshold in (hisa_module.TABLE_MIN_ROWS, 0):
        with mock.patch.object(hisa_module, "TABLE_MIN_ROWS", threshold):
            device = _fresh_device(backend=LOOKUP_BACKENDS[backend]())
            full = HISA(device, pool[:1000], join_columns, label="s")
            for start, size in [(1000, 300), (1300, 100), (1400, 30)]:  # each is pushed
                delta = HISA(device, pool[start : start + size], join_columns, label="s.d", build_hash_index=False)
                full.merge(delta)
            assert full.run_sizes == [1000, 300, 100, 30]
            assert full.table.n_tables == (4 if threshold == 0 else 1)
            runs, lengths = full.lookup_columns(key_columns(keys), charge=False)
            answers.append((runs.starts, runs.lengths, lengths, *full.expand_matches(runs, lengths)))
    for searched, walked in zip(*answers):
        np.testing.assert_array_equal(searched, walked)
    scratch = HISA(_fresh_device(), pool[:1430], join_columns, label="ref")
    runs, lengths = scratch.lookup_columns(key_columns(keys), charge=False)
    np.testing.assert_array_equal(lengths, answers[0][2])
    assert (lengths[keys[:, 0] < 1000] > 0).all() and lengths[keys[:, 0] >= 1000].sum() == 0
    # Same data array (same rows, same order), so the same pairs up to order.
    expected = np.unique(np.column_stack(scratch.expand_matches(runs, lengths)), axis=0)
    np.testing.assert_array_equal(np.unique(np.column_stack(answers[0][3:]), axis=0), expected)


def test_a_wide_lookup_batch_widens_only_the_join_keys():
    """A lookup packs its keys in the searched join-key store's format: a
    batch whose join keys do not fit narrow keys widens that store, once,
    and leaves the tuple-key store alone; a narrow batch is then packed wide,
    and a later merge carries on from both formats."""
    pool = _row_pool(3)
    device = _fresh_device()
    full = HISA(device, pool[:200], (0, 1), label="w")
    full.merge(HISA(device, pool[200:260], (0, 1), label="w.d", build_hash_index=False))
    assert full.run_sizes == [200, 60] and full.table.n_tables == 1
    assert not is_wide_keys(full._stores[1]) and not is_wide_keys(full._stores[2])
    keys = np.concatenate([pool[:260, :2], pool[:5, :2] + np.array([1 << 40, 0])])
    expected = [{tuple(row) for row in pool[:260].tolist() if row[:2] == key} for key in keys.tolist()]
    assert _rows_per_key(full, keys) == expected
    assert is_wide_keys(full._stores[2]) and not is_wide_keys(full._stores[1])
    assert _rows_per_key(full, keys[250:]) == expected[250:]
    full.merge(HISA(device, pool[260:300], (0, 1), label="w.d", build_hash_index=False))
    _assert_matches_scratch(full, pool[:300], (0, 1), base=200)


def test_an_empty_index_builds_no_table():
    """A relation loaded with no rows (an IDB before its first iteration)
    pushes no table on its prefix index — no build charged, no slab
    allocated; a lookup misses, and the first merge answers like a
    from-scratch build."""
    device = _fresh_device()
    relation = Relation(device, "alias", 2)
    relation.require_index((0,))
    before = len(device.profiler.events)
    relation.initialize(np.empty((0, 2), dtype=np.int64))
    charged = [event.cost for event in device.profiler.events[before:]]
    assert not any(cost.kernel.endswith(".table.build") for cost in charged)
    assert sum(cost.allocations for cost in charged) == 0
    index = relation.full_indexes[(0,)]
    assert index.table.n_tables == 0 and index.memory_breakdown().table_bytes == 0
    assert _rows_per_key(index, np.array([[1], [7]])) == [set(), set()]
    rows = _random_unique_rows(np.random.default_rng(4), 80, arity=2, hi=9)
    relation.add_new(rows)
    relation.end_iteration()
    _assert_matches_scratch(relation.full_indexes[(0,)], rows, (0,), base=0)


def test_contains_after_incremental_merges():
    rng = np.random.default_rng(3)
    rows = _random_unique_rows(rng, 500, arity=2)
    batches = _split_batches(rows, 5, rng)
    device = _fresh_device()
    full = HISA(device, batches[0], (0, 1), label="full")
    for batch in batches[1:]:
        full = full.merge(HISA(device, batch, (0, 1), label="d"))
    assert full.contains_columns(key_columns(rows), charge=False).all()
    absent = np.array([[999, 999], [-5, 3]], dtype=np.int64)
    assert not full.contains_columns(key_columns(absent), charge=False).any()


def test_memory_accounting_follows_capacity():
    """Every tier accounts what it has reserved, and ``free`` gives all of it
    back; an all-column index reserves no table slab."""
    for join_columns in ((1,), (0, 1, 2)):
        _check_memory_accounting(join_columns)


def _check_memory_accounting(join_columns):
    pool = _row_pool(11)
    device = _fresh_device()
    before = device.pool.in_use_bytes
    full = HISA(device, pool[:100], join_columns, label="m")
    whole = len(join_columns) == 3

    def reserved():
        slab = full.table.capacity * 24
        # per reserved index row: the position, the tuple key and (on fewer
        # columns) the join key, 8 bytes per key column whatever the host
        # packing of the keys
        stores = full._stores[0].shape[0] * 8 * (1 + 3 + (0 if whole else len(join_columns)))
        return stores + slab

    allocations = device.pool.stats.allocation_count
    for step in range(50):
        delta = HISA(
            device, pool[100 + 40 * step : 140 + 40 * step], join_columns, label="m.d", build_hash_index=False
        )
        full.merge(delta)
        assert full.memory_breakdown().total_bytes == reserved()
        assert device.pool.in_use_bytes - before == full.store.nbytes + reserved() + full.store.manager.spare_bytes
    # 50 deltas allocated 50 x (data, index); the full index grew geometrically.
    growths = device.pool.stats.allocation_count - allocations - 100
    assert growths <= 3 * np.log2(2100 / 100) + 3
    assert (full.table.capacity == 0) == whole
    assert len(full.run_sizes) > 1
    assert full.memory_breakdown().total_bytes == reserved()
    full.free()
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
        full = HISA(device, pool[:300], join_columns, label="c")
        breakdowns = [full.memory_breakdown()]
        for start, size in [(300, 40), (340, 10), (350, 200), (550, 5), (555, 3), (558, 900)]:
            full.merge(HISA(device, pool[start : start + size], join_columns, label="c.d"))
            breakdowns.append(full.memory_breakdown())
        _, lengths = full.lookup_columns(key_columns(pool[:50, list(join_columns)]))
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
        growths += table.insert_batch(all_hashes[start:end], np.arange(start, end, dtype=np.int64))
        bounds.append(end)

    assert 1 <= growths <= np.log2(all_hashes.size)  # geometric
    assert len(table) == all_hashes.size
    assert table.occupancy() <= table.load_factor + 1e-9
    for index, (start, end) in enumerate(zip(bounds, bounds[1:])):
        slots = np.empty(end - start, dtype=np.int64)
        found, _ = table.probe(all_hashes[start:end], index, charge=False, found=slots)
        np.testing.assert_array_equal(found, np.arange(start, end, dtype=np.int64))
        assert (slots >= 0).all() and np.unique(slots).size == end - start  # a slot per key
        missed, _ = table.probe(all_hashes[end : end + 64], index, charge=False)
        assert (missed == -1).all()

    # Popping tables frees their slots for the next push: no growth.
    table.truncate(2)
    capacity = table.capacity
    grew = table.insert_batch(all_hashes[bounds[2] :][:500], np.arange(500, dtype=np.int64))
    assert not grew and table.capacity == capacity
    found, _ = table.probe(all_hashes[bounds[2] :][:500], 2, charge=False)
    np.testing.assert_array_equal(found, np.arange(500, dtype=np.int64))


def test_insert_batch_slots_address_update_slots():
    device = _fresh_device()
    keys = np.unique(np.random.default_rng(5).integers(0, 1 << 40, size=(64, 2), dtype=np.int64), axis=0)
    hashes = hash_rows(keys)
    table = OpenAddressingHashTable(device, hashes[:8], np.arange(8, dtype=np.int64), load_factor=0.5)
    table.insert_batch(hashes[8:40], np.arange(32, dtype=np.int64))
    slots = np.empty(32, dtype=np.int64)
    table.probe(hashes[8:40], 1, charge=False, found=slots)  # slots within table 1, after table 0's 16
    table.update_slots(slots + 16, np.arange(32, dtype=np.int64) * 10, np.full(32, 3, dtype=np.int64))
    values, lengths = table.probe(hashes[8:40], 1, charge=False)
    np.testing.assert_array_equal(values, np.arange(32, dtype=np.int64) * 10)
    np.testing.assert_array_equal(lengths, np.full(32, 3, dtype=np.int64))
    values, _ = table.probe(hashes[:8], 0, charge=False)  # the table below is untouched
    np.testing.assert_array_equal(values, np.arange(8, dtype=np.int64))


def test_a_push_charges_the_same_whether_or_not_its_table_is_read(monkeypatch):
    """The device pays for every table at its push; the host builds it when
    first read.  Building each table right after its push, as if something
    read it at once, records the same kernels over a whole fixpoint —
    labels, bytes, launches, fused grouping — and the same answer, though
    some tables are then built that nothing reads: ``reach[0]`` is merged
    every iteration and probed only by the stratum after."""
    monkeypatch.setattr(hisa_module, "TABLE_MIN_ROWS", 0)  # every run on fewer columns keeps a table
    push, build = OpenAddressingHashTable.insert_batch, OpenAddressingHashTable._build
    edges = np.array([(node // 2, node) for node in range(1, 300)], dtype=np.int64)
    program = REACH_SOURCE + "hop(x, z) :- edge(x, y), reach(y, z).\n"

    def push_and_read(self, *args, **kwargs):
        grew = push(self, *args, **kwargs)
        self.stats  # reads, so builds, the table just pushed
        return grew

    recorded = []
    for eager in (False, True):
        if eager:
            monkeypatch.setattr(OpenAddressingHashTable, "insert_batch", push_and_read)
        with mock.patch.object(OpenAddressingHashTable, "_build", autospec=True, side_effect=build) as builds:
            engine = GPULogEngine(device="h100")
            engine.add_fact_array("edge", edges)
            result = engine.run(program)
        recorded.append((engine.device.profiler.events, result.relation_set("hop"), builds.call_count))
        engine.close()
    (deferred, answer, built), (eager_events, eager_answer, pushed) = recorded
    assert deferred == eager_events and answer == eager_answer
    assert 0 < built < pushed


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
    merged = full.merge(empty)
    assert merged is full
    assert merged.tuple_count == 2
    assert empty.is_freed


def test_merge_into_empty_full():
    device = _fresh_device()
    full = HISA(device, np.empty((0, 2), dtype=np.int64), (0,), label="r")
    delta = HISA(device, np.array([[5, 6], [1, 2]], dtype=np.int64), (0,), label="r.d")
    merged = full.merge(delta)
    assert merged.tuple_count == 2
    assert merged.run_sizes == [2]
    _, lengths = merged.lookup_columns(key_columns([[5]]), charge=False)
    assert lengths.tolist() == [1]
