"""Tests for the relational-algebra kernels (join, select, dedup, difference)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device import Device, device_preset
from repro.errors import SchemaError
from repro.relational import (
    ColumnBatch,
    ColumnComparison,
    JoinOutput,
    LiveOuter,
    deduplicate,
    difference,
    fused_nway_join,
    hash_join,
    select,
)

from tests.helpers import batch_of, hisa_of as HISA


def as_sorted_tuples(data):
    rows = data.as_rows(charge=False) if isinstance(data, ColumnBatch) else data
    return sorted(map(tuple, np.asarray(rows).tolist()))


def brute_force_join(outer, inner, outer_cols, inner_cols, output):
    result = []
    for orow in map(tuple, outer.tolist()):
        for irow in map(tuple, inner.tolist()):
            if all(orow[a] == irow[b] for a, b in zip(outer_cols, inner_cols)):
                tup = []
                for source, col in output:
                    tup.append(orow[col] if source == "outer" else irow[col])
                result.append(tuple(tup))
    return result


def test_join_matches_bruteforce_on_example(device, paper_edges):
    inner = HISA(device, paper_edges, join_columns=(0,), label="edge")
    output = [JoinOutput("outer", 1), JoinOutput("inner", 1)]
    result = hash_join(device, batch_of(device, paper_edges), [1], inner, output)
    expected = brute_force_join(paper_edges, paper_edges, [1], [0], [("outer", 1), ("inner", 1)])
    assert as_sorted_tuples(result) == sorted(expected)


def test_join_with_comparison_filter(device, paper_edges):
    inner = HISA(device, paper_edges, join_columns=(0,), label="edge")
    output = [JoinOutput("outer", 1), JoinOutput("inner", 1)]
    result = hash_join(
        device, batch_of(device, paper_edges), [0], inner, output,
        comparisons=[ColumnComparison("!=", 0, right_column=1)],
    )
    assert len(result)
    assert all(a != b for a, b in as_sorted_tuples(result))


def test_join_empty_inputs(device, paper_edges):
    inner = HISA(device, paper_edges, join_columns=(0,))
    empty = np.empty((0, 2), dtype=np.int64)
    out = hash_join(device, batch_of(device, empty), [0], inner, [JoinOutput("outer", 0)])
    assert len(out) == 0 and out.arity == 1
    empty_inner = HISA(device, empty, join_columns=(0,))
    out = hash_join(device, batch_of(device, paper_edges), [0], empty_inner, [JoinOutput("outer", 0)])
    assert len(out) == 0 and out.arity == 1


def test_join_key_width_mismatch_rejected(device, paper_edges):
    inner = HISA(device, paper_edges, join_columns=(0, 1))
    with pytest.raises(SchemaError):
        hash_join(device, batch_of(device, paper_edges), [0], inner, [JoinOutput("outer", 0)])


def test_join_output_validation():
    with pytest.raises(SchemaError):
        JoinOutput("sideways", 0)
    with pytest.raises(SchemaError):
        JoinOutput("outer", -1)


def test_column_comparison_validation():
    with pytest.raises(SchemaError):
        ColumnComparison("~", 0, constant=1)
    with pytest.raises(SchemaError):
        ColumnComparison("==", 0)
    with pytest.raises(SchemaError):
        ColumnComparison("==", 0, right_column=1, constant=2)


def test_select_and_project(device):
    rows = batch_of(device, [[1, 2, 3], [4, 4, 6], [7, 8, 7]])
    selected = select(device, rows, [ColumnComparison("==", 0, right_column=1)])
    assert selected.as_rows().tolist() == [[4, 4, 6]]
    lt = select(device, rows, [ColumnComparison("<", 0, constant=5)])
    assert len(lt) == 2
    projected = rows.project([2, 0])
    assert projected.as_rows().tolist() == [[3, 1], [6, 4], [7, 7]]


def test_deduplicate_and_union(device):
    rows = batch_of(device, [[1, 1], [2, 2], [1, 1]])
    assert deduplicate(device, rows).as_rows().tolist() == [[1, 1], [2, 2]]
    combined = ColumnBatch.concatenate(device, [rows, batch_of(device, [[3, 3]])], arity=2)
    assert len(combined) == 4
    with pytest.raises(SchemaError):
        ColumnBatch.concatenate(device, [rows, batch_of(device, [[1, 2, 3]])], arity=2)


def test_difference_removes_existing(device, paper_edges):
    existing = HISA(device, paper_edges, join_columns=(0, 1))
    candidate = np.array([[0, 1], [9, 9], [4, 8], [7, 7]], dtype=np.int64)
    fresh = difference(device, batch_of(device, candidate), existing)
    assert as_sorted_tuples(fresh) == [(7, 7), (9, 9)]


def test_fused_join_equals_materialized(device, paper_edges):
    """The fused n-way join must produce the same tuples as two binary joins."""
    edge_by_src = HISA(device, paper_edges, join_columns=(0,), label="edge")
    sg_seed = hash_join(
        device, batch_of(device, paper_edges), [0], edge_by_src,
        [JoinOutput("outer", 1), JoinOutput("inner", 1)],
        comparisons=[ColumnComparison("!=", 0, right_column=1)],
    )
    # Rule: sg(x, y) :- edge(a, x), sg(a, b), edge(b, y), x != y  (one round).
    step1 = hash_join(
        device, sg_seed, [0], edge_by_src,
        [JoinOutput("outer", 0), JoinOutput("outer", 1), JoinOutput("inner", 1)],
    )
    materialized = hash_join(
        device, step1, [1], edge_by_src,
        [JoinOutput("outer", 2), JoinOutput("inner", 1)],
        comparisons=[ColumnComparison("!=", 0, right_column=1)],
    )
    fused = fused_nway_join(
        device,
        sg_seed,
        stages=[
            ([0], edge_by_src, [JoinOutput("outer", 0), JoinOutput("outer", 1), JoinOutput("inner", 1)]),
            ([1], edge_by_src, [JoinOutput("outer", 2), JoinOutput("inner", 1)]),
        ],
        comparisons=[ColumnComparison("!=", 0, right_column=1)],
    )
    assert len(materialized)
    assert as_sorted_tuples(fused) == as_sorted_tuples(materialized)


def test_fused_join_charges_more_divergence_on_skewed_data(device):
    """A hub-heavy inner relation makes the fused plan pay for idle lanes."""
    hub_edges = np.array([[0, i] for i in range(1, 200)] + [[i, 200 + i] for i in range(1, 50)], dtype=np.int64)
    fused_device = Device("h100", oom_enabled=False)
    fused_inner = HISA(fused_device, hub_edges, join_columns=(0,), label="hub")
    fused_nway_join(
        fused_device,
        batch_of(fused_device, hub_edges),
        stages=[
            ([1], fused_inner, [JoinOutput("outer", 0), JoinOutput("inner", 1)]),
            ([1], fused_inner, [JoinOutput("outer", 0), JoinOutput("inner", 1)]),
        ],
    )
    fused_events = [e for e in fused_device.profiler.events if e.kernel == "fused_join"]
    assert fused_events and fused_events[0].cost.divergence > 1.0


hypothesis_rows = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=60
).map(lambda rows: np.asarray(rows, dtype=np.int64))


@given(outer=hypothesis_rows, inner=hypothesis_rows)
@settings(max_examples=60, deadline=None)
def test_hash_join_matches_bruteforce_property(outer, inner):
    device = Device("h100", oom_enabled=False)
    inner_hisa = HISA(device, inner, join_columns=(0,))
    output = [JoinOutput("outer", 0), JoinOutput("outer", 1), JoinOutput("inner", 1)]
    result = hash_join(device, batch_of(device, outer), [1], inner_hisa, output)
    expected = brute_force_join(outer, inner, [1], [0], [("outer", 0), ("outer", 1), ("inner", 1)])
    assert as_sorted_tuples(result) == sorted(expected)


# ----------------------------------------------------------------------
# Varying arity, duplicate-heavy inputs, empty relations (property-based)
# ----------------------------------------------------------------------

# Duplicate-heavy by construction: tiny value domain.  Arity varies 1..3 and
# empty relations are generated explicitly below.
def rows_of_arity(arity, min_size=0, max_size=50):
    return st.lists(
        st.tuples(*[st.integers(0, 4) for _ in range(arity)]),
        min_size=min_size,
        max_size=max_size,
    ).map(lambda rows: np.asarray(rows, dtype=np.int64).reshape(-1, arity))


@given(arity=st.integers(1, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_guarded_join_matches_bruteforce_property(arity, data):
    outer = data.draw(rows_of_arity(arity))
    inner = data.draw(rows_of_arity(arity, min_size=1))
    device = Device("h100", oom_enabled=False)
    inner_hisa = HISA(device, inner, join_columns=(0,))
    output = [JoinOutput("outer", c) for c in range(arity)] + [JoinOutput("inner", arity - 1)]
    comparisons = (
        [ColumnComparison("!=", 0, right_column=arity)] if arity > 1 else []
    )
    result = hash_join(device, batch_of(device, outer), [arity - 1], inner_hisa, output, comparisons=comparisons)
    expected = brute_force_join(
        outer, inner, [arity - 1], [0], [("outer", c) for c in range(arity)] + [("inner", arity - 1)]
    )
    if comparisons:
        expected = [row for row in expected if row[0] != row[arity]]
    assert as_sorted_tuples(result) == sorted(expected)


def row_set_difference(rows, existing):
    """NumPy oracle for ``difference``: rows of ``rows`` absent from ``existing``, in order."""
    known = set(map(tuple, existing.tolist()))
    return [row for row in map(tuple, rows.tolist()) if row not in known]


@given(arity=st.integers(1, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_columnar_dedup_difference_project_equal_row_reference(arity, data):
    rows = data.draw(rows_of_arity(arity))
    existing = data.draw(rows_of_arity(arity, min_size=1))
    device = Device("h100", oom_enabled=False)

    # Deduplication leaves its result in natural lexicographic order, like np.unique.
    deduped = deduplicate(device, batch_of(device, rows))
    assert deduped.as_rows(charge=False).tolist() == np.unique(rows, axis=0).tolist()

    full = HISA(device, existing, join_columns=tuple(range(arity)))
    fresh = difference(device, batch_of(device, rows), full)
    assert list(map(tuple, fresh.as_rows(charge=False).tolist())) == row_set_difference(rows, existing)

    projection = [arity - 1, 0]
    assert as_sorted_tuples(batch_of(device, rows).project(projection)) == as_sorted_tuples(rows[:, projection])


@given(arity=st.integers(1, 3), data=st.data())
@settings(max_examples=40, deadline=None)
def test_columnar_select_union_equal_row_reference(arity, data):
    first = data.draw(rows_of_arity(arity))
    second = data.draw(rows_of_arity(arity))
    device = Device("h100", oom_enabled=False)
    comparisons = [ColumnComparison("<=", 0, constant=2)]
    selected = select(device, batch_of(device, first), comparisons)
    assert selected.as_rows(charge=False).tolist() == first[first[:, 0] <= 2].tolist()

    combined = ColumnBatch.concatenate(device, [batch_of(device, first), batch_of(device, second)], arity=arity)
    assert combined.as_rows(charge=False).tolist() == np.concatenate([first, second]).tolist()


def test_columnar_join_empty_inputs(device, paper_edges):
    inner = HISA(device, paper_edges, join_columns=(0,))
    empty_batch = ColumnBatch.empty(device, 2)
    out = hash_join(device, empty_batch, [0], inner, [JoinOutput("outer", 0)])
    assert isinstance(out, ColumnBatch)
    assert len(out) == 0 and out.arity == 1
    # Non-empty outer against an empty inner also keeps the output schema.
    empty_inner = HISA(device, np.empty((0, 2), dtype=np.int64), join_columns=(0,))
    out = hash_join(
        device, ColumnBatch.from_rows(device, paper_edges), [0], empty_inner, [JoinOutput("outer", 0)]
    )
    assert len(out) == 0 and out.arity == 1


def test_columnar_join_keeps_unread_columns_lazy(device, paper_edges):
    inner = HISA(device, paper_edges, join_columns=(0,), label="edge")
    batch = ColumnBatch.from_rows(device, paper_edges)
    out = hash_join(
        device, batch, [1], inner,
        [JoinOutput("outer", 0), JoinOutput("outer", 1), JoinOutput("inner", 1)],
    )
    assert out.materialized_column_count == 0
    out.column(2)
    assert out.materialized_column_count == 1


# ----------------------------------------------------------------------
# Distinct before expand
# ----------------------------------------------------------------------

#: a device on which every expansion is bandwidth-bound, so condition (c) of
#: the rule holds at test sizes and (a) and (b) alone decide
ZERO_LAUNCH = replace(device_preset("h100"), kernel_launch_us=0.0)

#: outer columns: (z, x, w) — w is the probe key, x reaches the output, z is
#: read by nothing
DISTINCT_OUTPUT = [JoinOutput("outer", 1), JoinOutput("inner", 1)]


def duplicated_outer(fan_out):
    """1,000 outer rows that are 10 distinct ``(x, w)`` pairs under 100 values
    of the dead column, and an inner with ``fan_out`` matches per key."""
    pairs = [(x, 100 + x) for x in range(10)]
    outer = np.array([(z, x, w) for z in range(100) for x, w in pairs], dtype=np.int64)
    inner = np.array([(w, y) for _, w in pairs for y in range(fan_out)], dtype=np.int64)
    return outer, inner


def run_distinct_join(spec, fan_out, live, *, output=DISTINCT_OUTPUT, comparisons=()):
    device = Device(spec, oom_enabled=False, fault_plan="none")
    outer, inner = duplicated_outer(fan_out)
    hisa = HISA(device, inner, join_columns=(0,), label="inner")
    device.reset()
    live_outer = None if live is None else LiveOuter(frozenset(live))
    result = hash_join(
        device, batch_of(device, outer), [2], hisa, output, comparisons=comparisons, live_outer=live_outer
    )
    rows = result.as_rows(charge=False)
    return rows, device.profiler.events, live_outer


def test_distinct_before_expand_fires_on_a_duplicated_high_fanout_outer():
    plain, _, _ = run_distinct_join(ZERO_LAUNCH, 100, None)
    rows, events, live = run_distinct_join(ZERO_LAUNCH, 100, {1})
    assert plain.shape[0] == 1000 * 100
    assert rows.shape[0] == 10 * 100  # d x fan-out: nothing was expanded twice
    assert set(map(tuple, rows.tolist())) == set(map(tuple, plain.tolist()))
    assert live.report == {"matches": 1000 * 100, "eligible": 1, "fired": 1, "rows_in": 1000, "rows_out": 10}
    # The sort is charged through the ordinary dedup kernel with launches of
    # its own, between the two halves of the probe pipeline — not folded into
    # either elementwise fused launch.
    kernels = [event.kernel for event in events]
    first, second = kernels.index("join.probe_fused"), kernels.index("join.expand_fused")
    between = kernels[first + 1 : second]
    assert "join.distinct_outer.sort" in between and "join.distinct_outer.compact" in between
    assert sum(event.cost.launches for event in events[first + 1 : second]) >= 2 + 2  # radix passes + mask/compact
    assert not any("distinct_outer" in kernel for kernel in kernels[:first] + kernels[second:])


@pytest.mark.parametrize(
    "spec, fan_out, live",
    [
        pytest.param(ZERO_LAUNCH, 3, {1}, id="fan-out-3"),
        pytest.param(ZERO_LAUNCH, 100, {0, 1}, id="every-column-live"),
        pytest.param("h100", 100, {1}, id="launch-bound-on-h100"),
    ],
)
def test_distinct_before_expand_stays_out_of_the_way(spec, fan_out, live):
    """Where the rule does not fire the join is the join without it: the same
    rows in the same order, the same ``KernelCost`` sequence."""
    plain_rows, plain_events, _ = run_distinct_join(spec, fan_out, None)
    rows, events, live_outer = run_distinct_join(spec, fan_out, live)
    assert live_outer.report["fired"] == 0
    assert np.array_equal(rows, plain_rows)
    assert [event.cost for event in events] == [event.cost for event in plain_events]


def test_distinct_before_expand_keeps_guard_columns_live():
    """A guard that reads an outer column keeps it: with ``z != y`` in the
    join, rows differing in ``z`` are no longer duplicates of each other."""
    output = [JoinOutput("outer", 0), JoinOutput("outer", 1), JoinOutput("inner", 1)]
    guard = [ColumnComparison("!=", 0, right_column=2)]
    plain, _, _ = run_distinct_join(ZERO_LAUNCH, 100, None, output=output, comparisons=guard)
    assert plain.shape[0] == 1000 * 100 - 1000  # the guard drops y == z
    rows, _, live = run_distinct_join(ZERO_LAUNCH, 100, {1}, output=output, comparisons=guard)
    assert live.report["eligible"] == 0  # z (guard), x (output) and w (key): nothing left to drop
    assert np.array_equal(rows, plain)
    # With a fourth, genuinely dead column in front the rule fires again and
    # the guard still sees every (z, x, w) combination.
    device = Device(ZERO_LAUNCH, oom_enabled=False, fault_plan="none")
    outer, inner = duplicated_outer(100)
    wide = np.column_stack([np.arange(outer.shape[0]) % 7, outer])
    wide = np.concatenate([wide, wide + [7, 0, 0, 0]])  # every (z, x, w) twice
    hisa = HISA(device, inner, join_columns=(0,), label="inner")
    shifted = [JoinOutput("outer", 1), JoinOutput("outer", 2), JoinOutput("inner", 1)]
    live = LiveOuter(frozenset({2}))
    result = hash_join(device, batch_of(device, wide), [3], hisa, shifted, comparisons=guard, live_outer=live)
    assert live.report == {"matches": 2000 * 100, "eligible": 1, "fired": 1, "rows_in": 2000, "rows_out": 1000}
    assert as_sorted_tuples(result) == as_sorted_tuples(plain)
