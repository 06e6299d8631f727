"""Result egress: one vectorised decode, streamed block by block on read.

The per-value loop the engine used to run is kept here as the reference.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import GPULogEngine, backend
from repro.datalog.engine import DecodedRelation, SymbolTable
from repro.queries import REACH_SOURCE, SG_SOURCE
from repro.serving import ServingEngine

INT64 = np.iinfo(np.int64)
SYMBOLS = ("a", "b", "carol", "")


def reference_decode(symbols: SymbolTable, rows: np.ndarray) -> list[tuple]:
    return [tuple(symbols.decode(value) for value in row) for row in rows.tolist()]


#: A block size small enough that drawn row counts straddle block edges.
SMALL_BLOCK = 3


@st.composite
def tables_and_rows(draw, counts=st.integers(0, 12)):
    """A symbol table (possibly empty) and rows mixing plain integers
    (negatives, int64 extremes), interned ids and never-interned ids >= BASE."""
    symbols = SymbolTable()
    interned = [symbols.encode(symbol) for symbol in draw(st.sets(st.sampled_from(SYMBOLS)))]
    values = st.one_of(
        st.integers(INT64.min, INT64.max),
        st.integers(-5, 5),
        st.sampled_from([INT64.min, INT64.max, SymbolTable.BASE - 1]),
        st.integers(SymbolTable.BASE + len(SYMBOLS), SymbolTable.BASE + 50),
        *([st.sampled_from(interned)] if interned else []),
    )
    arity = draw(st.integers(0, 4))
    count = draw(counts)
    flat = draw(st.lists(values, min_size=count * arity, max_size=count * arity))
    return symbols, np.asarray(flat, dtype=np.int64).reshape(count, arity)


@given(tables_and_rows())
@settings(max_examples=200, deadline=None)
def test_decode_rows_equals_the_per_value_loop(case):
    symbols, rows = case
    decoded = symbols.decode_rows(rows)
    assert decoded == reference_decode(symbols, rows)
    assert type(decoded) is list
    assert all(type(row) is tuple for row in decoded)
    assert all(type(value) in (int, str) for row in decoded for value in row)


def test_all_integer_run_decodes_without_per_value_calls(monkeypatch):
    calls = 0
    original = SymbolTable.decode

    def counting(self, identifier):
        nonlocal calls
        calls += 1
        return original(self, identifier)

    monkeypatch.setattr(SymbolTable, "decode", counting)
    engine = GPULogEngine()
    engine.add_fact_array("edge", np.stack([np.arange(140), np.arange(1, 141)], axis=1))
    result = engine.run(REACH_SOURCE)
    engine.close()
    reach = result.relation("reach")
    assert len(reach) == result.count("reach") == 140 * 141 // 2 >= 9_870
    assert reach[0] == (0, 1) and type(reach[0][0]) is int
    assert calls == 0


@given(
    tables_and_rows(st.sampled_from([0, 1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 2 * SMALL_BLOCK + 1])),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_view_decodes_exactly_what_decode_rows_does(case, data):
    symbols, rows = case
    rows.setflags(write=False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backend, "DECODE_BLOCK_ROWS", SMALL_BLOCK)
        view = DecodedRelation(rows, symbols)
        listed = symbols.decode_rows(rows)
        assert listed == reference_decode(symbols, rows)
        assert len(view) == len(listed) and list(view) == listed and list(view) == listed  # a pass repeats
        assert all(type(value) in (int, str) for row in view for value in row)
        assert view == listed and listed == view and view == DecodedRelation(rows, symbols)
        assert not view != listed and view != listed + [()] and listed + [()] != view
        assert list(reversed(view)) == listed[::-1] and set(view) == set(listed)
        if listed:
            index = data.draw(st.integers(-len(listed), len(listed) - 1))
            assert view[index] == listed[index] and type(view[index]) is tuple
        with pytest.raises(IndexError):
            view[len(listed)]
        window = data.draw(st.slices(len(listed)))
        assert view[window] == listed[window] and type(view[window]) is list
        assert repr(view) == repr(listed)
        np.testing.assert_array_equal(np.asarray(view), np.asarray(list(view)))
        assert not hasattr(view, "__array__")


def test_decode_is_lazy_per_relation_and_memoised(monkeypatch):
    decoded_blocks = []
    original = backend._block_tuples

    def recording(block, translate):
        decoded_blocks.append(block.shape)
        return original(block, translate)

    monkeypatch.setattr(backend, "_block_tuples", recording)
    monkeypatch.setattr(backend, "DECODE_BLOCK_ROWS", 4)
    engine = GPULogEngine()
    engine.add_facts("edge", [(1, 2), (2, 3), (3, 4)])
    result = engine.run(REACH_SOURCE)
    engine.close()
    assert result.count("reach") == 6 and result.count("edge") == 3
    assert "reach" in result.relations and len(result.relations) == 2
    view = result.relation("reach")
    assert result.relation("reach") is view and result.relations["reach"] is view
    assert len(view) == 6 and decoded_blocks == []  # nothing read yet: no relation became Python objects
    tuples = iter(view)
    first = next(tuples)
    assert decoded_blocks == [(4, 2)]  # a pass decodes one block at a time
    rest = list(tuples)
    assert decoded_blocks == [(4, 2), (2, 2)]
    assert result.relation_set("reach") == {first, *rest} and len(rest) == 5
    assert decoded_blocks == [(4, 2), (2, 2)] * 2  # a new pass decodes again; "edge" never decoded
    assert result.relation("missing") == [] and len(decoded_blocks) == 4


def test_a_pass_over_a_large_result_holds_one_block():
    nodes = np.arange(1, 2**15 - 1)
    engine = GPULogEngine()
    engine.add_fact_array("edge", np.stack([(nodes - 1) // 2, nodes], axis=1))  # a binary tree
    result = engine.run(REACH_SOURCE)
    engine.close()
    view = result.relation("reach")
    assert len(view) >= 200_000
    tracemalloc.start()
    try:
        for _row in view:
            pass
        streamed = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        listed = list(view)
        materialised = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(listed) == len(view)
    # One block's two column value lists: a list slot and an int object a value.
    assert streamed < backend.DECODE_BLOCK_ROWS * 2 * 100
    assert streamed < materialised / 4


def test_a_sharded_result_streams_its_downloaded_rows(monkeypatch):
    monkeypatch.setattr(backend, "DECODE_BLOCK_ROWS", 5)
    people = [f"p{index}" for index in range(20)]
    edges = [(people[(child - 1) // 3], people[child]) for child in range(1, 20)] + [(people[0], 99)]
    engine = GPULogEngine(num_shards=2)
    engine.add_facts("edge", edges)
    result = engine.run(SG_SOURCE)
    engine.close()
    view = result.relation("sg")
    listed = engine.symbols.decode_rows(result.rows("sg"))
    assert result.shard_count == 2 and len(view) > 2 * 5
    assert view == listed and listed == view and list(view) == listed
    assert set(view) == set(listed) == result.relation_set("sg") and (99, "p1") in listed
    assert view[-1] == listed[-1] and view[3:12] == listed[3:12]
    np.testing.assert_array_equal(np.asarray(view), np.asarray(list(view)))


def test_rows_are_the_downloaded_array_read_only_and_interned():
    engine = GPULogEngine()
    engine.add_facts("edge", [("a", "b"), ("b", "c")])
    result = engine.run(REACH_SOURCE)
    rows = result.rows("reach")
    assert rows.dtype == np.int64 and rows.shape == (3, 2) and not rows.flags.writeable
    assert rows.min() >= SymbolTable.BASE  # ids, not strings
    assert engine.symbols.decode_rows(rows) == result.relation("reach")
    assert result.relation_set("reach") == {("a", "b"), ("b", "c"), ("a", "c")}
    with pytest.raises(KeyError):
        result.rows("missing")
    engine.close()


def test_download_is_eager_and_charged_and_collect_relations_false_skips_it():
    def run(collect):
        engine = GPULogEngine(collect_relations=collect)
        engine.add_facts("edge", [(1, 2), (2, 3)])
        result = engine.run(REACH_SOURCE)
        engine.close()
        return result, sum(device.profiler.transfer_bytes for device in engine.devices)

    collected, with_download = run(True)  # nothing is read from it: the charge is run()'s
    bare, without_download = run(False)
    downloaded = sum(collected.rows(name).nbytes for name in collected.relations)
    assert downloaded == (3 + 2) * 2 * 8 and with_download - without_download == downloaded
    assert bare.count("reach") == 3
    assert bare.relation("reach") == [] and bare.rows("reach").shape == (0, 2)


def test_single_device_equals_four_shards_on_sg_with_string_constants():
    people = [f"p{index}" for index in range(40)]
    edges = [(people[(child - 1) // 3], people[child]) for child in range(1, 40)]
    results = {}
    for shards in (1, 4):
        engine = GPULogEngine(num_shards=shards)
        engine.add_facts("edge", edges)
        results[shards] = engine.run(SG_SOURCE)
        engine.close()
    single = results[1].relation_set("sg")
    assert single and single == results[4].relation_set("sg")
    assert all(type(value) is str for row in single for value in row)
    assert results[1].relation_set("edge") == results[4].relation_set("edge") == set(edges)


def test_serving_query_decode_equals_the_per_value_loop():
    engine = ServingEngine(
        REACH_SOURCE, {"edge": [("a", "b"), ("b", 7), (7, "c")]}, background=False, fault_plan="none"
    )
    try:
        engine.submit(inserts={"edge": [("c", "d")]}).result()
        snapshot = engine.query("reach")
        decoded = engine.query("reach", decode=True)
        assert type(decoded) is DecodedRelation
        assert decoded == reference_decode(engine.symbols, snapshot.rows)
        assert ("a", "d") in decoded and ("b", 7) in decoded
    finally:
        engine.close()


def test_entries_from_returns_only_the_tail():
    symbols = SymbolTable()
    for symbol in ("x", "y", "z"):
        symbols.encode(symbol)
    assert symbols.entries_from(0) == symbols.entries()
    assert symbols.entries_from(2) == [("z", SymbolTable.BASE + 2)]
    assert symbols.entries_from(3) == symbols.entries_from(9) == []
