"""Result egress: one vectorised, per-relation-lazy decode.

The per-value loop the engine used to run is kept here as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import GPULogEngine
from repro.datalog.engine import SymbolTable
from repro.queries import REACH_SOURCE, SG_SOURCE
from repro.serving import ServingEngine

INT64 = np.iinfo(np.int64)
SYMBOLS = ("a", "b", "carol", "")


def reference_decode(symbols: SymbolTable, rows: np.ndarray) -> list[tuple]:
    return [tuple(symbols.decode(value) for value in row) for row in rows.tolist()]


@st.composite
def tables_and_rows(draw):
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
    count = draw(st.integers(0, 12))
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


def test_decode_is_lazy_per_relation_and_memoised(monkeypatch):
    decoded_shapes = []
    original = SymbolTable.decode_rows

    def recording(self, rows):
        decoded_shapes.append(rows.shape)
        return original(self, rows)

    monkeypatch.setattr(SymbolTable, "decode_rows", recording)
    engine = GPULogEngine()
    engine.add_facts("edge", [(1, 2), (2, 3), (3, 4)])
    result = engine.run(REACH_SOURCE)
    engine.close()
    assert result.count("reach") == 6 and result.count("edge") == 3
    assert "reach" in result.relations and len(result.relations) == 2
    assert decoded_shapes == []  # nothing read yet: no relation became Python objects
    first = result.relation("reach")
    assert result.relation("reach") is first and result.relations["reach"] is first
    assert result.relation_set("reach") == set(first)
    assert decoded_shapes == [(6, 2)]  # built once; "edge" still never decoded
    assert result.relation("missing") == [] and decoded_shapes == [(6, 2)]


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
