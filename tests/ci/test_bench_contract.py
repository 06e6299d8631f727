"""What ``bench/`` needs of ``src/``, checked in tier-1.

The benchmark reaches the program two ways: ``bench/trace.py`` resolves every
entry point in its ``TARGETS`` by name (and raises where one is missing), and
``bench/drivers.py`` reads counters off the public result objects.  Only a
``benchmark`` PR may edit ``bench/``, so every other PR has to keep both
working — and before this file only the separate ``bench-selftest`` CI job
noticed a rename.  Nothing under ``bench/`` is edited or executed here: the
tracer's resolver is imported under a private name, the driver is parsed.
"""

import ast
import importlib.util
import os

import numpy as np
import pytest

from repro import GPULogEngine
from repro.queries import SG_SOURCE
from repro.serving import ServingEngine

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "bench")
ENGINE = {"device": "h100", "backend": "numpy", "fault_plan": "none"}
EDGES = np.array([[0, 1], [0, 2], [1, 3], [1, 4], [2, 5]], dtype=np.int64)


def test_every_traced_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("bench_trace", os.path.join(BENCH_DIR, "trace.py"))
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    import repro.serving  # noqa: F401  (loads every module a target lives in)

    resolved = {(name, attribute) for name, _owner, attribute, _value in trace.bindings()}
    assert resolved == {(name, attribute) for name, _owner, attribute in trace.TARGETS}


def attributes_read(function: str, variable: str) -> set[str]:
    """Names ``bench/drivers.py`` reads off ``variable`` inside ``function``."""
    with open(os.path.join(BENCH_DIR, "drivers.py"), "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    (body,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function]
    return {
        node.attr
        for node in ast.walk(body)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == variable
    }


def assert_exposes(target, names: set[str]) -> None:
    assert names, "the driver no longer reads this object: update the contract"
    missing = sorted(name for name in names if not hasattr(target, name))
    assert not missing, f"{type(target).__name__} lost {missing}, which bench/drivers.py reads"


def test_batch_results_expose_what_the_driver_reads():
    engine = GPULogEngine(**ENGINE, num_shards=1)
    try:
        engine.add_fact_array("edge", EDGES)
        result = engine.run(SG_SOURCE)
        assert_exposes(engine, attributes_read("batch_unit", "engine"))
        assert_exposes(result, attributes_read("batch_unit", "result"))
        steps = [step for steps in result.iteration_history.values() for step in steps]
        assert steps
        for step in steps:
            assert_exposes(step, attributes_read("history_counts", "s"))
        (device,) = engine.devices
        assert_exposes(device, attributes_read("device_counts", "device") | attributes_read("absorb", "device"))
        assert_exposes(device.profiler, {"phase_summaries", "phase_seconds", "transfer_bytes", "interconnect_bytes"})
        for summary in device.profiler.phase_summaries().values():
            assert_exposes(summary, attributes_read("device_counts", "summary"))
    finally:
        engine.close()


def test_serving_results_expose_what_the_driver_reads():
    engine = ServingEngine(SG_SOURCE, {"edge": EDGES[:-1]}, **ENGINE)
    try:
        assert_exposes(engine, attributes_read("serving_session", "engine") | attributes_read("absorb", "engine"))
        assert_exposes(engine.query("sg"), attributes_read("serving_session", "snapshot"))
        assert_exposes(engine.submit(inserts={"edge": EDGES[-1:]}).result(), attributes_read("serving_session", "result"))
        for relation in engine.relations.values():
            assert_exposes(relation, attributes_read("absorb", "relation") | {"full_count"})
    finally:
        engine.close()


def test_the_parser_sees_the_reads_it_is_meant_to():
    assert {"in_place_merges", "rebuild_merges", "delta_count", "new_count"} <= attributes_read("history_counts", "s")
    assert {"phase_seconds", "iteration_history", "elapsed_seconds"} <= attributes_read("batch_unit", "result")
    with pytest.raises(ValueError):
        attributes_read("no_such_function", "s")
