"""One tuple representation on the device: a ``ColumnBatch``.

A bare ``(n, arity)`` array is host data, a ``ColumnBatch`` is device data, and
nothing else exists (PR 22 deleted the row-major route: the ``RowsLike`` union
the operators accepted, the ``device_resident=`` flag that told a host array
from a device one, ``ColumnBatch.wrap`` and the row kernels).  These checks
read ``src/repro`` rather than run it, so the fork cannot come back one
``isinstance`` at a time.

The same goes for the fixpoint loop: there is one, and the comparison
baselines are cost models over the trace it records, not evaluators.  And for
the serving engine's record of its last commit: there is one, the checkpoint
chain, which is also its rollback baseline.
"""

import ast
import os
import re

from repro.device.kernels import DeviceKernels

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro")

#: where a host array may meet a batch: the two methods that accept either
HOST_INGEST_POINTS = {("relation.py", "initialize"), ("relation.py", "add_new")}


def sources(subdirectory: str = ""):
    for directory, _subdirectories, files in os.walk(os.path.join(SRC, subdirectory)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    yield os.path.relpath(path, SRC), handle.read()


def test_the_row_route_is_not_spelled_anywhere():
    gone = re.compile(r"RowsLike|device_resident|ColumnBatch\.wrap|_delta_rows_view")
    hits = [f"{path}:{number}" for path, text in sources() for number, line in enumerate(text.splitlines(), 1)
            if gone.search(line)]
    assert hits == []


def test_no_device_kernel_works_on_row_arrays():
    assert [name for name in vars(DeviceKernels) if name.endswith("_rows")] == []


def test_the_second_evaluator_is_not_spelled_anywhere():
    """One semi-naïve loop: the baselines' host evaluator and its helpers are gone."""
    gone = re.compile(r"InstrumentedEvaluator|_HostRelation|row_search_bounds|evaluate_program")
    hits = [f"{path}:{number}" for path, text in sources() for number, line in enumerate(text.splitlines(), 1)
            if gone.search(line)]
    assert hits == []


def test_the_second_commit_record_is_not_spelled_anywhere():
    """One commit record: the per-commit host copy and what fed on it are
    gone, and reads take appended rows from the record, not a second D2H."""
    gone = re.compile(
        r"\b(_epoch_states|_capture|_row_marks|_charge_checkpoint_io|checkpoint_every_epochs|appended_rows_host)\b"
    )
    hits = [f"{path}:{number}" for path, text in sources() for number, line in enumerate(text.splitlines(), 1)
            if gone.search(line)]
    assert hits == []


def test_the_baselines_only_price_a_trace():
    """``repro.engines`` sorts, searches and iterates nothing: it prices the
    trace the fixpoint driver records."""
    evaluating = {"lexsort", "searchsorted", "end_iteration"}
    hits = []
    for path, text in sources("engines"):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                function = node.func
                name = function.attr if isinstance(function, ast.Attribute) else getattr(function, "id", "")
                if name in evaluating:
                    hits.append(f"{path}:{node.lineno} {name}")
    assert hits == []


def test_a_batch_is_told_from_a_host_array_only_at_the_two_ingest_points():
    found = set()
    for path, text in sources("relational"):
        for function in ast.walk(ast.parse(text)):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and "ColumnBatch" in ast.unparse(node.args[1])
                ):
                    found.add((os.path.basename(path), function.name))
    assert found == HOST_INGEST_POINTS
