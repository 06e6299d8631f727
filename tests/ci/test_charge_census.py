"""Every ``charge=False`` in ``src/`` is written down here, with its reason.

``charge=False`` asks a kernel to do its array work without advancing the
simulated clock.  That is right for introspection and for work another charge
already covers, and wrong everywhere else — it is how work escapes the cost
model (ROADMAP aim 3).  The call sites are found by parsing, not executing,
and pinned as a literal: a new one is a deliberate edit of this file that says
why the work is free.  PR 22 took the list from six to four (the cached
row view of a delta and the fused n-way join's index probes went with the row
route), and the serving commit record took it to three: the rollback baseline
is the checkpoint chain, whose download is charged once.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro")

#: (file under src/repro, enclosing function, callee) -> why nothing is charged
UNCHARGED = {
    ("relational/relation.py", "as_set", "full_rows_host"): "test introspection of the full version",
    ("relational/sharded.py", "as_set", "full_rows_host"): "test introspection of the full version",
    ("datalog/seminaive.py", "_initial_rows", "columns"): (
        "a degraded re-execution slices the scan's stored columns, which are already materialized"
    ),
}


def uncharged_calls() -> set[tuple[str, str, str]]:
    found = set()
    for directory, _subdirectories, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            relative = os.path.relpath(path, SRC).replace(os.sep, "/")
            for function in ast.walk(tree):
                if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(function):
                    if isinstance(node, ast.Call) and any(
                        keyword.arg == "charge"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is False
                        for keyword in node.keywords
                    ):
                        callee = node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
                        found.add((relative, function.name, callee))
    return found


def test_every_uncharged_call_is_listed_with_a_reason():
    assert uncharged_calls() == set(UNCHARGED)
    assert len(UNCHARGED) <= 3
    assert all(reason for reason in UNCHARGED.values())
