"""Every constructor option is written down here, and every one has a caller.

The three facades below are where a user sets options.  Their keyword sets
are pinned as literals, so adding a knob is a deliberate edit of this file —
and it needs a caller: a keyword nobody sets in ``src/repro/experiments``,
``bench/``, ``examples/`` or ``tests/`` fails the census (PR 21 deleted
fifteen that had gone unset).  Call sites are parsed, not executed, the way
``test_bench_contract.py`` reads ``bench/drivers.py``: a setter is ``k=`` in a
call of the class, in a call of a same-file helper that forwards its
``**kwargs`` to the class, or a string key of a dict spread into either.
"""

import ast
import functools
import inspect
import os
from collections import defaultdict

import pytest

from repro import GPULogEngine
from repro.datalog.engine import PLANNER_ENV_VAR
from repro.datalog.planner import COST_WCOJ, GREEDY, PLANNERS
from repro.engines.gpulog import GPULogAdapter
from repro.serving import ServingEngine

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
SCANNED = ("src/repro/experiments", "bench", "examples", "tests")

#: class -> (its public keywords, the names it is constructed through)
CENSUS = {
    GPULogEngine: (
        {
            "device", "memory_capacity_bytes", "oom_enabled", "eager_buffers", "load_factor", "materialize_nway",
            "collect_relations", "backend", "num_shards", "checkpoint_every", "checkpoint_store", "max_retries",
            "fault_plan", "overlap", "replicate_max_bytes", "planner",
        },
        {"GPULogEngine"},
    ),
    ServingEngine: (
        {
            "device", "num_shards", "planner", "backend", "fault_plan", "cache", "background", "wal",
            "checkpoint_store", "max_pending", "admission_policy", "admission_timeout",
            "overload_threshold", "coalesce_window", "max_coalesce_window",
        },
        {"ServingEngine", "recover", "recover_engine"},
    ),
    GPULogAdapter: (
        {
            "device", "memory_capacity_bytes", "eager_buffers", "load_factor", "materialize_nway", "backend",
            "num_shards", "planner",
        },
        {"GPULogAdapter"},
    ),
}
#: what a serving engine passes to the batch engine it boots through
SERVING_ENGINE_KEYWORDS = {"device", "num_shards", "planner", "backend", "fault_plan"}


def keywords(cls) -> dict[str, object]:
    parameters = inspect.signature(cls.__init__).parameters.values()
    return {
        p.name: p.default
        for p in parameters
        if (p.kind is p.KEYWORD_ONLY or p.name == "device") and not p.name.startswith("_")
    }


def terminal(node) -> str | None:
    return getattr(node, "id", None) or getattr(node, "attr", None)


@functools.cache
def scanned_trees() -> dict[str, ast.Module]:
    trees = {}
    for directory in SCANNED:
        for folder, _, files in os.walk(os.path.join(ROOT, directory)):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    with open(path, "r", encoding="utf-8") as handle:
                        trees[path] = ast.parse(handle.read())
    return trees


def dict_keys(tree: ast.Module) -> dict[str, set[str]]:
    """String keys put into a dict, by the name the dict is bound to:
    ``n = {"k": ..}``, ``f(n={"k": ..})``, ``n["k"] = ..``, ``n.setdefault("k", ..)``."""
    bound: dict[str, set[str]] = defaultdict(set)

    def bind(name: str | None, keys) -> None:
        if name:
            bound[name] |= {key.value for key in keys if isinstance(key, ast.Constant)}

    for node in ast.walk(tree):
        value = getattr(node, "value", None)
        if isinstance(value, ast.Dict):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    bind(terminal(target), value.keys)
            elif isinstance(node, (ast.AnnAssign, ast.keyword)):
                bind(terminal(node.target) if isinstance(node, ast.AnnAssign) else node.arg, value.keys)
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            bind(terminal(node.value), [node.slice])
        if isinstance(node, ast.Call) and terminal(node.func) == "setdefault":
            bind(terminal(node.func.value), node.args[:1])
    return bound


def setters(callees: set[str], trees: dict[str, ast.Module]) -> set[str]:
    keys = {path: dict_keys(tree) for path, tree in trees.items()}
    everywhere: dict[str, set[str]] = defaultdict(set)
    for bound in keys.values():
        for name, found in bound.items():
            everywhere[name] |= found
    found: set[str] = set()
    for path, tree in trees.items():
        names = set(callees)
        for function in ast.walk(tree):  # same-file helpers that forward **kwargs to the class
            if isinstance(function, ast.FunctionDef) and function.args.kwarg is not None:
                spread = function.args.kwarg.arg
                names |= {
                    function.name
                    for call in ast.walk(function)
                    if isinstance(call, ast.Call) and terminal(call.func) in callees
                    and any(k.arg is None and terminal(k.value) == spread for k in call.keywords)
                }
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and terminal(call.func) in names:
                for keyword in call.keywords:
                    if keyword.arg is not None:
                        found.add(keyword.arg)
                    else:  # **local_dict is looked up in this file, **module.DICT everywhere
                        scope = keys[path] if isinstance(keyword.value, ast.Name) else everywhere
                        found |= scope.get(terminal(keyword.value), set())
    return found


@pytest.mark.parametrize("cls", CENSUS, ids=lambda cls: cls.__name__)
def test_keyword_sets_are_the_pinned_ones(cls):
    assert set(keywords(cls)) == CENSUS[cls][0]


def test_serving_takes_its_engine_keywords_from_the_batch_engine():
    serving, batch = keywords(ServingEngine), keywords(GPULogEngine)
    assert SERVING_ENGINE_KEYWORDS <= set(serving)
    assert {name: serving[name] for name in SERVING_ENGINE_KEYWORDS} == {
        name: batch[name] for name in SERVING_ENGINE_KEYWORDS
    }


@pytest.mark.parametrize("cls", CENSUS, ids=lambda cls: cls.__name__)
def test_every_keyword_has_a_setter(cls):
    pinned, callees = CENSUS[cls]
    unset = pinned - setters(callees, scanned_trees())
    assert not unset, f"no caller sets {cls.__name__}({', '.join(sorted(unset))}=...): delete the option or use it"


def test_the_parser_sees_the_setters_it_is_meant_to():
    found = setters({"ServingEngine"}, scanned_trees())
    assert {"background", "wal"} <= found  # k= in a direct call
    assert {"max_pending", "admission_policy"} <= found  # through tests/serving's make_engine(**kwargs)
    assert {"device", "backend"} <= found  # **workloads.ENGINE in bench/drivers.py
    assert "transactional" not in found and "program" not in found


def test_each_planner_mode_has_a_user_outside_the_tests(monkeypatch):
    """The planner's values are pinned too: a third mode is a deliberate edit
    of this file, and each mode needs a user."""
    assert PLANNERS == (GREEDY, COST_WCOJ) == ("greedy", "cost+wcoj")
    # greedy is what an engine plans with when nothing sets the planner
    monkeypatch.delenv(PLANNER_ENV_VAR, raising=False)
    assert keywords(GPULogEngine)["planner"] is None
    engine = GPULogEngine(device="h100")
    assert engine.planner == GREEDY
    engine.close()
    # cost+wcoj is set by the benchmark's triangle workload and by the
    # planner experiments
    for path in ("bench/workloads.py", "src/repro/experiments/planner_bench.py"):
        tree = scanned_trees()[os.path.join(ROOT, path)]
        assert any(isinstance(node, ast.Constant) and node.value == COST_WCOJ for node in ast.walk(tree)), path
