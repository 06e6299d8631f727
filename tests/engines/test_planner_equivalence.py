"""Planner ablation equivalence: greedy vs cost vs cost+wcoj, sharded or not.

The planner changes *which kernels run*, never *what is derived*: every
workload below (the three paper queries plus the cyclic triangle / 4-clique
patterns) must produce byte-identical relations across the full
planner × shard-count matrix.  A hypothesis property drives the WCOJ path
against the binary-join oracle on random cyclic inputs.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.engine import PLANNER_ENV_VAR, GPULogEngine
from repro.datalog.planner import PLANNERS
from repro.errors import SchemaError
from repro.queries import CSPA_SOURCE, REACH_SOURCE, SG_SOURCE

TRIANGLE_SOURCE = "triangle(x, y, z) :- edge(x, y), edge(y, z), edge(z, x)."
CLIQUE4_SOURCE = (
    "clique4(x, y, z, w) :- edge(x, y), edge(y, z), edge(z, x), "
    "edge(x, w), edge(y, w), edge(z, w)."
)

SHARD_COUNTS = [1, 2, 4]


def hub_edges(n=40, extra=80, seed=11):
    rng = np.random.default_rng(seed)
    rows = [(0, v) for v in range(1, n)] + [(v, 0) for v in range(1, n)]
    src = rng.integers(1, n, size=extra)
    dst = rng.integers(1, n, size=extra)
    rows += [(int(a), int(b)) for a, b in zip(src, dst) if a != b]
    return np.unique(np.asarray(rows, dtype=np.int64), axis=0)


def run_engine(source, facts, outputs, *, planner="greedy", num_shards=1, **kwargs):
    engine = GPULogEngine(
        device="h100", oom_enabled=False, planner=planner, num_shards=num_shards, **kwargs
    )
    for name, rows in facts.items():
        engine.add_fact_array(name, np.asarray(rows, dtype=np.int64))
    result = engine.run(source)
    relations = {name: result.relation_set(name) for name in outputs}
    engine.close()
    return result, relations, engine


def cspa_facts():
    rng = np.random.default_rng(42)
    return {
        "assign": rng.integers(0, 24, size=(60, 2), dtype=np.int64),
        "dereference": rng.integers(0, 24, size=(40, 2), dtype=np.int64),
    }


# ----------------------------------------------------------------------
# The equivalence matrix: workload × planner × shard count
# ----------------------------------------------------------------------

WORKLOADS = [
    pytest.param(REACH_SOURCE, {"edge": "hub"}, "reach", id="tc"),
    pytest.param(SG_SOURCE, {"edge": "hub"}, "sg", id="sg"),
    pytest.param(CSPA_SOURCE, "cspa", "valueflow", id="cspa"),
    pytest.param(TRIANGLE_SOURCE, {"edge": "hub"}, "triangle", id="triangle"),
    pytest.param(CLIQUE4_SOURCE, {"edge": "hub"}, "clique4", id="clique4"),
]


def workload_facts(spec):
    if spec == "cspa":
        return cspa_facts()
    return {name: hub_edges() for name in spec}


@pytest.mark.parametrize("source,fact_spec,output", WORKLOADS)
@pytest.mark.parametrize("planner", PLANNERS)
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_planner_shard_matrix_is_equivalent(source, fact_spec, output, planner, num_shards):
    facts = workload_facts(fact_spec)
    _, expected, _ = run_engine(source, facts, [output])
    _, relations, _ = run_engine(
        source, facts, [output], planner=planner, num_shards=num_shards
    )
    assert relations[output] == expected[output]
    assert relations[output]  # non-vacuous: the workload derives something


def test_cost_wcoj_actually_selects_wcoj_on_triangle():
    facts = {"edge": hub_edges()}
    result, _, _ = run_engine(TRIANGLE_SOURCE, facts, ["triangle"], planner="cost+wcoj")
    algorithms = {entry["algorithm"] for entry in result.plan_report}
    assert "wcoj" in algorithms
    assert result.planner == "cost+wcoj"


def test_greedy_plan_report_reflects_greedy():
    result, _, _ = run_engine(TRIANGLE_SOURCE, {"edge": hub_edges()}, ["triangle"])
    assert result.planner == "greedy"
    assert all(entry["algorithm"] == "binary" for entry in result.plan_report)
    assert all(entry["planner"] == "greedy" for entry in result.plan_report)


def test_plan_report_joins_observed_rows():
    result, _, _ = run_engine(
        TRIANGLE_SOURCE, {"edge": hub_edges()}, ["triangle"], planner="cost+wcoj"
    )
    (entry,) = [e for e in result.plan_report if e["head"] == "triangle"]
    assert entry["observed_rows"] == result.count("triangle")
    assert entry["executions"] >= 1
    assert entry["estimated_rows"] is not None


# ----------------------------------------------------------------------
# Hypothesis property: WCOJ vs the binary-join oracle on random inputs
# ----------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
        min_size=1,
        max_size=60,
    ),
    seed=st.integers(0, 2**16),
)
def test_wcoj_matches_binary_oracle_on_random_cyclic_inputs(edges, seed):
    rng = np.random.default_rng(seed)
    rows = np.unique(np.asarray(edges, dtype=np.int64), axis=0)
    # Bias some runs toward skew so the planner actually picks WCOJ on a
    # subset of examples (uniform inputs legitimately stay binary).
    if rng.integers(0, 2):
        hub = np.column_stack(
            [np.zeros(13, dtype=np.int64), np.arange(13, dtype=np.int64)]
        )
        rows = np.unique(np.concatenate([rows, hub, hub[:, ::-1]]), axis=0)
    facts = {"edge": rows}
    _, oracle, _ = run_engine(TRIANGLE_SOURCE, facts, ["triangle"], planner="greedy")
    _, wcoj, _ = run_engine(TRIANGLE_SOURCE, facts, ["triangle"], planner="cost+wcoj")
    assert wcoj["triangle"] == oracle["triangle"]


# ----------------------------------------------------------------------
# Engine surface: env var default, validation, explain()
# ----------------------------------------------------------------------

def test_planner_env_var_sets_default(monkeypatch):
    monkeypatch.setenv(PLANNER_ENV_VAR, "cost+wcoj")
    engine = GPULogEngine(device="h100", oom_enabled=False)
    assert engine.planner == "cost+wcoj"
    engine.close()
    monkeypatch.delenv(PLANNER_ENV_VAR)
    engine = GPULogEngine(device="h100", oom_enabled=False)
    assert engine.planner == "greedy"
    engine.close()


def test_explicit_planner_overrides_env(monkeypatch):
    monkeypatch.setenv(PLANNER_ENV_VAR, "cost+wcoj")
    engine = GPULogEngine(device="h100", oom_enabled=False, planner="greedy")
    assert engine.planner == "greedy"
    engine.close()


def test_invalid_planner_rejected():
    with pytest.raises(SchemaError, match=r"unknown planner 'magic'; expected one of greedy, cost\+wcoj$"):
        GPULogEngine(device="h100", oom_enabled=False, planner="magic")


@pytest.mark.parametrize("setter", ["keyword", "env"])
def test_retired_cost_planner_rejected(monkeypatch, setter):
    # "cost" was a mode once: set directly or through the environment it
    # fails like any unknown name, and the error names the two modes.
    kwargs = {"planner": "cost"} if setter == "keyword" else {}
    if setter == "env":
        monkeypatch.setenv(PLANNER_ENV_VAR, "cost")
    with pytest.raises(SchemaError, match=r"unknown planner 'cost'; expected one of greedy, cost\+wcoj$"):
        GPULogEngine(device="h100", oom_enabled=False, **kwargs)


def test_explain_before_any_run():
    engine = GPULogEngine(device="h100", oom_enabled=False)
    assert "no run" in engine.explain()
    engine.close()


def test_explain_dumps_orders_and_cardinalities():
    engine = GPULogEngine(device="h100", oom_enabled=False, planner="cost+wcoj", num_shards=1)
    engine.add_fact_array("edge", hub_edges())
    result = engine.run(TRIANGLE_SOURCE)
    dump = engine.explain()
    engine.close()
    assert "planner=cost+wcoj" in dump
    assert "algorithm=wcoj" in dump
    assert "observed_rows=" in dump
    assert str(result.count("triangle")) in dump


@pytest.mark.parametrize("num_shards", [1, 2])
def test_explain_reports_the_algorithm_that_executed(num_shards):
    """The generic join is single-device: with more than one shard a WCOJ
    version executes as binary exchange steps, and the report must say so —
    with the same observations (summed over shards) either way."""
    engine = GPULogEngine(
        device="h100", oom_enabled=False, planner="cost+wcoj", num_shards=num_shards
    )
    engine.add_fact_array("edge", hub_edges())
    result = engine.run(TRIANGLE_SOURCE)
    dump = engine.explain()
    engine.close()
    (entry,) = [e for e in result.plan_report if e["head"] == "triangle"]
    assert result.count("triangle") > 0
    assert entry["planned_algorithm"] == "wcoj"
    assert entry["observed_rows"] == result.count("triangle") and entry["executions"] == 1
    assert f"observed_rows={result.count('triangle')} executions=1" in dump and "n/a" not in dump
    if num_shards == 1:
        assert entry["algorithm"] == "wcoj"
        assert "planned=" not in dump
    else:
        assert entry["algorithm"] == "binary"
        assert "algorithm=binary planned=wcoj (generic join is single-device)" in dump
