"""Cross-engine consistency and cost/memory model behaviour of the baselines."""

import numpy as np
import pytest

from repro.datalog.engine import PLANNER_ENV_VAR, SHARDS_ENV_VAR
from repro.engines import (
    CudfLikeEngine,
    GPUJoinEngine,
    GPULogAdapter,
    SouffleCPUEngine,
    STATUS_OK,
    STATUS_OOM,
    STATUS_UNSUPPORTED,
)
from repro.queries import CSPA_SOURCE, REACH_SOURCE, SG_SOURCE
from repro.datasets import load_dataset

from tests.helpers import naive_datalog, same_generation, transitive_closure


ALL_ENGINES = [GPULogAdapter, SouffleCPUEngine, GPUJoinEngine, CudfLikeEngine]


@pytest.fixture(scope="module")
def reach_facts():
    dataset = load_dataset("SF.cedge", profile="test")
    return dataset.facts()


def test_all_engines_agree_on_reach(reach_facts):
    expected = transitive_closure(reach_facts["edge"])
    for engine_cls in ALL_ENGINES:
        result = engine_cls().run(REACH_SOURCE, reach_facts, collect_relations=True)
        assert result.status == STATUS_OK, engine_cls
        assert result.relations["reach"] == expected, engine_cls
        assert result.relation_counts["reach"] == len(expected)
        assert result.seconds > 0


def test_engines_agree_on_sg(paper_edges):
    facts = {"edge": paper_edges}
    expected = same_generation(paper_edges)
    for engine_cls in (GPULogAdapter, SouffleCPUEngine, CudfLikeEngine):
        result = engine_cls().run(SG_SOURCE, facts, collect_relations=True)
        assert result.relations["sg"] == expected, engine_cls


def test_engines_agree_on_cspa():
    """Against the naive oracle: a baseline's relations are GPUlog's own, so
    comparing the two with each other would prove nothing."""
    rng = np.random.default_rng(42)
    facts = {
        "assign": rng.integers(0, 24, size=(60, 2), dtype=np.int64),
        "dereference": rng.integers(0, 24, size=(40, 2), dtype=np.int64),
    }
    expected = naive_datalog(CSPA_SOURCE, facts)
    for engine_cls in (GPULogAdapter, SouffleCPUEngine):
        result = engine_cls().run(CSPA_SOURCE, facts, collect_relations=True)
        for relation in ("valueflow", "valuealias", "memalias"):
            assert result.relations[relation] == expected[relation], (engine_cls, relation)


def test_gpujoin_rejects_nway_join(paper_edges):
    result = GPUJoinEngine().run(SG_SOURCE, {"edge": paper_edges})
    assert result.status == STATUS_UNSUPPORTED


def test_gpujoin_and_cudf_oom_with_tiny_capacity(reach_facts):
    for engine_cls in (GPUJoinEngine, CudfLikeEngine):
        result = engine_cls(memory_capacity_bytes=50_000).run(REACH_SOURCE, reach_facts)
        assert result.status == STATUS_OOM
        assert result.oom
        assert result.display_time() == "OOM"


def test_gpulog_adapter_oom_is_a_status_not_a_crash(reach_facts):
    result = GPULogAdapter(memory_capacity_bytes=50_000).run(REACH_SOURCE, reach_facts)
    assert result.status == STATUS_OOM
    assert result.peak_memory_bytes <= 50_000


#: every ablation the adapter forwards to the engine, written as the call a user makes
ABLATED = {
    "eager_buffers": lambda: GPULogAdapter(eager_buffers=False),
    "load_factor": lambda: GPULogAdapter(load_factor=0.5),
    "materialize_nway": lambda: GPULogAdapter(materialize_nway=False),
    "planner": lambda: GPULogAdapter(planner="cost+wcoj"),
    "backend": lambda: GPULogAdapter(backend="guard"),
}


@pytest.mark.parametrize("option", sorted(ABLATED))
def test_gpulog_adapter_options_reach_the_engine(monkeypatch, paper_edges, option):
    """Each option changes how SG is evaluated (clock or memory), not what it is."""
    monkeypatch.setenv(SHARDS_ENV_VAR, "1")
    monkeypatch.delenv(PLANNER_ENV_VAR, raising=False)
    facts = {"edge": paper_edges}
    default = GPULogAdapter().run(SG_SOURCE, facts, collect_relations=True)
    adapter = ABLATED[option]()
    result = adapter.run(SG_SOURCE, facts, collect_relations=True)
    assert result.status == STATUS_OK
    assert result.relations["sg"] == default.relations["sg"] == same_generation(paper_edges)
    assert adapter.last_result.planner == ("cost+wcoj" if option == "planner" else "greedy")
    if option not in ("backend", "planner"):
        assert (result.seconds, result.peak_memory_bytes) != (default.seconds, default.peak_memory_bytes)


def test_gpulog_is_fastest_projected(reach_facts):
    """At paper scale GPUlog must beat every baseline that completes."""
    scale = 200_000.0
    adapter = GPULogAdapter()
    gpulog = adapter.run(REACH_SOURCE, reach_facts)
    trace = adapter.last_result.trace
    souffle = SouffleCPUEngine().run(REACH_SOURCE, reach_facts, trace=trace)
    gpujoin = GPUJoinEngine().run(REACH_SOURCE, reach_facts, trace=trace)
    cudf = CudfLikeEngine().run(REACH_SOURCE, reach_facts, trace=trace)
    gpulog_projected = gpulog.projected_seconds(scale)
    assert souffle.projected_seconds(scale) > gpulog_projected
    assert gpujoin.projected_seconds(scale) > gpulog_projected
    assert cudf.projected_seconds(scale) > gpulog_projected


def test_souffle_insert_phase_dominates(reach_facts):
    engine = SouffleCPUEngine()
    adapter = GPULogAdapter()
    adapter.run(REACH_SOURCE, reach_facts)
    breakdown = engine.breakdown(adapter.last_result.trace)
    assert breakdown["insert"] > breakdown["join"]
    assert breakdown["insert"] + breakdown["join"] == pytest.approx(1.0)


def test_precomputed_trace_matches_internal_evaluation(reach_facts):
    adapter = GPULogAdapter()
    adapter.run(REACH_SOURCE, reach_facts)
    trace = adapter.last_result.trace
    with_trace = SouffleCPUEngine().run(REACH_SOURCE, reach_facts, trace=trace)
    without = SouffleCPUEngine().run(REACH_SOURCE, reach_facts)
    assert with_trace.seconds == pytest.approx(without.seconds)


def test_projection_helpers():
    result = GPULogAdapter().run(REACH_SOURCE, {"edge": np.array([[0, 1], [1, 2]], dtype=np.int64)})
    assert result.projected_seconds(1.0) == pytest.approx(result.fixed_seconds + result.variable_seconds)
    assert result.projected_seconds(10.0) > result.projected_seconds(1.0)
    assert result.projected_memory_bytes(10) == result.peak_memory_bytes * 10
