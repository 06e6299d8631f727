"""End-to-end tests of the GPUlog engine on the benchmark queries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import GPULogEngine
from repro.device import Device
from repro.queries import CSPA_SOURCE, REACH_SOURCE, SG_SOURCE
from repro.errors import DeviceOutOfMemoryError, SchemaError

from tests.helpers import same_generation, transitive_closure


def run_reach(edges, **kwargs) -> set:
    engine = GPULogEngine(device="h100", **kwargs)
    engine.add_fact_array("edge", np.asarray(edges, dtype=np.int64))
    result = engine.run(REACH_SOURCE)
    engine.close()
    return result


def test_reach_matches_networkx(paper_edges):
    result = run_reach(paper_edges)
    assert result.relation_set("reach") == transitive_closure(paper_edges)


def test_reach_on_random_dag(random_dag_edges):
    result = run_reach(random_dag_edges)
    assert result.relation_set("reach") == transitive_closure(random_dag_edges)


def test_reach_on_cyclic_graph():
    edges = np.array([[0, 1], [1, 2], [2, 0], [2, 3]], dtype=np.int64)
    result = run_reach(edges)
    assert result.relation_set("reach") == transitive_closure(edges)


def test_sg_matches_reference(paper_edges):
    engine = GPULogEngine(device="h100")
    engine.add_fact_array("edge", paper_edges)
    result = engine.run(SG_SOURCE)
    assert result.relation_set("sg") == same_generation(paper_edges)
    engine.close()


def test_sg_on_random_dag(random_dag_edges):
    engine = GPULogEngine(device="h100")
    engine.add_fact_array("edge", random_dag_edges)
    result = engine.run(SG_SOURCE)
    assert result.relation_set("sg") == same_generation(random_dag_edges)
    engine.close()


@pytest.mark.parametrize(
    "source,fact,output", [(REACH_SOURCE, "edge", "reach"), (SG_SOURCE, "edge", "sg")], ids=["reach", "sg"]
)
def test_engine_handles_empty_edb(source, fact, output):
    engine = GPULogEngine(device="h100", oom_enabled=False)
    engine.add_fact_array(fact, np.empty((0, 2), dtype=np.int64))
    result = engine.run(source)
    assert result.count(output) == 0
    engine.close()


def test_sg_fused_plan_same_answer(paper_edges):
    # The fused kernel cannot cross an exchange barrier: the ablation is one
    # shard by construction, whatever REPRO_SHARDS says.
    engine = GPULogEngine(device="h100", materialize_nway=False, num_shards=1)
    engine.add_fact_array("edge", paper_edges)
    result = engine.run(SG_SOURCE)
    assert result.relation_set("sg") == same_generation(paper_edges)
    engine.close()


def test_ebm_does_not_change_results(random_dag_edges):
    eager = run_reach(random_dag_edges, eager_buffers=True)
    normal = run_reach(random_dag_edges, eager_buffers=False)
    assert eager.relation_set("reach") == normal.relation_set("reach")
    assert eager.peak_memory_bytes >= normal.peak_memory_bytes


def test_load_factor_trades_memory_for_probes_not_results(random_dag_edges):
    sparse = run_reach(random_dag_edges, load_factor=0.4)
    dense = run_reach(random_dag_edges, load_factor=0.95)
    assert sparse.relation_set("reach") == dense.relation_set("reach")
    assert sparse.peak_memory_bytes > dense.peak_memory_bytes


def test_cspa_relations_are_consistent():
    assigns = np.array([[1, 0], [2, 1], [3, 2], [5, 4], [6, 5]], dtype=np.int64)
    derefs = np.array([[0, 7], [4, 7], [2, 8], [5, 8]], dtype=np.int64)
    engine = GPULogEngine(device="h100")
    engine.add_fact_array("assign", assigns)
    engine.add_fact_array("dereference", derefs)
    result = engine.run(CSPA_SOURCE)
    vf = result.relation_set("valueflow")
    va = result.relation_set("valuealias")
    # Direct assignments always flow, and every variable flows to itself.
    assert (1, 0) in vf and (1, 1) in vf and (0, 0) in vf
    # ValueAlias is symmetric by construction of its rules.
    assert all((y, x) in va for (x, y) in va)
    engine.close()


def test_string_facts_round_trip():
    engine = GPULogEngine()
    engine.add_facts("edge", [("a", "b"), ("b", "c")])
    result = engine.run(REACH_SOURCE)
    assert ("a", "c") in result.relation_set("reach")
    engine.close()


def test_program_facts_and_api_facts_combine():
    engine = GPULogEngine()
    engine.add_facts("edge", [(1, 2)])
    result = engine.run("edge(2, 3). " + REACH_SOURCE)
    assert result.relation_set("reach") == {(1, 2), (2, 3), (1, 3)}
    engine.close()


def test_result_metadata(paper_edges):
    result = run_reach(paper_edges)
    assert result.total_iterations >= 2
    assert result.elapsed_seconds > 0
    assert result.peak_memory_bytes > 0
    assert result.count("reach") == len(result.relation("reach"))
    assert abs(sum(result.phase_fractions.values()) - 1.0) < 1e-9
    assert result.elapsed_seconds == pytest.approx(result.fixed_seconds + result.variable_seconds)
    assert result.tail_iterations("reach", threshold=1.0) <= result.total_iterations


def test_collect_relations_flag(paper_edges):
    engine = GPULogEngine(device="h100", collect_relations=False)
    engine.add_fact_array("edge", paper_edges)
    result = engine.run(REACH_SOURCE)
    assert result.relation("reach") == []
    assert result.count("reach") == len(transitive_closure(paper_edges))
    engine.close()


def test_inconsistent_fact_arity_rejected():
    engine = GPULogEngine()
    engine.add_facts("edge", [(1, 2)])
    with pytest.raises(SchemaError):
        engine.add_facts("edge", [(1, 2, 3)])


def test_oom_is_raised_with_tiny_memory(paper_edges):
    engine = GPULogEngine(device=Device("h100", memory_capacity_bytes=2048))
    engine.add_fact_array("edge", paper_edges)
    with pytest.raises(DeviceOutOfMemoryError):
        engine.run(REACH_SOURCE)
    # The engine's own capacity keyword caps every shard device it builds.
    with pytest.raises(DeviceOutOfMemoryError):
        run_reach(paper_edges, memory_capacity_bytes=2048, num_shards=2)


def test_idb_facts_seed_the_fixpoint():
    engine = GPULogEngine()
    engine.add_facts("edge", [(1, 2)])
    engine.add_facts("reach", [(10, 11)])
    result = engine.run(REACH_SOURCE)
    assert (10, 11) in result.relation_set("reach")
    engine.close()


@given(
    edges=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=40)
)
@settings(max_examples=25, deadline=None)
def test_reach_property_random_graphs(edges):
    array = np.asarray(edges, dtype=np.int64)
    result = run_reach(array)
    assert result.relation_set("reach") == transitive_closure(array)
