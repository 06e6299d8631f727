"""Integration tests of the paper's headline claims at test scale.

These run the full pipeline (datasets -> engines -> projections) on the small
"test" profile datasets and assert the *directional* claims of the evaluation
section; the bench-profile equivalents live under ``benchmarks/``.
"""

import pytest

from repro.datasets import load_dataset
from repro.engines import (
    CudfLikeEngine,
    GPUJoinEngine,
    GPULogAdapter,
    SouffleCPUEngine,
)
from repro.experiments import run_table1
from repro.queries import CSPA_SOURCE, REACH_SOURCE, SG_SOURCE

from tests.helpers import transitive_closure


PROJECTION_SCALE = 200_000.0


@pytest.fixture(scope="module")
def reach_setup():
    facts = load_dataset("fe_body", profile="test").facts()
    adapter = GPULogAdapter()
    gpulog = adapter.run(REACH_SOURCE, facts)
    return facts, gpulog, adapter.last_result.trace


def test_claim_gpulog_beats_all_baselines_on_reach(reach_setup):
    facts, gpulog_run, trace = reach_setup
    gpulog = gpulog_run.projected_seconds(PROJECTION_SCALE)
    souffle = SouffleCPUEngine().run(REACH_SOURCE, facts, trace=trace).projected_seconds(PROJECTION_SCALE)
    gpujoin = GPUJoinEngine().run(REACH_SOURCE, facts, trace=trace).projected_seconds(PROJECTION_SCALE)
    cudf = CudfLikeEngine().run(REACH_SOURCE, facts, trace=trace).projected_seconds(PROJECTION_SCALE)
    assert gpulog < gpujoin < souffle
    assert gpulog < cudf
    assert souffle / gpulog > 3


def test_claim_gpulog_beats_souffle_on_sg_and_cspa():
    sg_facts = load_dataset("ego-Facebook", profile="test").facts()
    gpulog = GPULogAdapter().run(SG_SOURCE, sg_facts).projected_seconds(PROJECTION_SCALE)
    souffle = SouffleCPUEngine().run(SG_SOURCE, sg_facts).projected_seconds(PROJECTION_SCALE)
    assert souffle / gpulog > 3

    cspa_facts = load_dataset("linux", profile="test").facts()
    gpulog_cspa = GPULogAdapter().run(CSPA_SOURCE, cspa_facts).projected_seconds(PROJECTION_SCALE)
    souffle_cspa = SouffleCPUEngine().run(CSPA_SOURCE, cspa_facts).projected_seconds(PROJECTION_SCALE)
    assert souffle_cspa / gpulog_cspa > 3


def test_claim_ebm_faster_and_memory_hungrier():
    table = run_table1(datasets=("usroads",), profile="test")
    row = table.rows[0]
    normal_seconds, eager_seconds = float(row[3]), float(row[4])
    memory_ratio = float(row[8].rstrip("x"))
    assert eager_seconds < normal_seconds
    assert memory_ratio >= 1.0


def test_claim_all_engines_produce_identical_relations():
    """Against the reference closure: a baseline's relations are GPUlog's own."""
    facts = load_dataset("Gnutella31", profile="test").facts()
    expected = transitive_closure(facts["edge"])
    for engine_cls in (GPULogAdapter, SouffleCPUEngine, GPUJoinEngine, CudfLikeEngine):
        run = engine_cls().run(REACH_SOURCE, facts, collect_relations=True)
        assert run.ok
        assert run.relations["reach"] == expected, engine_cls.__name__
