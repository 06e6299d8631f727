"""The top rungs of the REACH scale ladder, gated on the simulated clock (slow).

A road network's REACH runs hundreds of iterations with tiny deltas (the
long tail of the paper's Figure 1); a scale-free graph's runs a few with
large ones.  Each is held to the simulated seconds it took before the
all-column index stopped keeping hash tables and tail iterations became one
launch — 43.68 ms and 6.06 ms on ``h100`` — and to its exact answer.  Run
with ``python -m pytest -m slow tests/experiments``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import GPULogEngine
from repro.datasets import road_network, scale_free_graph
from repro.queries import REACH_SOURCE

pytestmark = pytest.mark.slow


@pytest.mark.parametrize(
    "make_graph,reach,iterations,ceiling_seconds",
    [
        (lambda: road_network(500, 5), 1_876_250, 490, 43.68e-3),
        (lambda: scale_free_graph(6000, 5), 1_839_259, 19, 6.06e-3),
    ],
    ids=["road_network-500x5", "scale_free_graph-6000x5"],
)
def test_reach_ladder_top_stays_under_its_simulated_ceiling(make_graph, reach, iterations, ceiling_seconds):
    engine = GPULogEngine(
        device="h100", oom_enabled=False, collect_relations=False, fault_plan="none", num_shards=1
    )
    try:
        engine.add_fact_array("edge", np.asarray(make_graph().edges, dtype=np.int64))
        result = engine.run(REACH_SOURCE)
    finally:
        engine.close()
    assert result.count("reach") == reach
    assert result.total_iterations == iterations
    assert result.elapsed_seconds <= ceiling_seconds
