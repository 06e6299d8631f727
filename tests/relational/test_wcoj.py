"""Unit tests for the columnar generic-join operator (repro.relational.wcoj).

The operator is exercised with plan metadata produced by the real planner
(hand-building ``WCOJLevel``\\ s would just duplicate planner logic), against
a brute-force NumPy oracle.  Engine-level equivalence across planners and
shard counts lives in tests/engines/test_planner_equivalence.py.
"""

import numpy as np

from repro.datalog import analyze_program, parse_program, plan_program
from repro.datalog.planner import COST_WCOJ, WCOJ, version_required_indexes
from repro.device import Device
from repro.relational import ColumnBatch, Relation
from repro.relational.stats import StatsCatalog
from repro.relational.wcoj import generic_join

TRIANGLE = "triangle(x, y, z) :- edge(x, y), edge(y, z), edge(z, x)."


def hub_edges(n=60, extra=120, seed=7):
    rng = np.random.default_rng(seed)
    rows = [(0, v) for v in range(1, n)] + [(v, 0) for v in range(1, n)]
    src = rng.integers(1, n, size=extra)
    dst = rng.integers(1, n, size=extra)
    rows += [(int(a), int(b)) for a, b in zip(src, dst) if a != b]
    return np.unique(np.asarray(rows, dtype=np.int64), axis=0)


def triangle_oracle(edges):
    """All (x, y, z) with edge(x,y), edge(y,z), edge(z,x) — brute force."""
    edge_set = set(map(tuple, edges.tolist()))
    out = set()
    for x, y in edge_set:
        for y2, z in edge_set:
            if y2 == y and (z, x) in edge_set:
                out.add((x, y, z))
    return out


def wcoj_version(edges):
    catalog = StatsCatalog()
    catalog.seed_facts("edge", [edges[:, 0], edges[:, 1]])
    analysis = analyze_program(parse_program(TRIANGLE))
    plan = plan_program(analysis, planner=COST_WCOJ, stats=catalog)
    (rule_plan,) = plan.rule_plans.values()
    version = rule_plan.versions[0]
    assert version.algorithm == WCOJ
    return version


def build_relation(device, edges, version):
    relation = Relation(device, "edge", 2)
    for name, columns in version_required_indexes(version):
        assert name == "edge"
        relation.require_index(columns)
    relation.initialize(edges)
    return relation


def run_generic_join(device, relation, version, outer_rows):
    outer = ColumnBatch.from_rows(device, np.asarray(outer_rows, dtype=np.int64).reshape(-1, 2))
    result = generic_join(
        device,
        outer,
        version.wcoj_levels,
        lambda name, columns: relation.index_for(columns),
    )
    return result


def batch_rows(batch):
    return np.column_stack(
        [np.asarray(batch.column(i, charge=False)) for i in range(batch.arity)]
    )


def test_generic_join_matches_brute_force_oracle():
    edges = hub_edges()
    version = wcoj_version(edges)
    device = Device("h100", oom_enabled=False)
    relation = build_relation(device, edges, version)
    result = run_generic_join(device, relation, version, edges)
    produced = set(map(tuple, batch_rows(result).tolist()))
    assert produced == triangle_oracle(edges)


def test_generic_join_empty_frontier_returns_full_arity_empty_batch():
    edges = hub_edges()
    version = wcoj_version(edges)
    device = Device("h100", oom_enabled=False)
    relation = build_relation(device, edges, version)
    result = run_generic_join(device, relation, version, np.empty((0, 2), dtype=np.int64))
    assert len(result) == 0
    # Arity must still match the decomposed plan's final schema so the
    # head projection downstream never sees a shape mismatch.
    assert result.arity == 2 + len(version.wcoj_levels)


def test_generic_join_frontier_with_no_matches():
    edges = hub_edges()
    version = wcoj_version(edges)
    device = Device("h100", oom_enabled=False)
    relation = build_relation(device, edges, version)
    # Vertices far outside the graph: every probe misses.
    ghost = np.array([[10_000, 10_001], [10_002, 10_003]], dtype=np.int64)
    result = run_generic_join(device, relation, version, ghost)
    assert len(result) == 0
    assert result.arity == 2 + len(version.wcoj_levels)


def test_generic_join_is_deterministic():
    # Same inputs twice → byte-identical output ordering (the argmin
    # tie-break keeps the lowest candidate position, so part order and
    # within-part order are pure functions of the input).
    edges = hub_edges()
    version = wcoj_version(edges)
    runs = []
    for _ in range(2):
        device = Device("h100", oom_enabled=False)
        relation = build_relation(device, edges, version)
        result = run_generic_join(device, relation, version, edges)
        runs.append(batch_rows(result))
    np.testing.assert_array_equal(runs[0], runs[1])


def test_generic_join_charges_deterministic_kernel_names():
    # Every level's work is one fused launch whose name is a pure function
    # of the operator label and level depth — this is the name fault plans
    # target, so it must be stable run to run.
    edges = hub_edges()
    version = wcoj_version(edges)
    device = Device("h100", oom_enabled=False)
    relation = build_relation(device, edges, version)
    before = len(device.profiler.events)
    run_generic_join(device, relation, version, edges)
    kernels = [event.kernel for event in device.profiler.events[before:]]
    assert kernels
    assert all(kernel == "wcoj.l0.intersect_fused" for kernel in kernels)
