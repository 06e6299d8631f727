"""Join ordering, WCOJ plan selection, and plan introspection.

Covers the two planner modes: the body order's documented deterministic
tie-break (shared by both), the estimates ``cost+wcoj`` records per step,
its worst-case-vs-worst-case trigger for cyclic rules,
and the liveness analysis over every version shape the exchange layer can
see (zero-join versions, constant-only heads, filter-only rules, decomposed
WCOJ steps).
"""

import numpy as np
import pytest

from repro.datalog import analyze_program, parse_program, plan_program
from repro.datalog.planner import (
    BINARY,
    COST_WCOJ,
    GREEDY,
    WCOJ,
    Planner,
    version_required_indexes,
)
from repro.errors import PlanningError
from repro.queries import CSPA_SOURCE, REACH_SOURCE, SG_SOURCE
from repro.relational.stats import StatsCatalog

TRIANGLE = "triangle(x, y, z) :- edge(x, y), edge(y, z), edge(z, x)."
CLIQUE4 = (
    "clique4(x, y, z, w) :- edge(x, y), edge(y, z), edge(z, x), "
    "edge(x, w), edge(y, w), edge(z, w)."
)


def analyzed(source):
    return analyze_program(parse_program(source))


def only_version(plan):
    (rule_plan,) = plan.rule_plans.values()
    assert len(rule_plan.versions) == 1
    return rule_plan.versions[0]


def hub_catalog_columns(n=1000):
    """Edge columns of a hub graph: one vertex on the end of ~every edge."""
    src = np.concatenate([np.zeros(n, dtype=np.int64), np.arange(1, n + 1)])
    dst = np.concatenate([np.arange(1, n + 1), np.zeros(n, dtype=np.int64)])
    return [src, dst]


def hub_catalog(n=1000):
    """Stats of a hub graph: one vertex on the end of ~every edge."""
    catalog = StatsCatalog()
    catalog.seed_facts("edge", hub_catalog_columns(n))
    return catalog


# ----------------------------------------------------------------------
# Greedy baseline: deterministic tie-break (the ablation anchor)
# ----------------------------------------------------------------------

def test_greedy_order_breaks_ties_by_lowest_body_position():
    # From delta atom 0 of the triangle rule, both remaining atoms connect
    # immediately; the documented tie-break appends the lower body position.
    analysis = analyzed(TRIANGLE)
    plan = plan_program(analysis, planner=GREEDY)
    for rule_plan in plan.rule_plans.values():
        for version in rule_plan.versions:
            outer = version.atom_order[0]
            rest = [i for i in range(3) if i != outer]
            assert version.atom_order == (outer, *rest)


def test_greedy_order_is_reproducible():
    # The greedy plan must be a pure function of the rule text: planning
    # the same program again yields byte-identical orders (regression for the
    # planner ablation baseline drifting with dict iteration order).
    orders = []
    for _ in range(3):
        plan = plan_program(analyzed(CLIQUE4), planner=GREEDY)
        orders.append(
            tuple(
                version.atom_order
                for rule_plan in plan.rule_plans.values()
                for version in rule_plan.versions
            )
        )
    assert orders[0] == orders[1] == orders[2]


def test_greedy_ignores_stats():
    with_stats = plan_program(analyzed(TRIANGLE), planner=GREEDY, stats=hub_catalog())
    without = plan_program(analyzed(TRIANGLE), planner=GREEDY)
    assert [v.atom_order for p in with_stats.rule_plans.values() for v in p.versions] == [
        v.atom_order for p in without.rule_plans.values() for v in p.versions
    ]


# ----------------------------------------------------------------------
# cost+wcoj: the body order, with estimates from the catalog
# ----------------------------------------------------------------------

def test_cost_wcoj_keeps_the_body_order_on_binary_versions():
    # small(x) has 2 rows and big(y) 1000, yet the version joins in the
    # body order: the catalog only decides binary vs generic join.
    source = "out(x, y) :- link(x, y), big(y, q), small(x)."
    catalog = StatsCatalog()
    catalog.seed_facts("link", [np.arange(100), np.arange(100)])
    catalog.seed_facts("big", [np.arange(1000) % 37, np.arange(1000)])
    catalog.seed_facts("small", [np.arange(2)])
    version = only_version(plan_program(analyzed(source), planner=COST_WCOJ, stats=catalog))
    greedy = only_version(plan_program(analyzed(source), planner=GREEDY))
    assert version.algorithm == BINARY
    assert version.atom_order == greedy.atom_order == (0, 1, 2)
    assert version.estimated_rows is not None


def test_cost_wcoj_records_estimates_per_step():
    src = np.arange(1000, dtype=np.int64)
    catalog = StatsCatalog()
    catalog.seed_facts("edge", [src, (src * 7 + 3) % 1000])
    plan = plan_program(analyzed(TRIANGLE), planner=COST_WCOJ, stats=catalog)
    for rule_plan in plan.rule_plans.values():
        for version in rule_plan.versions:
            assert version.algorithm == BINARY
            assert len(version.estimated_step_rows) == len(version.atom_order)
            assert version.estimated_rows == version.estimated_step_rows[-1]


def test_cost_wcoj_without_catalog_plans_the_body_order():
    # No stats supplied: the planner reads an empty catalog, where no key is
    # hot, so the 4-clique stays a binary plan in the body order.
    version = only_version(plan_program(analyzed(CLIQUE4), planner=COST_WCOJ))
    assert version.algorithm == BINARY
    assert version.atom_order == (0, 1, 2, 3, 4, 5)


BODY_ORDER_PROGRAMS = [
    pytest.param(SG_SOURCE, id="sg"),
    pytest.param(REACH_SOURCE, id="tc"),
    pytest.param(CSPA_SOURCE, id="cspa"),
    pytest.param(TRIANGLE, id="triangle"),
    pytest.param(CLIQUE4, id="clique4"),
]


@pytest.mark.parametrize("source", BODY_ORDER_PROGRAMS)
def test_cost_wcoj_binary_versions_join_in_the_greedy_order(source):
    # On a hub catalog and on a uniform one, every version cost+wcoj plans
    # as binary joins in the order greedy gives the same version.
    analysis = analyzed(source)
    greedy = plan_program(analysis, planner=GREEDY)
    src = np.arange(1000, dtype=np.int64)
    uniform = [src, (src * 7 + 3) % 1000]
    binary_versions = 0
    for columns in (hub_catalog_columns(), uniform):
        catalog = StatsCatalog()
        for name in sorted(analysis.edb_relations):
            catalog.seed_facts(name, columns)
        plan = plan_program(analysis, planner=COST_WCOJ, stats=catalog)
        assert plan.rule_plans.keys() == greedy.rule_plans.keys()
        for rule, rule_plan in plan.rule_plans.items():
            expected = greedy.rule_plans[rule].versions
            assert len(rule_plan.versions) == len(expected)
            for version, greedy_version in zip(rule_plan.versions, expected):
                if version.algorithm != BINARY:
                    continue
                binary_versions += 1
                assert version.atom_order == greedy_version.atom_order
                assert len(version.estimated_step_rows) == len(version.atom_order)
    assert binary_versions  # non-vacuous: the uniform catalog keeps joins binary


def test_unknown_planner_rejected():
    with pytest.raises(PlanningError):
        Planner(analyzed(TRIANGLE), planner="optimal")


# ----------------------------------------------------------------------
# WCOJ selection: worst-case vs worst-case
# ----------------------------------------------------------------------

def test_wcoj_selected_for_cyclic_rule_on_skewed_stats():
    plan = plan_program(analyzed(TRIANGLE), planner=COST_WCOJ, stats=hub_catalog())
    version = only_version(plan)
    assert version.algorithm == WCOJ
    assert version.wcoj_levels  # one level per variable beyond the outer atom
    # The decomposed steps still cover the same body atoms.
    assert sorted(version.atom_order) == [0, 1, 2]


def test_wcoj_not_selected_on_uniform_sparse_stats():
    # A uniform sparse graph has bounded key multiplicity: the binary
    # worst case stays below the AGM bound, so binary wins.
    src = np.arange(1000, dtype=np.int64)
    dst = (src * 7 + 3) % 1000
    catalog = StatsCatalog()
    catalog.seed_facts("edge", [src, dst])
    plan = plan_program(analyzed(TRIANGLE), planner=COST_WCOJ, stats=catalog)
    assert only_version(plan).algorithm == BINARY


def test_wcoj_never_selected_for_acyclic_rules():
    from repro.queries import cspa_program, reach_program, sg_program

    for program in (reach_program(), sg_program(), cspa_program()):
        plan = plan_program(analyze_program(program), planner=COST_WCOJ, stats=hub_catalog())
        for rule_plan in plan.rule_plans.values():
            for version in rule_plan.versions:
                assert version.algorithm == BINARY


def test_wcoj_selected_for_clique4_on_skewed_stats():
    plan = plan_program(analyzed(CLIQUE4), planner=COST_WCOJ, stats=hub_catalog())
    assert only_version(plan).algorithm == WCOJ


def test_wcoj_version_required_indexes_include_membership_indexes():
    plan = plan_program(analyzed(TRIANGLE), planner=COST_WCOJ, stats=hub_catalog())
    version = only_version(plan)
    required = version_required_indexes(version)
    # Membership semi-joins probe the full-arity deduplicated index.
    assert ("edge", (0, 1)) in required


# ----------------------------------------------------------------------
# version_live_columns edge cases (what the exchange layer may drop)
# ----------------------------------------------------------------------

def test_live_columns_zero_join_version():
    # Copy rule: no joins at all; only the final liveness set exists and it
    # covers exactly the head's variable positions.
    plan = plan_program(analyzed("out(y, x) :- edge(x, y)."), planner=GREEDY)
    version = only_version(plan)
    assert version.joins == ()
    live_before, live_final = version.live_columns
    assert live_before == ()
    assert live_final == frozenset({0, 1})


def test_live_columns_constant_only_head():
    # Head of constants: nothing in the flowing schema survives to the head,
    # so the final live set is empty — every column may be dropped at the
    # last exchange.
    plan = plan_program(analyzed("flag(1) :- edge(x, y), edge(y, x)."), planner=GREEDY)
    version = only_version(plan)
    live_before, live_final = version.live_columns
    assert live_final == frozenset()
    # The join itself still keeps its probe key alive on the way in.
    assert live_before[0]


def test_live_columns_filter_only_rule():
    # A single-atom rule's comparison runs inside the initial scan, so by
    # the final exchange the filter column y is already consumed: only the
    # head's x stays live, and y may be dropped from the shipment.
    plan = plan_program(analyzed("small(x) :- edge(x, y), x < y."), planner=GREEDY)
    version = only_version(plan)
    assert version.initial.filters  # the comparison became a scan filter
    assert version.final_filters == ()
    _, live_final = version.live_columns
    assert live_final == frozenset({0})


def test_live_columns_final_filter_keeps_columns_alive():
    # When a comparison can only run after the last join, its columns must
    # stay live at the final exchange even though the head ignores them.
    source = "out(x) :- edge(x, y), edge(y, z), y < z."
    plan = plan_program(analyzed(source), planner=GREEDY)
    version = only_version(plan)
    live_before, live_final = version.live_columns
    filtered = {
        column
        for comparison in version.final_filters + version.joins[-1].filters
        for column in (comparison.left_column, comparison.right_column)
        if column is not None
    }
    if version.final_filters:
        assert filtered <= live_final
    else:
        # The planner pushed the filter into the last join step; its columns
        # must then be live on the way *into* that step.
        assert filtered
        assert live_before[-1]


def test_live_columns_wcoj_steps():
    # WCOJ versions decompose into expand/check JoinSteps; the liveness walk
    # must keep every membership-checked column alive at each boundary.
    plan = plan_program(analyzed(TRIANGLE), planner=COST_WCOJ, stats=hub_catalog())
    version = only_version(plan)
    assert version.algorithm == WCOJ
    live_before, live_final = version.live_columns
    assert len(live_before) == len(version.joins)
    assert live_final == frozenset({0, 1, 2})
    for index, step in enumerate(version.joins):
        assert set(step.outer_key_positions) <= set(live_before[index])


def test_live_columns_drop_dead_passenger_column():
    # wide's payload column q is never read downstream: it must be dead at
    # the exchange before the next join.
    source = "out(x) :- wide(x, q), edge(x, y)."
    plan = plan_program(analyzed(source), planner=GREEDY)
    version = only_version(plan)
    live_before, _ = version.live_columns
    assert 1 not in live_before[0]  # q's position in the initial schema
