"""Unit tests for the planner's statistics layer (repro.relational.stats).

The ``cost+wcoj`` planner's WCOJ trigger is only as good as these numbers,
all measured exactly once from the loaded facts: the fallbacks for
relations nothing was loaded into, and the full-key multiplicity rule
(deduplicated storage ⇒ unique full keys).
"""

import numpy as np
import pytest

from repro.datalog import analyze_program, parse_program, plan_program
from repro.datalog.planner import COST_WCOJ, WCOJ
from repro.relational.stats import DEFAULT_ROW_ESTIMATE, StatsCatalog


# ----------------------------------------------------------------------
# Catalog feeding
# ----------------------------------------------------------------------

def hub_columns(n=100):
    """Edge columns of a star: node 0 -> {1..n}, so column 0 is maximally hot."""
    src = np.zeros(n, dtype=np.int64)
    dst = np.arange(1, n + 1, dtype=np.int64)
    return [src, dst]


def test_seed_facts_measures_exactly():
    catalog = StatsCatalog()
    stats = catalog.seed_facts("edge", hub_columns(100))
    assert stats.rows == 100.0
    assert stats.column_distinct[0] == 1.0
    assert stats.column_distinct[1] == 100.0
    assert stats.seeded


def test_seed_facts_records_key_multiplicity():
    catalog = StatsCatalog()
    catalog.seed_facts("edge", hub_columns(100))
    # Every probe on column 0 can hit all 100 rows; column 1 keys are unique.
    assert catalog.max_multiplicity("edge", (0,)) == 100.0
    assert catalog.max_multiplicity("edge", (1,)) == 1.0


def test_full_arity_key_multiplicity_is_one():
    # Deduplicated storage means a full-arity probe matches at most one row,
    # no matter how skewed individual columns are — this is the rule that
    # keeps WCOJ membership checks cheap in the worst-case estimate.
    catalog = StatsCatalog()
    catalog.seed_facts("edge", hub_columns(100))
    assert catalog.max_multiplicity("edge", (0, 1)) == 1.0


def skewed_column(name):
    rng = np.random.default_rng(7)
    return {
        "hub": np.concatenate([np.zeros(300, dtype=np.int64), np.arange(1, 301)]),
        "zipf": rng.zipf(1.5, size=2000).astype(np.int64),
        "uniform": rng.integers(0, 50, size=2000, dtype=np.int64),
        "constant": np.full(64, 9, dtype=np.int64),
        "empty": np.zeros(0, dtype=np.int64),
    }[name]


@pytest.mark.parametrize("name", ["hub", "zipf", "uniform", "constant", "empty"])
def test_seed_facts_counts_every_column_exactly(name):
    # Distinct and hottest counts are the column's own, whatever its shape:
    # nothing is sampled or sketched, so a skewed column reports its true
    # hottest value rather than its mean multiplicity.
    column = skewed_column(name)
    _, counts = np.unique(column, return_counts=True)
    catalog = StatsCatalog()
    stats = catalog.seed_facts("r", [column, np.arange(column.size)])
    assert stats.rows == column.size
    assert stats.column_distinct[0] == counts.size
    assert stats.hottest[0] == (counts.max() if counts.size else 0)
    assert catalog.max_multiplicity("r", (0,)) == max(1, stats.hottest[0])
    assert catalog.distinct("r", 0) == max(1, counts.size)


def test_max_multiplicity_of_a_partial_key_is_its_tightest_column():
    # A key of two of three columns can match at most what the less hot of
    # its columns matches; the full key matches one row.
    catalog = StatsCatalog()
    hot = np.zeros(40, dtype=np.int64)
    warm = np.arange(40, dtype=np.int64) % 4
    catalog.seed_facts("r", [hot, warm, np.arange(40)])
    assert catalog.max_multiplicity("r", (0,)) == 40.0
    assert catalog.max_multiplicity("r", (1,)) == 10.0
    assert catalog.max_multiplicity("r", (0, 1)) == 10.0
    assert catalog.max_multiplicity("r", (0, 2)) == 1.0
    assert catalog.max_multiplicity("r", (0, 1, 2)) == 1.0


def test_unseeded_relation_falls_back_to_largest_seeded():
    catalog = StatsCatalog()
    assert catalog.rows("nothing") == DEFAULT_ROW_ESTIMATE
    catalog.seed_facts("edge", hub_columns(500))
    # IDB predicates, whose rows the fixpoint derives, assume the largest EDB:
    # never assume a maximally selective join without evidence.
    assert catalog.rows("reach") == 500.0


def test_empty_catalog_answers_for_any_relation():
    # The catalog a planner gets when nothing was measured: every relation
    # looks alike, and no key is assumed to be hot.
    catalog = StatsCatalog()
    assert catalog.rows("anything") == DEFAULT_ROW_ESTIMATE
    assert catalog.distinct("anything", 3) == DEFAULT_ROW_ESTIMATE
    assert catalog.max_multiplicity("anything", (0,)) == 1.0
    assert catalog.max_multiplicity("anything", (0, 1)) == 1.0


def test_a_hub_column_of_millions_of_rows_records_the_hub_degree():
    # Just over two million rows, both ways between vertex 0 and every other
    # vertex: column 0's hottest value matches half of them.  Its count is
    # what bounds a binary join's worst case, and it makes the triangle a
    # generic join; the column's mean multiplicity (about 2) would not.
    degree = 1_000_001
    others = np.arange(1, degree + 1, dtype=np.int64)
    hub = np.zeros(degree, dtype=np.int64)
    catalog = StatsCatalog()
    catalog.seed_facts("edge", [np.concatenate([hub, others]), np.concatenate([others, hub])])
    assert catalog.rows("edge") == 2 * degree
    assert catalog.max_multiplicity("edge", (0,)) == degree
    assert catalog.max_multiplicity("edge", (1,)) == degree

    triangle = "triangle(x, y, z) :- edge(x, y), edge(y, z), edge(z, x)."
    plan = plan_program(analyze_program(parse_program(triangle)), planner=COST_WCOJ, stats=catalog)
    (rule_plan,) = plan.rule_plans.values()
    assert [version.algorithm for version in rule_plan.versions] == [WCOJ]
