"""Unit tests for the planner's statistics layer (repro.relational.stats).

The cost planner is only as good as these numbers, all measured once from
the loaded facts: exact seeding below the limit, the KMV sketch above it, the
fallbacks for relations nothing was loaded into, and the full-key
multiplicity rule (deduplicated storage ⇒ unique full keys).
"""

import numpy as np
import pytest

from repro.relational.stats import (
    DEFAULT_ROW_ESTIMATE,
    KMVSketch,
    StatsCatalog,
    UniformStats,
    distinct_count,
)


# ----------------------------------------------------------------------
# KMV sketch
# ----------------------------------------------------------------------

def test_kmv_exact_below_k():
    sketch = KMVSketch(k=64)
    sketch.update(np.arange(40, dtype=np.int64))
    assert sketch.estimate() == 40.0
    # Duplicate updates are idempotent.
    sketch.update(np.arange(40, dtype=np.int64))
    assert sketch.estimate() == 40.0


def test_kmv_estimate_accuracy_at_scale():
    rng = np.random.default_rng(3)
    values = rng.integers(0, 50_000, size=200_000, dtype=np.int64)
    truth = float(np.unique(values).size)
    estimate = KMVSketch(k=256).update(values).estimate()
    assert abs(estimate - truth) / truth < 0.20  # (k-1)/h_k is ~6% at k=256


def test_kmv_merge_equals_union_update():
    a_vals = np.arange(0, 500, dtype=np.int64)
    b_vals = np.arange(300, 900, dtype=np.int64)
    merged = KMVSketch(k=128).update(a_vals).merge(KMVSketch(k=128).update(b_vals))
    direct = KMVSketch(k=128).update(np.concatenate([a_vals, b_vals]))
    assert merged.estimate() == direct.estimate()


def test_kmv_rejects_degenerate_k():
    with pytest.raises(ValueError):
        KMVSketch(k=1)


def test_distinct_count_exact_and_sketched():
    column = np.array([5, 5, 7, 9, 9, 9], dtype=np.int64)
    estimate, exact = distinct_count(column)
    assert (estimate, exact) == (3.0, True)
    estimate, exact = distinct_count(column, exact_limit=3)
    assert not exact
    assert estimate == 3.0  # below k the sketch is exact too


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


def test_unseeded_relation_falls_back_to_largest_seeded():
    catalog = StatsCatalog()
    assert catalog.rows("nothing") == DEFAULT_ROW_ESTIMATE
    catalog.seed_facts("edge", hub_columns(500))
    # IDB predicates, whose rows the fixpoint derives, assume the largest EDB:
    # never assume a maximally selective join without evidence.
    assert catalog.rows("reach") == 500.0


def test_distinct_is_clamped_to_rows():
    # Past the exact limit a column is sketched, and the sketch can estimate
    # more distinct values than the column has rows (2,058 for these 1,952).
    catalog = StatsCatalog()
    stats = catalog.seed_facts("edge", [np.zeros(1952, dtype=np.int64), np.arange(1952)], exact_limit=1000)
    assert stats.column_distinct[1] > stats.rows
    assert catalog.distinct("edge", 1) == catalog.rows("edge") == 1952.0


def test_uniform_stats_protocol():
    uniform = UniformStats(rows=200.0)
    assert uniform.rows("anything") == 200.0
    assert uniform.distinct("anything", 3) == 200.0
    assert uniform.max_multiplicity("anything", (0, 1)) == 1.0
