"""Load-time relation statistics for the ``cost+wcoj`` planner.

The planner reads three numbers per relation: how many rows it holds, how
many distinct values each column holds, and how many rows the hottest value
of a column matches.  All are *host-side metadata*, never part of the
charged datapath — like :mod:`repro.relational.checkpoint`, this module
works on host arrays and plain Python numbers and charges no kernels.

A plan is a pure function of the catalog the engine builds before the first
iteration, from two sources:

* **Fact seeding** — the engine measures every staged host fact column once
  before upload (`np.unique` with counts, exact at any size) and calls
  :meth:`StatsCatalog.seed_facts`.
* **Fallbacks** — relations never seeded (IDB predicates, whose rows the
  fixpoint derives) estimate rows as the largest seeded relation and
  distincts as the row count, i.e. maximally selective joins are never
  assumed without evidence.  An empty catalog answers the same for every
  relation, with :data:`DEFAULT_ROW_ESTIMATE` rows.

A delta-scan version plans its outer scan at the same row count: nothing is
measured during the fixpoint, so a relation's delta has no estimate of its
own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Row estimate for a relation nothing has been observed about, when the
#: catalog itself is empty (otherwise the largest seeded relation is used).
DEFAULT_ROW_ESTIMATE = 1000.0


@dataclass
class RelationStats:
    """Mutable per-relation statistics accumulated by a :class:`StatsCatalog`."""

    name: str
    arity: int
    rows: float = 0.0
    #: Per-column distinct counts (column index -> count).
    column_distinct: dict = field(default_factory=dict)
    #: Rows matching each column's hottest value (column index -> count) —
    #: the skew signal that lets the planner bound a binary join's worst case.
    hottest: dict = field(default_factory=dict)
    #: True when rows/distincts come from measured facts, not fallbacks.
    seeded: bool = False


class StatsCatalog:
    """Row counts, distinct counts and hottest-value counts of a run's relations."""

    def __init__(self) -> None:
        self._relations: dict[str, RelationStats] = {}

    # -- feeding -------------------------------------------------------
    def ensure(self, name: str, arity: int) -> RelationStats:
        stats = self._relations.get(name)
        if stats is None:
            stats = RelationStats(name=name, arity=arity)
            self._relations[name] = stats
        return stats

    def seed_facts(self, name: str, columns) -> RelationStats:
        """Measure staged host fact columns (one array per column) exactly."""
        columns = [np.asarray(column) for column in columns]
        stats = self.ensure(name, len(columns))
        stats.rows = float(columns[0].size) if columns else 0.0
        stats.seeded = True
        for position, column in enumerate(columns):
            _, counts = np.unique(column, return_counts=True)
            stats.column_distinct[position] = float(counts.size)
            stats.hottest[position] = float(counts.max()) if counts.size else 0.0
        return stats

    # -- queries (the planner's protocol) ------------------------------
    def _default_rows(self) -> float:
        seeded = [s.rows for s in self._relations.values() if s.seeded]
        return max(seeded) if seeded else DEFAULT_ROW_ESTIMATE

    def rows(self, name: str) -> float:
        stats = self._relations.get(name)
        if stats is None or not stats.seeded:
            return self._default_rows()
        return max(stats.rows, 1.0)

    def distinct(self, name: str, column: int) -> float:
        stats = self._relations.get(name)
        if stats is None or column not in stats.column_distinct:
            return self.rows(name)
        return max(1.0, stats.column_distinct[column])

    def max_multiplicity(self, name: str, columns) -> float:
        """Worst-case rows a single probe key can match on these columns.

        A full-arity key matches one row (storage is deduplicated).  On a
        seeded relation a key matches at most what its tightest column's
        hottest value matches: a superset key can only match fewer rows.
        With nothing measured every key is assumed unique.
        """
        key = {int(column) for column in columns}
        stats = self._relations.get(name)
        if stats is None or len(key) == stats.arity or not stats.seeded:
            return 1.0
        return max(1.0, min(stats.hottest[column] for column in key))
