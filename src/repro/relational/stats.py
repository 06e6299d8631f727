"""Load-time relation statistics for the cost-based planner.

The planner needs two numbers per relation to cost a join order: how many
rows the relation holds, and how many distinct values each column holds.
Both are *host-side metadata*, never part of the charged datapath — like
:mod:`repro.relational.checkpoint`, this module works on host arrays and
plain Python numbers and charges no kernels.

A plan is a pure function of the catalog the engine builds before the first
iteration, from two sources:

* **Fact seeding** — the engine measures the staged host fact columns once
  before upload (`np.unique`, exact) and calls :meth:`StatsCatalog.seed_facts`.
  Columns beyond :data:`EXACT_DISTINCT_LIMIT` rows are estimated with a
  :class:`KMVSketch` instead of sorted exactly.
* **Fallbacks** — relations never seeded (IDB predicates, whose rows the
  fixpoint derives) estimate rows as the largest seeded relation and
  distincts as the row count, i.e. maximally selective joins are never
  assumed without evidence.

A delta-scan version plans its outer scan at the same row count: nothing is
measured during the fixpoint, so a relation's delta has no estimate of its
own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Columns with at most this many rows are measured exactly with np.unique;
#: larger columns fall back to the KMV sketch.
EXACT_DISTINCT_LIMIT = 2_000_000

#: Default sketch size: (k-1)/h_k estimators are within ~1/sqrt(k) ≈ 6%.
KMV_DEFAULT_K = 256

#: Row estimate for a relation nothing has been observed about, when the
#: catalog itself is empty (otherwise the largest seeded relation is used).
DEFAULT_ROW_ESTIMATE = 1000.0

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MIX1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MIX2 = 0x94D049BB133111EB
_U64 = np.uint64


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser: uniform uint64 hashes for the sketch."""
    with np.errstate(over="ignore"):
        x = np.asarray(values).astype(np.int64, copy=False).view(_U64).copy()
        x += _U64(_SPLITMIX_GAMMA)
        x ^= x >> _U64(30)
        x *= _U64(_SPLITMIX_MIX1)
        x ^= x >> _U64(27)
        x *= _U64(_SPLITMIX_MIX2)
        x ^= x >> _U64(31)
    return x


class KMVSketch:
    """k-minimum-values distinct counter over 64-bit keys.

    Keeps the ``k`` smallest splitmix64 hashes seen; with ``h_k`` the k-th
    smallest hash as a fraction of the hash space, the distinct count is
    estimated as ``(k - 1) / h_k``.  Below ``k`` distinct hashes the sketch
    is exact.  Updates are mergeable and idempotent on duplicates.
    """

    def __init__(self, k: int = KMV_DEFAULT_K) -> None:
        if k < 2:
            raise ValueError("KMV sketch needs k >= 2")
        self.k = k
        self._minima = np.empty(0, dtype=_U64)

    def update(self, values) -> "KMVSketch":
        hashed = _splitmix64(np.asarray(values, dtype=np.int64))
        self._minima = np.union1d(self._minima, hashed)[: self.k]
        return self

    def merge(self, other: "KMVSketch") -> "KMVSketch":
        self._minima = np.union1d(self._minima, other._minima)[: self.k]
        return self

    def estimate(self) -> float:
        n = int(self._minima.size)
        if n < self.k:
            return float(n)
        kth = int(self._minima[self.k - 1]) + 1
        return float(self.k - 1) * float(2**64) / float(kth)


def distinct_count(column, *, exact_limit: int = EXACT_DISTINCT_LIMIT) -> tuple[float, bool]:
    """(estimate, is_exact) distinct count of one host column."""
    array = np.asarray(column)
    if array.size <= exact_limit:
        return float(np.unique(array).size), True
    return KMVSketch().update(array).estimate(), False


@dataclass
class RelationStats:
    """Mutable per-relation statistics accumulated by a :class:`StatsCatalog`."""

    name: str
    arity: int
    rows: float = 0.0
    #: Per-column distinct estimates (column index -> estimate).
    column_distinct: dict = field(default_factory=dict)
    #: Max join-key multiplicity per sorted column tuple (the hottest value
    #: at seed time) — the skew signal that lets the planner bound a binary
    #: join's worst case.
    key_multiplicity: dict = field(default_factory=dict)
    #: True when rows/distincts come from measured facts, not fallbacks.
    seeded: bool = False


class StatsCatalog:
    """Row counts and distinct-value estimates for every relation of a run."""

    def __init__(self) -> None:
        self._relations: dict[str, RelationStats] = {}

    # -- feeding -------------------------------------------------------
    def ensure(self, name: str, arity: int) -> RelationStats:
        stats = self._relations.get(name)
        if stats is None:
            stats = RelationStats(name=name, arity=arity)
            self._relations[name] = stats
        return stats

    def seed_facts(self, name: str, columns, *, exact_limit: int = EXACT_DISTINCT_LIMIT) -> RelationStats:
        """Measure staged host fact columns (one array per column) exactly."""
        columns = [np.asarray(column) for column in columns]
        stats = self.ensure(name, len(columns))
        rows = float(columns[0].size) if columns else 0.0
        stats.rows = rows
        stats.seeded = True
        for position, column in enumerate(columns):
            if column.size <= exact_limit:
                _, counts = np.unique(column, return_counts=True)
                stats.column_distinct[position] = float(counts.size)
                stats.key_multiplicity[(position,)] = float(counts.max()) if counts.size else 0.0
            else:
                estimate = KMVSketch().update(column).estimate()
                stats.column_distinct[position] = estimate
                stats.key_multiplicity[(position,)] = rows / max(estimate, 1.0)
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
        rows = self.rows(name)
        stats = self._relations.get(name)
        if stats is None:
            return rows
        estimate = stats.column_distinct.get(column)
        if estimate is None:
            return rows
        return max(1.0, min(float(estimate), rows))

    def max_multiplicity(self, name: str, columns) -> float:
        """Worst-case rows a single probe key can match on these columns.

        Prefers the measured count of the hottest value; a superset key can
        only match fewer rows, so the tightest single-column bound also
        bounds any key containing that column.  With no measurement the
        uniformity assumption ``rows / Π distinct`` applies.
        """
        rows = self.rows(name)
        key = tuple(sorted(int(column) for column in columns))
        stats = self._relations.get(name)
        if stats is not None:
            if len(key) == stats.arity:
                return 1.0  # deduplicated storage: the full key is unique
            direct = stats.key_multiplicity.get(key)
            if direct is not None:
                return max(1.0, min(float(direct), rows))
            singles = [
                stats.key_multiplicity.get((column,))
                for column in key
                if (column,) in stats.key_multiplicity
            ]
            if singles:
                return max(1.0, min(min(float(s) for s in singles), rows))
        joint = 1.0
        for column in key:
            joint *= self.distinct(name, column)
        joint = max(1.0, min(joint, rows))
        return max(1.0, rows / joint)


class UniformStats:
    """Stats stand-in when no catalog exists: every relation looks alike.

    Keeps the cost planner deterministic (and exercisable in unit tests)
    without measured statistics; all relations get ``rows`` rows and
    distinct-per-column equal to the row count.
    """

    def __init__(self, rows: float = DEFAULT_ROW_ESTIMATE) -> None:
        self._rows = float(rows)

    def rows(self, name: str) -> float:
        return self._rows

    def distinct(self, name: str, column: int) -> float:
        return self._rows

    def max_multiplicity(self, name: str, columns) -> float:
        return 1.0
