"""Instrumented host-side semi-naïve evaluator.

The comparison engines (Soufflé-like, GPUJoin-like, cuDF-like) need two
things: the *exact* derived relations (identical across engines — the paper
verifies "all relation sizes match that of Soufflé's") and a per-iteration
*workload trace* (how many tuples were scanned, probed, matched, deduplicated
and merged) that each engine converts into simulated time and memory using its
own cost model.

This module runs the program once on the host with plain NumPy (sorted-array
indexes and binary search), producing both.  It reuses the same program
analysis and rule plans as GPUlog, so the semi-naïve iteration structure — the
quantity the cost models depend on — is identical to the GPU engine's.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from ..datalog.analysis import analyze_program
from ..datalog.ast import Program
from ..datalog.planner import DELTA, ProgramPlan, RuleVersion, plan_program
from ..device.kernels import row_search_bounds
from ..errors import EvaluationError
from .base import BaselineEngine

TUPLE_BYTES = 8


@dataclass
class IterationTrace:
    """Aggregate work counters for one semi-naïve iteration (iteration 0 = init)."""

    iteration: int
    outer_tuples: int = 0
    outer_bytes: int = 0
    probes: int = 0
    match_tuples: int = 0
    match_bytes: int = 0
    new_tuples: int = 0
    new_bytes: int = 0
    delta_tuples: int = 0
    delta_bytes: int = 0
    full_tuples_before: int = 0
    full_bytes_before: int = 0
    full_tuples_after: int = 0
    full_bytes_after: int = 0
    largest_join_output_bytes: int = 0


@dataclass
class WorkloadTrace:
    """The full per-iteration trace of one program evaluation."""

    iterations: list[IterationTrace] = field(default_factory=list)
    relation_counts: dict[str, int] = field(default_factory=dict)
    relation_arities: dict[str, int] = field(default_factory=dict)
    edb_relations: set[str] = field(default_factory=set)
    relations: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def iteration_count(self) -> int:
        """Number of fixpoint iterations (the initialisation pass is excluded)."""
        return sum(1 for trace in self.iterations if trace.iteration > 0)

    @property
    def total_match_tuples(self) -> int:
        return sum(trace.match_tuples for trace in self.iterations)

    @property
    def total_new_tuples(self) -> int:
        return sum(trace.new_tuples for trace in self.iterations)

    @property
    def total_delta_tuples(self) -> int:
        return sum(trace.delta_tuples for trace in self.iterations)

    @property
    def final_full_bytes(self) -> int:
        if not self.iterations:
            return 0
        return self.iterations[-1].full_bytes_after

    @property
    def edb_bytes(self) -> int:
        return sum(
            self.relation_counts.get(name, 0) * self.relation_arities.get(name, 1) * TUPLE_BYTES
            for name in self.edb_relations
        )



class _HostRelation:
    """Host-side relation: deduplicated full rows, delta rows, sorted indexes."""

    def __init__(self, name: str, arity: int) -> None:
        self.name = name
        self.arity = arity
        self.full = np.empty((0, arity), dtype=np.int64)
        self._full_sorted = np.empty((0, arity), dtype=np.int64)
        self.delta = np.empty((0, arity), dtype=np.int64)
        self.new_parts: list[np.ndarray] = []
        self._index_cache: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    def initialize(self, rows: np.ndarray) -> None:
        rows = _dedupe(rows, self.arity)
        self.full = rows
        self._full_sorted = _sort_rows(rows)
        self.delta = rows
        self._index_cache.clear()

    def add_new(self, rows: np.ndarray) -> None:
        if rows.shape[0]:
            self.new_parts.append(rows)

    def end_iteration(self) -> int:
        if self.new_parts:
            new_rows = _dedupe(np.concatenate(self.new_parts, axis=0), self.arity)
        else:
            new_rows = np.empty((0, self.arity), dtype=np.int64)
        self.new_parts.clear()
        if new_rows.shape[0] and self.full.shape[0]:
            present = _membership(self._full_sorted, new_rows)
            delta = new_rows[~present]
        else:
            delta = new_rows
        self.delta = delta
        if delta.shape[0]:
            self.full = np.concatenate([self.full, delta], axis=0)
            self._full_sorted = _sort_rows(self.full)
            self._index_cache.clear()
        return int(delta.shape[0])

    def clear_delta(self) -> None:
        self.delta = np.empty((0, self.arity), dtype=np.int64)

    def index(self, join_columns: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Return (sorted join-key rows, permutation) for range queries on full."""
        cached = self._index_cache.get(join_columns)
        if cached is not None:
            return cached
        keys = self.full[:, list(join_columns)] if self.full.shape[0] else np.empty((0, len(join_columns)), dtype=np.int64)
        if keys.shape[0]:
            order = np.lexsort(tuple(keys[:, c] for c in reversed(range(keys.shape[1])))).astype(np.int64)
        else:
            order = np.empty(0, dtype=np.int64)
        sorted_keys = keys[order] if keys.shape[0] else keys
        self._index_cache[join_columns] = (sorted_keys, order)
        return sorted_keys, order


class InstrumentedEvaluator:
    """Evaluates a program on the host and records the workload trace."""

    def __init__(self, program: Union[Program, str], facts: Mapping[str, np.ndarray], *, max_iterations: int = 1_000_000) -> None:
        self.program = BaselineEngine.coerce_program(program)
        self.analysis = analyze_program(self.program)
        self.plan: ProgramPlan = plan_program(self.analysis)
        self.max_iterations = int(max_iterations)

        arities = dict(self.program.relation_arities())
        for name, rows in facts.items():
            rows = np.asarray(rows, dtype=np.int64)
            if rows.ndim != 2:
                raise EvaluationError(f"facts for {name!r} must be a 2-D array")
            arities.setdefault(name, rows.shape[1])
        self.relations: dict[str, _HostRelation] = {
            name: _HostRelation(name, arity) for name, arity in arities.items()
        }
        self.facts = {name: np.asarray(rows, dtype=np.int64) for name, rows in facts.items()}

    # ------------------------------------------------------------------
    def evaluate(self) -> WorkloadTrace:
        trace = WorkloadTrace()
        trace.relation_arities = {name: rel.arity for name, rel in self.relations.items()}
        trace.edb_relations = set(self.analysis.edb_relations)

        # Load EDB facts (and stage IDB facts).
        idb_facts: dict[str, np.ndarray] = {}
        for name, rows in self.facts.items():
            if name in self.analysis.idb_relations:
                idb_facts[name] = rows
            else:
                self.relations[name].initialize(rows)

        init_trace = IterationTrace(iteration=0)
        iteration_counter = 0
        for stratum in self.analysis.strata:
            non_recursive, recursive = self.plan.versions_for_stratum(stratum.index)
            idb_in_stratum = sorted(stratum.relations & set(self.analysis.idb_relations))

            initial_rows: dict[str, list[np.ndarray]] = defaultdict(list)
            for name in idb_in_stratum:
                if name in idb_facts:
                    initial_rows[name].append(idb_facts.pop(name))
            for version in non_recursive:
                rows = self._execute_version(version, init_trace)
                if rows.shape[0]:
                    initial_rows[version.head_relation].append(rows)
            for name in idb_in_stratum:
                relation = self.relations[name]
                parts = initial_rows.get(name, [])
                rows = np.concatenate(parts, axis=0) if parts else np.empty((0, relation.arity), dtype=np.int64)
                relation.initialize(rows)
                init_trace.delta_tuples += relation.delta.shape[0]
                init_trace.delta_bytes += int(relation.delta.nbytes)

            if recursive:
                iteration_counter = self._run_fixpoint(idb_in_stratum, recursive, trace, iteration_counter)
            else:
                for name in idb_in_stratum:
                    self.relations[name].clear_delta()

        self._finalise_trace(trace, init_trace)
        return trace

    # ------------------------------------------------------------------
    def _run_fixpoint(
        self,
        idb_in_stratum: list[str],
        recursive: list[RuleVersion],
        trace: WorkloadTrace,
        iteration_counter: int,
    ) -> int:
        local_iteration = 0
        while True:
            local_iteration += 1
            iteration_counter += 1
            if local_iteration > self.max_iterations:
                raise EvaluationError("fixpoint did not converge within the iteration limit")
            item = IterationTrace(iteration=iteration_counter)
            item.full_tuples_before = sum(self.relations[n].full.shape[0] for n in idb_in_stratum)
            item.full_bytes_before = sum(int(self.relations[n].full.nbytes) for n in idb_in_stratum)

            for version in recursive:
                delta_relation = self.relations[version.initial.relation]
                if delta_relation.delta.shape[0] == 0:
                    continue
                rows = self._execute_version(version, item)
                if rows.shape[0]:
                    item.new_tuples += int(rows.shape[0])
                    item.new_bytes += int(rows.nbytes)
                    self.relations[version.head_relation].add_new(rows)

            total_delta = 0
            for name in idb_in_stratum:
                delta_count = self.relations[name].end_iteration()
                total_delta += delta_count
                item.delta_tuples += delta_count
                item.delta_bytes += delta_count * self.relations[name].arity * TUPLE_BYTES
            item.full_tuples_after = sum(self.relations[n].full.shape[0] for n in idb_in_stratum)
            item.full_bytes_after = sum(int(self.relations[n].full.nbytes) for n in idb_in_stratum)
            trace.iterations.append(item)
            if total_delta == 0:
                break
        return iteration_counter

    # ------------------------------------------------------------------
    def _execute_version(self, version: RuleVersion, item: IterationTrace) -> np.ndarray:
        initial = version.initial
        relation = self.relations[initial.relation]
        rows = relation.delta if initial.version == DELTA else relation.full
        if rows.shape[0] == 0:
            return np.empty((0, len(version.head)), dtype=np.int64)
        item.outer_tuples += int(rows.shape[0])
        item.outer_bytes += int(rows.nbytes)
        if initial.filters:
            mask = np.ones(rows.shape[0], dtype=bool)
            for comparison in initial.filters:
                mask &= comparison.evaluate(rows)
            rows = rows[mask]
        if tuple(initial.projection) != tuple(range(rows.shape[1])):
            rows = rows[:, list(initial.projection)]

        for step in version.joins:
            if rows.shape[0] == 0:
                return np.empty((0, len(version.head)), dtype=np.int64)
            inner = self.relations[step.relation]
            sorted_keys, order = inner.index(step.join_columns)
            needles = rows[:, list(step.outer_key_positions)]
            item.probes += int(needles.shape[0])
            lower, upper = row_search_bounds(sorted_keys, needles)
            counts = (upper - lower).astype(np.int64)
            total = int(counts.sum())
            item.match_tuples += total
            match_bytes = total * len(step.schema) * TUPLE_BYTES
            item.match_bytes += match_bytes
            item.largest_join_output_bytes = max(item.largest_join_output_bytes, match_bytes)
            if total == 0:
                return np.empty((0, len(version.head)), dtype=np.int64)
            outer_idx = np.repeat(np.arange(needles.shape[0], dtype=np.int64), counts)
            offsets = np.repeat(np.cumsum(counts) - counts, counts)
            within = np.arange(total, dtype=np.int64) - offsets
            inner_positions = order[np.repeat(lower, counts) + within]
            inner_rows = inner.full[inner_positions]
            columns = []
            for spec in step.output:
                if spec.source == "outer":
                    columns.append(rows[outer_idx, spec.column])
                else:
                    columns.append(inner_rows[:, spec.column])
            rows = np.column_stack(columns).astype(np.int64)
            if step.filters:
                mask = np.ones(rows.shape[0], dtype=bool)
                for comparison in step.filters:
                    mask &= comparison.evaluate(rows)
                rows = rows[mask]
            if step.post_projection is not None and rows.shape[0]:
                rows = rows[:, list(step.post_projection)]

        if version.final_filters and rows.shape[0]:
            mask = np.ones(rows.shape[0], dtype=bool)
            for comparison in version.final_filters:
                mask &= comparison.evaluate(rows)
            rows = rows[mask]
        if rows.shape[0] == 0:
            return np.empty((0, len(version.head)), dtype=np.int64)
        columns = []
        for head_column in version.head:
            if head_column.kind == "var":
                columns.append(rows[:, head_column.position])
            else:
                columns.append(np.full(rows.shape[0], int(head_column.value), dtype=np.int64))
        return np.column_stack(columns).astype(np.int64)

    # ------------------------------------------------------------------
    def _finalise_trace(self, trace: WorkloadTrace, init_trace: IterationTrace) -> None:
        init_trace.full_tuples_after = init_trace.delta_tuples
        init_trace.full_bytes_after = init_trace.delta_bytes
        trace.iterations.insert(0, init_trace)
        for name, relation in self.relations.items():
            trace.relation_counts[name] = int(relation.full.shape[0])
            trace.relations[name] = relation.full
        trace.relation_arities = {name: relation.arity for name, relation in self.relations.items()}


def evaluate_program(
    program: Union[Program, str],
    facts: Mapping[str, np.ndarray],
    *,
    max_iterations: int = 1_000_000,
) -> WorkloadTrace:
    """Convenience wrapper: evaluate and return the workload trace."""
    return InstrumentedEvaluator(program, facts, max_iterations=max_iterations).evaluate()


# ----------------------------------------------------------------------
# Host helpers
# ----------------------------------------------------------------------

def _sort_rows(rows: np.ndarray) -> np.ndarray:
    if rows.shape[0] == 0:
        return rows
    order = np.lexsort(tuple(rows[:, c] for c in reversed(range(rows.shape[1]))))
    return rows[order]


def _dedupe(rows: np.ndarray, arity: int) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, arity)
    if rows.shape[0] <= 1:
        return rows
    sorted_rows = _sort_rows(rows)
    keep = np.ones(sorted_rows.shape[0], dtype=bool)
    keep[1:] = np.any(sorted_rows[1:] != sorted_rows[:-1], axis=1)
    return sorted_rows[keep]


def _membership(sorted_haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    lower, upper = row_search_bounds(sorted_haystack, needles)
    return upper > lower
