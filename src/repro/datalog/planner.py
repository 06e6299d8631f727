"""Compilation of Datalog rules into relational-algebra plans.

Each rule is compiled into one or more *rule versions* (one per recursive body
atom, as required by semi-naïve evaluation), and each version becomes a
pipeline::

    initial scan (delta or full/EDB)  ->  join step  ->  ...  ->  head projection

Every join step is a binary hash join against one HISA index, i.e. the
*temporarily materialized* n-way join strategy of Section 5.2: the result of
each binary join is materialized and becomes the outer relation of the next
step, so every kernel launch has a balanced per-thread workload.  The planner
also records which (relation, join columns) indexes the engine must maintain —
Datalog engines index for every query (Section 3, [R1]).

Two planning modes choose the pipeline.  Both order every binary version
the same way, the paper's: starting from the outer (delta) atom, repeatedly
append the *lowest body position* atom that shares a variable with the atoms
already joined.  The tie-break is part of the contract: given the same rule,
the binary plan is always the same pipeline, so ablations against it are
stable.

* ``"greedy"`` — that order and nothing else; no statistics are read.
* ``"cost+wcoj"`` — additionally considers the worst-case-optimal generic
  join (:mod:`repro.relational.wcoj`) for *cyclic* rule bodies (GYO
  reduction does not empty the hypergraph).  A WCOJ version binds one new
  variable per level by intersecting every atom that constrains it; its
  AGM-style output bound ``Π_a |R_a|^{w_a}`` (heuristic fractional edge
  cover ``w_a = 1 / max_{v∈a} cover(v)``) is compared against the binary
  order's worst-case C_out (the sum of its intermediate sizes when every
  probe matches the hottest key, see :mod:`repro.relational.stats`) and the
  cheaper algorithm wins.  The statistics are measured once, from the
  loaded facts.

A WCOJ version is *decomposed* into ordinary :class:`JoinStep`s — one
expanding join per level plus full-arity membership-check joins for the other
atoms of the level — so every existing executor (fused kernels, the sharded
loop with its exchange barriers, column liveness, fault
replay) runs it unchanged; the single-device executor recognizes
``algorithm == "wcoj"`` and instead runs the per-row min-intersection
operator, which computes the same set with worst-case-optimal work.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

from ..errors import PlanningError
from ..relational.operators import ColumnComparison, JoinOutput
from ..relational.stats import StatsCatalog
from .analysis import FLIPPED_OPS, ProgramAnalysis, mirror_renamings
from .ast import Atom, Comparison, Constant, Rule, Variable

DELTA = "delta"
FULL = "full"

GREEDY = "greedy"
COST_WCOJ = "cost+wcoj"
#: The planner ablation axis surfaced as ``GPULogEngine(planner=...)``.
PLANNERS = (GREEDY, COST_WCOJ)

BINARY = "binary"
WCOJ = "wcoj"


def _constant_value(term: Constant) -> int | str:
    """Raw value of a constant term (string constants are interned by the engine)."""
    return term.value


@dataclass(frozen=True)
class InitialScan:
    """The outer relation of a rule version: a (possibly filtered) scan."""

    relation: str
    version: str  # DELTA or FULL
    filters: tuple[ColumnComparison, ...]
    projection: tuple[int, ...]
    schema: tuple[str, ...]


@dataclass(frozen=True)
class JoinStep:
    """One binary hash join against a HISA index of ``relation``'s full version."""

    relation: str
    join_columns: tuple[int, ...]
    outer_key_positions: tuple[int, ...]
    output: tuple[JoinOutput, ...]
    filters: tuple[ColumnComparison, ...]
    post_projection: tuple[int, ...] | None
    schema: tuple[str, ...]


@dataclass(frozen=True)
class HeadColumn:
    """One column of the head projection: a schema position or a constant."""

    kind: str  # "var" or "const"
    position: int | None = None
    value: int | str | None = None


@dataclass(frozen=True)
class WCOJCandidate:
    """One atom constraining a generic-join level's new variable.

    ``join_columns`` are the atom's already-bound natural columns (ascending)
    — the index the intersection probes for match counts and expansions;
    ``outer_key_positions`` are the pre-level schema positions feeding them.
    ``value_column`` is the natural column holding the level variable, and
    ``member_positions`` maps every natural column to its position in the
    *post-expansion* schema, which is what the full-arity membership check
    gathers.
    """

    atom_index: int
    relation: str
    arity: int
    join_columns: tuple[int, ...]
    outer_key_positions: tuple[int, ...]
    value_column: int
    member_positions: tuple[int, ...]


@dataclass(frozen=True)
class WCOJLevel:
    """One variable of the generic join's variable order with its candidates."""

    variable: str
    candidates: tuple[WCOJCandidate, ...]


@dataclass(frozen=True)
class RuleVersion:
    """One semi-naïve version of a rule (fixed choice of the delta atom)."""

    rule: Rule
    head_relation: str
    delta_atom_index: int | None
    initial: InitialScan
    joins: tuple[JoinStep, ...]
    final_filters: tuple[ColumnComparison, ...]
    head: tuple[HeadColumn, ...]
    #: BINARY (hash-join pipeline) or WCOJ (generic join; ``joins`` then holds
    #: the decomposed expand/check steps the sharded executor runs).
    algorithm: str = BINARY
    #: Which planner produced this version (ablation bookkeeping).
    planner: str = GREEDY
    #: Body atom indices in execution order (outer atom first).
    atom_order: tuple[int, ...] = ()
    #: Generic-join levels, one per variable beyond the outer atom's.
    wcoj_levels: tuple[WCOJLevel, ...] = ()
    #: Estimated rows flowing out of the initial scan and each join step.
    estimated_step_rows: tuple[float, ...] = ()
    #: Estimated output cardinality (last step; the AGM bound for WCOJ)
    #: under the stats view used.
    estimated_rows: float | None = None
    #: Delta atom of the partner version this one mirrors (see
    #: :func:`pair_mirrors`): the fixpoint driver does not execute it and
    #: appends the partner's output with its two columns swapped instead.
    mirror_of: int | None = None

    @property
    def is_recursive(self) -> bool:
        return self.delta_atom_index is not None

    @cached_property
    def head_entries(self) -> tuple[tuple[str, int], ...]:
        """The head projection as :meth:`ColumnBatch.assemble` entries."""
        return tuple(
            ("column", column.position) if column.kind == "var" else ("constant", int(column.value))
            for column in self.head
        )

    @cached_property
    def live_columns(self) -> tuple[tuple[frozenset[int], ...], frozenset[int]]:
        """Live schema positions in front of every join step and after the last.

        Returns ``(live_before_step, live_final)`` where ``live_before_step[i]``
        is the set of flowing-schema positions that step ``i`` or anything after
        it (later joins, final filters, the head projection) still reads, and
        ``live_final`` is the same set for the point after the last join.  A
        position absent from the set is *dead*: no downstream operator will
        ever materialize it, so a cross-shard shipment may omit the column
        (the receiver substitutes an unread placeholder) and a join may treat
        outer rows that differ only there as duplicates.

        The walk is a standard backward liveness pass: seed with the head's
        variable positions and the final filters' columns, then per join step
        (in reverse) map output positions through ``post_projection``, add the
        step's own filter columns, and translate ``"outer"``-sourced output
        entries plus the probe keys back into the pre-step schema.  WCOJ
        versions are decomposed into ordinary expand/check steps, so the same
        walk covers them (membership checks keep every checked column alive via
        their probe keys).
        """
        live: set[int] = set()
        for column in self.head:
            if column.kind == "var":
                live.add(int(column.position))
        for comparison in self.final_filters:
            live.add(comparison.left_column)
            if comparison.right_column is not None:
                live.add(comparison.right_column)
        live_final = frozenset(live)

        live_before: list[frozenset[int]] = [frozenset()] * len(self.joins)
        for index in range(len(self.joins) - 1, -1, -1):
            step = self.joins[index]
            # Lift to the step's pre-post-projection output positions.
            if step.post_projection is not None:
                out_live = {step.post_projection[position] for position in live}
            else:
                out_live = set(live)
            for comparison in step.filters:
                out_live.add(comparison.left_column)
                if comparison.right_column is not None:
                    out_live.add(comparison.right_column)
            # Translate to the schema flowing *into* the step: probe keys plus
            # every outer column a live output entry copies.
            previous = set(step.outer_key_positions)
            for position in out_live:
                entry = step.output[position]
                if entry.source == "outer":
                    previous.add(entry.column)
            live_before[index] = frozenset(previous)
            live = previous
        return tuple(live_before), live_final


@dataclass(frozen=True)
class RulePlan:
    """All versions of one rule plus the indexes they require."""

    rule: Rule
    versions: tuple[RuleVersion, ...]
    required_indexes: tuple[tuple[str, tuple[int, ...]], ...]


@dataclass(frozen=True)
class ProgramPlan:
    """Compiled plan for a whole program, grouped per stratum."""

    analysis: ProgramAnalysis
    rule_plans: dict[Rule, RulePlan]
    planner: str = GREEDY
    #: binary relations proved symmetric (``analysis.symmetric_relations``)
    #: that :meth:`with_mirrors` paired the versions under
    symmetric: frozenset[str] = frozenset()

    def with_mirrors(self, symmetric: frozenset[str]) -> "ProgramPlan":
        """This plan with its rule versions paired under ``symmetric``
        (:func:`pair_mirrors`); each rule requires only the indexes of the
        versions that execute."""
        rule_plans = {}
        for rule, rule_plan in self.rule_plans.items():
            versions = pair_mirrors(rule_plan.versions, self.analysis, symmetric)
            required: set[tuple[str, tuple[int, ...]]] = set()
            for version in versions:
                if version.mirror_of is None:
                    required.update(version_required_indexes(version))
            rule_plans[rule] = RulePlan(rule=rule, versions=versions, required_indexes=tuple(sorted(required)))
        return replace(self, rule_plans=rule_plans, symmetric=frozenset(symmetric))

    def required_indexes(self) -> set[tuple[str, tuple[int, ...]]]:
        indexes: set[tuple[str, tuple[int, ...]]] = set()
        for plan in self.rule_plans.values():
            indexes.update(plan.required_indexes)
        return indexes

    def versions_for_stratum(self, stratum_index: int) -> tuple[list[RuleVersion], list[RuleVersion]]:
        """Return (non_recursive_versions, recursive_versions) for a stratum."""
        stratum = self.analysis.strata[stratum_index]
        non_recursive: list[RuleVersion] = []
        recursive: list[RuleVersion] = []
        for rule in stratum.rules:
            for version in self.rule_plans[rule].versions:
                if version.is_recursive:
                    recursive.append(version)
                else:
                    non_recursive.append(version)
        return non_recursive, recursive


def pair_mirrors(
    versions: Sequence[RuleVersion], analysis: ProgramAnalysis, symmetric: frozenset[str]
) -> tuple[RuleVersion, ...]:
    """``versions`` with ``mirror_of`` set on each version a partner mirrors.

    Two binary-join versions A and B of one rule, each with a recursive delta
    atom and a head of two distinct variables, pair when a mirror renaming σ
    of the rule (:func:`~repro.datalog.analysis.mirror_renamings` under
    ``symmetric``) sends A's delta atom to B's and A's atom order to B's.
    B's join step k is then σ of A's step k: B's output is A's with the two
    columns swapped, and its scan, probes and matches are A's.  The version
    with the lower delta atom executes; the other carries ``mirror_of``.
    Marks from an earlier pairing are dropped first, so a smaller
    ``symmetric`` turns off the pairs that relied on what it lost.
    """
    out = [version if version.mirror_of is None else replace(version, mirror_of=None) for version in versions]
    order = sorted(
        (position for position, version in enumerate(out) if _mirrorable(version, analysis)),
        key=lambda position: out[position].delta_atom_index,
    )
    paired: set[int] = set()
    for position in order:
        first = out[position]
        if position in paired:
            continue
        images = list(mirror_renamings(first.rule, symmetric))
        for other in order:
            second = out[other]
            if (
                other in paired
                or second.rule != first.rule
                or second.delta_atom_index <= first.delta_atom_index
            ):
                continue
            if any(
                image[first.delta_atom_index] == second.delta_atom_index
                and tuple(image[index] for index in first.atom_order) == second.atom_order
                for image in images
            ):
                out[other] = replace(second, mirror_of=first.delta_atom_index)
                paired.update((position, other))
                break
    return tuple(out)


def _mirrorable(version: RuleVersion, analysis: ProgramAnalysis) -> bool:
    """A version :func:`pair_mirrors` may pair: binary joins from a recursive
    delta atom into a head of two distinct variables.  (A serving epoch's
    EDB-delta versions run once per epoch and are left alone.)"""
    head = version.rule.head.terms
    return (
        version.algorithm == BINARY
        and version.delta_atom_index in analysis.recursive_atoms(version.rule)
        and len(head) == 2
        and all(isinstance(term, Variable) for term in head)
        and head[0] != head[1]
    )


def version_required_indexes(version: RuleVersion) -> set[tuple[str, tuple[int, ...]]]:
    """Every (relation, join columns) index one rule version probes.

    Binary steps probe their own join-column index.  A WCOJ version
    additionally probes *every* candidate's bound-column index (the per-row
    minimum side is chosen at runtime) and every candidate's full-arity
    index (membership checks for the non-expanded sides).
    """
    required: set[tuple[str, tuple[int, ...]]] = set()
    for step in version.joins:
        required.add((step.relation, step.join_columns))
    for level in version.wcoj_levels:
        for candidate in level.candidates:
            required.add((candidate.relation, candidate.join_columns))
            required.add((candidate.relation, tuple(range(candidate.arity))))
    return required


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------

class Planner:
    """Compiles rules of an analysed program into :class:`RulePlan` objects."""

    def __init__(
        self,
        analysis: ProgramAnalysis,
        *,
        planner: str = GREEDY,
        stats=None,
    ) -> None:
        if planner not in PLANNERS:
            raise PlanningError(
                f"unknown planner {planner!r}; expected one of {', '.join(PLANNERS)}"
            )
        self.analysis = analysis
        self.planner = planner
        self.stats = stats if stats is not None else StatsCatalog()

    def plan_program(self, symmetric: frozenset[str] = frozenset()) -> ProgramPlan:
        rule_plans: dict[Rule, RulePlan] = {}
        for stratum in self.analysis.strata:
            for rule in stratum.rules:
                rule_plans[rule] = self.plan_rule(rule)
        plan = ProgramPlan(analysis=self.analysis, rule_plans=rule_plans, planner=self.planner)
        return plan.with_mirrors(symmetric)

    def plan_rule(self, rule: Rule) -> RulePlan:
        if not rule.body:
            raise PlanningError(f"rule {rule} has no body atoms; facts are loaded, not planned")
        recursive_atoms = self.analysis.recursive_atoms(rule)
        versions: list[RuleVersion] = []
        if recursive_atoms:
            for atom_index in recursive_atoms:
                versions.append(self.plan_version(rule, delta_atom_index=atom_index))
        else:
            versions.append(self.plan_version(rule, delta_atom_index=None))

        required: set[tuple[str, tuple[int, ...]]] = set()
        for version in versions:
            required.update(version_required_indexes(version))
        return RulePlan(rule=rule, versions=tuple(versions), required_indexes=tuple(sorted(required)))

    # ------------------------------------------------------------------
    def plan_version(self, rule: Rule, delta_atom_index: int | None) -> RuleVersion:
        """Plan one semi-naïve version under this planner's mode and stats."""
        body = list(rule.body)
        outer_index = delta_atom_index if delta_atom_index is not None else 0
        version_tag = DELTA if delta_atom_index is not None else FULL

        order = self._order_atoms(body, outer_index, rule)
        step_rows, worst_cost = self._estimate_order(body, order)
        if self.planner == COST_WCOJ:
            wcoj = self._try_plan_wcoj(rule, delta_atom_index, version_tag, binary_cost=worst_cost)
            if wcoj is not None:
                return wcoj

        return self._build_binary_version(rule, delta_atom_index, order, step_rows=tuple(step_rows))

    def _build_binary_version(
        self,
        rule: Rule,
        delta_atom_index: int | None,
        order: list[int],
        *,
        step_rows: tuple[float, ...],
    ) -> RuleVersion:
        body = list(rule.body)
        pending_comparisons = list(rule.comparisons)
        outer_atom = body[order[0]]
        initial, schema = self._plan_initial(
            outer_atom,
            DELTA if delta_atom_index is not None else FULL,
            pending_comparisons,
        )

        joins: list[JoinStep] = []
        for atom_index in order[1:]:
            step, schema = self._plan_join(body[atom_index], schema, pending_comparisons)
            joins.append(step)

        final_filters = tuple(
            self._comparison_to_schema(comparison, schema)
            for comparison in pending_comparisons
        )

        head = self._plan_head(rule.head, schema, rule)
        return RuleVersion(
            rule=rule,
            head_relation=rule.head.relation,
            delta_atom_index=delta_atom_index,
            initial=initial,
            joins=tuple(joins),
            final_filters=final_filters,
            head=head,
            algorithm=BINARY,
            planner=self.planner,
            atom_order=tuple(order),
            estimated_step_rows=step_rows,
            estimated_rows=step_rows[-1],
        )

    def _order_atoms(self, body: list[Atom], outer_index: int, rule: Rule) -> list[int]:
        """Greedy left-to-right ordering starting from the outer atom.

        Each subsequent atom must share at least one variable with the
        variables bound so far (no cross products).  The tie-break is
        explicit and documented: among connectable atoms, the one at the
        *lowest body position* is appended next, so the binary plan for a
        rule is a pure function of its text, under either planner mode.
        Returns body indices in execution order.
        """
        ordered = [outer_index]
        remaining = [index for index in range(len(body)) if index != outer_index]
        bound = set(body[outer_index].variable_names())
        while remaining:
            for position, index in enumerate(remaining):
                if body[index].variable_names() & bound:
                    ordered.append(index)
                    bound |= body[index].variable_names()
                    remaining.pop(position)
                    break
            else:
                raise PlanningError(
                    f"rule {rule} requires a cross product (atom shares no variable with the "
                    "atoms already joined); cross products are not supported"
                )
        return ordered

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def _scan_estimate(
        self, atom: Atom, rows: float
    ) -> tuple[float, dict[str, float], dict[str, int]]:
        """(rows, per-variable distincts, variable->column) of one atom scan."""
        stats = self.stats
        seen: dict[str, int] = {}
        selectivity = 1.0
        for column, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                selectivity /= max(stats.distinct(atom.relation, column), 1.0)
            elif term.name in seen:
                selectivity /= max(stats.distinct(atom.relation, column), 1.0)
            else:
                seen[term.name] = column
        rows = max(rows * selectivity, 1.0)
        distincts = {
            name: max(1.0, min(stats.distinct(atom.relation, column), rows))
            for name, column in seen.items()
        }
        return rows, distincts, seen

    def _estimate_order(self, body: list[Atom], order: list[int]) -> tuple[list[float], float]:
        """Estimate a connected join order: per-step rows and worst-case C_out.

        Per-step rows use the distinct-value formula ``|O ⋈ A| = |O|·|A| /
        Π_v max(d_O(v), d_A(v))`` over the shared variables (uniformity
        assumption); they feed ``explain()``'s ``est_rows``.  The worst-case
        C_out chains the measured maximum key multiplicity per probe — on
        skewed data (a hub vertex) it exceeds the uniform estimate by orders
        of magnitude, and it is what decides binary-vs-WCOJ, bound against
        bound.
        """
        rows, distincts, _ = self._scan_estimate(
            body[order[0]], self.stats.rows(body[order[0]].relation)
        )
        step_rows = [rows]
        worst = rows
        worst_cost = 0.0
        for index in order[1:]:
            atom = body[index]
            inner_rows, inner_d, inner_columns = self._scan_estimate(
                atom, self.stats.rows(atom.relation)
            )
            shared = [name for name in inner_d if name in distincts]
            out = rows * inner_rows
            for name in shared:
                out /= max(distincts[name], inner_d[name], 1.0)
            out = max(out, 1.0)
            merged: dict[str, float] = {}
            for name in set(distincts) | set(inner_d):
                if name in distincts and name in inner_d:
                    d = min(distincts[name], inner_d[name])
                else:
                    d = distincts.get(name, inner_d.get(name))
                merged[name] = max(1.0, min(d, out))
            rows, distincts = out, merged
            step_rows.append(rows)
            join_columns = tuple(sorted(inner_columns[name] for name in shared))
            worst *= self.stats.max_multiplicity(atom.relation, join_columns)
            worst_cost += worst
        return step_rows, worst_cost

    # ------------------------------------------------------------------
    # Worst-case-optimal generic join
    # ------------------------------------------------------------------
    def _try_plan_wcoj(
        self,
        rule: Rule,
        delta_atom_index: int | None,
        version_tag: str,
        *,
        binary_cost: float,
    ) -> RuleVersion | None:
        """Build a generic-join version if the body is cyclic, WCOJ-shaped,
        and the AGM-style bound undercuts the binary order's worst-case C_out."""
        body = list(rule.body)
        outer_index = delta_atom_index if delta_atom_index is not None else 0
        if len(body) < 3 or not self._is_cyclic(body):
            return None
        for atom in body:
            names = [term.name for term in atom.terms if isinstance(term, Variable)]
            if len(names) != len(atom.terms) or len(set(names)) != len(names):
                return None  # constants / repeated variables: binary handles them

        outer_atom = body[outer_index]
        outer_vars = [term.name for term in outer_atom.terms]
        bound = set(outer_vars)
        for index, atom in enumerate(body):
            if index != outer_index and set(a.name for a in atom.terms) <= bound:
                return None  # an atom fully bound by the outer scan: stay binary

        order_vars = self._wcoj_variable_order(body, outer_index, bound)
        if order_vars is None:
            return None

        bound_value = self._agm_bound(body)
        if bound_value is None:
            return None
        if bound_value >= binary_cost:
            return None

        schema = tuple(outer_vars)
        initial = InitialScan(
            relation=outer_atom.relation,
            version=version_tag,
            filters=(),
            projection=tuple(range(len(outer_vars))),
            schema=schema,
        )

        joins: list[JoinStep] = []
        levels: list[WCOJLevel] = []
        assigned: set[int] = {outer_index}
        atom_order: list[int] = [outer_index]
        for variable in order_vars:
            candidate_indexes = [
                index
                for index, atom in enumerate(body)
                if index not in assigned
                and variable in {term.name for term in atom.terms}
                and {term.name for term in atom.terms} <= bound | {variable}
            ]
            if not candidate_indexes:
                return None
            post_schema = schema + (variable,)
            schema_positions = {name: position for position, name in enumerate(post_schema)}
            candidates: list[WCOJCandidate] = []
            for index in candidate_indexes:
                atom = body[index]
                value_column = next(
                    column for column, term in enumerate(atom.terms) if term.name == variable
                )
                bound_columns = tuple(
                    column for column in range(len(atom.terms)) if column != value_column
                )
                candidates.append(
                    WCOJCandidate(
                        atom_index=index,
                        relation=atom.relation,
                        arity=len(atom.terms),
                        join_columns=bound_columns,
                        outer_key_positions=tuple(
                            schema_positions[atom.terms[column].name] for column in bound_columns
                        ),
                        value_column=value_column,
                        member_positions=tuple(
                            schema_positions[term.name] for term in atom.terms
                        ),
                    )
                )
                assigned.add(index)
                atom_order.append(index)

            # Decomposed binary steps: expand on the first candidate, then a
            # full-arity membership semi-join per remaining candidate (the
            # full version is deduplicated, so multiplicity is at most one
            # and the decomposition computes the same multiset).
            expand = candidates[0]
            joins.append(
                JoinStep(
                    relation=expand.relation,
                    join_columns=expand.join_columns,
                    outer_key_positions=expand.outer_key_positions,
                    output=tuple(
                        [JoinOutput("outer", position) for position in range(len(schema))]
                        + [JoinOutput("inner", expand.value_column)]
                    ),
                    filters=(),
                    post_projection=None,
                    schema=post_schema,
                )
            )
            for candidate in candidates[1:]:
                joins.append(
                    JoinStep(
                        relation=candidate.relation,
                        join_columns=tuple(range(candidate.arity)),
                        outer_key_positions=candidate.member_positions,
                        output=tuple(
                            JoinOutput("outer", position) for position in range(len(post_schema))
                        ),
                        filters=(),
                        post_projection=None,
                        schema=post_schema,
                    )
                )
            levels.append(WCOJLevel(variable=variable, candidates=tuple(candidates)))
            bound.add(variable)
            schema = post_schema

        if assigned != set(range(len(body))):
            return None
        if not any(len(level.candidates) > 1 for level in levels):
            return None  # every level is a plain binary join: nothing to intersect

        final_filters = tuple(
            self._comparison_to_schema(comparison, schema) for comparison in rule.comparisons
        )
        head = self._plan_head(rule.head, schema, rule)
        return RuleVersion(
            rule=rule,
            head_relation=rule.head.relation,
            delta_atom_index=delta_atom_index,
            initial=initial,
            joins=tuple(joins),
            final_filters=final_filters,
            head=head,
            algorithm=WCOJ,
            planner=self.planner,
            atom_order=tuple(atom_order),
            wcoj_levels=tuple(levels),
            estimated_step_rows=(),
            estimated_rows=bound_value,
        )

    @staticmethod
    def _wcoj_variable_order(
        body: list[Atom], outer_index: int, outer_bound: set[str]
    ) -> list[str] | None:
        """Deterministic variable order for the generic join, or ``None``.

        Starting from the outer atom's variables, repeatedly bind the
        variable that completes the most not-yet-assigned atoms (every other
        variable of the atom already bound); ties break on first occurrence
        in the rule body.  Fails (returns ``None``) when some variable can
        never be completed one-at-a-time — those rules stay binary.
        """
        first_seen: dict[str, int] = {}
        for atom in body:
            for term in atom.terms:
                first_seen.setdefault(term.name, len(first_seen))
        bound = set(outer_bound)
        unbound = [name for name in first_seen if name not in bound]
        assigned: set[int] = {outer_index}
        order: list[str] = []
        while unbound:
            scored: list[tuple[int, int, str]] = []
            for name in unbound:
                completes = sum(
                    1
                    for index, atom in enumerate(body)
                    if index not in assigned
                    and name in {term.name for term in atom.terms}
                    and {term.name for term in atom.terms} <= bound | {name}
                )
                if completes:
                    scored.append((-completes, first_seen[name], name))
            if not scored:
                return None
            _, _, chosen = min(scored)
            order.append(chosen)
            bound.add(chosen)
            unbound.remove(chosen)
            for index, atom in enumerate(body):
                if index not in assigned and {term.name for term in atom.terms} <= bound:
                    assigned.add(index)
        return order

    def _agm_bound(self, body: list[Atom]) -> float | None:
        """AGM-style output bound ``Π_a |R_a|^{w_a}`` for a cyclic body.

        Uses the heuristic fractional edge cover ``w_a = 1 / max_{v∈a}
        cover(v)`` (exact for symmetric patterns like triangles and
        k-cliques, where every variable is covered by the same number of
        atoms) and validates it: if some variable ends up covered with total
        weight below 1 the weights are not a fractional edge cover and no
        bound is claimed.
        """
        atom_vars = [{term.name for term in atom.terms} for atom in body]
        cover = Counter(name for names in atom_vars for name in names)
        weights = [1.0 / max(cover[name] for name in names) for names in atom_vars]
        for name in cover:
            total = sum(weight for names, weight in zip(atom_vars, weights) if name in names)
            if total < 1.0 - 1e-9:
                return None
        bound = 1.0
        for index, weight in enumerate(weights):
            bound *= max(self.stats.rows(body[index].relation), 1.0) ** weight
        return bound

    @staticmethod
    def _is_cyclic(body: list[Atom]) -> bool:
        """GYO reduction: True when the body hypergraph is *not* α-acyclic."""
        edges = [frozenset(atom.variable_names()) for atom in body]
        edges = [edge for edge in edges if edge]
        changed = True
        while changed and edges:
            changed = False
            for position, edge in enumerate(edges):
                if any(
                    position != other and edge <= edges[other] for other in range(len(edges))
                ):
                    edges.pop(position)
                    changed = True
                    break
            if changed:
                continue
            count = Counter(name for edge in edges for name in edge)
            lonely = {name for name, seen in count.items() if seen == 1}
            if lonely:
                reduced = [frozenset(edge - lonely) for edge in edges]
                if reduced != edges:
                    changed = True
                edges = [edge for edge in reduced if edge]
        return bool(edges)

    # ------------------------------------------------------------------
    def _plan_initial(
        self,
        atom: Atom,
        version: str,
        pending_comparisons: list[Comparison],
    ) -> tuple[InitialScan, tuple[str, ...]]:
        filters: list[ColumnComparison] = []
        first_occurrence: dict[str, int] = {}
        for column, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                filters.append(ColumnComparison("==", column, constant=_constant_value(term)))
            else:
                if term.name in first_occurrence:
                    filters.append(ColumnComparison("==", column, right_column=first_occurrence[term.name]))
                else:
                    first_occurrence[term.name] = column

        schema = tuple(sorted(first_occurrence, key=first_occurrence.get))
        projection = tuple(first_occurrence[name] for name in schema)

        # Comparisons fully bound by this atom are applied on the atom's
        # natural layout before projection.
        for comparison in list(pending_comparisons):
            mapped = self._try_map_comparison(comparison, first_occurrence)
            if mapped is not None:
                filters.append(mapped)
                pending_comparisons.remove(comparison)

        initial = InitialScan(
            relation=atom.relation,
            version=version,
            filters=tuple(filters),
            projection=projection,
            schema=schema,
        )
        return initial, schema

    def _plan_join(
        self,
        atom: Atom,
        schema: tuple[str, ...],
        pending_comparisons: list[Comparison],
    ) -> tuple[JoinStep, tuple[str, ...]]:
        schema_positions = {name: position for position, name in enumerate(schema)}

        first_occurrence: dict[str, int] = {}
        constant_columns: list[tuple[int, int | str]] = []
        repeated_columns: list[tuple[int, int]] = []
        for column, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                constant_columns.append((column, _constant_value(term)))
            else:
                if term.name in first_occurrence:
                    repeated_columns.append((column, first_occurrence[term.name]))
                else:
                    first_occurrence[term.name] = column

        shared = [name for name in first_occurrence if name in schema_positions]
        if not shared:
            raise PlanningError(f"atom {atom} shares no variable with the current pipeline schema")
        # Key order: by inner column index, for a deterministic index signature.
        shared.sort(key=lambda name: first_occurrence[name])
        join_columns = tuple(first_occurrence[name] for name in shared)
        outer_key_positions = tuple(schema_positions[name] for name in shared)

        # Output: every existing schema variable, then the new variables of the atom.
        output: list[JoinOutput] = [JoinOutput("outer", position) for position in range(len(schema))]
        new_schema = list(schema)
        for name, column in first_occurrence.items():
            if name in schema_positions:
                continue
            output.append(JoinOutput("inner", column))
            new_schema.append(name)

        # Temporary columns needed only to evaluate constant / repeated-variable
        # constraints inside the join kernel; projected away afterwards.
        filters: list[ColumnComparison] = []
        temp_columns = 0
        for column, value in constant_columns:
            output.append(JoinOutput("inner", column))
            filters.append(ColumnComparison("==", len(output) - 1, constant=value))
            temp_columns += 1
        for column, first_column in repeated_columns:
            first_name = atom.terms[first_column].name  # type: ignore[union-attr]
            anchor = (
                schema_positions[first_name]
                if first_name in schema_positions
                else new_schema.index(first_name)
            )
            output.append(JoinOutput("inner", column))
            filters.append(ColumnComparison("==", len(output) - 1, right_column=anchor))
            temp_columns += 1

        post_projection: tuple[int, ...] | None = None
        if temp_columns:
            post_projection = tuple(range(len(output) - temp_columns))

        # Comparisons that become fully bound after this join.
        bound_positions = {name: position for position, name in enumerate(new_schema)}
        for comparison in list(pending_comparisons):
            mapped = self._try_map_comparison(comparison, bound_positions)
            if mapped is not None:
                filters.append(mapped)
                pending_comparisons.remove(comparison)

        step = JoinStep(
            relation=atom.relation,
            join_columns=join_columns,
            outer_key_positions=outer_key_positions,
            output=tuple(output),
            filters=tuple(filters),
            post_projection=post_projection,
            schema=tuple(new_schema),
        )
        return step, tuple(new_schema)

    def _plan_head(self, head: Atom, schema: tuple[str, ...], rule: Rule) -> tuple[HeadColumn, ...]:
        positions = {name: position for position, name in enumerate(schema)}
        columns: list[HeadColumn] = []
        for term in head.terms:
            if isinstance(term, Constant):
                columns.append(HeadColumn(kind="const", value=_constant_value(term)))
            else:
                if term.name not in positions:
                    raise PlanningError(
                        f"rule {rule}: head variable {term.name!r} is not bound by the body"
                    )
                columns.append(HeadColumn(kind="var", position=positions[term.name]))
        return tuple(columns)

    # ------------------------------------------------------------------
    @staticmethod
    def _try_map_comparison(
        comparison: Comparison, positions: dict[str, int]
    ) -> ColumnComparison | None:
        """Map an AST comparison onto column positions if all variables are bound."""
        left, right = comparison.left, comparison.right
        if isinstance(left, Variable) and left.name not in positions:
            return None
        if isinstance(right, Variable) and right.name not in positions:
            return None
        if isinstance(left, Constant) and isinstance(right, Constant):
            raise PlanningError(f"comparison {comparison} has no variables")
        if isinstance(left, Constant):
            # Normalise to variable-on-the-left by flipping the operator.
            return ColumnComparison(
                FLIPPED_OPS[comparison.op], positions[right.name], constant=_constant_value(left)
            )
        if isinstance(right, Constant):
            return ColumnComparison(comparison.op, positions[left.name], constant=_constant_value(right))
        return ColumnComparison(comparison.op, positions[left.name], right_column=positions[right.name])

    @staticmethod
    def _comparison_to_schema(comparison: Comparison, schema: tuple[str, ...]) -> ColumnComparison:
        positions = {name: position for position, name in enumerate(schema)}
        mapped = Planner._try_map_comparison(comparison, positions)
        if mapped is None:
            raise PlanningError(f"comparison {comparison} involves variables not bound by the rule body")
        return mapped


def plan_program(
    analysis: ProgramAnalysis, *, planner: str = GREEDY, stats=None, symmetric: frozenset[str] = frozenset()
) -> ProgramPlan:
    """Convenience wrapper: plan every rule of an analysed program, its
    versions paired under the ``symmetric`` relations."""
    return Planner(analysis, planner=planner, stats=stats).plan_program(symmetric)


def head_shard_variable(version: RuleVersion, shard_column: int) -> str | None:
    """Name of the variable feeding the head's shard column, or ``None``.

    When the head column the head relation is partitioned on is a constant,
    there is no variable to route by early and the caller falls back to the
    ordinary post-projection head route.
    """
    if not 0 <= shard_column < len(version.head):
        return None
    column = version.head[shard_column]
    if column.kind != "var":
        return None
    final_schema = version.joins[-1].schema if version.joins else version.initial.schema
    return final_schema[column.position]
