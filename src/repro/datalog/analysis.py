"""Static analysis of Datalog programs: dependency graph, SCCs, strata.

Evaluation proceeds stratum by stratum: the predicate dependency graph (an
edge from every body relation to the head relation it helps derive) is
condensed into strongly connected components, and the components are evaluated
in topological order.  Rules whose body mentions a relation in the same SCC as
the head are *recursive* and participate in the semi-naïve fixpoint loop of
that stratum; all other rules fire exactly once when their stratum starts.

The same analysis reports, per rule, which body atoms are recursive — the
planner generates one semi-naïve rule version per recursive atom (Section 2).

**Symmetric relations.**  A binary relation is *symmetric* when it holds
``(b, a)`` whenever it holds ``(a, b)``.  :func:`symmetric_relations` proves
it as a greatest fixpoint: start from every binary IDB relation whose ground
facts are swap-closed, and drop a relation while one of its rules has no
:func:`mirror_renamings` entry — no renaming of its variables that exchanges
the two head terms and maps the body onto itself, where an atom of a relation
still in the set may match with its columns swapped.  Every derivation of
``(a, b)`` then has a mirror image deriving ``(b, a)``.  The planner uses the
same renamings to pair rule versions that compute each other's output with
the columns swapped (``RuleVersion.mirror_of``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import networkx as nx
import numpy as np

from ..errors import DatalogError
from .ast import Comparison, Constant, Program, Rule, Variable

#: Bodies longer than this are not searched for a mirror renaming (the search
#: tries every atom permutation); such a rule counts as not mapping.
MIRROR_MAX_ATOMS = 6

#: Each comparison with its operands exchanged: ``x < y`` is ``y > x``.
FLIPPED_OPS = {"==": "==", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


@dataclass(frozen=True)
class Stratum:
    """One strongly connected component of the predicate dependency graph."""

    index: int
    relations: frozenset[str]
    recursive: bool
    rules: tuple[Rule, ...]

    def __str__(self) -> str:
        kind = "recursive" if self.recursive else "non-recursive"
        return f"Stratum {self.index} ({kind}): {', '.join(sorted(self.relations))}"


@dataclass(frozen=True)
class ProgramAnalysis:
    """Result of analysing a program: strata, EDB/IDB split, arities."""

    program: Program
    strata: tuple[Stratum, ...]
    edb_relations: frozenset[str]
    idb_relations: frozenset[str]
    relation_arities: dict[str, int]
    dependency_graph: nx.DiGraph

    def stratum_of(self, relation: str) -> Stratum | None:
        for stratum in self.strata:
            if relation in stratum.relations:
                return stratum
        return None

    def recursive_atoms(self, rule: Rule) -> list[int]:
        """Indices of body atoms whose relation is in the same SCC as the head."""
        stratum = self.stratum_of(rule.head.relation)
        if stratum is None or not stratum.recursive:
            return []
        return [
            index
            for index, atom in enumerate(rule.body)
            if atom.relation in stratum.relations
        ]

    def is_recursive_rule(self, rule: Rule) -> bool:
        return bool(self.recursive_atoms(rule))


def dependency_graph(program: Program) -> nx.DiGraph:
    """Predicate dependency graph: body relation -> head relation edges."""
    graph = nx.DiGraph()
    for relation in program.relations():
        graph.add_node(relation)
    for rule in program.proper_rules():
        for atom in rule.body:
            graph.add_edge(atom.relation, rule.head.relation)
    return graph


def analyze_program(program: Program) -> ProgramAnalysis:
    """Compute strata (in evaluation order) and classification metadata."""
    graph = dependency_graph(program)
    idb = program.idb_relations()
    edb = program.edb_relations()

    condensation = nx.condensation(graph)
    order = list(nx.topological_sort(condensation))

    strata: list[Stratum] = []
    index = 0
    for component_id in order:
        members = frozenset(condensation.nodes[component_id]["members"])
        idb_members = members & idb
        if not idb_members:
            # Pure-EDB components need no evaluation pass of their own.
            continue
        recursive = _component_is_recursive(graph, members)
        rules = tuple(
            rule
            for rule in program.proper_rules()
            if rule.head.relation in idb_members
        )
        strata.append(Stratum(index=index, relations=members, recursive=recursive, rules=rules))
        index += 1

    _check_rule_coverage(program, strata)
    return ProgramAnalysis(
        program=program,
        strata=tuple(strata),
        edb_relations=frozenset(edb),
        idb_relations=frozenset(idb),
        relation_arities=program.relation_arities(),
        dependency_graph=graph,
    )


def _component_is_recursive(graph: nx.DiGraph, members: frozenset[str]) -> bool:
    if len(members) > 1:
        return True
    member = next(iter(members))
    return graph.has_edge(member, member)


def swap_closed(rows) -> bool:
    """True if the ``(n, 2)`` rows hold ``(b, a)`` for every ``(a, b)``
    (an empty array of any shape is; rows of another arity are not)."""
    rows = np.asarray(rows, dtype=np.int64)
    if not rows.size:
        return True
    if rows.ndim != 2 or rows.shape[1] != 2:
        return False
    return np.array_equal(np.unique(rows, axis=0), np.unique(rows[:, ::-1], axis=0))


def symmetric_relations(analysis: ProgramAnalysis, asymmetric: Iterable[str] = ()) -> frozenset[str]:
    """The binary IDB relations proved symmetric (greatest fixpoint).

    ``asymmetric`` names the relations whose ground facts (program facts,
    staged fact arrays, serving inserts) are not :func:`swap_closed`; they
    start outside the set.  Every other binary IDB relation starts inside and
    is dropped while one of its rules has no mirror renaming under the
    relations still inside.  The result's relations are symmetric at every
    iteration boundary of a fixpoint that starts from swap-closed facts,
    because every derivation of a row has a mirror image deriving its swap.
    """
    candidates = {
        name for name in analysis.idb_relations if analysis.relation_arities.get(name) == 2
    } - set(asymmetric)
    changed = True
    while changed:
        changed = False
        for name in sorted(candidates):
            assumed = frozenset(candidates)
            if any(
                next(mirror_renamings(rule, assumed), None) is None
                for rule in analysis.program.rules_for(name)
            ):
                candidates.discard(name)
                changed = True
    return frozenset(candidates)


def mirror_renamings(rule: Rule, symmetric: frozenset[str]) -> Iterator[tuple[int, ...]]:
    """Every way ``rule`` maps onto itself with its two head terms exchanged.

    A renaming σ of the rule's variables qualifies when it sends the head
    ``h(s, t)`` to ``h(t, s)``, fixes every constant, maps the body's atoms
    one to one onto its atoms — an atom of a relation in ``symmetric`` may
    land on its image with the two columns swapped — and maps the comparison
    set onto an equivalent one (``x < y`` may become ``y > x``).  Yields the
    atom permutation of each qualifying σ: entry ``i`` is the body index atom
    ``i`` maps to.  Nothing for a head that is not binary or a body longer
    than :data:`MIRROR_MAX_ATOMS`.
    """
    head = rule.head.terms
    if len(head) != 2 or len(rule.body) > MIRROR_MAX_ATOMS:
        return
    renaming: dict[str, str] = {}
    if not (_bind(renaming, head[0], head[1]) and _bind(renaming, head[1], head[0])):
        return
    comparisons = {_normal_comparison(comparison) for comparison in rule.comparisons}
    yield from _map_atoms(rule, symmetric, comparisons, renaming, [])


def _map_atoms(
    rule: Rule,
    symmetric: frozenset[str],
    comparisons: set,
    renaming: dict[str, str],
    image: list[int],
) -> Iterator[tuple[int, ...]]:
    """Extend ``renaming`` atom by atom (brute force over the targets)."""
    index = len(image)
    if index == len(rule.body):
        mapped = {
            _normal_comparison(
                Comparison(
                    comparison.op,
                    _rename(renaming, comparison.left),
                    _rename(renaming, comparison.right),
                )
            )
            for comparison in rule.comparisons
        }
        if mapped == comparisons:
            yield tuple(image)
        return
    atom = rule.body[index]
    for target, candidate in enumerate(rule.body):
        if target in image or candidate.relation != atom.relation:
            continue
        orientations = [candidate.terms]
        if atom.relation in symmetric and atom.arity == 2:
            orientations.append(candidate.terms[::-1])
        for terms in orientations:
            extended = dict(renaming)
            if all(_bind(extended, source, goal) for source, goal in zip(atom.terms, terms)):
                yield from _map_atoms(rule, symmetric, comparisons, extended, [*image, target])


def _bind(renaming: dict[str, str], source, goal) -> bool:
    """Record σ(source) = goal if that keeps σ a constant-fixing bijection."""
    if isinstance(source, Constant) or isinstance(goal, Constant):
        return source == goal
    bound = renaming.get(source.name)
    if bound is not None:
        return bound == goal.name
    if goal.name in renaming.values():
        return False
    renaming[source.name] = goal.name
    return True


def _rename(renaming: dict[str, str], term):
    return Variable(renaming[term.name]) if isinstance(term, Variable) else term


def _normal_comparison(comparison: Comparison) -> tuple:
    """One spelling per comparison: ``>``/``>=`` become ``<``/``<=`` with the
    operands exchanged, and ``==``/``!=`` order their operands."""
    op, left, right = comparison.op, comparison.left, comparison.right
    if op in (">", ">=") or (op in ("==", "!=") and repr(right) < repr(left)):
        op, left, right = FLIPPED_OPS[op], right, left
    return (op, left, right)


def _check_rule_coverage(program: Program, strata: list[Stratum]) -> None:
    covered = set()
    for stratum in strata:
        covered.update(stratum.rules)
    missing = [rule for rule in program.proper_rules() if rule not in covered]
    if missing:
        raise DatalogError(
            "internal stratification error: rules not assigned to any stratum: "
            + "; ".join(str(rule) for rule in missing)
        )
