"""Abstract syntax for Datalog programs (Section 2 of the paper).

A program is a set of Horn-clause rules ``Head(...) :- Body1(...), ...`` plus
optional ground facts.  The reproduction supports positive Datalog with
comparison constraints (``x != y`` and friends), which covers every query the
paper evaluates (REACH, SG, CSPA) and the DDisasm example of Section 3.
Negation and aggregation are out of scope (the paper lists monotonic
aggregation as future work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from ..errors import DatalogError, SafetyError

COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Variable:
    """A logical variable, e.g. ``x`` in ``reach(x, y)``."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not self.name[0].isalpha() and self.name[0] != "_":
            raise DatalogError(f"invalid variable name {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Constant:
    """A ground constant: an integer or an interned string symbol."""

    value: Union[int, str]

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


Term = Union[Variable, Constant]


def make_term(value: Union[Term, int, str]) -> Term:
    """Convenience coercion: ints/strings become constants, terms pass through."""
    if isinstance(value, (Variable, Constant)):
        return value
    if isinstance(value, bool):
        raise DatalogError("boolean constants are not supported")
    if isinstance(value, int):
        return Constant(value)
    if isinstance(value, str):
        return Constant(value)
    raise DatalogError(f"cannot convert {value!r} into a Datalog term")


@dataclass(frozen=True)
class Atom:
    """A predicate applied to terms, e.g. ``edge(x, 3)``."""

    relation: str
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.relation:
            raise DatalogError("atom relation name must be non-empty")
        if not self.terms:
            raise DatalogError(f"atom {self.relation!r} must have at least one argument")
        object.__setattr__(self, "terms", tuple(make_term(t) for t in self.terms))

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> list[Variable]:
        """Variables in argument order (with repeats)."""
        return [t for t in self.terms if isinstance(t, Variable)]

    def variable_names(self) -> set[str]:
        return {t.name for t in self.terms if isinstance(t, Variable)}

    def is_ground(self) -> bool:
        return all(isinstance(t, Constant) for t in self.terms)

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(str(t) for t in self.terms)})"


@dataclass(frozen=True)
class Comparison:
    """A comparison constraint in a rule body, e.g. ``x != y`` or ``x < 5``."""

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise DatalogError(f"unsupported comparison operator {self.op!r}")
        object.__setattr__(self, "left", make_term(self.left))
        object.__setattr__(self, "right", make_term(self.right))

    def variable_names(self) -> set[str]:
        names = set()
        for term in (self.left, self.right):
            if isinstance(term, Variable):
                names.add(term.name)
        return names

    def __str__(self) -> str:
        op = "=" if self.op == "==" else self.op
        return f"{self.left} {op} {self.right}"


@dataclass(frozen=True)
class Rule:
    """A Horn clause ``head :- body, comparisons``.

    A rule with an empty body and a ground head is a fact.
    """

    head: Atom
    body: tuple[Atom, ...] = ()
    comparisons: tuple[Comparison, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "comparisons", tuple(self.comparisons))
        self._check_safety()

    def _check_safety(self) -> None:
        bound = set()
        for atom in self.body:
            bound |= atom.variable_names()
        for variable in self.head.variables():
            if variable.name not in bound and self.body:
                raise SafetyError(
                    f"unsafe rule {self}: head variable {variable.name!r} does not occur in the body"
                )
            if not self.body and isinstance(variable, Variable):
                raise SafetyError(f"fact {self.head} must be ground")
        for comparison in self.comparisons:
            for name in comparison.variable_names():
                if name not in bound:
                    raise SafetyError(
                        f"unsafe rule {self}: comparison variable {name!r} does not occur in a body atom"
                    )

    @property
    def is_fact(self) -> bool:
        return not self.body and self.head.is_ground()

    def variable_names(self) -> set[str]:
        names = self.head.variable_names()
        for atom in self.body:
            names |= atom.variable_names()
        return names

    def __str__(self) -> str:
        if not self.body and not self.comparisons:
            return f"{self.head}."
        parts = [str(atom) for atom in self.body] + [str(c) for c in self.comparisons]
        return f"{self.head} :- {', '.join(parts)}."


@dataclass(frozen=True)
class Program:
    """A Datalog program: rules (including facts) plus declared relations."""

    rules: tuple[Rule, ...]
    name: str = "program"

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        self._check_arities()

    @staticmethod
    def parse(source: str, name: str = "program") -> "Program":
        """Parse a program from Datalog source text (see :mod:`repro.datalog.parser`)."""
        from .parser import parse_program

        return parse_program(source, name=name)

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def _check_arities(self) -> None:
        arities: dict[str, int] = {}
        for rule in self.rules:
            for atom in (rule.head, *rule.body):
                known = arities.get(atom.relation)
                if known is None:
                    arities[atom.relation] = atom.arity
                elif known != atom.arity:
                    raise DatalogError(
                        f"relation {atom.relation!r} used with arities {known} and {atom.arity}"
                    )

    def relation_arities(self) -> dict[str, int]:
        """Arity of every relation mentioned anywhere in the program."""
        arities: dict[str, int] = {}
        for rule in self.rules:
            for atom in (rule.head, *rule.body):
                arities.setdefault(atom.relation, atom.arity)
        return arities

    def relations(self) -> set[str]:
        return set(self.relation_arities())

    def idb_relations(self) -> set[str]:
        """Relations defined by at least one non-fact rule head."""
        return {rule.head.relation for rule in self.rules if not rule.is_fact}

    def edb_relations(self) -> set[str]:
        """Relations that only ever appear in rule bodies or as facts."""
        return self.relations() - self.idb_relations()

    def facts(self) -> list[Rule]:
        return [rule for rule in self.rules if rule.is_fact]

    def proper_rules(self) -> list[Rule]:
        return [rule for rule in self.rules if not rule.is_fact]

    def rules_for(self, relation: str) -> list[Rule]:
        return [rule for rule in self.proper_rules() if rule.head.relation == relation]

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)


def program_from_rules(rules: Iterable[Rule], name: str = "program") -> Program:
    """Build a :class:`Program` from an iterable of rules."""
    return Program(tuple(rules), name=name)
