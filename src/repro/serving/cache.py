"""Compiled-program cache for the serving engine.

Loading a program into a :class:`~repro.serving.engine.ServingEngine` costs
real planning work: stratification, per-rule version planning, and — beyond
what the batch engine compiles — the *epoch version set* (one delta version
per rule per body atom, EDB atoms included) plus one full re-derive version
per rule for DRed.  None of that depends on the resident data, so a process
hosting many engines over the same rule set (or restarting an engine on the
same program) should pay it once.

:class:`ProgramCache` memoizes :class:`CompiledProgram` objects keyed by the
SHA-256 of the *interned* program text plus the planner name.  Hashing the
interned text (string constants already replaced by the engine's symbol ids)
is deliberate: symbol ids depend on interning order, so two engines whose
tables disagree produce different interned text and therefore different keys
— a shared cache can never hand an engine a plan whose constants were
interned by someone else's table.  ``cost+wcoj`` is keyed the same way but
compiles stat-free here (serving plans are data-independent by design; a
batch run plans from the statistics of its loaded facts).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..datalog.analysis import ProgramAnalysis, analyze_program
from ..datalog.ast import Program
from ..datalog.planner import (
    Planner,
    ProgramPlan,
    RuleVersion,
    plan_program,
    version_required_indexes,
)

__all__ = ["CompiledProgram", "ProgramCache", "rule_set_hash"]


def rule_set_hash(program: Program, planner: str) -> str:
    """Stable cache key: SHA-256 over the interned rule text + planner name.

    Rule order is preserved (it is part of plan identity for the greedy
    planner), so the hash is deterministic for a given parsed program.
    """
    digest = hashlib.sha256()
    digest.update(planner.encode("utf-8"))
    for rule in program.rules:
        digest.update(b"\x00")
        digest.update(str(rule).encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True)
class CompiledProgram:
    """Everything data-independent the serving engine needs for one program."""

    key: str
    program: Program
    analysis: ProgramAnalysis
    plan: ProgramPlan
    #: one delta version per (rule, body-atom index) — the complete
    #: incremental-maintenance version set an insert epoch iterates
    epoch_versions: tuple[RuleVersion, ...]
    #: one full (delta-free) version per rule — DRed's re-derive probes
    full_versions: tuple[RuleVersion, ...]
    #: union of every index the plan, the epoch versions and the full
    #: versions probe; registered before relations initialize
    required_indexes: frozenset[tuple[str, tuple[int, ...]]] = field(default_factory=frozenset)

    @property
    def idb_relations(self) -> frozenset[str]:
        return frozenset(self.analysis.idb_relations)


def compile_program(program: Program, *, planner: str) -> CompiledProgram:
    """Compile one interned program into its serving artefacts (uncached)."""
    analysis = analyze_program(program)
    plan = plan_program(analysis, planner=planner)
    version_planner = Planner(analysis, planner=planner)
    epoch_versions: list[RuleVersion] = []
    full_versions: list[RuleVersion] = []
    for stratum in analysis.strata:
        for rule in stratum.rules:
            for atom_index in range(len(rule.body)):
                epoch_versions.append(version_planner.plan_version(rule, atom_index))
            full_versions.append(version_planner.plan_version(rule, None))
    required: set[tuple[str, tuple[int, ...]]] = set(plan.required_indexes())
    for version in (*epoch_versions, *full_versions):
        required.update(version_required_indexes(version))
    return CompiledProgram(
        key=rule_set_hash(program, planner),
        program=program,
        analysis=analysis,
        plan=plan,
        epoch_versions=tuple(epoch_versions),
        full_versions=tuple(full_versions),
        required_indexes=frozenset(required),
    )


class ProgramCache:
    """Thread-safe LRU cache of :class:`CompiledProgram` objects.

    One process-wide default instance backs every serving engine that is not
    handed an explicit cache; ``maxsize`` bounds the resident plans (least
    recently used programs are evicted first).  ``hits``/``misses`` are
    surfaced so the serving benchmark can assert the program actually loads
    once.
    """

    def __init__(self, maxsize: int = 32) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CompiledProgram]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, program: Program, *, planner: str) -> CompiledProgram:
        """Return the compiled form of ``program``, compiling on first use."""
        key = rule_set_hash(program, planner)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached
        # Compile outside the lock — planning can be slow and is pure.
        compiled = compile_program(program, planner=planner)
        with self._lock:
            if key in self._entries:
                # Another thread compiled the same program meanwhile; keep
                # the incumbent so every engine shares one object.
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            self._entries[key] = compiled
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            return compiled

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


#: Process-wide default cache shared by every engine not given its own.
DEFAULT_PROGRAM_CACHE = ProgramCache()
