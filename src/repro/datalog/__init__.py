"""Datalog front-end and the GPUlog engine facade.

The compilation pipeline runs parser → AST → static analysis (dependency
graph, SCC stratification, required-index discovery) → planner (rule
versions: the semi-naïve delta rewrite in body order, WCOJ
selection for cyclic rules) → the fixpoint driver in :mod:`.seminaive`, one
for every shard count, which owns the exchange layer in :mod:`.sharded` (the
charged cross-shard movement; a no-op on one shard).
:class:`~repro.datalog.engine.GPULogEngine` is the one-shot facade over all
of it; the resident, incrementally-maintained counterpart lives in
:mod:`repro.serving`.  See ``docs/architecture.md`` for the layer guide.
"""

from .analysis import ProgramAnalysis, Stratum, analyze_program, dependency_graph
from .ast import (
    Atom,
    Comparison,
    Constant,
    Program,
    Rule,
    Term,
    Variable,
    make_term,
    program_from_rules,
)
from .engine import SHARDS_ENV_VAR, DecodedRelation, EvaluationResult, GPULogEngine, SymbolTable
from .parser import parse_program, parse_rule
from .planner import (
    HeadColumn,
    InitialScan,
    JoinStep,
    Planner,
    ProgramPlan,
    RulePlan,
    RuleVersion,
    plan_program,
)
from .seminaive import (
    EvaluationStats,
    IterationTrace,
    SemiNaiveEvaluator,
    StratumResult,
    WorkloadTrace,
)
from .sharded import ShardedSemiNaiveEvaluator, ShardExchange, shard_columns_for_plan

__all__ = [
    "Atom",
    "Comparison",
    "Constant",
    "DecodedRelation",
    "EvaluationResult",
    "EvaluationStats",
    "GPULogEngine",
    "HeadColumn",
    "InitialScan",
    "IterationTrace",
    "JoinStep",
    "Planner",
    "Program",
    "ProgramAnalysis",
    "ProgramPlan",
    "Rule",
    "RulePlan",
    "RuleVersion",
    "SHARDS_ENV_VAR",
    "SemiNaiveEvaluator",
    "ShardExchange",
    "ShardedSemiNaiveEvaluator",
    "StratumResult",
    "Stratum",
    "SymbolTable",
    "Term",
    "Variable",
    "WorkloadTrace",
    "analyze_program",
    "dependency_graph",
    "make_term",
    "parse_program",
    "parse_rule",
    "plan_program",
    "program_from_rules",
    "shard_columns_for_plan",
]
