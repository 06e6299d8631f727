"""GPUlog: the public Datalog engine facade.

:class:`GPULogEngine` glues together the front-end (parser, analysis,
planner), the relational substrate (HISA-backed relations) and the simulated
device.  Typical usage::

    engine = GPULogEngine(device="h100")
    engine.add_facts("edge", [(0, 1), (1, 2)])
    result = engine.run('''
        reach(x, y) :- edge(x, y).
        reach(x, y) :- edge(x, z), reach(z, y).
    ''')
    result.relation("reach")

String constants in facts or rules are interned into integers transparently
(GPU relations hold int64 tuples).  ``run`` downloads each relation's rows
once; ``result.relation(name)`` is a read-only sequence over them that
decodes ids back into ints and strings one block at a time as it is
iterated, so no relation is held as a list of Python tuples.
"""

from __future__ import annotations

import operator
import os
from collections import Counter, defaultdict
from collections.abc import Mapping, Sequence
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, Union

import numpy as np

from ..backend import ArrayBackend, get_backend, host_rows_to_tuples
from ..device.device import Device
from ..device.faults import FaultPlan, resolve_fault_plan
from ..device.profiler import (
    FIGURE6_PHASES,
    PHASE_LOAD,
    PHASE_SHARD_EXCHANGE,
    phase_fractions_from_seconds,
)
from ..device.spec import DeviceSpec
from ..errors import CheckpointError, DatalogError, DeviceBufferError, SchemaError
from ..relational.checkpoint import CheckpointStore, EvaluationCheckpoint
from ..relational.hashtable import DEFAULT_LOAD_FACTOR
from ..relational.relation import IterationStats
from ..relational.sharded import ShardedRelation
from ..relational.stats import StatsCatalog
from .analysis import analyze_program, swap_closed, symmetric_relations
from .ast import Atom, Comparison, Constant, Program, Rule
from .planner import (
    BINARY,
    GREEDY,
    PLANNERS,
    WCOJ,
    ProgramPlan,
    plan_program,
)
from .seminaive import EvaluationStats, SemiNaiveEvaluator, WorkloadTrace
from .sharded import DEFAULT_REPLICATE_MAX_BYTES, shard_columns_for_plan

FactValue = Union[int, str]
FactTuple = Sequence[FactValue]

#: Environment variable supplying the default shard count (the experiments
#: CLI's ``--shards`` flag exports it, mirroring ``REPRO_BACKEND``).
SHARDS_ENV_VAR = "REPRO_SHARDS"

#: Overlap ablation for the sharded exchange layer (the experiments CLI's
#: ``--no-exchange-overlap`` flag exports it).
OVERLAP_ENV_VAR = "REPRO_EXCHANGE_OVERLAP"

#: Planner ablation axis (the experiments CLI's ``--planner`` flag exports it):
#: "greedy" (the body order) or "cost+wcoj" (the same order, plus the generic
#: join for cyclic, skewed bodies).
PLANNER_ENV_VAR = "REPRO_PLANNER"

_TRUE_FLAGS = frozenset({"1", "true", "yes", "on"})
_FALSE_FLAGS = frozenset({"0", "false", "no", "off"})


def _default_num_shards() -> int:
    value = os.environ.get(SHARDS_ENV_VAR, "").strip()
    if not value:
        return 1
    try:
        return int(value)
    except ValueError as error:
        raise SchemaError(f"{SHARDS_ENV_VAR} must be an integer, got {value!r}") from error


def _default_planner() -> str:
    value = os.environ.get(PLANNER_ENV_VAR, "").strip().lower()
    return value or GREEDY


def _env_flag(name: str, default: bool) -> bool:
    value = os.environ.get(name, "").strip().lower()
    if not value:
        return default
    if value in _TRUE_FLAGS:
        return True
    if value in _FALSE_FLAGS:
        return False
    raise SchemaError(f"{name} must be a boolean flag, got {value!r}")


class SymbolTable:
    """Bidirectional interning of string symbols into int64 identifiers.

    Interned identifiers start at ``2**40`` so they do not collide with the
    integer constants used by the benchmark datasets.
    """

    BASE = 1 << 40

    def __init__(self) -> None:
        self._by_symbol: dict[str, int] = {}
        self._by_id: dict[int, str] = {}

    def encode(self, value: FactValue) -> int:
        if isinstance(value, bool):
            raise DatalogError("boolean constants are not supported")
        if isinstance(value, (int, np.integer)):
            return int(value)
        if not isinstance(value, str):
            raise DatalogError(f"cannot encode constant {value!r}")
        if value not in self._by_symbol:
            identifier = self.BASE + len(self._by_symbol)
            self._by_symbol[value] = identifier
            self._by_id[identifier] = value
        return self._by_symbol[value]

    def decode(self, identifier: int) -> FactValue:
        return self._by_id.get(int(identifier), int(identifier))

    def decode_rows(self, rows: np.ndarray) -> list[tuple[FactValue, ...]]:
        """Decode an ``(n, arity)`` int64 host array into a list of tuples.

        Equal to ``[tuple(decode(v) for v in row) for row in rows.tolist()]``
        — same row order, Python ``int``/``str`` elements, un-interned ids at
        or above :attr:`BASE` stay ints.  :meth:`iter_decoded` is the same
        tuples streamed.
        """
        return list(self.iter_decoded(rows))

    def iter_decoded(self, rows: np.ndarray) -> Iterator[tuple[FactValue, ...]]:
        """The tuples of :meth:`decode_rows`, decoded one block at a time
        (:func:`~repro.backend.host_rows_to_tuples`) without per-value calls:
        a block's column takes a dictionary pass only when symbols exist and
        its maximum reaches ``BASE``."""
        if not self._by_id:
            return host_rows_to_tuples(rows)
        lookup = self._by_id.get

        def translate(column: np.ndarray, values: list[int]) -> list[FactValue]:
            if not values or column.max() < self.BASE:
                return values
            return [lookup(value, value) for value in values]

        return host_rows_to_tuples(rows, translate)

    def __len__(self) -> int:
        return len(self._by_symbol)

    def entries(self) -> list[tuple[str, int]]:
        """Every ``(symbol, identifier)`` pair in interning order.

        Insertion order is the allocation order (identifiers are dense from
        ``BASE``), so the full listing — or a tail of it via
        :meth:`entries_from` — round-trips through :meth:`restore_entries`
        into an identically-allocating table.  The serving engine persists
        these in write-ahead-log batches and checkpoint metadata.
        """
        return list(self._by_symbol.items())

    def entries_from(self, start: int) -> list[tuple[str, int]]:
        """The entries interned at position ``start`` onward (a delta)."""
        return list(islice(self._by_symbol.items(), start, None))

    def truncate(self, length: int) -> None:
        """Forget the entries interned at position ``length`` onward."""
        while len(self._by_symbol) > length:
            _, identifier = self._by_symbol.popitem()
            del self._by_id[identifier]

    def restore_entries(self, entries) -> None:
        """Re-intern persisted ``(symbol, identifier)`` pairs verbatim.

        Idempotent for matching pairs; a symbol already interned under a
        *different* identifier means the entries came from a foreign table
        and decoding would be ambiguous, so that is rejected.
        """
        for symbol, identifier in entries:
            symbol = str(symbol)
            identifier = int(identifier)
            existing = self._by_symbol.get(symbol)
            if existing is not None:
                if existing != identifier:
                    raise DatalogError(
                        f"symbol {symbol!r} already interned as {existing}, "
                        f"cannot restore it as {identifier}"
                    )
                continue
            self._by_symbol[symbol] = identifier
            self._by_id[identifier] = symbol


def intern_program(program: Program, symbols: SymbolTable) -> Program:
    """Replace string constants in ``program`` with interned identifiers.

    Shared by the batch engine and the serving engine so a program and its
    facts always agree on constant encoding within one engine instance.
    """

    def intern_term(term):
        if isinstance(term, Constant) and isinstance(term.value, str):
            return Constant(symbols.encode(term.value))
        return term

    rules = []
    for rule in program.rules:
        head = Atom(rule.head.relation, tuple(intern_term(t) for t in rule.head.terms))
        body = tuple(Atom(a.relation, tuple(intern_term(t) for t in a.terms)) for a in rule.body)
        comparisons = tuple(
            Comparison(c.op, intern_term(c.left), intern_term(c.right)) for c in rule.comparisons
        )
        rules.append(Rule(head=head, body=body, comparisons=comparisons))
    return Program(tuple(rules), name=program.name)


class DecodedRelation(Sequence):
    """Read-only sequence of one relation's decoded tuples.

    A view over the relation's downloaded ``(n, arity)`` int64 rows and the
    symbol table: iterating it decodes one block of rows at a time
    (:meth:`SymbolTable.iter_decoded`), so a tuple becomes a Python object
    only when the consumer reaches it and a pass never holds the whole
    relation as a list.  Each pass decodes again.  Indexing by an ``int``
    gives one tuple, by a ``slice`` a list; it equals a list (or another
    view) with the same tuples in the same order.  It has no ``__array__``:
    ``np.asarray(view)`` iterates it like any sequence.
    """

    __slots__ = ("_rows", "_symbols")

    def __init__(self, rows: np.ndarray, symbols: SymbolTable) -> None:
        self._rows = rows
        self._symbols = symbols

    def __len__(self) -> int:
        return self._rows.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._symbols.decode_rows(self._rows[index])
        return self._symbols.decode_rows(self._rows[operator.index(index), None])[0]

    def __iter__(self) -> Iterator[tuple[FactValue, ...]]:
        return self._symbols.iter_decoded(self._rows)

    def __reversed__(self) -> Iterator[tuple[FactValue, ...]]:
        return self._symbols.iter_decoded(self._rows[::-1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, DecodedRelation)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))


class DecodedRelations(Mapping):
    """Read-only ``name -> DecodedRelation`` view over downloaded rows.

    The run hands over each relation's host array as downloaded (interned
    int64 ids, frozen read-only).  A lookup returns that relation's
    :class:`DecodedRelation`, memoised so ``relations[name] is
    relations[name]``; it holds no tuples, so a relation nobody iterates
    never becomes Python objects and one that is iterated is decoded block
    by block, pass by pass.
    """

    def __init__(self, rows: dict[str, np.ndarray], symbols: SymbolTable) -> None:
        for array in rows.values():
            array.setflags(write=False)
        self._rows = rows
        self._symbols = symbols
        self._views: dict[str, DecodedRelation] = {}

    def __getitem__(self, name: str) -> DecodedRelation:
        view = self._views.get(name)
        if view is None:
            view = self._views[name] = DecodedRelation(self._rows[name], self._symbols)
        return view

    def __contains__(self, name: object) -> bool:
        return name in self._rows

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self, name: str) -> np.ndarray:
        return self._rows[name]


@dataclass
class EvaluationResult:
    """Everything an experiment needs to know about one engine run."""

    program_name: str
    device_name: str
    #: decoded tuples per relation, streamed on read (see :class:`DecodedRelations`)
    relations: DecodedRelations
    relation_counts: dict[str, int]
    elapsed_seconds: float
    fixed_seconds: float
    variable_seconds: float
    peak_memory_bytes: int
    total_iterations: int
    stratum_iterations: dict[int, int]
    phase_seconds: dict[str, float]
    phase_fractions: dict[str, float]
    iteration_history: dict[str, list[IterationStats]]
    stats: EvaluationStats
    #: number of shard devices the run used
    shard_count: int = 1
    #: per-shard simulated seconds
    shard_elapsed_seconds: tuple[float, ...] = field(default_factory=tuple)
    #: per-shard peak device memory in bytes
    shard_peak_memory_bytes: tuple[int, ...] = field(default_factory=tuple)
    #: bytes moved across the device<->device interconnect (shard exchange)
    exchange_bytes: float = 0.0
    #: tuples moved across shards during exchanges
    exchange_tuples: int = 0
    #: transient kernel faults absorbed by version-level retries
    transient_retries: int = 0
    #: iteration-boundary checkpoints taken during the run
    checkpoints_taken: int = 0
    #: global rollbacks to a checkpoint (fault recovery)
    checkpoint_restores: int = 0
    #: shard devices rebuilt after a mid-exchange crash
    shard_rebuilds: int = 0
    #: rule versions re-executed in halved chunks after an OOM
    oom_chunked_joins: int = 0
    #: dedup passes that degraded into halved chunks after an OOM
    oom_degraded_dedups: int = 0
    #: interconnect bytes observed on the receiving side of exchanges
    #: (should mirror ``exchange_bytes``; a gap means dropped payloads)
    exchange_recv_bytes: float = 0.0
    #: interconnect bytes sent by each shard device
    exchange_send_bytes_per_shard: tuple[float, ...] = field(default_factory=tuple)
    #: interconnect bytes received by each shard device
    exchange_recv_bytes_per_shard: tuple[float, ...] = field(default_factory=tuple)
    #: max over shards of (sent + received) divided by the mean — 1.0 is a
    #: perfectly balanced exchange, higher means one shard is the hot spot
    exchange_skew: float = 0.0
    #: exchange seconds hidden under compute by overlap scheduling
    exchange_overlap_hidden_seconds: float = 0.0
    #: hidden exchange time / total exchange time (0 with overlap disabled)
    exchange_overlap_efficiency: float = 0.0
    #: join steps answered against a replicated EDB inner (no exchange)
    replicated_joins: int = 0
    #: join steps whose probe was shard-local after a key repartition
    aligned_joins: int = 0
    #: join steps that actually replicated outer rows to other shards
    broadcast_joins: int = 0
    #: planner mode the run used ("greedy" or "cost+wcoj")
    planner: str = "greedy"
    #: one entry per rule version: chosen join order, algorithm, estimated
    #: vs. observed cardinalities (feeds ``GPULogEngine.explain()``)
    plan_report: tuple = field(default_factory=tuple)
    #: binary relations proved symmetric, which the rule versions paired under
    symmetric: tuple[str, ...] = ()

    def relation(self, name: str) -> DecodedRelation | list:
        """The decoded tuples of ``name`` as a memoised, read-only
        :class:`DecodedRelation` that decodes block by block as it is
        iterated; an empty list if ``name`` is unknown."""
        return self.relations.get(name, [])

    def relation_set(self, name: str) -> set[tuple[FactValue, ...]]:
        """The decoded tuples of ``name`` as a set (one pass over its view)."""
        return set(self.relations.get(name, ()))

    def rows(self, name: str) -> np.ndarray:
        """The downloaded ``(n, arity)`` int64 rows of ``name``: read-only,
        interned ids left as they are — for consumers that want numbers, not
        Python tuples.  Raises ``KeyError`` for an unknown relation."""
        return self.relations.rows(name)

    def count(self, name: str) -> int:
        return self.relation_counts.get(name, 0)

    @property
    def trace(self) -> WorkloadTrace:
        """The run's per-iteration work counts, which the baselines price."""
        return self.stats.trace

    def tail_iterations(self, relation: str, threshold: float = 0.01) -> int:
        """Iterations whose delta was below ``threshold`` of the final relation size.

        This is the "Tail" column of Table 1 (threshold 1 %).
        """
        history = self.iteration_history.get(relation, [])
        if not history:
            return 0
        final_size = max(1, history[-1].full_count)
        return sum(1 for item in history if 0 < item.delta_count < threshold * final_size)

    @property
    def peak_memory_gib(self) -> float:
        return self.peak_memory_bytes / 1024**3


class GPULogEngine:
    """GPU Datalog engine backed by HISA relations on a simulated device."""

    def __init__(
        self,
        device: Union[Device, DeviceSpec, str] = "h100",
        *,
        memory_capacity_bytes: int | None = None,
        oom_enabled: bool = True,
        eager_buffers: bool = True,
        load_factor: float = DEFAULT_LOAD_FACTOR,
        materialize_nway: bool = True,
        collect_relations: bool = True,
        backend: "ArrayBackend | str | None" = None,
        num_shards: int | None = None,
        checkpoint_every: int = 0,
        checkpoint_store: CheckpointStore | None = None,
        max_retries: int = 3,
        fault_plan: "FaultPlan | str | None" = None,
        overlap: bool | None = None,
        replicate_max_bytes: int = DEFAULT_REPLICATE_MAX_BYTES,
        planner: str | None = None,
    ) -> None:
        resolved_shards = num_shards if num_shards is not None else _default_num_shards()
        if resolved_shards < 1:
            raise SchemaError(f"num_shards must be >= 1, got {resolved_shards}")
        if resolved_shards > 1 and not materialize_nway:
            # With more than one shard the driver joins step by step with an
            # exchange barrier between steps; a fused n-way kernel cannot
            # cross that barrier, so honouring the ablation flag is impossible
            # — failing beats silently reporting materialized-pipeline numbers.
            raise SchemaError("materialize_nway=False (fused n-way join) is not supported with num_shards > 1")
        #: shard devices every relation is hash-partitioned over (1 = one
        #: device holding everything, nothing ever exchanged)
        self.num_shards = int(resolved_shards)
        if isinstance(device, Device):
            # A pre-built device already owns its backend; a conflicting
            # explicit request would silently split the datapath.
            if backend is not None and get_backend(backend).name != device.backend.name:
                raise SchemaError(
                    f"device already uses backend {device.backend.name!r}; "
                    f"cannot override with {backend!r}"
                )
            if fault_plan is not None and device.fault_plan is None:
                device.fault_plan = resolve_fault_plan(fault_plan)
            self.device = device
            # Sharding clones the pre-built device's configuration for the
            # sibling shards (same spec, capacity, OOM policy, backend and
            # fault plan — shared *instance*, so occurrence counters are
            # cluster-global and fault schedules stay deterministic).
            self.devices = [device] + [
                Device(
                    device.spec,
                    memory_capacity_bytes=device.pool.capacity_bytes,
                    oom_enabled=device.pool.oom_enabled,
                    backend=device.backend,
                    # "none" stops a plan-free clone from re-resolving
                    # REPRO_FAULT_PLAN into a fresh, unshared plan instance.
                    fault_plan=device.fault_plan if device.fault_plan is not None else "none",
                )
                for _ in range(self.num_shards - 1)
            ]
        else:
            # Resolve the plan once (explicit argument or REPRO_FAULT_PLAN)
            # and share the instance across every shard device.  When it
            # resolves to nothing — including an explicit "none" opt-out —
            # pass "none" down so the devices do not re-resolve the
            # environment into fresh, unshared plan instances.
            shared_plan = resolve_fault_plan(fault_plan)
            self.devices = [
                Device(
                    device,
                    memory_capacity_bytes=memory_capacity_bytes,
                    oom_enabled=oom_enabled,
                    backend=backend,
                    fault_plan=shared_plan if shared_plan is not None else "none",
                )
                for _ in range(self.num_shards)
            ]
            self.device = self.devices[0]
        self.collect_relations = bool(collect_relations)
        self.eager_buffers = bool(eager_buffers)
        self.load_factor = float(load_factor)
        self.materialize_nway = bool(materialize_nway)
        #: checkpoint every N fixpoint iterations (0 disables checkpointing)
        self.checkpoint_every = int(checkpoint_every)
        #: where snapshots go; ``None`` keeps only ``last_checkpoint`` in RAM
        self.checkpoint_store = checkpoint_store
        self.max_retries = int(max_retries)
        #: double-buffered exchange/compute overlap (``None`` reads
        #: REPRO_EXCHANGE_OVERLAP)
        self.overlap = _env_flag(OVERLAP_ENV_VAR, True) if overlap is None else bool(overlap)
        #: replicate a static EDB inner to every shard when its payload fits
        #: under this many bytes (0 disables replication and head pre-routing)
        self.replicate_max_bytes = int(replicate_max_bytes)
        #: join planner: "greedy" (the body order, stat-free) or "cost+wcoj"
        #: (the same order; cyclic, skewed bodies run the generic join);
        #: ``None`` reads REPRO_PLANNER
        resolved_planner = _default_planner() if planner is None else str(planner)
        if resolved_planner not in PLANNERS:
            raise SchemaError(
                f"unknown planner {resolved_planner!r}; expected one of {', '.join(PLANNERS)}"
            )
        self.planner = resolved_planner
        #: newest iteration-boundary checkpoint from the most recent run
        self.last_checkpoint: EvaluationCheckpoint | None = None
        #: result of the most recent run/resume (feeds :meth:`explain`)
        self.last_result: EvaluationResult | None = None
        self.symbols = SymbolTable()
        self._facts: dict[str, list[tuple[int, ...]]] = {}
        self._fact_arities: dict[str, int] = {}
        self.relations: dict[str, ShardedRelation] = {}

    # ------------------------------------------------------------------
    # Fact loading
    # ------------------------------------------------------------------
    def add_facts(self, relation: str, tuples: Iterable[FactTuple]) -> int:
        """Register ground facts for ``relation``; returns how many were added."""
        added = 0
        bucket = self._facts.setdefault(relation, [])
        for row in tuples:
            encoded = tuple(self.symbols.encode(value) for value in row)
            if not encoded:
                raise SchemaError(f"facts for {relation!r} must have at least one column")
            known = self._fact_arities.get(relation)
            if known is None:
                self._fact_arities[relation] = len(encoded)
            elif known != len(encoded):
                raise SchemaError(
                    f"facts for {relation!r} have inconsistent arities {known} and {len(encoded)}"
                )
            bucket.append(encoded)
            added += 1
        return added

    def add_fact_array(self, relation: str, rows: np.ndarray) -> int:
        """Register an integer fact array (fast path used by the benchmarks)."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2:
            raise SchemaError(f"fact array for {relation!r} must be 2-D")
        known = self._fact_arities.get(relation)
        if known is None:
            self._fact_arities[relation] = rows.shape[1]
        elif known != rows.shape[1]:
            raise SchemaError(f"facts for {relation!r} have inconsistent arities")
        bucket = self._facts.setdefault(relation, [])
        bucket.append(rows)  # type: ignore[arg-type]  # mixed storage handled in _fact_rows
        return int(rows.shape[0])

    def clear_facts(self) -> None:
        self._facts.clear()
        self._fact_arities.clear()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def run(self, program: Union[Program, str], *, name: str | None = None) -> EvaluationResult:
        """Evaluate ``program`` against the loaded facts."""
        if isinstance(program, str):
            program = Program.parse(program, name=name or "program")
        program = self._intern_program(program)

        analysis = analyze_program(program)
        arities = self._resolve_arities(program)
        staged_rows: dict[str, np.ndarray] = {
            relation_name: self._fact_rows(relation_name, arities[relation_name], program)
            for relation_name in sorted(analysis.idb_relations)
        }

        def rows_of(relation_name: str, arity: int) -> np.ndarray:
            # EDB rows measured for the catalog stay staged for the load.
            if relation_name not in staged_rows:
                staged_rows[relation_name] = self._fact_rows(relation_name, arity, program)
            return staged_rows[relation_name]

        # Rule versions that mirror each other pair up under the relations
        # proved symmetric from the program and the staged IDB facts.
        symmetric = symmetric_relations(
            analysis, [name for name in analysis.idb_relations if not swap_closed(staged_rows[name])]
        )
        plan = self._plan(analysis, arities, rows_of, symmetric)
        return self._run(program, analysis, plan, arities, staged_rows)

    def _plan(self, analysis, arities, rows_of: Callable[[str, int], np.ndarray], symmetric=frozenset()) -> ProgramPlan:
        """Plan the program, for :meth:`run` and :meth:`resume` alike.

        The cost+wcoj planner measures every relation's host rows,
        ``rows_of(name, arity)``, before planning (exact per-column distincts
        and hottest-value counts — host-side introspection, nothing is
        charged); its WCOJ choice is a pure function of that catalog and
        holds for the whole run.  The greedy planner plans stat-free.
        """
        catalog: StatsCatalog | None = None
        if self.planner != GREEDY:
            catalog = StatsCatalog()
            for relation_name, arity in arities.items():
                rows = rows_of(relation_name, arity)
                if rows.shape[0]:
                    catalog.seed_facts(relation_name, [rows[:, column] for column in range(arity)])
                else:
                    catalog.ensure(relation_name, arity)
        return plan_program(analysis, planner=self.planner, stats=catalog, symmetric=symmetric)

    def _run(
        self,
        program: Program,
        analysis,
        plan: ProgramPlan,
        arities: dict[str, int],
        staged_rows: dict[str, np.ndarray],
        resume_from: EvaluationCheckpoint | None = None,
    ) -> EvaluationResult:
        """Evaluate the compiled plan: from facts, or from ``resume_from``.

        Relations are hash-partitioned over the engine's shard devices by
        their canonical shard column; the driver exchanges foreign-keyed
        tuples through the charged interconnect edge each iteration (see
        :mod:`repro.datalog.sharded`; levers: ``replicate_max_bytes``,
        ``overlap``).  One shard is the same path with nothing to exchange.
        """
        evaluator = self._build(program, plan, arities)
        if resume_from is None:
            idb_facts = self._load_facts(program, analysis, staged_rows)
        else:
            idb_facts = {name: rows for name, rows in staged_rows.items() if rows.shape[0]}
        try:
            stats = evaluator.evaluate(idb_facts, resume_from=resume_from)
        finally:
            self.last_checkpoint = evaluator.last_checkpoint
            self._adopt_devices(evaluator)
        return self._build_result(program, stats, evaluator, plan)

    def _build(
        self,
        program: Program,
        plan: ProgramPlan,
        arities: dict[str, int],
        required_indexes: "Iterable[tuple[str, tuple[int, ...]]] | None" = None,
    ) -> SemiNaiveEvaluator:
        """Build this engine's relations for ``plan`` and the driver over them.

        Every index in ``required_indexes`` (default: the ones ``plan``
        probes) is registered before the first ``initialize``, so it rides
        that load's shared sort.  The serving engine passes a superset: its
        epoch and re-derive versions probe indexes the bootstrap plan does not.
        """
        shard_columns = shard_columns_for_plan(plan, arities)
        self.relations = {
            relation_name: ShardedRelation(
                self.devices,
                relation_name,
                arity,
                shard_column=shard_columns.get(relation_name, 0),
                load_factor=self.load_factor,
                eager_buffers=self.eager_buffers,
            )
            for relation_name, arity in arities.items()
        }
        if required_indexes is None:
            required_indexes = plan.required_indexes()
        for relation_name, columns in required_indexes:
            self.relations[relation_name].require_index(columns)
        return SemiNaiveEvaluator(
            self.devices,
            plan,
            self.relations,
            materialize_nway=self.materialize_nway,
            checkpoint_every=self.checkpoint_every,
            checkpoint_store=self.checkpoint_store,
            max_retries=self.max_retries,
            program_name=program.name,
            program_source=str(program),
            overlap=self.overlap,
            replicate_max_bytes=self.replicate_max_bytes,
        )

    def _adopt_devices(self, evaluator: SemiNaiveEvaluator) -> None:
        """Crash recovery may have swapped in replacement shard devices."""
        self.devices = list(evaluator.devices)
        self.device = self.devices[0]

    def resume(
        self,
        checkpoint: EvaluationCheckpoint,
        program: Union[Program, str, None] = None,
        *,
        name: str | None = None,
    ) -> EvaluationResult:
        """Continue an interrupted run from an iteration-boundary checkpoint.

        ``program`` defaults to the source text the checkpoint recorded at
        save time.  No EDB facts are loaded: every relation (EDB included) is
        restored from the snapshot when evaluation reaches the checkpointed
        stratum; earlier strata are skipped outright.  Ground facts of IDB
        relations in later strata are staged from the engine and the program,
        as :meth:`run` stages them.  The checkpoint must
        come from a run with the same shard count as this engine.
        """
        if checkpoint.num_shards != self.num_shards:
            raise CheckpointError(
                f"checkpoint was taken with {checkpoint.num_shards} shard(s); "
                f"this engine has {self.num_shards}"
            )
        if program is None:
            if not checkpoint.program_source:
                raise CheckpointError("checkpoint carries no program source; pass the program")
            program = checkpoint.program_source
        if isinstance(program, str):
            program = Program.parse(program, name=name or checkpoint.program_name or "program")
        program = self._intern_program(program)
        analysis = analyze_program(program)
        arities = self._resolve_arities(program)
        # The catalog is seeded as run() seeds it: the snapshot's rows for
        # EDB relations (no facts are loaded), the ground facts for IDB
        # relations.  The facts that would prove a relation symmetric are
        # not measured, so only the versions that mirror each other with no
        # symmetric atom pair up.
        plan = self._plan(
            analysis,
            arities,
            lambda relation_name, arity: (
                self._fact_rows(relation_name, arity, program)
                if relation_name in analysis.idb_relations
                else checkpoint.relation_rows(relation_name)
            ),
        )
        # Ground facts of IDB relations in strata the checkpoint has not
        # reached are staged as run() stages them; earlier strata's rows are
        # in the snapshot, and a pre-init snapshot carries its own stratum's.
        staged_rows = {
            relation_name: self._fact_rows(relation_name, arities[relation_name], program)
            for stratum in analysis.strata
            if stratum.index > checkpoint.stratum_index
            for relation_name in stratum.relations & set(analysis.idb_relations)
        }
        for relation_name, state in checkpoint.relations.items():
            known = arities.get(relation_name)
            if known is not None and known != state.arity:
                raise CheckpointError(
                    f"checkpoint relation {relation_name!r} has arity {state.arity}, "
                    f"the program expects {known}"
                )

        return self._run(program, analysis, plan, arities, staged_rows, resume_from=checkpoint)

    def close(self) -> None:
        """Release all simulated device memory held by the engine's relations.

        Covers *every* shard device of a sharded engine, and double-close is
        a no-op (the relation map is detached before freeing, so a second
        call — or closing an engine that never ran — has nothing to do).

        Teardown is best-effort: a run killed mid-allocation (OOM, injected
        fault) can leave a holder with a stale buffer handle — e.g. a resize
        that freed the old buffer and then failed to allocate the new one.
        Releasing such a handle would raise ``DeviceBufferError`` and mask
        the error that killed the run (the adapter closes from a ``finally``
        while converting OOM to a status), so close skips it and frees the
        rest; the pool is being discarded with the engine anyway.
        """
        relations, self.relations = self.relations, {}
        for relation in relations.values():
            try:
                relation.free()
            except DeviceBufferError:
                continue

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _intern_program(self, program: Program) -> Program:
        """Replace string constants in the program with interned identifiers."""
        return intern_program(program, self.symbols)

    def _resolve_arities(self, program: Program) -> dict[str, int]:
        arities = dict(program.relation_arities())
        for relation_name, arity in self._fact_arities.items():
            known = arities.get(relation_name)
            if known is None:
                arities[relation_name] = arity
            elif known != arity:
                raise SchemaError(
                    f"relation {relation_name!r} has arity {known} in the program but facts of arity {arity}"
                )
        return arities

    def _load_facts(self, program: Program, analysis, staged_rows) -> dict[str, np.ndarray]:
        """Upload EDB facts (the load phase); IDB facts stay staged for their
        stratum and are returned.  A loaded EDB relation's delta is cleared at
        once: no rule version reads an EDB delta, and a checkpoint would
        otherwise download its rows twice.  A resumed run skips this: the
        checkpoint restores every relation."""
        idb_facts: dict[str, np.ndarray] = {}
        with ExitStack() as stack:
            for device in self.devices:
                stack.enter_context(device.profiler.phase(PHASE_LOAD))
            for relation_name, relation in self.relations.items():
                rows = staged_rows.get(relation_name)
                if rows is None:
                    rows = self._fact_rows(relation_name, relation.arity, program)
                if relation_name in analysis.idb_relations:
                    if rows.shape[0]:
                        idb_facts[relation_name] = rows
                else:
                    relation.initialize(rows)
                    relation.clear_delta()
        return idb_facts

    def _fact_rows(self, relation_name: str, arity: int, program: Program) -> np.ndarray:
        parts: list[np.ndarray] = []
        for entry in self._facts.get(relation_name, []):
            if isinstance(entry, np.ndarray):
                parts.append(entry)
            else:
                parts.append(np.asarray([entry], dtype=np.int64))
        program_facts = [
            [term.value for term in rule.head.terms]  # type: ignore[union-attr]
            for rule in program.facts()
            if rule.head.relation == relation_name
        ]
        if program_facts:
            parts.append(np.asarray(program_facts, dtype=np.int64))
        if not parts:
            return np.empty((0, arity), dtype=np.int64)
        rows = np.concatenate([np.asarray(p, dtype=np.int64).reshape(-1, arity) for p in parts], axis=0)
        return rows

    def _plan_report(self, plan: ProgramPlan, evaluator: SemiNaiveEvaluator) -> tuple:
        report = []
        for rule, rule_plan in plan.rule_plans.items():
            for version in rule_plan.versions:
                # A mirrored version did not execute: it reports its
                # partner's joins, whose output it appended with the columns
                # swapped.
                executed = version.delta_atom_index if version.mirror_of is None else version.mirror_of
                entry = evaluator.version_observations.get((id(rule), executed))
                report.append(
                    {
                        "rule": str(rule),
                        "head": version.head_relation,
                        "delta_atom": version.delta_atom_index,
                        "mirror_of": version.mirror_of,
                        "planner": version.planner,
                        "algorithm": WCOJ if evaluator.runs_generic_join(version) else BINARY,
                        "planned_algorithm": version.algorithm,
                        "atom_order": list(version.atom_order),
                        "estimated_rows": version.estimated_rows,
                        "observed_rows": float(entry["rows"]) if entry else 0.0,
                        "executions": int(entry["executions"]) if entry else 0,
                        "distinct_outer": Counter(entry["distinct_outer"]) if entry else Counter(),
                        # the swapped parts were appended as they are
                        "arrival_dedup": (
                            Counter(entry["arrival_dedup"]) if entry and version.mirror_of is None else Counter()
                        ),
                    }
                )
        return tuple(report)

    def explain(self) -> str:
        """Human-readable plan dump for the most recent run.

        One line per rule version: the algorithm that executed (with a note
        when the plan chose another), body-atom join order, and estimated vs.
        observed output cardinalities (observed is summed over every
        execution of the version and over every shard — 0 executions means
        the version never ran, e.g. its stratum converged immediately).
        ``distinct_outer=<fired>/<eligible> rows=<n>→<d>`` reports the
        version's join steps whose outer carried a dead column (eligible),
        how many of them made the outer distinct on its live columns before
        expanding it (fired, see ``hash_join``) and what that did to the outer
        row count; ``observed_rows`` counts the outputs *after* that distinct
        — rows the joins really produced.  ``arrival_dedup=<fired>/<executions>
        rows=<n>→<d>`` (on every version that ran) counts the output parts its
        head relation deduplicated as they arrived in *new* (see
        ``Relation.add_new``; one part per shard an execution delivers to)
        and the rows they held before and after.  A version that mirrors a
        partner (``mirror_of=<the partner's delta atom>``) did not execute:
        its rows, executions and ``distinct_outer`` are the partner's, whose
        output it appended with the two columns swapped (it has no
        ``arrival_dedup``: the swapped parts arrive as the partner kept
        them).  ``symmetric:`` lists the relations proved symmetric, each
        with the column pair it swaps.
        """
        result = self.last_result
        if result is None:
            return "no run to explain (call run() first)"
        lines = [f"planner={result.planner}"]
        if result.symmetric:
            lines.append("symmetric: " + " ".join(f"{name}(0,1)" for name in result.symmetric))
        for entry in result.plan_report:
            estimated = entry["estimated_rows"]
            estimated_text = f"{estimated:.1f}" if estimated is not None else "n/a"
            algorithm = entry["algorithm"]
            if entry["planned_algorithm"] != algorithm:
                algorithm += f" planned={entry['planned_algorithm']} (generic join is single-device)"
            mirror = f" mirror_of={entry['mirror_of']}" if entry["mirror_of"] is not None else ""
            lines.append(
                f"  {entry['rule']}"
                f"\n    version[delta_atom={entry['delta_atom']}]{mirror}"
                f" algorithm={algorithm}"
                f" order={entry['atom_order']}"
                f" est_rows={estimated_text}"
                f" observed_rows={entry['observed_rows']:.0f}"
                f" executions={entry['executions']}"
            )
            distinct = entry["distinct_outer"]
            if distinct["eligible"]:
                lines[-1] += (
                    f" distinct_outer={distinct['fired']}/{distinct['eligible']}"
                    f" rows={distinct['rows_in']}→{distinct['rows_out']}"
                )
            arrival = entry["arrival_dedup"]
            if entry["executions"] and entry["mirror_of"] is None:
                lines[-1] += (
                    f" arrival_dedup={arrival['fired']}/{entry['executions']}"
                    f" rows={arrival['rows_in']}→{arrival['rows_out']}"
                )
        return "\n".join(lines)

    def _build_result(
        self,
        program: Program,
        stats: EvaluationStats,
        evaluator: SemiNaiveEvaluator,
        plan: ProgramPlan,
    ) -> EvaluationResult:
        """Collect the run's outputs and read the clocks.

        Result extraction is the charged D2H edge of the transfer boundary:
        with ``collect_relations`` tuples leave the device exactly once, here,
        as one host array per relation (before the clocks are read); decoding
        them waits for the reader.
        """
        download = self.collect_relations
        rows = {
            name: relation.full_rows_host() if download else np.empty((0, relation.arity), dtype=np.int64)
            for name, relation in self.relations.items()
        }

        # Shards run concurrently: elapsed time is the slowest shard; phase
        # seconds aggregate *device-seconds* across the whole cluster.
        phase_seconds: dict[str, float] = defaultdict(float)
        for device in self.devices:
            for phase, seconds in device.profiler.phase_seconds().items():
                phase_seconds[phase] += seconds
        shard_elapsed = tuple(device.elapsed_seconds for device in self.devices)
        slowest = self.devices[max(range(self.num_shards), key=lambda index: shard_elapsed[index])]

        # Exchange volume, both directions.  Senders charge transfer_bytes,
        # receivers charge recv_bytes for the same payloads, so the totals
        # agree; the per-shard splits expose routing skew.
        send_per_shard = tuple(device.profiler.interconnect_bytes for device in self.devices)
        recv_per_shard = tuple(device.profiler.interconnect_recv_bytes for device in self.devices)
        traffic = [sent + received for sent, received in zip(send_per_shard, recv_per_shard)]
        total_traffic = sum(traffic)
        # Overlap efficiency: the share of exchange time the double-buffered
        # schedule hid under the previous iteration's compute.
        hidden_seconds = sum(device.profiler.overlap_hidden_seconds for device in self.devices)
        exchange_seconds = float(phase_seconds.get(PHASE_SHARD_EXCHANGE, 0.0))
        exchange = evaluator.exchange
        result = EvaluationResult(
            program_name=program.name,
            device_name=self.device.spec.name + (f" x{self.num_shards}" if self.num_shards > 1 else ""),
            relations=DecodedRelations(rows, self.symbols),
            relation_counts={name: relation.full_count for name, relation in self.relations.items()},
            elapsed_seconds=max(shard_elapsed),
            fixed_seconds=slowest.profiler.fixed_seconds,
            variable_seconds=slowest.profiler.variable_seconds,
            peak_memory_bytes=max(device.peak_memory_bytes for device in self.devices),
            total_iterations=stats.total_iterations,
            stratum_iterations={stratum.index: stratum.iterations for stratum in stats.strata},
            phase_seconds=dict(phase_seconds),
            phase_fractions=phase_fractions_from_seconds(dict(phase_seconds), FIGURE6_PHASES),
            iteration_history={name: list(relation.history) for name, relation in self.relations.items()},
            stats=stats,
            shard_count=self.num_shards,
            shard_elapsed_seconds=shard_elapsed,
            shard_peak_memory_bytes=tuple(device.peak_memory_bytes for device in self.devices),
            exchange_bytes=float(sum(send_per_shard)),
            exchange_tuples=exchange.exchange_tuples,
            transient_retries=evaluator.transient_retries,
            checkpoints_taken=evaluator.checkpoints_taken,
            checkpoint_restores=evaluator.checkpoint_restores,
            shard_rebuilds=evaluator.shard_rebuilds,
            oom_chunked_joins=evaluator.oom_chunked_joins,
            oom_degraded_dedups=sum(
                shard.oom_degradations
                for relation in self.relations.values()
                for shard in relation.shards
            ),
            exchange_recv_bytes=float(sum(recv_per_shard)),
            exchange_send_bytes_per_shard=send_per_shard,
            exchange_recv_bytes_per_shard=recv_per_shard,
            exchange_skew=(max(traffic) * self.num_shards / total_traffic) if total_traffic > 0 else 0.0,
            exchange_overlap_hidden_seconds=hidden_seconds,
            exchange_overlap_efficiency=hidden_seconds / exchange_seconds if exchange_seconds > 0 else 0.0,
            replicated_joins=exchange.replicated_joins,
            aligned_joins=exchange.aligned_joins,
            broadcast_joins=exchange.broadcast_joins,
            planner=self.planner,
            plan_report=self._plan_report(plan, evaluator),
            symmetric=tuple(sorted(plan.symmetric)),
        )
        self.last_result = result
        return result
