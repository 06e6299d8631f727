"""Common interface shared by GPUlog and the comparison engines.

The paper's Tables 2-4 compare four systems (GPUlog, Soufflé, GPUJoin, cuDF)
on the same programs and inputs.  Every engine in this package implements
:class:`BaselineEngine.run` with the same signature and returns an
:class:`EngineRunResult`, so the experiment drivers can iterate over engines
uniformly, including the ``OOM`` outcomes the paper reports.

The comparison baselines evaluate nothing themselves: each is a cost model
over the :class:`~repro.datalog.seminaive.WorkloadTrace` GPUlog's evaluator
records while it runs (:meth:`BaselineEngine.simulate`), so their relations
are GPUlog's and their work counts are those of the same semi-naïve
iterations over the same rule plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from ..datalog.ast import Program
from ..datalog.engine import GPULogEngine
from ..datalog.seminaive import WorkloadTrace
from ..device.device import Device

STATUS_OK = "ok"
STATUS_OOM = "oom"
STATUS_UNSUPPORTED = "unsupported"


@dataclass
class EngineRunResult:
    """Outcome of running one program on one engine."""

    engine: str
    device: str
    status: str
    seconds: float = 0.0
    fixed_seconds: float = 0.0
    variable_seconds: float = 0.0
    peak_memory_bytes: int = 0
    iterations: int = 0
    relation_counts: dict[str, int] = field(default_factory=dict)
    relations: dict[str, set[tuple[int, ...]]] | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def oom(self) -> bool:
        return self.status == STATUS_OOM

    @property
    def peak_memory_gib(self) -> float:
        return self.peak_memory_bytes / 1024**3

    def projected_seconds(self, scale: float) -> float:
        """Project the runtime to a workload ``scale`` times larger.

        The data-proportional part grows with the scale factor while the
        data-independent overheads (kernel launches, allocation latency,
        per-iteration scheduling) stay fixed.  This is how the experiment
        harness compares scaled synthetic datasets against the paper's
        full-size numbers; see docs/benchmarks.md for the methodology.
        """
        if self.fixed_seconds == 0.0 and self.variable_seconds == 0.0:
            return self.seconds * scale
        return self.fixed_seconds + self.variable_seconds * scale

    def projected_memory_bytes(self, scale: float) -> int:
        """Project peak memory to a workload ``scale`` times larger."""
        return int(self.peak_memory_bytes * scale)

    def display_time(self) -> str:
        """Human-readable cell value for the paper-style tables."""
        if self.status == STATUS_OOM:
            return "OOM"
        if self.status == STATUS_UNSUPPORTED:
            return "n/a"
        return f"{self.seconds:.2f}"


class BaselineEngine:
    """Interface of every engine in the comparison, and the baselines' one run.

    A baseline defines :meth:`simulate` (and ``spec`` / ``parameters`` with
    an ``iteration_overhead_us``); GPUlog's adapter overrides :meth:`run`.
    """

    name: str = "engine"
    #: :attr:`EngineRunResult.detail` of a program :meth:`supports` rejects
    unsupported_detail: str = "the engine does not support this program"

    def run(
        self,
        program: Union[Program, str],
        facts: Mapping[str, np.ndarray],
        *,
        collect_relations: bool = False,
        trace: WorkloadTrace | None = None,
    ) -> EngineRunResult:
        """Evaluate ``program`` over the given EDB facts.

        ``facts`` maps relation names to ``(n, arity)`` int64 arrays.  The
        result reports simulated seconds, simulated peak device memory and the
        sizes of every derived relation; ``collect_relations=True`` also
        returns the tuples themselves (used by correctness tests).

        The work is priced from ``trace``; without one, from the trace of one
        GPUlog run on an ``h100`` that never runs out of memory, which also
        supplies the relations.
        """
        program = self.coerce_program(program)
        if not self.supports(program):
            return EngineRunResult(
                engine=self.name,
                device=self.spec.name,
                status=STATUS_UNSUPPORTED,
                detail=self.unsupported_detail,
            )
        relations = None
        if trace is None or collect_relations:
            engine = GPULogEngine(Device("h100", oom_enabled=False), collect_relations=collect_relations)
            try:
                for name, rows in facts.items():
                    engine.add_fact_array(name, rows)
                result = engine.run(program)
            finally:
                engine.close()
            if trace is None:
                trace = result.trace
            if collect_relations:
                relations = {name: result.relation_set(name) for name in result.relations}
        seconds, peak, oom_at = self.simulate(trace)
        fixed = self.parameters.iteration_overhead_us * 1e-6 * max(1, len(trace.iterations))
        ok = oom_at is None
        return EngineRunResult(
            engine=self.name,
            device=self.spec.name,
            status=STATUS_OK if ok else STATUS_OOM,
            seconds=seconds,
            fixed_seconds=min(fixed, seconds),
            variable_seconds=max(0.0, seconds - fixed),
            peak_memory_bytes=peak,
            iterations=trace.iteration_count if ok else oom_at,
            relation_counts=dict(trace.relation_counts) if ok else {},
            relations=relations if ok else None,
            detail="" if ok else f"out of memory at iteration {oom_at}",
        )

    def supports(self, program: Program) -> bool:
        return True

    def simulate(self, trace: WorkloadTrace) -> tuple[float, int, int | None]:
        """``(seconds, peak bytes, iteration it ran out of memory or None)``."""
        raise NotImplementedError

    @staticmethod
    def coerce_program(program: Union[Program, str]) -> Program:
        if isinstance(program, Program):
            return program
        return Program.parse(program)
