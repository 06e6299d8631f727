"""Common interface shared by GPUlog and the comparison engines.

The paper's Tables 2-4 compare four systems (GPUlog, Soufflé, GPUJoin, cuDF)
on the same programs and inputs.  Every engine in this package implements
:class:`BaselineEngine.run` with the same signature and returns an
:class:`EngineRunResult`, so the experiment drivers can iterate over engines
uniformly, including the ``OOM`` outcomes the paper reports.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from ..datalog.ast import Program

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


class BaselineEngine(ABC):
    """Abstract interface for every engine in the comparison."""

    name: str = "engine"

    @abstractmethod
    def run(
        self,
        program: Union[Program, str],
        facts: Mapping[str, np.ndarray],
        *,
        collect_relations: bool = False,
    ) -> EngineRunResult:
        """Evaluate ``program`` over the given EDB facts.

        ``facts`` maps relation names to ``(n, arity)`` int64 arrays.  The
        result reports simulated seconds, simulated peak device memory and the
        sizes of every derived relation; ``collect_relations=True`` also
        returns the tuples themselves (used by correctness tests).
        """

    @staticmethod
    def coerce_program(program: Union[Program, str]) -> Program:
        if isinstance(program, Program):
            return program
        return Program.parse(program)
