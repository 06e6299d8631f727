"""Phase-aware profiler for the simulated device.

The paper's Figure 6 breaks CSPA runtime into five phases (deduplication,
indexing delta, indexing full, merge delta/full, join).  The profiler collects
per-kernel simulated times, attributes them to the phase active at launch
time, and exposes aggregation helpers used by the experiment drivers and the
figure-regeneration benchmarks.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from .cost import LINK_INTERCONNECT, KernelCost

# Canonical phase names used by the engines; free-form names are also allowed.
PHASE_JOIN = "join"
PHASE_DEDUPLICATION = "deduplication"
PHASE_INDEX_DELTA = "indexing_delta"
PHASE_INDEX_FULL = "indexing_full"
PHASE_MERGE = "merge_delta_full"
PHASE_POPULATE_DELTA = "populate_delta"
PHASE_LOAD = "load"
PHASE_OTHER = "other"
#: Host<->device PCIe transfers (the to_host / from_host backend edges).
PHASE_TRANSFER = "host_transfer"
#: Device<->device interconnect transfers (delta routing between shards).
PHASE_SHARD_EXCHANGE = "shard_exchange"
#: Iteration-boundary checkpoint snapshots (full/delta D2H downloads).
PHASE_CHECKPOINT = "checkpoint"
#: Fault-recovery work: retry backoff, checkpoint restores, device rebuilds.
PHASE_RECOVERY = "fault_recovery"
#: Serving retraction epochs: membership probes, compaction and the index
#: rebuilds that apply a DRed deletion to resident relation state.
PHASE_RETRACTION = "retraction"
#: Negative credits for exchange time hidden behind overlapped compute.
PHASE_EXCHANGE_OVERLAP = "exchange_overlap"

FIGURE6_PHASES = (
    PHASE_DEDUPLICATION,
    PHASE_INDEX_DELTA,
    PHASE_INDEX_FULL,
    PHASE_MERGE,
    PHASE_JOIN,
)


def phase_fractions_from_seconds(
    seconds: dict[str, float], phases: tuple[str, ...] = FIGURE6_PHASES
) -> dict[str, float]:
    """Fractions of total time per phase, unlisted phases folded into "other".

    Shared by :meth:`Profiler.phase_fractions` and the engine's result
    builder (which aggregates seconds across the shard profilers first), so
    both report the same convention.
    """
    total = sum(seconds.values())
    if total <= 0:
        return {name: 0.0 for name in phases}
    fractions = {name: seconds.get(name, 0.0) / total for name in phases}
    accounted = sum(seconds.get(name, 0.0) for name in phases)
    fractions[PHASE_OTHER] = (total - accounted) / total
    return fractions


@dataclass(frozen=True)
class ProfileEvent:
    """One recorded kernel launch with its simulated duration.

    ``fixed_seconds`` is the data-independent part (kernel-launch latency and
    allocation latency); the remainder scales with the data volume.  The
    experiment harness uses the split to project scaled-dataset runs back to
    the paper's full-size workloads.
    """

    phase: str
    kernel: str
    seconds: float
    cost: KernelCost
    iteration: int | None = None
    fixed_seconds: float = 0.0

    @property
    def variable_seconds(self) -> float:
        if self.seconds < 0.0:
            # Overlap credits are negative and carry a negative fixed share
            # mirroring the hidden window's fixed/variable mix; the remainder
            # is the variable refund.  Don't clamp — clamping would strand
            # the whole credit in one bucket.
            return self.seconds - self.fixed_seconds
        return max(0.0, self.seconds - self.fixed_seconds)


@dataclass
class PhaseSummary:
    """Aggregated statistics for one phase."""

    phase: str
    seconds: float = 0.0
    launches: int = 0
    sequential_bytes: float = 0.0
    random_bytes: float = 0.0
    ops: float = 0.0
    alloc_bytes: float = 0.0
    allocations: int = 0
    transfer_bytes: float = 0.0

    def add(self, event: ProfileEvent) -> None:
        self.seconds += event.seconds
        self.launches += event.cost.launches
        self.sequential_bytes += event.cost.sequential_bytes
        self.random_bytes += event.cost.random_bytes
        self.ops += event.cost.ops
        self.alloc_bytes += event.cost.alloc_bytes
        self.allocations += event.cost.allocations
        self.transfer_bytes += event.cost.transfer_bytes


class Profiler:
    """Records kernel events grouped by phase and fixpoint iteration."""

    def __init__(self) -> None:
        self._events: list[ProfileEvent] = []
        #: Σ event seconds in recording order — what re-summing the events
        #: would give, bit for bit, without the O(events) walk per read
        self._total_seconds = 0.0
        self._phase_stack: list[str] = []
        self._iteration: int | None = None
        # Overlap-window bookkeeping (double-buffered exchange schedule).
        self._window_depth = 0
        self._window_exchange = 0.0
        self._window_exchange_fixed = 0.0
        self._window_compute = 0.0
        self._pipeline_compute: float | None = None
        self._overlap_hidden = 0.0
        self._overlap_exchange = 0.0

    # ------------------------------------------------------------------
    # Phase / iteration context management
    # ------------------------------------------------------------------
    @property
    def current_phase(self) -> str:
        return self._phase_stack[-1] if self._phase_stack else PHASE_OTHER

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute all kernels launched inside the block to phase ``name``."""
        self._phase_stack.append(name)
        try:
            yield
        finally:
            self._phase_stack.pop()

    @contextmanager
    def iteration(self, index: int) -> Iterator[None]:
        """Tag kernels launched inside the block with fixpoint iteration ``index``."""
        previous = self._iteration
        self._iteration = index
        try:
            yield
        finally:
            self._iteration = previous

    # ------------------------------------------------------------------
    # Overlap scheduling (double-buffered exchanges)
    # ------------------------------------------------------------------
    def begin_overlap_schedule(self) -> None:
        """Start (or restart) a double-buffered exchange schedule.

        The first window after this call earns no credit — the pipeline has
        no in-flight predecessor to hide behind.  The fixpoint driver calls
        this at fixpoint entry and again after every fault rollback, since a
        restore drains whatever transfer was in flight.
        """
        self._pipeline_compute = None
        self._window_exchange = 0.0
        self._window_exchange_fixed = 0.0
        self._window_compute = 0.0

    @contextmanager
    def overlap_window(self) -> Iterator[None]:
        """One overlapped window (one fixpoint iteration on this device).

        While the window is open, ``record`` splits event seconds into an
        exchange bucket (``shard_exchange`` phase) and a compute bucket
        (everything else except checkpoint/recovery, which a real runtime
        cannot overlap with an in-flight transfer).  On close, the window's
        exchange time is charged as ``max(compute, transfer)`` instead of
        their sum: the part of this window's exchange that fits under the
        *previous* window's compute — the delta shipped for iteration i+1
        while iteration i's join runs — is refunded as a negative-seconds
        event in the :data:`PHASE_EXCHANGE_OVERLAP` phase.
        """
        self._window_depth += 1
        if self._window_depth == 1:
            self._window_exchange = 0.0
            self._window_exchange_fixed = 0.0
            self._window_compute = 0.0
        try:
            yield
        finally:
            self._window_depth -= 1
            if self._window_depth == 0:
                exchange = self._window_exchange
                exchange_fixed = self._window_exchange_fixed
                compute = self._window_compute
                self._overlap_exchange += exchange
                if self._pipeline_compute is not None:
                    hidden = min(exchange, self._pipeline_compute)
                    if hidden > 0.0:
                        self._overlap_hidden += hidden
                        # Refund fixed and variable time in the same ratio the
                        # window's exchange accrued them, so the fixed/variable
                        # split used for full-size projection stays meaningful.
                        hidden_fixed = (
                            hidden * (exchange_fixed / exchange) if exchange > 0.0 else 0.0
                        )
                        self._append(
                            ProfileEvent(
                                phase=PHASE_EXCHANGE_OVERLAP,
                                kernel="exchange_overlap_credit",
                                seconds=-hidden,
                                cost=KernelCost(
                                    kernel="exchange_overlap_credit", launches=0
                                ),
                                iteration=self._iteration,
                                fixed_seconds=-hidden_fixed,
                            )
                        )
                self._pipeline_compute = compute

    @property
    def overlap_hidden_seconds(self) -> float:
        """Exchange seconds refunded because they fit under overlapped compute."""
        return self._overlap_hidden

    @property
    def overlap_window_exchange_seconds(self) -> float:
        """Exchange seconds that occurred inside overlap windows."""
        return self._overlap_exchange

    # ------------------------------------------------------------------
    # Recording and aggregation
    # ------------------------------------------------------------------
    def record(
        self,
        cost: KernelCost,
        seconds: float,
        phase: str | None = None,
        fixed_seconds: float = 0.0,
    ) -> ProfileEvent:
        """Record one kernel launch; returns the stored event.

        An active checkpoint/recovery phase dominates the caller's explicit
        phase tag: the D2H/H2D transfers a snapshot or restore performs must
        be attributed to fault-tolerance overhead (what the robustness
        benchmark gates on), not folded into ordinary host-transfer time.
        """
        stack_top = self._phase_stack[-1] if self._phase_stack else None
        if stack_top in (PHASE_CHECKPOINT, PHASE_RECOVERY):
            phase = stack_top
        event = ProfileEvent(
            phase=phase or self.current_phase,
            kernel=cost.kernel,
            seconds=float(seconds),
            cost=cost,
            iteration=self._iteration,
            fixed_seconds=float(fixed_seconds),
        )
        self._append(event)
        if self._window_depth > 0 and event.seconds > 0.0:
            if event.phase == PHASE_SHARD_EXCHANGE:
                self._window_exchange += event.seconds
                self._window_exchange_fixed += min(event.fixed_seconds, event.seconds)
            elif event.phase not in (PHASE_CHECKPOINT, PHASE_RECOVERY):
                self._window_compute += event.seconds
        return event

    def _append(self, event: ProfileEvent) -> None:
        self._events.append(event)
        self._total_seconds += event.seconds

    @property
    def events(self) -> list[ProfileEvent]:
        return list(self._events)

    @property
    def total_seconds(self) -> float:
        return self._total_seconds

    @property
    def fixed_seconds(self) -> float:
        """Total data-independent overhead (launch + allocation latency)."""
        return sum(event.fixed_seconds for event in self._events)

    @property
    def variable_seconds(self) -> float:
        """Total data-proportional time (bandwidth, compute, first touch)."""
        return sum(event.variable_seconds for event in self._events)

    @property
    def transfer_bytes(self) -> float:
        """Total bytes moved across any device boundary (PCIe + interconnect)."""
        return sum(event.cost.transfer_bytes for event in self._events)

    @property
    def interconnect_bytes(self) -> float:
        """Bytes moved across the device<->device interconnect (shard exchange).

        Counted on the *sending* device only, so summing this over every
        shard's profiler yields the total exchange volume without double
        counting.
        """
        return sum(
            event.cost.transfer_bytes
            for event in self._events
            if event.cost.transfer_link == LINK_INTERCONNECT
        )

    @property
    def interconnect_recv_bytes(self) -> float:
        """Bytes this device *received* over the interconnect.

        The mirror of :attr:`interconnect_bytes`: summed over all shards the
        two totals match, but per shard they differ and their spread is the
        exchange skew surfaced on ``EvaluationResult``.
        """
        return sum(event.cost.recv_bytes for event in self._events)

    def phase_summaries(self) -> dict[str, PhaseSummary]:
        """Aggregate recorded events by phase."""
        summaries: dict[str, PhaseSummary] = {}
        for event in self._events:
            summary = summaries.setdefault(event.phase, PhaseSummary(phase=event.phase))
            summary.add(event)
        return summaries

    def phase_seconds(self) -> dict[str, float]:
        """Simulated seconds per phase."""
        return {name: summary.seconds for name, summary in self.phase_summaries().items()}

    def phase_fractions(self, phases: tuple[str, ...] = FIGURE6_PHASES) -> dict[str, float]:
        """Fraction of total runtime spent in each of ``phases``.

        Phases not listed are folded into ``"other"``; fractions sum to 1.0
        when any time has been recorded at all.
        """
        return phase_fractions_from_seconds(self.phase_seconds(), phases)

    def iteration_seconds(self) -> dict[int, float]:
        """Simulated seconds per fixpoint iteration (untagged events excluded)."""
        seconds: dict[int, float] = defaultdict(float)
        for event in self._events:
            if event.iteration is not None:
                seconds[event.iteration] += event.seconds
        return dict(seconds)

    def kernel_seconds(self) -> dict[str, float]:
        """Simulated seconds per kernel name."""
        seconds: dict[str, float] = defaultdict(float)
        for event in self._events:
            seconds[event.kernel] += event.seconds
        return dict(seconds)

    def reset(self) -> None:
        """Discard all recorded events (phase/iteration context is kept)."""
        self._events.clear()
        self._total_seconds = 0.0
        self._window_exchange = 0.0
        self._window_compute = 0.0
        self._pipeline_compute = None
        self._overlap_hidden = 0.0
        self._overlap_exchange = 0.0

    def merge_from(self, other: "Profiler") -> None:
        """Append every event recorded by ``other`` into this profiler."""
        for event in other._events:
            self._append(event)
        self._overlap_hidden += other._overlap_hidden
        self._overlap_exchange += other._overlap_exchange
