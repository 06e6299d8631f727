"""The simulated execution device: spec + cost model + memory pool + profiler.

A :class:`Device` is the single object the rest of the library talks to when
it wants to "run on the GPU" (or on a CPU for the baseline engines).  It owns

* a :class:`~repro.device.spec.DeviceSpec` (the hardware description),
* a :class:`~repro.device.cost.CostModel` converting kernel work into seconds,
* a :class:`~repro.device.memory.MemoryPool` enforcing the VRAM capacity, and
* a :class:`~repro.device.profiler.Profiler` accumulating the phase breakdown.

Simulated time only advances through :meth:`Device.charge`, so every second of
every experiment is attributable to a specific kernel in a specific phase.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

from ..backend import ArrayBackend, BackendLike, get_backend
from .cost import CostModel, KernelCost
from .faults import FaultPlan, resolve_fault_plan
from .kernels import DeviceKernels
from .memory import Buffer, MemoryPool
from .profiler import Profiler
from .spec import DeviceSpec, device_preset


@dataclass(frozen=True)
class DeviceSnapshot:
    """Summary of a device's state after a run (used in experiment reports)."""

    spec_name: str
    elapsed_seconds: float
    peak_memory_bytes: int
    in_use_bytes: int
    allocation_count: int
    oom_count: int


class Device:
    """A simulated SIMT (or multicore CPU) execution device."""

    def __init__(
        self,
        spec: DeviceSpec | str,
        *,
        memory_capacity_bytes: int | None = None,
        oom_enabled: bool = True,
        profiler: Profiler | None = None,
        backend: BackendLike = None,
        fault_plan: "FaultPlan | str | None" = None,
    ) -> None:
        if isinstance(spec, str):
            spec = device_preset(spec)
        self.spec = spec
        self.cost_model = CostModel(spec)
        self.profiler = profiler if profiler is not None else Profiler()
        capacity = memory_capacity_bytes if memory_capacity_bytes is not None else spec.memory_capacity_bytes
        self.pool = MemoryPool(capacity, oom_enabled=oom_enabled)
        #: the array backend every kernel and relational structure of this
        #: device runs on (name, instance, or the ``REPRO_BACKEND`` default)
        self.backend: ArrayBackend = get_backend(backend)
        self.kernels = DeviceKernels(self)
        #: deterministic fault-injection schedule; ``None`` defers to the
        #: ``REPRO_FAULT_PLAN`` environment variable, ``"none"`` disables
        #: injection outright (see :mod:`repro.device.faults`)
        self.fault_plan: FaultPlan | None = resolve_fault_plan(fault_plan)
        #: active kernel-fusion scope (see :meth:`fused`); ``None`` outside
        self._fusion: "list[object] | None" = None

    # ------------------------------------------------------------------
    # Time accounting
    # ------------------------------------------------------------------
    def charge(self, cost: KernelCost, phase: str | None = None) -> float:
        """Convert ``cost`` into simulated seconds and record it.

        Returns the simulated duration so bespoke kernels can report it.
        """
        if self.fault_plan is not None:
            # An injected fault models a launch that never executed: it is
            # checked before any time is recorded, so the retrying caller's
            # re-execution charges the extra pass, not the failed one.
            self.fault_plan.on_kernel(cost.kernel)
        if self._fusion is not None:
            # Inside a fusion scope: fold this stage's work into the pending
            # fused launch instead of recording it.  The fault check above
            # still ran per stage, so injection schedules keyed on stage
            # names see the same occurrence counts as the unfused pipeline.
            label, launches, accumulated, saved_phase = self._fusion
            combined = cost if accumulated is None else accumulated.combined_with(cost)
            self._fusion = [label, launches, combined, phase if phase is not None else saved_phase]
            return self.cost_model.seconds(cost)
        seconds = self.cost_model.seconds(cost)
        fixed = self.cost_model.launch_seconds(cost) + cost.allocations * self.spec.alloc_latency_us * 1e-6
        self.profiler.record(cost, seconds, phase=phase, fixed_seconds=min(seconds, fixed))
        return seconds

    @contextmanager
    def fused(self, label: str, *, launches: int = 1) -> Iterator[None]:
        """Fuse every charge inside the scope into one kernel launch.

        Models operator fusion: the probe pipeline (gather keys, hash,
        probe, verify, expand matches, guard) is a chain of elementwise
        stages a real engine compiles into a single kernel, so the chain
        should pay one launch latency, not one per stage.  Bytes, ops and
        allocations of the stages are summed (memory traffic and
        ``cudaMalloc`` calls do not fuse away); divergence takes the worst
        stage; the launch count is pinned to ``launches``.

        Nested scopes flatten into the outermost one.  Fault injection is
        unaffected: each stage's fault check still fires under its own
        kernel name before any time is folded in, and an injected fault
        aborts the whole fused launch with nothing recorded.
        """
        if self._fusion is not None:
            # Already fusing: the inner scope is part of the outer kernel.
            yield
            return
        self._fusion = [label, launches, None, None]
        try:
            yield
        except BaseException:
            self._fusion = None
            raise
        label, launches, accumulated, phase = self._fusion
        self._fusion = None
        if accumulated is not None:
            self.charge(replace(accumulated, kernel=label, launches=launches), phase=phase)

    @property
    def elapsed_seconds(self) -> float:
        """Total simulated time charged to this device so far."""
        return self.profiler.total_seconds

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    def allocate(self, nbytes: int, label: str = "", *, charge_cost: bool = True) -> Buffer:
        """Allocate simulated device memory, charging allocation latency.

        The charge mirrors ``cudaMalloc`` + first touch; the eager buffer
        manager exists precisely to avoid paying it every iteration.
        """
        if self.fault_plan is not None:
            # Injected allocation failures fire before any pool state
            # changes, so a caller that degrades (smaller chunks) or retries
            # sees the same pool it saw before the fault.
            self.fault_plan.on_alloc(label, nbytes, self.pool)
        buffer = self.pool.allocate(nbytes, label=label)
        if charge_cost:
            self.charge(
                KernelCost(
                    kernel="device_malloc",
                    alloc_bytes=float(nbytes),
                    allocations=1,
                    launches=0,
                )
            )
        return buffer

    def free(self, buffer: Buffer, *, charge_cost: bool = True) -> None:
        """Free a simulated allocation (cheap, but not entirely free)."""
        self.pool.free(buffer)
        if charge_cost:
            self.charge(KernelCost(kernel="device_free", ops=1.0, launches=0))

    @property
    def peak_memory_bytes(self) -> int:
        return self.pool.peak_bytes

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def snapshot(self) -> DeviceSnapshot:
        """Return an immutable summary of elapsed time and memory usage."""
        stats = self.pool.stats
        return DeviceSnapshot(
            spec_name=self.spec.name,
            elapsed_seconds=self.elapsed_seconds,
            peak_memory_bytes=stats.peak_bytes,
            in_use_bytes=stats.in_use_bytes,
            allocation_count=stats.allocation_count,
            oom_count=stats.oom_count,
        )

    def reset(self) -> None:
        """Clear profiling data and the peak-memory watermark (keep live buffers)."""
        self.profiler.reset()
        self.pool.reset_peak()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Device(spec={self.spec.name!r}, elapsed={self.elapsed_seconds:.6f}s, "
            f"peak_mem={self.peak_memory_bytes} B)"
        )
