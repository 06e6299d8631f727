"""Simulated device memory pool.

The pool tracks every live allocation on the simulated device so that

* experiments can report peak memory footprint (memory columns of Tables 1-3),
* the cuDF-like and GPUJoin-like baselines can hit out-of-memory conditions
  exactly where the paper reports ``OOM`` entries, and
* the eager buffer manager (Section 5.3) has a concrete allocator whose
  latency it amortises.

The pool stores only *sizes*; actual NumPy arrays live in host memory, which
keeps the simulator cheap while preserving the accounting the paper relies on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import DeviceBufferError, DeviceOutOfMemoryError


@dataclass
class Buffer:
    """Handle to one live allocation in a :class:`MemoryPool`."""

    buffer_id: int
    nbytes: int
    label: str = ""
    freed: bool = False


@dataclass
class MemoryStats:
    """Aggregate allocator statistics for one run."""

    capacity_bytes: int
    in_use_bytes: int = 0
    peak_bytes: int = 0
    total_allocated_bytes: int = 0
    allocation_count: int = 0
    free_count: int = 0
    oom_count: int = 0


class MemoryPool:
    """Bump-accounting allocator for the simulated device memory."""

    def __init__(self, capacity_bytes: int, *, oom_enabled: bool = True) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self._capacity = int(capacity_bytes)
        self._oom_enabled = bool(oom_enabled)
        self._buffers: dict[int, Buffer] = {}
        self._ids = itertools.count(1)
        self._stats = MemoryStats(capacity_bytes=self._capacity)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    @property
    def oom_enabled(self) -> bool:
        return self._oom_enabled

    @property
    def in_use_bytes(self) -> int:
        return self._stats.in_use_bytes

    @property
    def peak_bytes(self) -> int:
        return self._stats.peak_bytes

    @property
    def free_bytes(self) -> int:
        return self._capacity - self._stats.in_use_bytes

    @property
    def stats(self) -> MemoryStats:
        return self._stats

    def live_buffers(self) -> list[Buffer]:
        """Return every live (not yet freed) buffer."""
        return [buf for buf in self._buffers.values() if not buf.freed]

    # ------------------------------------------------------------------
    # Allocation interface
    # ------------------------------------------------------------------
    def allocate(self, nbytes: int, label: str = "") -> Buffer:
        """Allocate ``nbytes`` of simulated device memory.

        Raises :class:`DeviceOutOfMemoryError` when the request would exceed
        the pool capacity and OOM enforcement is enabled.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self._oom_enabled and self._stats.in_use_bytes + nbytes > self._capacity:
            self._stats.oom_count += 1
            raise DeviceOutOfMemoryError(nbytes, self._stats.in_use_bytes, self._capacity)
        buffer = Buffer(buffer_id=next(self._ids), nbytes=nbytes, label=label)
        self._buffers[buffer.buffer_id] = buffer
        self._stats.in_use_bytes += nbytes
        self._stats.total_allocated_bytes += nbytes
        self._stats.allocation_count += 1
        self._stats.peak_bytes = max(self._stats.peak_bytes, self._stats.in_use_bytes)
        return buffer

    def free(self, buffer: Buffer) -> None:
        """Release ``buffer``; double frees and use-after-free raise
        :class:`DeviceBufferError`."""
        stored = self._buffers.get(buffer.buffer_id)
        if stored is None or stored.freed or buffer.freed:
            raise DeviceBufferError(f"buffer {buffer.buffer_id} is not a live allocation")
        stored.freed = True
        self._stats.in_use_bytes -= stored.nbytes
        self._stats.free_count += 1
        del self._buffers[buffer.buffer_id]

    def resize(self, buffer: Buffer, nbytes: int, label: str | None = None) -> Buffer:
        """Free ``buffer`` and allocate a replacement of ``nbytes``.

        Resizing a stale handle raises :class:`DeviceBufferError` (via
        :meth:`free`) before any allocation happens.
        """
        self.free(buffer)
        return self.allocate(nbytes, label if label is not None else buffer.label)

    def would_fit(self, nbytes: int) -> bool:
        """True if an allocation of ``nbytes`` would currently succeed."""
        if not self._oom_enabled:
            return True
        return self._stats.in_use_bytes + int(nbytes) <= self._capacity

    def reset_peak(self) -> None:
        """Reset the peak-usage watermark to the current usage."""
        self._stats.peak_bytes = self._stats.in_use_bytes
