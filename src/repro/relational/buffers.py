"""Merge-buffer management policies (Section 5.3, Table 1).

Merging ``delta`` into ``full`` is an out-of-place path merge: it needs a
*destination* buffer as large as both relations combined, every iteration.
The paper identifies the allocation and first-touch of that buffer as a major
cost (the merge phase is up to 45 % of runtime) and proposes *Eager Buffer
Management* (EBM):

* keep the buffer that held the previous ``full`` version as a spare instead
  of freeing it right after the merge;
* when the spare is large enough for the next merge, reuse it — no allocation
  at all;
* when it is not, allocate ``full + k x delta`` bytes (``k`` tunable against
  VRAM) so that several future iterations fit without further allocations.

Long "tail" phases — many iterations each adding few tuples — benefit the
most, which is exactly the shape of Table 1.

Two policies are provided:

* :class:`SimpleBufferManager` — allocate the exact size every iteration and
  free the retired buffer immediately (EBM disabled / GPUJoin behaviour).
* :class:`EagerBufferManager` — the EBM policy with growth factor ``k``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..device.device import Device
from ..device.memory import Buffer


@dataclass
class BufferManagerStats:
    """Counters describing how a buffer manager behaved during a run."""

    acquisitions: int = 0
    allocations: int = 0
    reuses: int = 0
    retirements: int = 0
    bytes_requested: int = 0
    bytes_allocated: int = 0
    #: merges absorbed by reserved headroom: no buffer was acquired at all.
    in_place_appends: int = 0
    bytes_appended_in_place: int = 0


class MergeBufferManager(ABC):
    """Supplies destination buffers for full/delta merges and recycles old ones."""

    def __init__(self, device: Device, label: str = "merge_buffer") -> None:
        self.device = device
        self.label = label
        self.stats = BufferManagerStats()

    @abstractmethod
    def acquire(self, required_bytes: int, delta_bytes: int) -> Buffer:
        """Return a destination buffer with capacity >= ``required_bytes``."""

    def note_in_place(self, delta_bytes: int) -> None:
        """Record a merge that fit the delta into the full buffer's headroom.

        With eager over-allocation most tail iterations never reach
        :meth:`acquire` at all — the delta is appended in place.  Tracking the
        event here keeps the EBM statistics (Table 1) honest about how much
        allocator traffic the policy eliminated.
        """
        self.stats.in_place_appends += 1
        self.stats.bytes_appended_in_place += max(0, int(delta_bytes))

    @abstractmethod
    def retire(self, buffer: Buffer) -> None:
        """Hand back a buffer (the old ``full`` storage) that is no longer live."""

    @abstractmethod
    def release(self) -> None:
        """Free every buffer still held by the manager (end of the run)."""


class SimpleBufferManager(MergeBufferManager):
    """Exact-size allocation every merge, immediate free of retired buffers."""

    def acquire(self, required_bytes: int, delta_bytes: int) -> Buffer:
        required_bytes = int(required_bytes)
        self.stats.acquisitions += 1
        self.stats.bytes_requested += required_bytes
        buffer = self.device.allocate(required_bytes, label=self.label)
        self.stats.allocations += 1
        self.stats.bytes_allocated += required_bytes
        return buffer

    def retire(self, buffer: Buffer) -> None:
        self.stats.retirements += 1
        self.device.free(buffer)

    def release(self) -> None:  # nothing is ever held
        return None


class EagerBufferManager(MergeBufferManager):
    """Eager Buffer Management: keep retired buffers as spares and over-allocate.

    Parameters
    ----------
    growth_factor:
        The paper's ``k``: a fresh destination buffer is sized
        ``full + k x delta`` (i.e. ``required + (k - 1) x delta``) so that the
        next several deltas fit in the spare without a new allocation.
    """

    def __init__(self, device: Device, growth_factor: float = 8.0, label: str = "merge_buffer") -> None:
        if growth_factor < 1.0:
            raise ValueError("growth_factor must be >= 1.0")
        super().__init__(device, label)
        self.growth_factor = float(growth_factor)
        self._spare: Buffer | None = None

    @property
    def spare_bytes(self) -> int:
        return self._spare.nbytes if self._spare is not None else 0

    def acquire(self, required_bytes: int, delta_bytes: int) -> Buffer:
        required_bytes = int(required_bytes)
        delta_bytes = max(0, int(delta_bytes))
        self.stats.acquisitions += 1
        self.stats.bytes_requested += required_bytes

        if self._spare is not None and self._spare.nbytes >= required_bytes:
            buffer = self._spare
            self._spare = None
            self.stats.reuses += 1
            return buffer

        target = required_bytes + int(max(0.0, self.growth_factor - 1.0) * delta_bytes)
        if not self.device.pool.would_fit(target):
            # Fall back to the exact size rather than provoking an avoidable OOM.
            target = required_bytes
        buffer = self.device.allocate(target, label=self.label)
        self.stats.allocations += 1
        self.stats.bytes_allocated += target
        return buffer

    def retire(self, buffer: Buffer) -> None:
        self.stats.retirements += 1
        if self._spare is None:
            self._spare = buffer
            return
        # Keep the larger of the two buffers as the spare; free the other.
        if buffer.nbytes > self._spare.nbytes:
            self.device.free(self._spare)
            self._spare = buffer
        else:
            self.device.free(buffer)

    def release(self) -> None:
        if self._spare is not None:
            self.device.free(self._spare)
            self._spare = None


def make_buffer_manager(
    device: Device,
    *,
    eager: bool,
    label: str = "merge_buffer",
) -> MergeBufferManager:
    """Factory used by the engines: the EBM on/off switch of Table 1."""
    if eager:
        return EagerBufferManager(device, label=label)
    return SimpleBufferManager(device, label=label)
