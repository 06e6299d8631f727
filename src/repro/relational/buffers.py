"""The data tier and the merge-buffer policies that grow it (Section 5.3, Table 1).

A :class:`ColumnStore` holds a relation's tuples once — columns in schema
order, rows in derivation order, one device reservation — and every HISA
index of the relation reads it (:mod:`repro.relational.hisa`).  Each fixpoint
iteration appends its delta to it once: in place when the reservation has
headroom, otherwise into a *destination* buffer as large as both versions
combined.  The paper identifies the allocation and first-touch of that buffer as a major
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

from ..backend import TUPLE_ITEMSIZE, Array
from ..device.cost import KernelCost
from ..device.device import Device
from ..device.memory import Buffer
from .columnbatch import ColumnBatch
from .hashtable import grown


@dataclass
class BufferManagerStats:
    """Counters describing how a buffer manager behaved during a run."""

    acquisitions: int = 0
    allocations: int = 0
    reuses: int = 0
    retirements: int = 0
    bytes_requested: int = 0
    bytes_allocated: int = 0


class MergeBufferManager(ABC):
    """Supplies destination buffers for full/delta merges and recycles old ones."""

    def __init__(self, device: Device, label: str = "merge_buffer") -> None:
        self.device = device
        self.label = label
        self.stats = BufferManagerStats()

    @abstractmethod
    def acquire(self, required_bytes: int, delta_bytes: int) -> Buffer:
        """Return a destination buffer with capacity >= ``required_bytes``."""

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


class ColumnStore:
    """A relation's tuples, once: capacity-backed columns in schema order.

    Built from ``rows`` (its lazy columns are gathered here, as
    ``{label}.ingest``).  A store with a ``manager`` reserves its capacity as
    ``{label}.data`` and grows through the manager; one without is a *view*
    of rows another owner reserved (a delta, which its indexes sort but never
    append to), and reserves nothing.
    """

    def __init__(
        self, device: Device, rows: ColumnBatch, *, label: str, manager: MergeBufferManager | None = None
    ) -> None:
        self.device = device
        self.label = label
        self.arity = rows.arity
        self.columns: list[Array] = [
            device.backend.ascontiguousarray(column) for column in rows.columns(label=f"{label}.ingest")
        ]
        self._live = len(rows)
        self.manager = manager
        self._buffer: Buffer | None = (
            device.allocate(rows.nbytes, label=f"{label}.data", charge_cost=False) if manager is not None else None
        )

    def __len__(self) -> int:
        return self._live

    @property
    def nbytes(self) -> int:
        """Bytes of the store's device reservation (0 for a view)."""
        return self._buffer.nbytes if self._buffer is not None else 0

    def live_columns(self) -> list[Array]:
        """The stored columns' live rows — zero-copy views."""
        return [column[: self._live] for column in self.columns]

    def append(self, columns: list[Array], *, charge: bool = True) -> bool:
        """Append rows (one array per schema column) after the live ones;
        returns whether they fit the reservation's headroom.

        In place, only the region past the live rows is written, so lazy
        batches holding views of the columns stay valid.  Otherwise a
        destination buffer comes from the manager and the whole store is
        copied into it (amortised by the manager's growth policy); the old
        buffer is retired to the manager.
        """
        n, d = self._live, int(columns[0].shape[0])
        row_bytes = self.arity * TUPLE_ITEMSIZE
        required = (n + d) * row_bytes
        in_place = self._buffer.nbytes >= required and int(self.columns[0].shape[0]) >= n + d
        if in_place:
            cost = KernelCost(kernel=f"{self.label}.merge_append", sequential_bytes=2.0 * d * row_bytes, ops=float(d))
        else:
            retired, self._buffer = self._buffer, self.manager.acquire(required, d * row_bytes)
            self.manager.retire(retired)
            capacity = max(n + d, self._buffer.nbytes // row_bytes)
            self.columns = [grown(self.device.backend, column, n, capacity) for column in self.columns]
            cost = KernelCost(kernel=f"{self.label}.merge_copy", sequential_bytes=2.0 * float(required), ops=float(n + d))
        for column, part in zip(self.columns, columns):
            column[n : n + d] = part
        if charge:
            self.device.charge(cost)
        self._live = n + d
        return in_place

    def free(self) -> None:
        """Release the reservation and every buffer the manager holds."""
        if self._buffer is not None:
            self.device.free(self._buffer, charge_cost=False)
            self._buffer = None
        if self.manager is not None:
            self.manager.release()
