"""Hash-partitioned relation storage: what the fixpoint driver evaluates over.

The successors of GDlog scale past one device's memory and bandwidth by
partitioning relations across GPUs and exchanging delta tuples each iteration
("Scaling Worst-Case Optimal Datalog to GPUs"); this module provides the
storage half of that design for the simulated cluster:

* :func:`shard_assignments` — the partitioning rule: a tuple lives on shard
  ``hash(tuple[shard_column]) % num_shards``.  The hash is the backend's
  ``hash_columns`` fold, so every backend (and the host) assigns tuples
  identically.
* :func:`partition_rows_host` — the host half of that rule: fact rows split
  by owner before each shard uploads its own partition.
* :class:`ShardedRelation` — a router over ``num_shards`` ordinary
  :class:`~repro.relational.relation.Relation` objects, one per shard device.
  Each shard runs the unchanged columnar ``add_new``/dedup/merge path on its
  partition; because every tuple has exactly one owner shard, per-shard
  deduplication and ``populate_delta`` compose into their global
  counterparts, and the union of the shard fulls is the single-device full.
  The engines build one per relation for every shard count; with one shard
  it is a thin pass-through to its only :class:`Relation`.

Cross-shard movement is *not* done here: the evaluator routes foreign-owned
tuples through the charged ``device_to_device`` kernel before they reach a
shard's ``add_new`` (see :mod:`repro.datalog.sharded`).
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager

from ..backend import Array, host_rows_to_tuples
from ..device.cost import KernelCost
from ..device.device import Device
from ..errors import SchemaError
from .checkpoint import RelationState
from .hashtable import DEFAULT_LOAD_FACTOR
from .relation import IterationStats, Relation

__all__ = [
    "ShardedRelation",
    "partition_rows_host",
    "shard_assignments",
    "shard_owners",
]


def partition_rows_host(rows, column: int, num_shards: int) -> list:
    """Host-side hash partition of fact rows by owner shard (uncharged).

    The host half of the partitioning rule — same fold, same modulo as the
    device-side :func:`shard_owners` — kept in one place so fact loading
    and delta routing can never disagree about a tuple's owner.
    """
    from ..backend import HOST_BACKEND

    rows = HOST_BACKEND.as_rows(rows)
    if num_shards <= 1:
        return [rows]
    if rows.shape[0] == 0:
        return [rows] * num_shards
    owners = shard_assignments(HOST_BACKEND, rows[:, column], num_shards)
    return [rows[owners == shard] for shard in range(num_shards)]


def _sum_iteration_stats(rows: list[IterationStats]) -> IterationStats:
    """Fold per-shard :class:`IterationStats` into the global view.

    Valid because each tuple is owned by exactly one shard, so the counts
    are disjoint and sum.
    """
    return IterationStats(
        iteration=rows[0].iteration,
        new_count=sum(s.new_count for s in rows),
        delta_count=sum(s.delta_count for s in rows),
        full_count=sum(s.full_count for s in rows),
        in_place_merges=sum(s.in_place_merges for s in rows),
        rebuild_merges=sum(s.rebuild_merges for s in rows),
        raw_count=sum(s.raw_count for s in rows),
    )


def shard_assignments(backend, values: Array, num_shards: int) -> Array:
    """Owner shard of each value: ``hash(value) % num_shards``.

    Uses the backend's splitmix64-style column fold so that host-side EDB
    partitioning and device-side delta routing agree bit-for-bit.
    """
    hashes = backend.hash_columns([backend.asarray(values, dtype=backend.int64)])
    return hashes % num_shards


def shard_owners(
    device: Device,
    keys: Array,
    num_shards: int,
    *,
    label: str = "shard_owners",
) -> Array:
    """Owner shard of each device-resident key value (charged hash pass).

    The exchange path hashes just the routing key column of a batch, then
    slices the batch lazily per destination — no full-row scatter is paid
    until (and unless) live columns actually ship.  Charged as one streaming
    pass over the key column (read + hash + owner write).
    """
    backend = device.backend
    keys = backend.asarray(keys, dtype=backend.int64)
    owners = shard_assignments(backend, keys, num_shards)
    n = float(keys.shape[0])
    device.charge(
        KernelCost(
            kernel=label,
            sequential_bytes=n * 24.0,
            ops=n * 6.0,
            launches=1,
        )
    )
    return owners


class ShardedRelation:
    """One Datalog relation hash-partitioned across ``num_shards`` devices.

    Exposes the aggregate view the engine needs (counts, history, result
    download) while delegating storage, indexing and the per-iteration
    delta lifecycle to one vanilla :class:`Relation` per shard.
    """

    def __init__(
        self,
        devices: list[Device],
        name: str,
        arity: int,
        *,
        shard_column: int = 0,
        load_factor: float = DEFAULT_LOAD_FACTOR,
        eager_buffers: bool = True,
    ) -> None:
        if not devices:
            raise SchemaError(f"sharded relation {name!r} needs at least one device")
        if not 0 <= shard_column < arity:
            raise SchemaError(
                f"shard column {shard_column} out of range for {name!r} (arity {arity})"
            )
        self.devices = list(devices)
        self.name = name
        self.arity = int(arity)
        self.shard_column = int(shard_column)
        self.num_shards = len(self.devices)
        # Kept so a crashed shard can be rebuilt with identical configuration.
        self._relation_config = dict(
            load_factor=load_factor,
            eager_buffers=eager_buffers,
        )
        self.shards = [
            Relation(device, name, arity, **self._relation_config)
            for device in self.devices
        ]
        #: per-iteration global stats, one entry per :meth:`end_iteration`
        self.history: list[IterationStats] = []

    # ------------------------------------------------------------------
    # Index registration (forwarded to every shard)
    # ------------------------------------------------------------------
    def require_index(self, join_columns: tuple[int, ...]) -> None:
        for shard in self.shards:
            shard.require_index(join_columns)

    @property
    def index_column_sets(self) -> set[tuple[int, ...]]:
        return self.shards[0].index_column_sets

    def aligned_with(self, join_columns: tuple[int, ...]) -> bool:
        """True if a probe on ``join_columns`` is shard-local.

        Tuples are partitioned by ``hash(t[shard_column])``, so a probe
        keyed on that same column finds all its matches on the shard the
        key hashes to; any other key column scatters matches across shards
        (the evaluator then broadcasts the outer side).
        """
        return bool(join_columns) and join_columns[0] == self.shard_column

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialize(self, rows) -> None:
        """Partition *host* rows by owner shard and load each partition.

        The host scatters the fact file once (uncharged host work, like
        fact parsing) and each shard pays its own charged H2D upload —
        the same total PCIe volume as the single-device load.
        """
        parts = partition_rows_host(rows, self.shard_column, self.num_shards)
        for shard, part in zip(self.shards, parts):
            shard.initialize(part)

    def initialize_shard(self, shard: int, rows) -> None:
        """Load one shard's partition directly (stratum-init edge)."""
        self.shards[shard].initialize(rows)

    def add_new_shard(self, shard: int, rows, *, report=None):
        """Append tuples already routed to ``shard`` to its *new* version and
        return the part as it holds it (``report``: see :meth:`Relation.add_new`)."""
        return self.shards[shard].add_new(rows, report=report)

    def add_swap_shard(self, shard: int, rows, *, resident: bool) -> None:
        """Append a mirrored version's swapped rows, already routed to
        ``shard`` (see :meth:`Relation.add_swap`)."""
        self.shards[shard].add_swap(rows, resident=resident)

    def add_new(self, rows) -> None:
        """Partition *host* rows by owner shard and append each part to *new*.

        The sharded half of the serving engine's epoch seeding: injected
        facts are routed host-side by the canonical shard column (the same
        fold the loader and the exchange use), and each owner shard pays its
        own charged H2D upload.
        """
        parts = partition_rows_host(rows, self.shard_column, self.num_shards)
        for shard, part in zip(self.shards, parts):
            if part.shape[0]:
                shard.add_new(part)

    def retract(self, cone: "ShardedRelation") -> int:
        """Remove every row of ``cone`` (a DRed cone partitioned like this
        relation) from the full version; returns the removed count.  Each
        shard rebuilds against the cone's shard on its device
        (:meth:`Relation.retract`); counts sum as ownership is disjoint."""
        return sum(
            shard.retract(doomed.canonical_index)
            for shard, doomed in zip(self.shards, cone.shards)
            if doomed.full_count
        )

    @contextmanager
    def shadow_delta(self, parts: list):
        """Temporarily present device ``parts``, one per shard and already on
        their owners (a DRed cone's delta), as this relation's delta."""
        with ExitStack() as stack:
            for shard, part in zip(self.shards, parts):
                stack.enter_context(shard.shadow_delta(part))
            yield self

    def end_iteration(self) -> IterationStats:
        """Run populate-delta / merge / clear-new on every shard.

        Returns the global view: counts summed across shards (valid because
        each tuple is owned by exactly one shard).
        """
        stats = _sum_iteration_stats([shard.end_iteration() for shard in self.shards])
        self.history.append(stats)
        return stats

    def clear_delta(self) -> None:
        for shard in self.shards:
            shard.clear_delta()

    # ------------------------------------------------------------------
    # Checkpoint / recovery
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> RelationState:
        """Snapshot every shard's (full, delta) partition to host memory."""
        return RelationState(
            name=self.name,
            arity=self.arity,
            partitions=[shard.checkpoint_state() for shard in self.shards],
        )

    def appended_state(self, marks: list[tuple[int, int]]) -> RelationState:
        """:meth:`checkpoint_state` of the rows every shard appended past its
        :meth:`append_marks` entry (the marks must still :meth:`holds`); each shard
        that grew pays a charged D2H of its new rows only."""
        return RelationState(
            name=self.name,
            arity=self.arity,
            partitions=[shard.appended_state(rows) for shard, (_, rows) in zip(self.shards, marks)],
        )

    def restore(self, state: RelationState) -> None:
        """Restore every shard from a checkpoint (global rollback).

        Partial restores are unsound — by the time one shard crashes, the
        others' deltas have already advanced past the snapshot — so recovery
        always rolls the whole relation back together.
        """
        if len(state.partitions) != self.num_shards:
            raise SchemaError(
                f"checkpoint for {self.name!r} has {len(state.partitions)} partitions, "
                f"expected {self.num_shards}"
            )
        for shard, partition in zip(self.shards, state.partitions):
            shard.restore(partition)
        # Every shard ends an iteration together, so one partition's counter
        # bounds the global history the way it bounds its shard's.
        del self.history[int(state.partitions[0].iteration) :]

    def rebuild_shard(self, index: int, device: Device) -> None:
        """Replace shard ``index`` with a fresh relation on a replacement device.

        Used after a shard crash: the old shard's buffers died with its
        device, so the stale :class:`Relation` is simply discarded (no
        ``free`` — its pool no longer exists) and an empty one with the same
        index declarations takes its place, ready for :meth:`restore`.
        """
        column_sets = self.shards[index].index_column_sets
        self.devices[index] = device
        replacement = Relation(device, self.name, self.arity, **self._relation_config)
        for columns in column_sets:
            replacement.require_index(columns)
        self.shards[index] = replacement

    def free(self) -> None:
        """Release every shard's simulated device memory."""
        for shard in self.shards:
            shard.free()

    # ------------------------------------------------------------------
    # Introspection (global view)
    # ------------------------------------------------------------------
    @property
    def full_count(self) -> int:
        return sum(shard.full_count for shard in self.shards)

    @property
    def delta_count(self) -> int:
        return sum(shard.delta_count for shard in self.shards)

    @property
    def new_count(self) -> int:
        return sum(shard.new_count for shard in self.shards)

    def full_rows_host(self, *, charge: bool = True):
        """Download every shard's full partition to host rows (charged D2H).

        Shard order concatenation — a permutation of the single-device
        result (callers compare as sets); a lone non-empty partition is
        handed over as downloaded, not copied.
        """
        from ..backend import HOST_BACKEND

        parts = [HOST_BACKEND.as_rows(shard.full_rows_host(charge=charge)) for shard in self.shards]
        non_empty = [part for part in parts if part.shape[0]]
        if not non_empty:
            return HOST_BACKEND.empty((0, self.arity), dtype=HOST_BACKEND.int64)
        if len(non_empty) == 1:
            return non_empty[0]
        return HOST_BACKEND.concatenate(non_empty, axis=0)

    def append_marks(self) -> list[tuple[int, int]]:
        """Per shard ``(generation, full rows)``: where its full version ends now."""
        return [(shard.generation, shard.full_count) for shard in self.shards]

    def holds(self, marks: list[tuple[int, int]]) -> bool:
        """True while every shard's generation is the one ``marks`` names.

        Once one moved — the shard was re-initialized (a retraction, a
        restore) or replaced by :meth:`rebuild_shard` — the marked rows are no
        longer a prefix of its full version.
        """
        return [generation for generation, _ in marks] == [shard.generation for shard in self.shards]

    def as_set(self) -> set[tuple[int, ...]]:
        return set(host_rows_to_tuples(self.full_rows_host(charge=False)))

    def memory_bytes(self) -> int:
        return sum(shard.memory_bytes() for shard in self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedRelation({self.name!r}, arity={self.arity}, shards={self.num_shards}, "
            f"shard_column={self.shard_column}, full={self.full_count})"
        )
