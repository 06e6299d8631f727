"""The exchange layer: how flowing tuples cross shard boundaries.

There is one fixpoint driver (:mod:`repro.datalog.seminaive`) for every
shard count; this module is the part of it that exists because relations are
hash-partitioned over ``N`` devices.  :class:`ShardExchange` sits between the
driver's join steps and moves the flowing batches with a volume-minimizing
schedule:

* every relation is hash-partitioned by its *canonical shard column* (the
  first join column its indexes are probed through most often — see
  :func:`shard_columns_for_plan`), so a probe keyed on that column finds all
  of its matches on the shard the key hashes to;
* flowing tuples move between operators as lazy
  :class:`~repro.relational.columnbatch.ColumnBatch` objects *across shard
  boundaries too*: a shipment carries only the columns a downstream plan
  step still reads (the planner's backward liveness analysis,
  ``RuleVersion.live_columns``), with selection chains resolved sender-side,
  so dead columns never cross the interconnect;
* before a repartition or broadcast, a **semi-join filter** — an exact
  per-shard key set built from the inner relation's join column and
  refreshed incrementally from deltas on merge
  (:class:`~repro.relational.semijoin.ExchangeFilterBank`) — drops outer
  rows that cannot match on the receiving shard; small static EDB inners
  are instead **replicated** once to every shard (charged through the same
  broadcast edge), turning their probes shard-local, and when every
  remaining step is local the flowing batch is **pre-routed** by the head's
  shard key so the final head route disappears entirely.

``semijoin_filter=False`` restores unfiltered, unreplicated, tail-routed
exchanges.  All cross-shard movement goes through the charged
``device_to_device`` / ``broadcast_to`` kernels (``KernelCost.transfer_bytes``
at the NVLink-class interconnect bandwidth, recorded under the
``shard_exchange`` phase), so filters and replicas only pay off when the rows
they avoid shipping outweigh the keys they cost.  Filters and replicas are
caches: the driver invalidates them on every rollback, rebuild and epoch
boundary, and they are rebuilt, charged, on demand.  With one shard nothing
moves and nothing is built — ``N = 1`` is not a separate code path, it is
this one returning early.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from ..device.device import Device
from ..device.profiler import PHASE_SHARD_EXCHANGE
from ..relational.columnbatch import ColumnBatch
from ..relational.relation import Relation
from ..relational.semijoin import ExchangeFilterBank
from ..relational.sharded import ShardedRelation, shard_owners
from .planner import ProgramPlan, RuleVersion, head_shard_variable

__all__ = ["ShardExchange", "ShardedSemiNaiveEvaluator", "shard_columns_for_plan"]


def __getattr__(name: str):
    # ``bench/trace.py`` TARGETS (editable only by a ``benchmark`` PR) still
    # wraps ``repro.datalog.sharded:ShardedSemiNaiveEvaluator``; the name
    # resolves to the one driver and goes away with that PR.  Resolved on
    # first access because ``seminaive`` imports this module.
    if name == "ShardedSemiNaiveEvaluator":
        from .seminaive import SemiNaiveEvaluator

        return SemiNaiveEvaluator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Default ceiling for replicating a static EDB inner to every shard (bytes).
DEFAULT_REPLICATE_MAX_BYTES = 4 << 20


def shard_columns_for_plan(plan: ProgramPlan, arities: dict[str, int]) -> dict[str, int]:
    """Canonical shard column per relation: the most-probed first join column.

    Counts every join *step* across every rule version (not the deduplicated
    index signatures), so a column probed by ten rules outweighs one probed
    through two distinct indexes; partitioning by the most common first join
    column makes the most probes shard-local (ties break toward the smaller
    column; relations the plan never probes default to column 0).
    """
    probe_counts: dict[str, Counter] = defaultdict(Counter)
    for rule_plan in plan.rule_plans.values():
        for version in rule_plan.versions:
            for step in version.joins:
                probe_counts[step.relation][step.join_columns[0]] += 1
    columns: dict[str, int] = {}
    for relation_name, arity in arities.items():
        counter = probe_counts.get(relation_name)
        if counter:
            columns[relation_name] = max(counter.items(), key=lambda item: (item[1], -item[0]))[0]
        else:
            columns[relation_name] = 0
    return columns


@dataclass(frozen=True)
class _VersionPlan:
    """Per-rule-version exchange schedule, computed once and cached.

    ``modes[i]`` is how step ``i``'s probe reaches its inner: ``"local"``
    (the inner is replicated on every shard), ``"aligned"`` (repartition the
    outer by the probe key) or ``"broadcast"``.  ``live_before[i]`` is the
    set of flowing-schema positions still read at or after step ``i`` — the
    only columns an exchange in front of the step may ship.  When
    ``route_before`` is set, the flowing batch is pre-routed by the head's
    shard-key variable (at ``route_position`` of that step's input schema)
    and the final head route is skipped: every later step is local, so rows
    never leave their head-owner shard again.
    """

    modes: tuple[str, ...]
    schemas: tuple[tuple[str, ...], ...]
    live_before: tuple[frozenset, ...]
    route_before: int | None
    route_position: int | None


class ShardExchange:
    """Places flowing batches on the shards where their next probe matches.

    Owned by the fixpoint driver, which calls :meth:`place` in front of every
    binary join step and :meth:`route_head` behind the last one; everything
    else here is how those two decide and move.  ``devices`` and
    ``relations`` are the driver's own list and map (live views: a shard
    rebuild swaps entries in place).  With one shard both entry points hand
    their input straight back — nothing to schedule, ship or count.
    """

    def __init__(
        self,
        devices: list[Device],
        plan: ProgramPlan,
        relations: dict[str, ShardedRelation],
        *,
        semijoin_filter: bool = True,
        replicate_max_bytes: int = DEFAULT_REPLICATE_MAX_BYTES,
    ) -> None:
        self.devices = devices
        self.num_shards = len(devices)
        self.plan = plan
        self.relations = relations
        #: semi-join filtering + EDB replication + head pre-routing lever
        self.semijoin_filter = bool(semijoin_filter)
        self.replicate_max_bytes = int(replicate_max_bytes)
        #: tuples moved across shards (the exchange volume in rows)
        self.exchange_tuples = 0
        #: join steps whose probe was shard-local after a key repartition
        self.aligned_joins = 0
        #: join steps that actually replicated outer rows (a filtered
        #: broadcast that ships nothing does not count)
        self.broadcast_joins = 0
        #: join steps answered from a replicated EDB inner (no exchange)
        self.replicated_joins = 0
        #: outer rows dropped by semi-join filters before shipping
        self.semijoin_rows_dropped = 0
        # Exchange-schedule state (rebuilt on demand, dropped on rollback).
        self._filters = ExchangeFilterBank(self.devices)
        self._replicas: dict[str, list[Relation]] = {}
        self._replica_decision: dict[str, bool] = {}
        self._version_plans: dict[int, _VersionPlan] = {}

    # ------------------------------------------------------------------
    # What the driver calls
    # ------------------------------------------------------------------
    def place(
        self, version: RuleVersion, index: int, batches: list[ColumnBatch]
    ) -> tuple[list[ColumnBatch], list[Relation]]:
        """Move ``batches`` to where join step ``index`` finds its matches.

        Returns the placed per-shard batches and, per shard, the relation
        whose index the step probes there: the inner's own partition after a
        repartition or broadcast of the outer side, or a replica of a small
        static EDB inner (no movement at all).
        """
        step = version.joins[index]
        inner = self.relations[step.relation]
        if self.num_shards == 1:
            return batches, inner.shards
        plan = self._version_plan(version)
        width = len(plan.schemas[index])
        if plan.route_before == index:
            batches, _ = self._exchange(
                batches,
                key_position=plan.route_position,
                width=width,
                live=set(plan.live_before[index]) | {plan.route_position},
                label=f"{version.head_relation}.route_early",
            )
        mode = plan.modes[index]
        if mode == "local":
            self.replicated_joins += 1
            return batches, self._replica_for(step.relation, tuple(step.join_columns))
        if mode == "aligned":
            self.aligned_joins += 1
        batches, shipped = self._exchange(
            batches,
            key_position=step.outer_key_positions[0],
            width=width,
            live=set(plan.live_before[index]),
            label=f"{version.head_relation}<-{step.relation}" + (".route" if mode == "aligned" else ".bcast"),
            filter_key=(step.relation, step.join_columns[0]),
            replicate=mode == "broadcast",
        )
        if mode == "broadcast" and shipped:
            self.broadcast_joins += 1
        return batches, inner.shards

    def route_head(self, version: RuleVersion, head_parts: list[ColumnBatch]) -> list[ColumnBatch]:
        """Send projected head batches to the head relation's owner shards."""
        if self.num_shards == 1:
            return head_parts
        if self._version_plan(version).route_before is not None:
            # The flow was pre-routed by the head's shard key and every later
            # step was shard-local, so each head batch already sits on its
            # owner (the pre-route hash *is* the ownership hash): no tail
            # exchange at all.
            return head_parts
        return self._exchange(
            head_parts,
            key_position=self.relations[version.head_relation].shard_column,
            width=len(version.head),
            live=set(range(len(version.head))),
            label=f"{version.head_relation}.route_new",
        )[0]

    def refresh_filters(self, name: str) -> None:
        """Fold ``name``'s just-merged delta keys into the filters tracking it
        (the delta rows are exactly the keys that entered full this iteration)."""
        if self._filters.has_relation(name):
            self._filters.refresh(name, self.relations[name].shards)

    def invalidate(self) -> None:
        """Drop semi-join filters and EDB replicas: both are caches built from
        the fulls as they were, stale after a rollback, a rebuild or a mutation."""
        for replicas in self._replicas.values():
            for replica in replicas:
                try:
                    replica.free()
                except Exception:
                    # A replica on the crashed device died with its pool.
                    pass
        self._replicas.clear()
        self._filters.invalidate()

    # ------------------------------------------------------------------
    # Exchange scheduling (per rule version, cached)
    # ------------------------------------------------------------------
    def _replicable(self, name: str) -> bool:
        """True if ``name`` is a small static EDB inner worth replicating."""
        if not self.semijoin_filter:
            return False
        cached = self._replica_decision.get(name)
        if cached is not None:
            return cached
        relation = self.relations[name]
        payload_bytes = relation.full_count * relation.arity * 8
        decision = (
            name not in self.plan.analysis.idb_relations
            and 0 < payload_bytes <= self.replicate_max_bytes
        )
        self._replica_decision[name] = decision
        return decision

    def _version_plan(self, version: RuleVersion) -> _VersionPlan:
        plan = self._version_plans.get(id(version))
        if plan is not None:
            return plan
        schemas = tuple(
            [tuple(version.initial.schema)] + [tuple(step.schema) for step in version.joins]
        )
        modes = []
        for step in version.joins:
            if self._replicable(step.relation):
                modes.append("local")
            elif self.relations[step.relation].aligned_with(step.join_columns):
                modes.append("aligned")
            else:
                modes.append("broadcast")
        route_before: int | None = None
        route_position: int | None = None
        if self.semijoin_filter and version.joins:
            head_var = head_shard_variable(
                version, self.relations[version.head_relation].shard_column
            )
            if head_var is not None:
                for index in range(len(version.joins)):
                    if head_var in schemas[index] and all(
                        mode == "local" for mode in modes[index:]
                    ):
                        route_before = index
                        route_position = schemas[index].index(head_var)
                        break
        plan = _VersionPlan(
            modes=tuple(modes),
            schemas=schemas,
            live_before=version.live_columns[0],
            route_before=route_before,
            route_position=route_position,
        )
        self._version_plans[id(version)] = plan
        return plan

    def _replica_for(self, name: str, probe_columns: tuple[int, ...]) -> list[Relation]:
        """Full copies of EDB relation ``name``, one per shard device.

        Built once: every shard broadcasts its partition to all peers over
        the charged interconnect, each device concatenates what it received
        and pays the normal dedup/index build of ``Relation.initialize``.
        Only the index a probe actually uses is built (``probe_columns``,
        extended on demand when another rule probes a different column set
        — the source relation's identity index, for example, exists for
        merge/dedup, which a read-only replica never does).  Dropped (and
        rebuilt on demand) when a fault rolls the cluster back.
        """
        replicas = self._replicas.get(name)
        if replicas is not None:
            for replica in replicas:
                replica.build_index(probe_columns)
            return replicas
        relation = self.relations[name]
        width = relation.arity
        everything = list(range(width))
        parts_per_target: list[list[ColumnBatch]] = [[] for _ in range(self.num_shards)]
        for source in range(self.num_shards):
            device = self.devices[source]
            batch = relation.shards[source].full_batch()
            if not len(batch):
                continue
            parts_per_target[source].append(batch)
            targets = [shard for shard in range(self.num_shards) if shard != source]
            with device.profiler.phase(PHASE_SHARD_EXCHANGE):
                copies = device.kernels.broadcast_to(
                    self._pack(device, batch, everything, f"{name}.replicate"),
                    [self.devices[target] for target in targets],
                    label=f"{name}.replicate",
                )
            for target, copy in zip(targets, copies):
                parts_per_target[target].append(
                    ColumnBatch.from_shipped(self.devices[target], copy, everything, width)
                )
        replicas = []
        try:
            for shard in range(self.num_shards):
                device = self.devices[shard]
                replica = Relation(
                    device,
                    f"{name}.replica",
                    width,
                    identity_index=False,
                    **relation._relation_config,
                )
                replica.require_index(probe_columns)
                replica.initialize(
                    self._gather_batches(shard, parts_per_target[shard], width, everything, f"{name}.replicate")
                )
                replicas.append(replica)
        except BaseException:
            for replica in replicas:
                replica.free()
            raise
        self._replicas[name] = replicas
        return replicas

    # ------------------------------------------------------------------
    # Exchange barriers
    # ------------------------------------------------------------------
    def _filter_bank(self, filter_key: tuple[str, int] | None) -> ExchangeFilterBank | None:
        """The filter bank with ``filter_key``'s key sets built, or ``None``."""
        if not self.semijoin_filter or filter_key is None:
            return None
        name, column = filter_key
        self._filters.ensure(name, column, self.relations[name].shards)
        return self._filters

    def _exchange(
        self,
        parts: list[ColumnBatch],
        *,
        key_position: int,
        width: int,
        live,
        label: str,
        filter_key: tuple[str, int] | None = None,
        replicate: bool = False,
    ) -> tuple[list[ColumnBatch], int]:
        """Move flowing batches to the shards their next probe needs them on.

        By default a **repartition**: each row goes to ``hash(row[key])``, so
        rows already on their key's shard never move.  With ``replicate`` a
        **broadcast** for a misaligned probe: each row goes to every shard —
        correct for any partitioning because each *inner* tuple still lives
        on exactly one shard, so every match is produced exactly once.

        Either way, rows whose key misses the target shard's semi-join filter
        are dropped before shipping (a broadcast row then reaches only the
        shards whose inner partition holds its key — possibly several,
        possibly none — and a target receiving nothing gets no transfer
        launch at all), and a shipped slice carries only its ``live`` columns
        (selection chains resolved sender-side): each surviving slice crosses
        the interconnect exactly once, charged to the sender.  All of a
        source's outbound slices resolve and pack through one fused kernel
        sequence (:meth:`_ship_partitioned`); only the per-link DMA stays per
        target.  Returns ``(batches, rows_shipped)``.
        """
        bank = self._filter_bank(filter_key)
        live_positions = sorted({int(position) for position in live} | {int(key_position)})
        slices: list[list[ColumnBatch]] = [[] for _ in range(self.num_shards)]
        shipped_rows = 0
        for source, batch in enumerate(parts):
            if len(batch) == 0:
                continue
            device = self.devices[source]
            backend = device.backend
            if replicate and bank is None:
                # Unfiltered: one staged payload of the live columns, one
                # charged transfer per peer link.
                slices[source].append(batch)
                targets = [shard for shard in range(self.num_shards) if shard != source]
                with device.profiler.phase(PHASE_SHARD_EXCHANGE):
                    copies = device.kernels.broadcast_to(
                        self._pack(device, batch, live_positions, label),
                        [self.devices[target] for target in targets],
                        label=f"{label}.d2d",
                    )
                for target, copy in zip(targets, copies):
                    slices[target].append(
                        ColumnBatch.from_shipped(self.devices[target], copy, live_positions, width)
                    )
                shipped_rows += len(batch) * len(targets)
                self.exchange_tuples += len(batch) * len(targets)
                continue
            with device.profiler.phase(PHASE_SHARD_EXCHANGE):
                keys = batch.column(key_position, label=f"{label}.key")
                if replicate:
                    everything = backend.arange(len(batch))
                else:
                    owners = shard_owners(device, keys, self.num_shards, label=f"{label}.partition")
                outbound: list[tuple[int, object]] = []
                for target in range(self.num_shards):
                    indices = everything if replicate else backend.nonzero_indices(owners == target)
                    if bank is not None and indices.shape[0]:
                        present = bank.probe(
                            device,
                            filter_key[0],
                            filter_key[1],
                            target,
                            backend.take(keys, indices),
                            label=f"{label}.semijoin",
                        )
                        kept = indices[present]
                        self.semijoin_rows_dropped += int(indices.shape[0] - kept.shape[0])
                        indices = kept
                    if indices.shape[0] == 0:
                        continue
                    if target == source:
                        slices[target].append(batch.take(indices, label=f"{label}.local"))
                    else:
                        outbound.append((target, indices))
                        shipped_rows += int(indices.shape[0])
                        self.exchange_tuples += int(indices.shape[0])
                for target, shipped in self._ship_partitioned(
                    device, batch, outbound, live_positions, width, label
                ):
                    slices[target].append(shipped)
        batches = [
            self._gather_batches(target, slices[target], width, live_positions, label)
            for target in range(self.num_shards)
        ]
        return batches, shipped_rows

    def _ship_partitioned(
        self,
        device: Device,
        batch: ColumnBatch,
        outbound: list,
        live_positions: list[int],
        width: int,
        label: str,
    ) -> list[tuple[int, ColumnBatch]]:
        """Move one source's outbound slices to their target shards, fused.

        ``outbound`` is ``[(target, row_indices), ...]`` for the foreign
        targets that keep at least one row.  Rather than resolving, packing
        and launching per target, the sender concatenates every outbound
        row-index set, resolves the batch's selection chains *once* at the
        combined length (live columns only), and packs all slices into one
        target-segmented buffer with a single charged kernel — per-iteration
        exchange launch latency stays flat in the shard count.  Only the
        per-link DMA (and nothing on the receiver, which takes a passive
        DMA write) remains per target; each target's segment is a zero-copy
        slice of the packed buffer.
        """
        if not outbound:
            return []
        backend = device.backend
        order = backend.concatenate([indices for _target, indices in outbound])
        stacked = self._pack(device, batch.take(order, label=f"{label}.slice"), live_positions, label)
        segments = []
        start = 0
        for target, indices in outbound:
            stop = start + int(indices.shape[0])
            segments.append((stacked[start:stop], self.devices[target]))
            start = stop
        copies = device.kernels.scatter_to(segments, label=f"{label}.d2d")
        return [
            (target, ColumnBatch.from_shipped(self.devices[target], copy, live_positions, width))
            for (target, _indices), copy in zip(outbound, copies)
        ]

    @staticmethod
    def _pack(device: Device, batch: ColumnBatch, live_positions: list[int], label: str):
        """Resolve ``batch``'s live columns and pack them into one shipment block."""
        stacked = device.backend.column_stack(batch.ship_columns(live_positions, label=label))
        device.kernels.transform(
            len(batch),
            bytes_per_item=8.0 * len(live_positions),
            ops_per_item=float(len(live_positions)),
            label=f"{label}.pack",
        )
        return stacked

    def _gather_batches(
        self, shard: int, parts: list[ColumnBatch], width: int, live_positions: list[int], label: str
    ) -> ColumnBatch:
        """Concatenate the slices a shard kept/received, live columns only."""
        device = self.devices[shard]
        if not parts:
            return ColumnBatch.empty(device, width)
        if len(parts) == 1:
            return parts[0]
        with device.profiler.phase(PHASE_SHARD_EXCHANGE):
            # One fused segmented-concat launch: every live column of every
            # received slice lands in its output offset in a single pass.
            with device.fused(f"{label}.gather_fused"):
                materialized = [
                    [part.column(position, label=f"{label}.gather") for position in live_positions]
                    for part in parts
                ]
                columns = device.kernels.concatenate_columns(materialized, label=f"{label}.gather")
        return ColumnBatch.from_live_columns(
            device, columns, live_positions, width, length=sum(len(part) for part in parts)
        )
