"""DRed (delete and re-derive) on the device.

A retraction epoch keeps its sets as scratch relations, each a
:class:`~repro.relational.sharded.ShardedRelation` partitioned like the
resident relation it shadows and indexed on all columns only, so its set
algebra is the semi-naïve lifecycle the fixpoint already runs:

* **over-delete** — a relation's *cone* starts as the retracted rows its
  resident full holds.  Each round its delta (the frontier) stands in for the
  resident delta while the epoch's delta versions run against the
  pre-deletion fulls; the head parts the resident full holds go through the
  head's cone ``add_new`` / ``end_iteration``, so the cone's delta is the next
  frontier and its full is the cone.
* **apply** — each resident relation drops the rows its cone's index holds.
* **re-derive** — the full versions run over the post-deletion database; their
  output and the relation's ground facts, kept where the cone holds them, load
  a *regained* relation whose delta seeds the insert fixpoint.

Every step is a charged kernel on the shard devices; the only host rows are
the client's retractions and the ground facts, uploaded once each.
"""

from __future__ import annotations

from contextlib import suppress

import numpy as np

from ..datalog.seminaive import SemiNaiveEvaluator
from ..errors import DeviceBufferError
from ..relational.columnbatch import ColumnBatch
from ..relational.sharded import ShardedRelation
from .cache import CompiledProgram

__all__ = ["Retraction"]


class Retraction:
    """One epoch's DRed over the evaluator's resident relations."""

    def __init__(self, evaluator: SemiNaiveEvaluator, compiled: CompiledProgram) -> None:
        self.evaluator = evaluator
        self.compiled = compiled
        self.relations = evaluator.relations
        #: per relation, its deletion cone
        self.cones: dict[str, ShardedRelation] = {}
        #: per IDB relation, the cone rows still derivable
        self.regained: dict[str, ShardedRelation] = {}

    def run(
        self, retracts: dict[str, np.ndarray], ground: dict[str, np.ndarray]
    ) -> tuple[dict[str, int], dict[str, int]]:
        """Over-delete ``retracts``, apply and re-derive, with ``ground`` (the
        IDB relations' ground facts after the epoch) supporting themselves.
        Returns the rows removed and regained, per relation that has any."""
        self._over_delete(retracts)
        removed = {name: self.relations[name].retract(cone) for name, cone in sorted(self.cones.items())}
        # The over-delete probed replicated inners built from the
        # pre-deletion fulls; the re-derive must see post-deletion state.
        self.evaluator.exchange.invalidate()
        self._rederive(ground)
        for cone in self.cones.values():
            cone.free()
        self.cones.clear()
        regained = {name: relation.full_count for name, relation in self.regained.items()}
        return (
            {name: count for name, count in removed.items() if count},
            {name: count for name, count in regained.items() if count},
        )

    def survivors(self) -> dict[str, list[ColumnBatch]]:
        """The regained rows, per relation one batch per shard."""
        return {
            name: [shard.delta_batch for shard in relation.shards]
            for name, relation in self.regained.items()
            if relation.delta_count
        }

    def swap_closed(self, name: str) -> bool:
        """True unless ``name``'s regained rows miss the column swap of one of
        them: the swapped rows, routed to their owners, are searched there."""
        regained = self.regained.get(name)
        if regained is None or not regained.delta_count:
            return True
        swapped = [shard.delta_batch.project((1, 0)) for shard in regained.shards]
        routed = self.evaluator.exchange.route_rows(name, swapped, label=f"{name}.route_swap_check")
        return all(len(shard.present_rows(batch)) == len(batch) for shard, batch in zip(regained.shards, routed))

    def free(self) -> None:
        """Release every scratch relation (best effort: a shard rebuilt
        after a crash took its buffers with it)."""
        for scratch in (self.cones, self.regained):
            for relation in scratch.values():
                with suppress(DeviceBufferError):
                    relation.free()
            scratch.clear()

    # ------------------------------------------------------------------
    def _over_delete(self, retracts: dict[str, np.ndarray]) -> None:
        for name, resident in self.relations.items():
            uploaded: list[list[ColumnBatch]] = [[] for _ in resident.shards]
            if name in retracts:
                self.evaluator._stage_ground_facts(name, retracts[name], uploaded, edge="h2d_retract")
            self.cones[name] = self._scratch(name, "cone", self._held(resident, uploaded))
        frontier = {name for name, cone in self.cones.items() if cone.delta_count}
        while frontier:
            for version in self.compiled.epoch_versions:
                source = version.initial.relation
                if source not in frontier:
                    continue
                with self.relations[source].shadow_delta([shard.delta_batch for shard in self.cones[source].shards]):
                    parts = self.evaluator._execute_version(version)
                head = version.head_relation
                for shard, rows in enumerate(self._held(self.relations[head], [[part] for part in parts])):
                    if len(rows):
                        self.cones[head].add_new_shard(shard, rows)
            frontier = {name for name, cone in self.cones.items() if cone.end_iteration().delta_count}

    def _rederive(self, ground: dict[str, np.ndarray]) -> None:
        targets = {name for name, cone in self.cones.items() if cone.full_count and name in self.compiled.idb_relations}
        found: dict[str, list[list[ColumnBatch]]] = {name: [[] for _ in self.cones[name].shards] for name in targets}
        for version in self.compiled.full_versions:
            if version.head_relation in found:
                for shard, rows in enumerate(self.evaluator._execute_version(version)):
                    found[version.head_relation][shard].append(rows)
        for name in sorted(targets):
            self.evaluator._stage_ground_facts(name, ground[name], found[name])
            self.regained[name] = self._scratch(name, "regained", self._held(self.cones[name], found[name]))

    @staticmethod
    def _held(holder: ShardedRelation, buckets: list[list[ColumnBatch]]) -> list[ColumnBatch]:
        """Per shard, the rows of its bucket's parts (all on that shard) that
        ``holder`` holds."""
        return [
            shard.present_rows(
                parts[0] if len(parts) == 1 else ColumnBatch.concatenate(shard.device, parts, arity=holder.arity)
            )
            for shard, parts in zip(holder.shards, buckets)
        ]

    def _scratch(self, name: str, role: str, rows: list[ColumnBatch]) -> ShardedRelation:
        """A relation ``{name}.{role}`` partitioned like resident ``name``,
        indexed on all columns only and loaded with ``rows`` (one batch per
        shard) as its full and its delta."""
        resident = self.relations[name]
        relation = ShardedRelation(
            resident.devices, f"{name}.{role}", resident.arity,
            shard_column=resident.shard_column, **resident._relation_config,
        )
        for shard, batch in enumerate(rows):
            relation.initialize_shard(shard, batch)
        return relation
