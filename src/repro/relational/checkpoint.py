"""Iteration-boundary checkpointing of semi-naïve fixpoint state.

FlowLog's incrementality argument (PAPERS.md) is also a fault-tolerance
argument: the pair *(full, delta)* per relation at an iteration boundary is
the complete state of a semi-naïve fixpoint — everything else (sorted
indexes, hash tables, cached keys) is deterministically rebuildable from it.
A checkpoint therefore snapshots exactly those two column sets per relation
per shard, and a restore re-indexes them through the ordinary
:meth:`Relation.initialize` path.

A checkpoint is either a **base**, complete on its own, or a **segment**: it
names a ``parent`` and holds, per relation and shard, only the full rows
appended since that parent (plus the newest delta and the symbol-table tail).
A full version only grows between re-initializations, so a base followed by
its segments is the whole state; :meth:`CheckpointStore.load` and
:meth:`CheckpointStore.latest` fold such a chain back into one ordinary
checkpoint, and callers never see a segment unless they ask for the
:meth:`CheckpointStore.chain`.

Two stores are provided:

* :class:`InMemoryCheckpointStore` — host-RAM snapshots (the default; a real
  deployment would pin these in host memory next to the driver), and
* :class:`DiskCheckpointStore` — ``.npz``-serialized HISA column buffers plus
  a JSON manifest, surviving process restarts.

Both keep a bounded history: the ``keep`` newest checkpoints and every
ancestor of one, so a long fixpoint cannot accumulate unbounded snapshot
memory and no kept checkpoint loses a link of its chain.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import CheckpointError

__all__ = [
    "CheckpointStore",
    "DiskCheckpointStore",
    "EvaluationCheckpoint",
    "InMemoryCheckpointStore",
    "PartitionState",
    "RelationState",
    "fold_chain",
]


@dataclass
class PartitionState:
    """One shard's (full, delta) host snapshot of a relation.

    ``iteration`` is the shard relation's own end-of-iteration counter at
    snapshot time (it also bounds the relation's stats history on restore).
    """

    full: np.ndarray
    delta: np.ndarray
    iteration: int = 0

    def __post_init__(self) -> None:
        self.full = np.ascontiguousarray(np.asarray(self.full, dtype=np.int64))
        self.delta = np.ascontiguousarray(np.asarray(self.delta, dtype=np.int64))

    @property
    def nbytes(self) -> int:
        return int(self.full.nbytes + self.delta.nbytes)


@dataclass
class RelationState:
    """Snapshot of one relation across every shard (one partition each)."""

    name: str
    arity: int
    partitions: list[PartitionState]

    @property
    def nbytes(self) -> int:
        return sum(partition.nbytes for partition in self.partitions)


@dataclass
class EvaluationCheckpoint:
    """A resumable fixpoint state at one iteration boundary.

    ``iteration`` is the number of completed iterations of stratum
    ``stratum_index`` (0 = the state right after stratum initialization).
    ``program_source`` carries the *interned* program text so a checkpoint
    loaded from disk can be resumed without re-supplying the program; the
    engine that resumes must own the symbol table that interned it (or the
    program must be symbol-free) — ``symbols`` carries that table's
    ``(symbol, identifier)`` entries when the writer has one.

    With a ``parent`` the checkpoint is a segment of a chain (module
    docstring): its full rows and ``symbols`` are what was appended since the
    parent, everything else describes the state as a whole.
    """

    program_name: str
    stratum_index: int
    iteration: int
    num_shards: int
    relations: dict[str, RelationState]
    program_source: str = ""
    checkpoint_id: str = ""
    metadata: dict = field(default_factory=dict)
    symbols: list[tuple[str, int]] = field(default_factory=list)
    parent: str = ""

    @property
    def nbytes(self) -> int:
        """Host bytes held by the snapshot's column payloads."""
        return sum(state.nbytes for state in self.relations.values())

    def relation_rows(self, name: str) -> np.ndarray:
        """All full rows of ``name`` across shards (debugging/inspection)."""
        state = self.relations[name]
        parts = [p.full for p in state.partitions if p.full.shape[0]]
        if not parts:
            return np.empty((0, state.arity), dtype=np.int64)
        return np.concatenate(parts, axis=0)


def fold_chain(chain: list[EvaluationCheckpoint]) -> EvaluationCheckpoint:
    """One ordinary checkpoint from a base and its segments, oldest first.

    Per relation and shard the full rows concatenate in chain order and the
    symbol tails concatenate; the delta, the iteration counters, the metadata
    and the id are the head's.  Folding a run of segments instead gives one
    segment of all their rows, whose ``parent`` the caller names.
    """
    head = chain[-1]
    if len(chain) == 1:
        return head
    relations: dict[str, RelationState] = {}
    for name, state in head.relations.items():
        partitions = []
        for shard, partition in enumerate(state.partitions):
            try:
                fulls = [member.relations[name].partitions[shard].full for member in chain]
            except (KeyError, IndexError):
                raise CheckpointError(
                    f"checkpoint chain of {head.checkpoint_id!r} has no shard {shard} "
                    f"of relation {name!r} in every link"
                ) from None
            partitions.append(
                PartitionState(
                    full=np.concatenate(fulls, axis=0),
                    delta=partition.delta,
                    iteration=partition.iteration,
                )
            )
        relations[name] = RelationState(name=name, arity=state.arity, partitions=partitions)
    symbols = [entry for member in chain for entry in member.symbols]
    return replace(head, relations=relations, symbols=symbols, parent="")


class CheckpointStore:
    """Chains of checkpoints, shared by the in-memory and on-disk backends.

    ``save`` names a checkpoint (ids sort in save order) and then prunes
    everything but the ``keep`` newest checkpoints and their ancestors — only
    after the new one is durable.  ``load`` / ``latest`` return a chain
    folded into one ordinary checkpoint.  Backends implement the raw,
    unfolded ``_write`` / ``_read`` / ``_delete`` and :meth:`list_ids`, and
    may answer ``_parent`` without reading a payload.
    """

    def __init__(self, keep: int) -> None:
        if keep < 1:
            raise CheckpointError("a checkpoint store must keep at least one checkpoint")
        self.keep = int(keep)
        self._counter = 0

    # -- backend hooks ---------------------------------------------------
    def _write(self, checkpoint: EvaluationCheckpoint) -> None:
        raise NotImplementedError

    def _read(self, checkpoint_id: str) -> EvaluationCheckpoint:
        raise NotImplementedError

    def _parent(self, checkpoint_id: str) -> str:
        return self._read(checkpoint_id).parent

    def _delete(self, checkpoint_id: str) -> None:
        raise NotImplementedError

    def list_ids(self) -> list[str]:
        """Every stored checkpoint id, segments included, oldest first."""
        raise NotImplementedError

    # -- the chain -------------------------------------------------------
    def save(self, checkpoint: EvaluationCheckpoint) -> str:
        self._counter += 1
        checkpoint.checkpoint_id = (
            f"ckpt-{self._counter:06d}-s{checkpoint.stratum_index}-i{checkpoint.iteration}"
        )
        self._write(checkpoint)
        self._prune()
        return checkpoint.checkpoint_id

    def chain(self, checkpoint_id: str) -> list[EvaluationCheckpoint]:
        """The stored checkpoints ``checkpoint_id`` folds from, unfolded:
        its base first, itself last."""
        links = [self._read(checkpoint_id)]
        while links[-1].parent:
            links.append(self._read(links[-1].parent))
        return links[::-1]

    def load(self, checkpoint_id: str) -> EvaluationCheckpoint:
        return fold_chain(self.chain(checkpoint_id))

    def latest(self) -> EvaluationCheckpoint | None:
        ids = self.list_ids()
        return self.load(ids[-1]) if ids else None

    def clear(self) -> None:
        for checkpoint_id in reversed(self.list_ids()):
            self._delete(checkpoint_id)

    def _prune(self) -> None:
        ids = self.list_ids()
        kept: set[str] = set()
        for head in ids[-self.keep :]:
            cursor = head
            while cursor and cursor not in kept:
                kept.add(cursor)
                cursor = self._parent(cursor)
        # Newest first, so a crash mid-prune leaves no segment without its parent.
        for stale in reversed(ids):
            if stale not in kept:
                self._delete(stale)


class InMemoryCheckpointStore(CheckpointStore):
    """Keeps the ``keep`` newest checkpoints (and their ancestors) in host memory."""

    def __init__(self, *, keep: int = 2) -> None:
        super().__init__(keep)
        self._checkpoints: dict[str, EvaluationCheckpoint] = {}

    def _write(self, checkpoint: EvaluationCheckpoint) -> None:
        self._checkpoints[checkpoint.checkpoint_id] = checkpoint

    def _read(self, checkpoint_id: str) -> EvaluationCheckpoint:
        try:
            return self._checkpoints[checkpoint_id]
        except KeyError:
            raise CheckpointError(f"unknown checkpoint {checkpoint_id!r}") from None

    def _delete(self, checkpoint_id: str) -> None:
        del self._checkpoints[checkpoint_id]

    def list_ids(self) -> list[str]:
        return list(self._checkpoints)


_SEQUENCE = re.compile(r"ckpt-(\d+)-")


def _sequence(name: str) -> int:
    """The save counter a store encoded in a checkpoint's id or file name."""
    match = _SEQUENCE.match(name)
    return int(match.group(1)) if match else 0


class DiskCheckpointStore(CheckpointStore):
    """Serializes checkpoints to ``<directory>/<id>.npz`` + ``<id>.json``.

    The ``.npz`` holds every partition's full/delta column buffer under keys
    ``<relation>/<shard>/full`` and ``<relation>/<shard>/delta`` (HISA stores
    int64 columns; ``np.savez_compressed`` round-trips them exactly).  The
    JSON manifest carries the structural metadata, the program source, the
    symbol entries and the parent id.
    """

    def __init__(self, directory: str, *, keep: int = 2) -> None:
        super().__init__(keep)
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        # Continue past every id on disk: after pruning, a count of the
        # survivors would hand out an id that sorts before them.
        self._counter = max(map(_sequence, os.listdir(self.directory)), default=0)
        self._parents: dict[str, str] = {}

    # ------------------------------------------------------------------
    def _paths(self, checkpoint_id: str) -> tuple[str, str]:
        base = os.path.join(self.directory, checkpoint_id)
        return base + ".json", base + ".npz"

    def _write(self, checkpoint: EvaluationCheckpoint) -> None:
        manifest_path, payload_path = self._paths(checkpoint.checkpoint_id)
        arrays: dict[str, np.ndarray] = {}
        manifest_relations = {}
        for name, state in checkpoint.relations.items():
            manifest_relations[name] = {
                "arity": state.arity,
                "shards": len(state.partitions),
                "iterations": [partition.iteration for partition in state.partitions],
            }
            for shard, partition in enumerate(state.partitions):
                arrays[f"{name}/{shard}/full"] = partition.full
                arrays[f"{name}/{shard}/delta"] = partition.delta
        # Crash-atomic save order: payload first, then the manifest via
        # rename.  A checkpoint only becomes visible (``list_ids`` keys off
        # manifests) once both files are durable, so a crash mid-save leaves
        # at worst an orphan ``.npz``/``.tmp`` that listing ignores — the
        # previous checkpoint stays loadable.  This is the discipline the
        # serving engine's recovery path relies on.
        payload_tmp = payload_path + ".tmp"
        with open(payload_tmp, "wb") as handle:
            np.savez_compressed(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(payload_tmp, payload_path)
        manifest = {
            "program_name": checkpoint.program_name,
            "stratum_index": checkpoint.stratum_index,
            "iteration": checkpoint.iteration,
            "num_shards": checkpoint.num_shards,
            "relations": manifest_relations,
            "program_source": checkpoint.program_source,
            "metadata": checkpoint.metadata,
            "symbols": [[str(s), int(i)] for s, i in checkpoint.symbols],
            "parent": checkpoint.parent,
        }
        manifest_tmp = manifest_path + ".tmp"
        with open(manifest_tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(manifest_tmp, manifest_path)
        self._parents[checkpoint.checkpoint_id] = checkpoint.parent

    def _manifest(self, checkpoint_id: str) -> dict:
        manifest_path, payload_path = self._paths(checkpoint_id)
        if not os.path.exists(manifest_path) or not os.path.exists(payload_path):
            raise CheckpointError(f"unknown checkpoint {checkpoint_id!r} in {self.directory!r}")
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        self._parents[checkpoint_id] = manifest.get("parent", "")
        return manifest

    def _read(self, checkpoint_id: str) -> EvaluationCheckpoint:
        manifest = self._manifest(checkpoint_id)
        relations: dict[str, RelationState] = {}
        with np.load(self._paths(checkpoint_id)[1]) as payload:
            for name, meta in manifest["relations"].items():
                arity = int(meta["arity"])
                iterations = meta.get("iterations") or [0] * int(meta["shards"])
                partitions = []
                for shard in range(int(meta["shards"])):
                    full = payload[f"{name}/{shard}/full"].reshape(-1, arity)
                    delta = payload[f"{name}/{shard}/delta"].reshape(-1, arity)
                    partitions.append(
                        PartitionState(full=full, delta=delta, iteration=int(iterations[shard]))
                    )
                relations[name] = RelationState(name=name, arity=arity, partitions=partitions)
        return EvaluationCheckpoint(
            program_name=manifest["program_name"],
            stratum_index=int(manifest["stratum_index"]),
            iteration=int(manifest["iteration"]),
            num_shards=int(manifest["num_shards"]),
            relations=relations,
            program_source=manifest.get("program_source", ""),
            checkpoint_id=checkpoint_id,
            metadata=manifest.get("metadata", {}),
            symbols=[(str(s), int(i)) for s, i in manifest.get("symbols", [])],
            parent=manifest.get("parent", ""),
        )

    def _parent(self, checkpoint_id: str) -> str:
        # Cached: pruning walks the kept chains on every save, and a base's
        # manifest holds the whole symbol table.
        if checkpoint_id not in self._parents:
            self._manifest(checkpoint_id)
        return self._parents[checkpoint_id]

    def _delete(self, checkpoint_id: str) -> None:
        # Manifest first: listing ignores a payload without one.
        for path in self._paths(checkpoint_id):
            if os.path.exists(path):
                os.remove(path)
        self._parents.pop(checkpoint_id, None)

    def list_ids(self) -> list[str]:
        if not os.path.isdir(self.directory):
            return []
        ids = [
            entry[: -len(".json")]
            for entry in os.listdir(self.directory)
            if entry.endswith(".json")
            # An orphan manifest (payload lost or never renamed into place)
            # is not a loadable checkpoint; listing it would make ``latest``
            # fail on a file a crash left behind.
            and os.path.exists(os.path.join(self.directory, entry[: -len(".json")] + ".npz"))
        ]
        return sorted(ids, key=lambda checkpoint_id: (_sequence(checkpoint_id), checkpoint_id))
