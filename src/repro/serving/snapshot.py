"""Versioned, immutable per-relation snapshots for consistent serving reads.

HISA merges mutate storage in place, so a reader holding a device view while
an epoch merges would observe torn state.  The serving engine therefore
serves *immutable copies*: when an epoch changes a relation it bumps the
relation's version, and the first query of the stale relation builds the new
version's copy once, freezes it, and installs it in the :class:`SnapshotTable`
under its lock.  Readers get whichever immutable snapshot matches the
committed version — never a half-merged epoch — and two engines that reach
the same logical database publish byte-identical arrays regardless of epoch
history or shard count (canonical, lexicographic row order erases merge and
shard-concatenation order).

A relation's full version only grows by appends until it is re-initialized,
so a new snapshot is the previous one plus the rows appended since it was
taken: the read downloads just those rows (the charged D2H edge), sorts them
and merges them in with one binary search over the previous snapshot's packed
keys (:func:`merge_rows`) — O(Δ) transfer plus one host copy.  Those keys are
one machine word per row while the values fit, and wide from the first
appended row that does not.  Only a read
after a re-initialization (the bootstrap read, a retraction, a rollback, a
recovery, a rebuilt shard) downloads and sorts the whole relation
(:func:`canonical_rows`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..backend import HOST_BACKEND, host_rows_to_tuples, is_wide_keys
from ..device.kernels import host_lexsort_columns

__all__ = ["RelationSnapshot", "SnapshotTable", "canonical_rows", "keys_alongside", "merge_rows", "row_keys"]


def _records(rows: np.ndarray) -> np.ndarray:
    """C-contiguous ``(n, arity)`` rows viewed as ``n`` opaque records of
    ``arity * 8`` bytes: one 1-D element per row, so a gather or an insert
    moves each row in one piece instead of column by column."""
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _frozen(records: np.ndarray, arity: int) -> np.ndarray:
    rows = records.view(np.int64).reshape(-1, arity)
    rows.setflags(write=False)
    return rows


def canonical_rows(rows: np.ndarray, arity: int) -> np.ndarray:
    """Lex-sorted, read-only copy of host rows — the canonical snapshot form.

    Host-side post-processing of the already-downloaded result (like result
    decoding in the batch engine): the charged work is the D2H transfer the
    caller paid; the sort only canonicalizes presentation order.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64).reshape(-1, arity)
    n = rows.shape[0]
    order = host_lexsort_columns([rows[:, column] for column in range(arity)]) if n > 1 else np.arange(n)
    return _frozen(_records(rows)[order], arity)


def row_keys(rows: np.ndarray, *, wide: bool = False) -> np.ndarray:
    """One packed key per host row; keys compare like the rows do lexicographically.

    Narrow (one ``uint64`` per row) when every value fits the arity's bit
    budget and ``wide`` is false, wide otherwise
    (:meth:`~repro.backend.base.ArrayBackend.pack_lex_keys`).  The packing
    depends on nothing but the arity and the format, so keys of one format —
    a snapshot's and those of rows appended later — are mutually comparable;
    :func:`keys_alongside` puts two sets of keys in one format.
    """
    return HOST_BACKEND.pack_lex_keys([rows[:, column] for column in range(rows.shape[1])], wide=wide)


def keys_alongside(rows: np.ndarray, keys: np.ndarray, more: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``keys`` (the :func:`row_keys` of ``rows``) and keys of ``more`` in one format.

    ``more`` is packed in the format of ``keys``; if it does not fit, ``keys``
    is re-packed wide from ``rows``.  Returns ``(keys, more_keys)``.
    """
    more_keys = row_keys(more, wide=is_wide_keys(keys))
    if is_wide_keys(more_keys) and not is_wide_keys(keys):
        keys = row_keys(rows, wide=True)
    return keys, more_keys


def merge_rows(rows: np.ndarray, keys: np.ndarray, appended: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical ``rows`` (with their :func:`row_keys`) plus ``appended`` rows.

    ``appended`` is in any order and disjoint from ``rows`` (a relation holds
    each tuple once).  It is sorted by its own keys, placed by one
    ``searchsorted`` into ``keys``, and inserted record-wise, so the result is
    byte-identical to :func:`canonical_rows` over the union.  Returns the new
    read-only rows and their keys, wide from the first append that does not
    fit narrow keys on.
    """
    arity = rows.shape[1]
    appended = np.ascontiguousarray(appended, dtype=np.int64).reshape(-1, arity)
    keys, appended_keys = keys_alongside(rows, keys, appended)
    order = np.argsort(appended_keys)
    appended_keys = appended_keys[order]
    at = np.searchsorted(keys, appended_keys)
    merged = np.insert(_records(rows), at, _records(appended)[order])
    return _frozen(merged, arity), np.insert(keys, at, appended_keys)


@dataclass(frozen=True)
class RelationSnapshot:
    """One immutable, canonically-ordered copy of a relation's full version."""

    name: str
    #: monotonically increasing per-relation version (bumped when an epoch
    #: changes the relation; unchanged relations keep their snapshot)
    version: int
    #: epoch that committed this snapshot (0 = the bootstrap fixpoint)
    epoch: int
    #: read-only ``(n, arity)`` int64 host rows in lexicographic order
    rows: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return int(self.rows.shape[0])

    def as_set(self) -> set[tuple[int, ...]]:
        return set(host_rows_to_tuples(self.rows))


class SnapshotTable:
    """Thread-safe map of the newest :class:`RelationSnapshot` per relation.

    Publication is atomic per epoch: the committing thread swaps every
    changed relation's snapshot inside one lock acquisition, so a reader
    never sees relation A from epoch N next to relation B from epoch N-1
    within a single :meth:`publish` generation... readers that fetch two
    relations sequentially can still interleave with a commit, which is why
    :meth:`read_many` exists for multi-relation consistency.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snapshots: dict[str, RelationSnapshot] = {}

    def publish(self, snapshots: dict[str, RelationSnapshot]) -> None:
        """Atomically install the given snapshots (one epoch's commit set)."""
        with self._lock:
            self._snapshots.update(snapshots)

    def read(self, name: str) -> RelationSnapshot:
        with self._lock:
            try:
                return self._snapshots[name]
            except KeyError:
                raise KeyError(f"no snapshot for relation {name!r}") from None

    def read_many(self, names: list[str]) -> dict[str, RelationSnapshot]:
        """One consistent cut across several relations (single lock hold)."""
        with self._lock:
            return {name: self._snapshots[name] for name in names}

    def version(self, name: str) -> int:
        return self.read(name).version

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._snapshots)

    def discard_newer(self, versions: dict[str, int]) -> list[str]:
        """Drop any snapshot whose version exceeds its committed ``versions`` pin.

        The rollback barrier: an aborted epoch restores relations and leaves
        the committed version map untouched, so a snapshot ahead of its pin
        could only describe rolled-back state and must not be served.  (The
        engine bumps versions strictly after the epoch's device work, so this
        is a belt-and-braces invariant check more than a hot path.)  Returns
        the names discarded.
        """
        with self._lock:
            stale = [
                name
                for name, snapshot in self._snapshots.items()
                if snapshot.version > versions.get(name, snapshot.version)
            ]
            for name in stale:
                del self._snapshots[name]
            return stale
