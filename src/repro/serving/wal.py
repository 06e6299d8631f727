"""Write-ahead mutation log: durability for serving submissions.

The serving engine acknowledges a ``submit()`` by returning a ticket; the
write-ahead log is what makes that acknowledgement mean something.  Every
batch is appended *before* it is admitted to the mutation queue, every
committed epoch writes a commit marker naming the batch sequence numbers it
folded in, and every aborted epoch (rolled back after the fault ladder
exhausted) writes an abort marker — so after a process crash the log
partitions cleanly into *committed* groups (replayable epoch by epoch),
*aborted* batches (never to be replayed), and *pending* batches (accepted
but not yet committed; recovery applies them).

Mirroring :mod:`repro.relational.checkpoint`, two backends are provided:

* :class:`InMemoryWal` — a host list; survives engine restarts within one
  process, used by tests and the overhead benchmark's ablation, and
* :class:`DiskWal` — one JSON record per line, appended on every batch and
  ``fsync``'d when a **commit marker** lands (the classic group-commit
  point: batch appends may sit in the page cache, but an epoch is only
  acknowledged as committed once its marker — and therefore every record
  before it — is durable).

Records are value-encoded (interned int64 rows plus the symbol-table
entries interned since the record before), so replay does not depend on any
in-memory state of the crashed process.  ``compact(covered_seq)`` drops
records a checkpoint already covers; recovery is ``checkpoint + replay`` as
in any ARIES-shaped design.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from ..errors import WalError

__all__ = [
    "DiskWal",
    "InMemoryWal",
    "WalBatch",
    "WriteAheadLog",
]

RECORD_BATCH = "batch"
RECORD_COMMIT = "commit"
RECORD_ABORT = "abort"
RECORD_CHECKPOINT = "checkpoint"


@dataclass(frozen=True)
class WalBatch:
    """One logged ``submit()`` batch, value-encoded for replay.

    ``inserts``/``retracts`` hold interned int64 row arrays (exactly what
    the engine's encoder produced; a relation's empty batch reads back as a
    0-length 1-D array); ``symbols`` carries the symbol-table entries
    interned since the record before (a refused batch's strings included),
    so a recovering engine re-interns identically before replaying.
    """

    seq: int
    inserts: dict[str, np.ndarray] = field(default_factory=dict)
    retracts: dict[str, np.ndarray] = field(default_factory=dict)
    symbols: tuple[tuple[str, int], ...] = ()

    @property
    def mutation_count(self) -> int:
        total = sum(len(rows) for rows in self.inserts.values())
        return total + sum(len(rows) for rows in self.retracts.values())


def _encode_rows_map(rows_map: dict) -> dict:
    return {name: np.asarray(rows, dtype=np.int64).tolist() for name, rows in (rows_map or {}).items()}


def _decode_rows_map(payload: dict) -> dict[str, np.ndarray]:
    return {name: np.asarray(rows, dtype=np.int64) for name, rows in (payload or {}).items()}


def _batch_from_record(record: dict) -> WalBatch:
    return WalBatch(
        seq=int(record["seq"]),
        inserts=_decode_rows_map(record.get("inserts")),
        retracts=_decode_rows_map(record.get("retracts")),
        symbols=tuple((str(s), int(i)) for s, i in record.get("symbols", [])),
    )


class WriteAheadLog:
    """Interface + shared record bookkeeping for both WAL backends.

    Subclasses implement :meth:`_persist` (append one record, optionally
    making everything so far durable) and :meth:`_rewrite` (replace the
    whole record list — compaction).  All queries run over the in-memory
    record list, which both backends keep authoritative; appends and
    compaction hold one lock, because submitters and the epoch worker write
    concurrently.
    """

    def __init__(self) -> None:
        self._records: list[dict] = []
        #: submitters append batch records while the epoch worker appends
        #: markers and compacts: an append must not land in the record list
        #: a compaction is replacing, nor two appends take one sequence
        self._lock = threading.Lock()
        #: commit markers appended (each one is an fsync point on disk)
        self.commits = 0
        #: fsync calls the backend actually performed
        self.syncs = 0

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------
    def _persist(self, record: dict, *, sync: bool) -> None:
        raise NotImplementedError

    def _rewrite(self, records: list[dict]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (no-op for the in-memory log)."""

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    def append_batch(
        self,
        inserts: dict | None,
        retracts: dict | None,
        *,
        symbols: "tuple[tuple[str, int], ...] | list" = (),
    ) -> int:
        """Log one submission; returns its sequence number (1-based)."""
        with self._lock:
            seq = self.last_seq() + 1
            record = {
                "type": RECORD_BATCH,
                "seq": seq,
                "inserts": _encode_rows_map(inserts or {}),
                "retracts": _encode_rows_map(retracts or {}),
                "symbols": [[str(s), int(i)] for s, i in (symbols or ())],
            }
            self._records.append(record)
            self._persist(record, sync=False)
        return seq

    def append_commit(self, epoch: int, seqs: "list[int]") -> None:
        """Log an epoch commit covering ``seqs`` — the durability point.

        The disk backend fsyncs here: every batch record written before
        this marker becomes durable together with it.
        """
        with self._lock:
            self._validate_seqs(seqs, marker="commit")
            record = {"type": RECORD_COMMIT, "epoch": int(epoch), "seqs": [int(s) for s in seqs]}
            self._records.append(record)
            self.commits += 1
            self._persist(record, sync=True)

    def append_abort(self, seqs: "list[int]", *, reason: str = "") -> None:
        """Log that ``seqs`` will never commit (rolled back, shed, or closed)."""
        with self._lock:
            self._validate_seqs(seqs, marker="abort")
            record = {"type": RECORD_ABORT, "seqs": [int(s) for s in seqs], "reason": str(reason)}
            self._records.append(record)
            self._persist(record, sync=True)

    def append_checkpoint(self, epoch: int, covered_seq: int, *, checkpoint_id: str = "") -> None:
        """Note that a durable checkpoint covers every batch up to ``covered_seq``."""
        record = {
            "type": RECORD_CHECKPOINT,
            "epoch": int(epoch),
            "covered_seq": int(covered_seq),
            "checkpoint_id": str(checkpoint_id),
        }
        with self._lock:
            self._records.append(record)
            self._persist(record, sync=True)

    def _validate_seqs(self, seqs, *, marker: str) -> None:
        if not seqs:
            raise WalError(f"a {marker} marker must cover at least one batch")
        known = {r["seq"] for r in self._records if r["type"] == RECORD_BATCH}
        unknown = [int(s) for s in seqs if int(s) not in known]
        if unknown:
            raise WalError(f"{marker} marker references unlogged batches {unknown}")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def records(self) -> list[dict]:
        """Every record, oldest first (copies — callers cannot corrupt the log)."""
        return [dict(record) for record in self._records]

    def last_seq(self) -> int:
        """Highest batch sequence ever logged: compaction drops the covered
        batch records, so the checkpoint horizon counts too (a reissued
        sequence would hide its group behind that horizon)."""
        seqs = [r["seq"] for r in self._records if r["type"] == RECORD_BATCH]
        return max([*seqs, self.covered_seq()])

    def covered_seq(self) -> int:
        """Highest batch sequence a checkpoint record covers (0 = none)."""
        covered = [r["covered_seq"] for r in self._records if r["type"] == RECORD_CHECKPOINT]
        return max(covered) if covered else 0

    def resolved_seqs(self) -> set[int]:
        """Sequences a commit or abort marker has settled."""
        resolved: set[int] = set()
        for record in self._records:
            if record["type"] in (RECORD_COMMIT, RECORD_ABORT):
                resolved.update(int(s) for s in record["seqs"])
        return resolved

    def aborted_seqs(self) -> set[int]:
        aborted: set[int] = set()
        for record in self._records:
            if record["type"] == RECORD_ABORT:
                aborted.update(int(s) for s in record["seqs"])
        return aborted

    def symbol_entries(self) -> list[tuple[str, int]]:
        """The symbol entries of every batch record, aborted ones included."""
        return [
            entry
            for record in self._records
            if record["type"] == RECORD_BATCH
            for entry in _batch_from_record(record).symbols
        ]

    def pending_batches(self) -> list[WalBatch]:
        """Batches appended but never committed or aborted, oldest first."""
        resolved = self.resolved_seqs()
        return [
            _batch_from_record(record)
            for record in self._records
            if record["type"] == RECORD_BATCH and record["seq"] not in resolved
        ]

    def committed_groups(self, after_seq: int = 0) -> list[tuple[int, list[WalBatch]]]:
        """Committed epochs whose batches reach past ``after_seq``, in order.

        Each element is ``(epoch, batches)`` for one commit marker —
        recovery replays each group as one coalesced epoch, reproducing the
        pre-crash epoch boundaries exactly.
        """
        by_seq = {
            record["seq"]: record
            for record in self._records
            if record["type"] == RECORD_BATCH
        }
        groups: list[tuple[int, list[WalBatch]]] = []
        for record in self._records:
            if record["type"] != RECORD_COMMIT:
                continue
            seqs = [int(s) for s in record["seqs"]]
            if max(seqs) <= after_seq:
                continue
            try:
                batches = [_batch_from_record(by_seq[s]) for s in sorted(seqs)]
            except KeyError as error:
                raise WalError(
                    f"commit marker for epoch {record['epoch']} references a "
                    f"compacted batch {error.args[0]!r} past covered_seq {after_seq}"
                ) from None
            groups.append((int(record["epoch"]), batches))
        return groups

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, covered_seq: int) -> None:
        """Drop records a checkpoint at ``covered_seq`` makes redundant.

        Batch records with ``seq <= covered_seq`` and markers that only
        reference such batches are removed; a fresh checkpoint record keeps
        the covered horizon discoverable after reopening the log.
        """
        covered_seq = int(covered_seq)
        with self._lock:
            kept: list[dict] = []
            for record in self._records:
                if record["type"] == RECORD_BATCH and record["seq"] <= covered_seq:
                    continue
                if record["type"] in (RECORD_COMMIT, RECORD_ABORT) and all(
                    int(s) <= covered_seq for s in record["seqs"]
                ):
                    continue
                if record["type"] == RECORD_CHECKPOINT and record["covered_seq"] < covered_seq:
                    continue
                kept.append(record)
            if not any(r["type"] == RECORD_CHECKPOINT for r in kept):
                kept.insert(0, {
                    "type": RECORD_CHECKPOINT,
                    "epoch": -1,
                    "covered_seq": covered_seq,
                    "checkpoint_id": "",
                })
            self._records = kept
            self._rewrite(kept)


class InMemoryWal(WriteAheadLog):
    """Host-memory log: transactional semantics without durability.

    Survives engine restarts within one process (hand the same instance to
    :meth:`ServingEngine.recover`); used by tests and as the zero-I/O
    ablation in the protection-overhead benchmark.
    """

    def _persist(self, record: dict, *, sync: bool) -> None:
        if sync:
            self.syncs += 1  # the in-memory analogue: count the barrier

    def _rewrite(self, records: list[dict]) -> None:
        pass


class DiskWal(WriteAheadLog):
    """JSON-lines log at ``path``, surviving process restarts.

    Opening an existing path replays its records into memory (recovery
    reads the same view a live engine had).  A truncated final line — the
    signature of a crash mid-append — is discarded: the batch it held was
    never acknowledged durable, because only commit markers fsync.
    """

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = str(path)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        break  # torn tail write: everything after is garbage
                    self._records.append(record)
        self._handle = open(self.path, "a", encoding="utf-8")

    def _persist(self, record: dict, *, sync: bool) -> None:
        if self._handle is None:
            raise WalError(f"write-ahead log {self.path!r} is closed")
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._handle.flush()
        if sync:
            os.fsync(self._handle.fileno())
            self.syncs += 1

    def _rewrite(self, records: list[dict]) -> None:
        if self._handle is not None:
            self._handle.close()
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        self._handle = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
