"""Open-addressing hash tables over join-key hashes (HISA tier 3).

A table maps the 64-bit hash of a join key to the position, within the
sorted index array, of the *first* tuple carrying that key (Algorithm 2).  We
additionally keep the run length next to each entry: the paper discovers the
run length by scanning the sorted index array until the join columns change,
and the join kernel charges exactly that scan; storing the length lets the
simulator expand matches with vectorised bulk primitives instead of a Python
loop, without changing what is charged.

Construction emulates the massively parallel atomic-CAS insertion loop with
rounds of vectorised linear probing: in round ``o`` every still-pending key
attempts slot ``(hash + o) mod capacity``; at most one key can claim an empty
slot per round (the "CAS winner"), everyone else retries in the next round.
The number of rounds therefore equals the longest probe sequence, exactly as
it would on the GPU.

A slab of tables, stacked (Section 5.1, semi-naïve merge).  The owning HISA
keeps its index as a stack of sorted runs and needs one table per run: built
once when the run is written, probed until a merge absorbs the run, never
updated in between — a run's positions are absolute and nothing older moves.
One :class:`OpenAddressingHashTable` is therefore a *slab* of slots holding a
stack of tables end to end, each a power-of-two slot range:

* :meth:`insert_batch` pushes a table holding exactly the given keys on top of
  the stack (the same CAS-race emulation), reusing the slots a popped table
  left behind; the slab grows geometrically (to twice what the stack needs)
  when the stack outgrows it, and only then is an allocation charged;
* :meth:`truncate` pops the newest tables (their runs were merged away);
* :meth:`probe` looks a batch of hashes up in one table of the stack.

All arrays are owned by the device's
:class:`~repro.backend.base.ArrayBackend`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..backend import EMPTY_KEY, Array
from ..device.cost import KernelCost
from ..device.device import Device
from .hashing import next_power_of_two

_SLOT_BYTES = 16  # 8-byte key + 8-byte value, the paper's (K, V) pair
DEFAULT_LOAD_FACTOR = 0.8


@dataclass(frozen=True)
class HashTableStats:
    """Construction statistics of the newest table (used by the load-factor ablation)."""

    capacity: int
    n_keys: int
    build_rounds: int
    total_probes: int

    @property
    def load(self) -> float:
        return self.n_keys / self.capacity if self.capacity else 0.0

    @property
    def average_probes(self) -> float:
        return self.total_probes / self.n_keys if self.n_keys else 0.0


def grown(backend, array: Array, live: int, capacity: int) -> Array:
    """A ``capacity``-element copy of a capacity-backed array's first ``live`` elements."""
    larger = backend.empty(capacity, dtype=array.dtype)
    larger[:live] = array[:live]
    return larger


class OpenAddressingHashTable:
    """A slab holding a stack of GPU-style open-addressing tables keyed by uint64 hashes."""

    def __init__(
        self,
        device: Device,
        key_hashes: Array,
        values: Array,
        run_lengths: Array | None = None,
        *,
        load_factor: float = DEFAULT_LOAD_FACTOR,
        label: str = "hash_table",
        charge: bool = True,
    ) -> None:
        if not 0 < load_factor <= 1.0:
            raise ValueError("load_factor must be in (0, 1]")
        backend = device.backend
        self.device = device
        self.backend = backend
        self.load_factor = float(load_factor)
        self.label = label
        self._keys = backend.empty(0, dtype=backend.uint64)
        self._values = backend.empty(0, dtype=backend.int64)
        self._lengths = backend.empty(0, dtype=backend.int64)
        #: ``(first slot, slot count, key count)`` of every table, oldest first
        self._tables: list[tuple[int, int, int]] = []
        self.insert_batch(key_hashes, values, run_lengths, charge=charge, label=f"{label}.build")

    # ------------------------------------------------------------------
    # The stack of tables
    # ------------------------------------------------------------------
    def insert_batch(
        self,
        key_hashes: Array,
        values: Array,
        run_lengths: Array | None = None,
        *,
        charge: bool = True,
        label: str | None = None,
    ) -> tuple[Array, bool]:
        """Push a table holding exactly these (distinct) keys; returns ``(slots, grew)``.

        ``slots[i]`` is the slab slot claimed by ``key_hashes[i]``.  The table
        takes the power-of-two slot range after the current top of the stack;
        ``grew`` says the slab had to be reallocated for it (geometrically, so
        a fixpoint pushing many small tables pays amortised O(1) allocations).
        Charged: the keys' probe work, the streamed clear of a reused slot
        range, and — only when the slab grew — the allocation and the copy of
        the tables below.
        """
        backend = self.backend
        key_hashes = backend.asarray(key_hashes, dtype=backend.uint64)
        values = backend.asarray(values, dtype=backend.int64)
        if key_hashes.shape != values.shape:
            raise ValueError("key_hashes and values must have the same length")
        if run_lengths is None:
            run_lengths = backend.ones(values.shape, dtype=backend.int64)
        run_lengths = backend.asarray(run_lengths, dtype=backend.int64)
        m = int(key_hashes.size)

        first = sum(slots for _, slots, _ in self._tables)
        slots = next_power_of_two(int(math.ceil(max(1, m) / self.load_factor)))
        grew = first + slots > self.capacity
        if grew:
            # A table built once (an index nothing is merged into) reserves
            # exactly its slots.  A slab that has to grow reserves twice what
            # the stack needs now: the runs a merge stacks on a base run are
            # each less than half the one below, so their tables fit in as
            # many slots again, and an allocation is not paid per merge.
            capacity = (2 if self.capacity else 1) * (first + slots)
            self._keys, self._values, self._lengths = (
                grown(backend, array, first, capacity) for array in (self._keys, self._values, self._lengths)
            )
        self._keys[first : first + slots] = EMPTY_KEY
        self._tables.append((first, slots, m))
        rounds, probes, claimed = self._build(first, slots, key_hashes, values, run_lengths)
        self.stats = HashTableStats(capacity=slots, n_keys=m, build_rounds=rounds, total_probes=probes)
        if charge:
            # A fresh slab is initialised by its allocation (first touch); a
            # reused range is cleared by streaming its key slots.
            streamed = 2.0 * first * (_SLOT_BYTES + 8) if grew else 8.0 * slots
            self.device.charge(
                KernelCost(
                    kernel=label or f"{self.label}.insert_batch",
                    random_bytes=float(probes) * _SLOT_BYTES,
                    sequential_bytes=float(m) * 24.0 + streamed,
                    ops=float(probes) * 4.0,
                    alloc_bytes=float(self.nbytes) if grew else 0.0,
                    allocations=1 if grew else 0,
                )
            )
        return claimed, grew

    def truncate(self, n_tables: int) -> None:
        """Pop every table above the oldest ``n_tables``; their slots are reused by the next push."""
        del self._tables[n_tables:]

    def _build(
        self, first: int, slots: int, key_hashes: Array, values: Array, lengths: Array
    ) -> tuple[int, int, Array]:
        """CAS-race insertion rounds into one slot range; returns (rounds, probes, winning slots)."""
        backend = self.backend
        keys = self._keys[first : first + slots]
        wrap = slots - 1
        pending = backend.arange(key_hashes.size, dtype=backend.int64)
        at = (key_hashes & self._hash_scalar(wrap)).astype(backend.int64)
        claimed = backend.empty(key_hashes.size, dtype=backend.int64)
        rounds = 0
        probes = 0
        while pending.size:
            if rounds > slots:
                raise RuntimeError("hash table build did not converge; table is over-full")
            rounds += 1
            probes += int(pending.size)
            # Emulate the CAS race: every key facing an empty slot writes its
            # hash there; with duplicate targets the scatter keeps one write
            # per slot (exactly one CAS wins).  Reading the slot back tells
            # each candidate whether it was the winner.
            candidates = backend.nonzero_indices(keys[at] == EMPTY_KEY)
            candidate_slots = at[candidates]
            candidate_hashes = key_hashes[candidates]
            backend.scatter(keys, candidate_slots, candidate_hashes)
            won = candidates[keys[candidate_slots] == candidate_hashes]
            winners, winner_slots = pending[won], at[won] + first
            backend.scatter(self._values, winner_slots, values[winners])
            backend.scatter(self._lengths, winner_slots, lengths[winners])
            backend.scatter(claimed, winners, winner_slots)
            retry = backend.ones(pending.size, dtype=backend.bool_)
            backend.scatter(retry, won, False)
            pending, key_hashes = pending[retry], key_hashes[retry]
            at = (at[retry] + 1) & wrap
        return rounds, probes, claimed

    def update_slots(
        self,
        slots: Array,
        values: Array,
        run_lengths: Array,
        *,
        charge: bool = True,
        label: str | None = None,
    ) -> None:
        """Overwrite the payload of existing entries (one streaming pass).

        Nothing in ``src/`` calls this any more — a run's table is immutable
        between its build and its pop.  It stays because ``bench/trace.py``
        resolves it by name and only a ``benchmark`` PR may edit ``bench/``;
        it goes with that TARGETS row.
        """
        backend = self.backend
        slots = backend.asarray(slots, dtype=backend.int64)
        backend.scatter(self._values, slots, backend.asarray(values, dtype=backend.int64))
        backend.scatter(self._lengths, slots, backend.asarray(run_lengths, dtype=backend.int64))
        if charge and slots.size:
            self.device.charge(
                KernelCost(
                    kernel=label or f"{self.label}.update_slots",
                    sequential_bytes=float(slots.size) * 24.0,
                    ops=float(slots.size),
                )
            )

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe(
        self,
        query_hashes: Array,
        table: int = 0,
        *,
        charge: bool = True,
        label: str | None = None,
        out: tuple[Array, Array] | None = None,
    ) -> tuple[Array, Array]:
        """Look a batch of join-key hashes up in one table of the stack.

        Returns ``(positions, lengths)``: the sorted-index position of the
        first tuple of each matched run and the run length; misses yield
        ``(-1, 0)``.  ``out`` supplies the two result arrays to fill.
        """
        backend = self.backend
        query = backend.asarray(query_hashes, dtype=backend.uint64)
        n = int(query.size)
        if out is None:
            out = backend.empty(n, dtype=backend.int64), backend.empty(n, dtype=backend.int64)
        positions, lengths = out
        positions[...] = -1
        lengths[...] = 0
        first, slots, n_keys = self._tables[table]
        if n == 0 or n_keys == 0:
            if charge and n:
                self.device.charge(
                    KernelCost(kernel=label or f"{self.label}.probe", random_bytes=float(n) * _SLOT_BYTES, ops=float(n))
                )
            return positions, lengths

        keys = self._keys[first : first + slots]
        wrap = slots - 1
        unresolved = backend.arange(n, dtype=backend.int64)
        at = (query & self._hash_scalar(wrap)).astype(backend.int64)
        probes = 0
        for _ in range(slots):
            probes += int(unresolved.size)
            slot_keys = keys[at]
            hit = slot_keys == query
            hit_rows = unresolved[hit]
            if hit_rows.size:
                hit_slots = at[hit] + first
                backend.scatter(positions, hit_rows, self._values[hit_slots])
                backend.scatter(lengths, hit_rows, self._lengths[hit_slots])
            walk_on = ~(hit | (slot_keys == EMPTY_KEY))
            unresolved = unresolved[walk_on]
            if not unresolved.size:
                break
            query, at = query[walk_on], (at[walk_on] + 1) & wrap
        if charge:
            self.device.charge(
                KernelCost(
                    kernel=label or f"{self.label}.probe",
                    random_bytes=float(probes) * _SLOT_BYTES,
                    ops=float(probes) * 2.0,
                )
            )
        return positions, lengths

    def _hash_scalar(self, value: int):
        """A uint64 scalar in the backend's hash dtype (for masking)."""
        return self.backend.asarray(value, dtype=self.backend.uint64)[()]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Slots in the slab (reserved, whether or not a table occupies them)."""
        return int(self._keys.shape[0])

    @property
    def n_keys(self) -> int:
        return sum(keys for _, _, keys in self._tables)

    @property
    def nbytes(self) -> int:
        """Device bytes reserved by the slab (keys, values, run lengths)."""
        return self.capacity * (_SLOT_BYTES + 8)

    def occupancy(self) -> float:
        return self.n_keys / self.capacity if self.capacity else 0.0

    def __len__(self) -> int:
        return self.n_keys
