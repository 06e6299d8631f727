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

Tables exist only where joins probe them: on an index on fewer than all
columns.  An all-column index (``new - full``, DRed, WCOJ member checks)
keeps none and answers membership by searching its sorted runs
(:meth:`~repro.relational.hisa.HISA.contains_columns`).

A slab of tables, stacked (Section 5.1, semi-naïve merge).  The owning HISA
keeps its index as a stack of sorted runs and gives a table to each run of
the stack's oldest prefix — its large runs and its first run;
the small runs a merge writes above it keep none and are searched instead:
charged when the run is written, built on the host at first read, probed
until a merge absorbs the run, never updated in between — a run's positions
are absolute and nothing older moves.
One :class:`OpenAddressingHashTable` is therefore a *slab* of slots holding a
stack of tables end to end, each a power-of-two slot range; the stack may be
empty:

* :meth:`insert_batch` pushes a table holding exactly the given keys on top of
  the stack, reusing the slots a popped table left behind; the slab grows
  geometrically (to twice what the stack needs) when the stack outgrows it,
  and only then is an allocation charged;
* :meth:`truncate` pops the newest tables (their runs were merged away);
* :meth:`probe` looks a batch of hashes up in one table of the stack, or each
  hash in a table of its own (one batch over several runs).

**Tables are built when first read.**  The simulated device pays for every
build at its push, exactly as the paper's CAS-insert loop after the merge
does; the host keeps the pushed keys, values and run lengths *pending* in the
first of the table's own slots and runs the CAS-race emulation only when
:meth:`probe`, :meth:`update_slots` or :attr:`stats` first touches the table
(:meth:`truncate` drops a pending table unbuilt).
The one charged term that depends on the layout, the probe count, comes in
closed form: linear probing's total displacement does not depend on
insertion order (Knuth, TAOCP vol. 3, §6.4), so it is the sum over slots of
the keys carried past each slot (:func:`_linear_probes`), which is what the
emulated rounds count.  The last merge's tables of a fixpoint are
never read, and are never built on the host.

All arrays are owned by the device's
:class:`~repro.backend.base.ArrayBackend`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..backend import EMPTY_KEY, Array
from ..device.cost import KernelCost
from ..device.device import Device
from .hashing import hash_scalar, next_power_of_two

_SLOT_BYTES = 16  # 8-byte key + 8-byte value, the paper's (K, V) pair
_RESERVED_SLOT_BYTES = _SLOT_BYTES + 8  # plus the run length kept beside each entry
DEFAULT_LOAD_FACTOR = 0.8


@dataclass(frozen=True)
class HashTableStats:
    """Construction statistics of one built table (used by the load-factor ablation)."""

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
        key_hashes: Array | None = None,
        values: Array | None = None,
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
        #: per table, oldest first: the statistics of its build on the host,
        #: ``None`` while it is pending (pushed and charged, not yet built)
        self._builds: list[HashTableStats | None] = []
        if key_hashes is not None:  # else the stack starts empty
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
    ) -> bool:
        """Push a table holding exactly these (distinct) keys; returns ``grew``.

        The table takes the power-of-two slot range after the current top of
        the stack; ``grew`` says the slab had to be reallocated for it
        (geometrically, so a fixpoint pushing many small tables pays amortised
        O(1) allocations).  Charged: the keys' probe work, the streamed clear
        of a reused slot range, and —
        only when the slab grew — the allocation and the copy of the tables
        below.  The table is built on the host when first read; until then
        its keys, values and run lengths wait in the first of its own slots.
        """
        backend = self.backend
        key_hashes = backend.asarray(key_hashes, dtype=backend.uint64)
        values = backend.asarray(values, dtype=backend.int64)
        if key_hashes.shape != values.shape:
            raise ValueError("key_hashes and values must have the same length")
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
        self._tables.append((first, slots, m))
        self._builds.append(None)
        self._keys[first : first + m] = key_hashes
        self._values[first : first + m] = values
        self._lengths[first : first + m] = 1 if run_lengths is None else run_lengths
        if charge:
            probes = _linear_probes(backend, key_hashes, slots)
            # A fresh slab is initialised by its allocation (first touch); a
            # reused range is cleared by streaming its key slots.
            streamed = 2.0 * first * _RESERVED_SLOT_BYTES if grew else 8.0 * slots
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
        return grew

    def truncate(self, n_tables: int) -> None:
        """Pop every table above the oldest ``n_tables``; their slots are reused by the next push."""
        del self._tables[n_tables:]
        del self._builds[n_tables:]

    def _built(self, index: int) -> HashTableStats:
        """Build table ``index`` of the stack on the host if it is pending; its build statistics."""
        if self._builds[index] is not None:
            return self._builds[index]
        first, slots, m = self._tables[index]
        key_hashes, values, lengths = (
            array[first : first + m].copy() for array in (self._keys, self._values, self._lengths)
        )
        self._keys[first : first + slots] = EMPTY_KEY
        rounds, probes = self._build(first, slots, key_hashes, values, lengths)
        self._builds[index] = HashTableStats(capacity=slots, n_keys=m, build_rounds=rounds, total_probes=probes)
        return self._builds[index]

    def _build(
        self, first: int, slots: int, key_hashes: Array, values: Array, lengths: Array
    ) -> tuple[int, int]:
        """CAS-race insertion rounds into one cleared slot range; returns (rounds, probes)."""
        backend = self.backend
        keys = self._keys[first : first + slots]
        owners = self._values[first : first + slots]
        wrap = slots - 1
        pending = backend.arange(key_hashes.size, dtype=backend.int64)
        at = (key_hashes & hash_scalar(backend, wrap)).astype(backend.int64)
        rounds = 0
        probes = 0
        while pending.size:
            if rounds > slots:
                raise RuntimeError("hash table build did not converge; table is over-full")
            rounds += 1
            probes += int(pending.size)
            # Emulate the CAS race: every key facing an empty slot writes its
            # claimant ordinal there; with duplicate targets the scatter keeps
            # one write per slot (exactly one CAS wins).  Reading the slot back
            # tells each candidate whether it was the winner — by ordinal, not
            # by hash, so two keys with one hash cannot both win a slot.  The
            # ordinals go through the slots' value words: a claimed slot's
            # keeps its winner's, which fetches the winner's payload once
            # every key has a slot.
            candidates = backend.nonzero_indices(keys[at] == EMPTY_KEY)
            candidate_slots, ordinals = at[candidates], pending[candidates]
            backend.scatter(owners, candidate_slots, ordinals)
            won = candidates[owners[candidate_slots] == ordinals]
            backend.scatter(keys, at[won], key_hashes[won])
            retry = backend.ones(pending.size, dtype=backend.bool_)
            backend.scatter(retry, won, False)
            pending, key_hashes = pending[retry], key_hashes[retry]
            at = (at[retry] + 1) & wrap
        claimed = backend.nonzero_indices(keys != EMPTY_KEY)
        winners = owners[claimed]
        backend.scatter(owners, claimed, values[winners])
        backend.scatter(self._lengths[first : first + slots], claimed, lengths[winners])
        return rounds, probes

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
        for index, (first, size, _) in enumerate(self._tables):
            if ((slots >= first) & (slots < first + size)).any():
                self._built(index)
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
        table: "int | Array" = 0,
        *,
        charge: bool = True,
        label: str | None = None,
        out: tuple[Array, Array] | None = None,
        start: Array | None = None,
        found: Array | None = None,
    ) -> tuple[Array, Array]:
        """Look a batch of join-key hashes up in one table of the stack, or
        each in its own (``table`` holding one table index per hash).

        Returns ``(positions, lengths)``: the sorted-index position of the
        first tuple of each matched run and the run length; misses yield
        ``(-1, 0)``.  ``out`` supplies the two result arrays to fill.  A walk
        stops at the first slot holding its hash, which may be another key's
        (a 64-bit collision): ``found`` receives each hit's slot (within its
        table), and ``start`` resumes each walk at a given slot — the one past
        a hit the caller's key comparison rejected.
        """
        backend = self.backend
        query = backend.asarray(query_hashes, dtype=backend.uint64)
        n = int(query.size)
        if out is None:
            out = backend.empty(n, dtype=backend.int64), backend.empty(n, dtype=backend.int64)
        positions, lengths = out
        positions[...] = -1
        lengths[...] = 0
        per_query = not isinstance(table, int)
        if per_query:
            # One table per hash: each walk wraps within its own slot range.
            for index in range(len(self._tables)):
                self._built(index)
            tables = backend.asarray(self._tables, dtype=backend.int64)
            first, wrap = tables[table, 0], tables[table, 1] - 1
            slots = max(slots for _, slots, _ in self._tables)
        else:
            first, slots, n_keys = self._tables[table]
            if n == 0 or n_keys == 0:
                if charge and n:
                    self.device.charge(
                        KernelCost(
                            kernel=label or f"{self.label}.probe", random_bytes=float(n) * _SLOT_BYTES, ops=float(n)
                        )
                    )
                return positions, lengths
            self._built(table)
            wrap = slots - 1

        unresolved = backend.arange(n, dtype=backend.int64)
        if start is None:
            at = (query & backend.asarray(wrap, dtype=backend.uint64)).astype(backend.int64)
        else:
            at = start & wrap
        walk_first, walk_wrap = first, wrap
        # Each walk records the slot it hit (-1: none yet); the payloads are
        # gathered once, after the last walk ended.
        hit_at = found if found is not None else backend.empty(n, dtype=backend.int64)
        hit_at[...] = -1
        probes = 0
        for _ in range(slots):
            probes += int(unresolved.size)
            slot_keys = self._keys[walk_first + at]
            hit = slot_keys == query
            hit_rows = unresolved[hit]
            if hit_rows.size:
                backend.scatter(hit_at, hit_rows, at[hit])
            walk_on = ~(hit | (slot_keys == EMPTY_KEY))
            unresolved = unresolved[walk_on]
            if not unresolved.size:
                break
            query, at = query[walk_on], at[walk_on]
            if per_query:
                walk_first, walk_wrap = walk_first[walk_on], walk_wrap[walk_on]
            at += 1
            at &= walk_wrap
        hit_rows = backend.nonzero_indices(hit_at >= 0)
        hit_slots = hit_at[hit_rows] + (first[hit_rows] if per_query else first)
        backend.scatter(positions, hit_rows, self._values[hit_slots])
        backend.scatter(lengths, hit_rows, self._lengths[hit_slots])
        if charge:
            self.device.charge(
                KernelCost(
                    kernel=label or f"{self.label}.probe",
                    random_bytes=float(probes) * _SLOT_BYTES,
                    ops=float(probes) * 2.0,
                )
            )
        return positions, lengths

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> HashTableStats:
        """Construction statistics of the newest table on the stack (built
        here if pending); zeros when the stack is empty."""
        if not self._tables:
            return HashTableStats(capacity=0, n_keys=0, build_rounds=0, total_probes=0)
        return self._built(len(self._tables) - 1)

    @property
    def capacity(self) -> int:
        """Slots in the slab (reserved, whether or not a table occupies them)."""
        return int(self._keys.shape[0])

    @property
    def n_tables(self) -> int:
        """Tables on the stack (the oldest ``n_tables`` runs of the owning index)."""
        return len(self._tables)

    @property
    def n_keys(self) -> int:
        return sum(keys for _, _, keys in self._tables)

    @property
    def nbytes(self) -> int:
        """Device bytes reserved by the slab (keys, values, run lengths)."""
        return self.capacity * _RESERVED_SLOT_BYTES

    def occupancy(self) -> float:
        return self.n_keys / self.capacity if self.capacity else 0.0

    def __len__(self) -> int:
        return self.n_keys


def _linear_probes(backend, key_hashes: Array, slots: int) -> int:
    """The slots a linear-probing build of these keys into ``slots`` slots walks.

    A key walks one slot more than its displacement, and the total
    displacement is the same in every insertion order: it is ``Σ_s q_s``,
    ``q_s`` the keys carried past slot ``s``, which satisfy
    ``q_s = max(0, q_{s-1} + c_s - 1)`` around the circular slot range,
    ``c_s`` the keys whose home is ``s``.  With ``D`` the prefix sum of
    ``c - 1`` and a carry ``C`` into slot 0, ``q_s = D_s - min(min(D_0..D_s), -C)``;
    the carry is the least fixed point of one turn round the range,
    ``C = D_last - min(D)``.
    """
    if not key_hashes.size:
        return 0
    carried = backend.full(slots, -1, dtype=backend.int64)
    backend.add_at(carried, (key_hashes & hash_scalar(backend, slots - 1)).astype(backend.int64), 1)
    carried = backend.cumsum(carried)
    lowest = backend.cummin(carried)
    wrap = int(carried[-1] - lowest[-1])
    lowest[lowest > -wrap] = -wrap
    return int(key_hashes.size) + int(carried.sum() - lowest.sum())
