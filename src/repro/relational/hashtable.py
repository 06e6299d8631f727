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
keeps its index as a stack of sorted runs and gives a table to each run of
the stack's oldest, large prefix (on an all-column index the small runs above
it keep none and are searched instead): built once when the run is written,
probed until a merge absorbs the run, never updated in between — a run's
positions are absolute and nothing older moves.  One
:class:`OpenAddressingHashTable` is therefore a *slab* of slots holding a
stack of tables end to end, each a power-of-two slot range; the stack may be
empty:

* :meth:`insert_batch` pushes a table holding exactly the given keys on top of
  the stack (the same CAS-race emulation), reusing the slots a popped table
  left behind; the slab grows geometrically (to twice what the stack needs)
  when the stack outgrows it, and only then is an allocation charged;
* :meth:`truncate` pops the newest tables (their runs were merged away);
* :meth:`probe` looks a batch of hashes up in one table of the stack, or each
  hash in a table of its own (one batch over several runs).

A *filtered* slab also gives each table a **membership filter**: a blocked
Bloom filter of :data:`FILTER_BITS_PER_SLOT` bits per slot, whose words lie
in the slab beside the table's slots (one word per
``64 // FILTER_BITS_PER_SLOT`` slots, so they are reserved, reused, grown and
popped with them).  :meth:`insert_batch` sets each key's bits from the hash it
inserts, and :meth:`may_contain` names the tables a batch of hashes need be
probed in.  A filter has no false negatives, so the tables it rules out
cannot hold the key.

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
DEFAULT_LOAD_FACTOR = 0.8

#: Bits of a filtered table's membership filter per slot.  A key sets three
#: bits of one 64-bit word, the word picked by the high half of its hash, so a
#: check reads one word.  Sizing by slots, not keys, lays a table's words
#: beside its slots (a table with fewer than ``64 // FILTER_BITS_PER_SLOT``
#: slots gets that many), so they grow and are reused with the slab and a
#: merge pays no allocation for them; at a load factor of at most 0.8 a key
#: gets 20 to 40 bits.  Measured on ``bench/run.py``'s ``reach-road`` instance
#: (seed 0: 695 k tuple x run checks in ``new - full`` against the runs that
#: keep a table, the large ones, 1.4 % of them of a run that holds the tuple):
#: of the others, 8 bits a slot let 1.42 % through to the table, 16 bits
#: 0.30 % and 32 bits 0.07 %, so the table probes are 19.3 k, 11.6 k and
#: 10.1 k, of which 50 %, 83 % and 95 % hit.  16 gets most of what 32 does at
#: 2 bytes a slot, against the 24 of the slot itself.
FILTER_BITS_PER_SLOT = 16
_SLOTS_PER_WORD = 64 // FILTER_BITS_PER_SLOT


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
        key_hashes: Array | None = None,
        values: Array | None = None,
        run_lengths: Array | None = None,
        *,
        load_factor: float = DEFAULT_LOAD_FACTOR,
        label: str = "hash_table",
        charge: bool = True,
        filtered: bool = False,
    ) -> None:
        if not 0 < load_factor <= 1.0:
            raise ValueError("load_factor must be in (0, 1]")
        backend = device.backend
        self.device = device
        self.backend = backend
        self.load_factor = float(load_factor)
        self.label = label
        self.filtered = filtered
        #: reserved bytes per slot: key, value, run length and, when filtered,
        #: a slot's share of a filter word
        self._slot_bytes = _SLOT_BYTES + 8 + (8 // _SLOTS_PER_WORD if filtered else 0)
        self._keys = backend.empty(0, dtype=backend.uint64)
        self._values = backend.empty(0, dtype=backend.int64)
        self._lengths = backend.empty(0, dtype=backend.int64)
        #: the filters' words, one per ``_SLOTS_PER_WORD`` slots of the slab
        self._words = backend.empty(0, dtype=backend.uint64)
        #: ``(first slot, slot count, key count)`` of every table, oldest first
        self._tables: list[tuple[int, int, int]] = []
        self.stats = HashTableStats(capacity=0, n_keys=0, build_rounds=0, total_probes=0)
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
    ) -> tuple[Array, bool]:
        """Push a table holding exactly these (distinct) keys; returns ``(slots, grew)``.

        ``slots[i]`` is the slab slot claimed by ``key_hashes[i]``.  The table
        takes the power-of-two slot range after the current top of the stack;
        ``grew`` says the slab had to be reallocated for it (geometrically, so
        a fixpoint pushing many small tables pays amortised O(1) allocations).
        Charged: the keys' probe work and filter bits, the streamed clear of
        a reused slot range (and its filter words), and — only when the slab
        grew — the allocation and the copy of the tables below.
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
        if self.filtered:
            slots = max(slots, _SLOTS_PER_WORD)  # whole filter words
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
            if self.filtered:
                self._words = grown(backend, self._words, first // _SLOTS_PER_WORD, capacity // _SLOTS_PER_WORD)
        self._keys[first : first + slots] = EMPTY_KEY
        self._tables.append((first, slots, m))
        rounds, probes, claimed = self._build(first, slots, key_hashes, values, run_lengths)
        if self.filtered:
            words = self._filter(first, slots)
            words[...] = 0
            backend.or_at(words, _filter_words(backend, key_hashes, words), _filter_masks(backend, key_hashes))
        self.stats = HashTableStats(capacity=slots, n_keys=m, build_rounds=rounds, total_probes=probes)
        if charge:
            # A fresh slab is initialised by its allocation (first touch); a
            # reused range is cleared by streaming its key slots and filter
            # words.  Each inserting thread also ORs its key's bits into its
            # filter word (one random 8-byte atomic).
            cleared = slots + (slots // _SLOTS_PER_WORD if self.filtered else 0)  # key slots, filter words
            streamed = 2.0 * first * self._slot_bytes if grew else 8.0 * cleared
            filter_bits = float(m) if self.filtered else 0.0
            self.device.charge(
                KernelCost(
                    kernel=label or f"{self.label}.insert_batch",
                    random_bytes=float(probes) * _SLOT_BYTES + 8.0 * filter_bits,
                    sequential_bytes=float(m) * 24.0 + streamed,
                    ops=float(probes) * 4.0 + filter_bits,
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
        owners = self._values[first : first + slots]
        wrap = slots - 1
        pending = backend.arange(key_hashes.size, dtype=backend.int64)
        at = (key_hashes & hash_scalar(backend, wrap)).astype(backend.int64)
        claimed = backend.empty(key_hashes.size, dtype=backend.int64)
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
            # ordinals go through the claimed slots' value words, which get
            # their winners' values once every key has a slot.
            candidates = backend.nonzero_indices(keys[at] == EMPTY_KEY)
            candidate_slots = at[candidates]
            backend.scatter(owners, candidate_slots, candidates)
            won = candidates[owners[candidate_slots] == candidates]
            won_slots = at[won]
            backend.scatter(keys, won_slots, key_hashes[won])
            backend.scatter(claimed, pending[won], won_slots)
            retry = backend.ones(pending.size, dtype=backend.bool_)
            backend.scatter(retry, won, False)
            pending, key_hashes = pending[retry], key_hashes[retry]
            at = (at[retry] + 1) & wrap
        claimed += first
        backend.scatter(self._values, claimed, values)
        backend.scatter(self._lengths, claimed, lengths)
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

    def may_contain(
        self, query_hashes: Array, *, charge: bool = True, label: str | None = None
    ) -> tuple[Array, Array]:
        """The (hash, table) pairs whose table's filter admits the hash.

        Returns ``(rows, tables)``: for each admitted pair the hash's index in
        ``query_hashes`` and the table's index in the stack, table by table —
        the arguments :meth:`probe` takes to look every pair up in one batch.
        A pair left out cannot match.  Charged: one filter-word read per hash
        per table, done by the threads of the probe that follows (no launch
        of its own).  Requires a filtered slab.
        """
        if not self.filtered:
            raise ValueError("may_contain() requires a filtered hash table")
        backend = self.backend
        query = backend.asarray(query_hashes, dtype=backend.uint64)
        masks = _filter_masks(backend, query)
        rows, tables = [], []
        for index, (first, slots, _) in enumerate(self._tables):
            words = self._filter(first, slots)
            admitted = backend.nonzero_indices((words[_filter_words(backend, query, words)] & masks) == masks)
            rows.append(admitted)
            tables.append(backend.full(int(admitted.size), index, dtype=backend.int64))
        if charge:
            checked = float(query.size) * len(self._tables)
            self.device.charge(
                KernelCost(
                    kernel=label or f"{self.label}.may_contain", random_bytes=8.0 * checked, ops=checked, launches=0
                )
            )
        return backend.concatenate(rows), backend.concatenate(tables)

    def _filter(self, first: int, slots: int) -> Array:
        """The filter words of the table in slots ``[first, first + slots)``."""
        return self._words[first // _SLOTS_PER_WORD : (first + slots) // _SLOTS_PER_WORD]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
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
        """Device bytes reserved by the slab (keys, values, run lengths, filter words)."""
        return self.capacity * self._slot_bytes

    def occupancy(self) -> float:
        return self.n_keys / self.capacity if self.capacity else 0.0

    def __len__(self) -> int:
        return self.n_keys


def _filter_masks(backend, hashes: Array) -> Array:
    """The three bits of its filter word each key sets: three 6-bit fields of its hash."""
    one, field = hash_scalar(backend, 1), hash_scalar(backend, 63)
    masks = one << (hashes & field)
    for shift in (6, 12):
        masks |= one << ((hashes >> hash_scalar(backend, shift)) & field)
    return masks


def _filter_words(backend, hashes: Array, words: Array) -> Array:
    """The filter word of each key: the high half of its hash modulo the (power-of-two) word count."""
    wrap = hash_scalar(backend, int(words.shape[0]) - 1)
    return ((hashes >> hash_scalar(backend, 32)) & wrap).astype(backend.int64)
