"""The Hash-Indexed Sorted Array (HISA) — Section 4 of the paper.

A HISA stores one relation (or one index of a relation) in three tiers:

1. **data array** — the dense ``n x k`` tuple buffer, stored with the join
   columns permuted to the front (Algorithm 1 lines 1-5).  Dense storage is
   what gives parallel iteration [R2] and coalesced access.  The buffer is
   *capacity-backed*: it can carry reserved headroom (Eager Buffer
   Management, Section 5.3) so that a fixpoint iteration appends its delta
   in place instead of copying the whole relation.
2. **sorted index array** — the positions of the tuples, ordered
   lexicographically (join columns first).  Sorting groups equal join keys
   into contiguous *key runs*, enabling range queries [R1] and
   adjacent-compare deduplication [R4].
3. **open-addressing hash table** — maps the 64-bit hash of a join key to the
   first sorted-index position of that key's run [R1, R3]
   (:class:`~repro.relational.hashtable.OpenAddressingHashTable`).

Incremental maintenance: the index tier is a stack of sorted runs
-----------------------------------------------------------------

The semi-naïve loop merges a (small) ``delta`` into the persistent ``full``
index every iteration.  Keeping tier 2 as *one* sorted array makes that
O(|full|) per iteration however small the delta is: every element behind an
insertion point moves, and every hash entry holding an absolute position has
to be refreshed.  The paper amortises the growth of the data tier (eager
buffers: grow geometrically, never rebuild); the index tier gets the same
treatment here, the way differential arrangements (FlowLog, PAPERS.md) hold an
index as a few geometrically sized sorted batches:

* the sorted index, the cached packed sort keys of the sorted tuples and (for
  an index on fewer than all columns) the cached packed join keys live in
  **capacity-backed arrays holding a stack of sorted runs end to end**,
  oldest and largest first; the hash table is a slab holding one table per
  run the same way — on an all-column index, one per run of at least
  :data:`TABLE_MIN_ROWS` tuples (below);
* :meth:`HISA.merge` **pushes** the delta — already sorted, its keys already
  packed — as the newest run: O(|Δ|), nothing older moves, so the absolute
  positions in the older runs' tables stay valid;
* it then **absorbs** the suffix of runs that are no more than
  :data:`ABSORB_RATIO` times the newer side: the suffix is decided first,
  path-merged pairwise from the small end (binary-search the smaller side
  into the larger), and the result gets one key-run scan and one table.
  Every surviving run is therefore more than twice its newer neighbour: at
  most ⌈log₂(|full|/|Δ|)⌉ + 1 runs, amortised O(|Δ| log(|full|/|Δ|)) work per
  merge, and a delta comparable to ``full`` absorbs everything — one run,
  exactly the dense merge;
* readers see one logical index: :meth:`HISA.lookup_columns` hashes the probe
  keys once and walks every (key, run) pair in one batched probe of the
  tables, :meth:`HISA.expand_matches` emits the matches probe-major (what one
  GPU thread per probe key walking its runs produces), and sorted-order
  readers go through :meth:`HISA.compact`;
* an index on *all* columns — the one every ``new - full`` difference, retract
  and WCOJ member check asks — keeps a table only for its runs of at least
  :data:`TABLE_MIN_ROWS` tuples.  Runs shrink more than twofold toward the
  top of the stack, so those are a prefix of it and table ``r`` stays run
  ``r``.  The table is what finds a key's range in a *large* sorted array;
  a small run answers by a search of the sorted tuple keys it already caches,
  which is exact.  :meth:`HISA.contains_columns` packs the batch once and
  searches each small run — a merge path when the batch is sorted, as
  ``new - full``'s deduplicated batch always is, a binary search otherwise —
  and hashes only for the runs with tables.  Each of those tables carries a
  **membership filter**, a blocked Bloom filter of
  :data:`~repro.relational.hashtable.FILTER_BITS_PER_SLOT` bits per table
  slot, set as the table is built: a run's table is probed only for the
  tuples its filter cannot rule out, so a tuple that is new walks no miss
  chain in the runs that cannot hold it; a filter has no false negatives, so
  the answer is the probe's.  Lookups on fewer columns mostly hit and probe
  every run's table without one;
* the data array grows by an **in-place append** of the delta whenever the
  backing device buffer has headroom (the eager buffer manager's
  over-allocation), falling back to an amortised copy into a larger buffer
  otherwise.

``merge(delta)`` mutates ``self`` (the full index) and returns it; ``delta``
is consumed.  A from-scratch ``HISA(device, all_tuples, join_columns)`` is the
oracle ``tests/relational/test_incremental.py`` holds every merge schedule to.

All algorithms run for real on the device's
:class:`~repro.backend.base.ArrayBackend` arrays (host NumPy by default, CuPy
when selected); every step charges the owning simulated device so the
profiler sees the same phases the paper measures.  The packed sort keys are
backend-opaque (:meth:`~repro.backend.base.ArrayBackend.pack_lex_keys`); this
module only compares, merge-scatters and binary-searches them.  Each key
store is one machine word per tuple while its values fit the narrow layout
and is re-packed wide, once, by the merge that first brings a value that does
not; charges and reserved bytes count every key at its logical width, 8 bytes
per column, whichever format the host holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..backend import INDEX_ITEMSIZE, TUPLE_ITEMSIZE, Array, ArrayBackend, is_wide_keys
from ..device.cost import KernelCost
from ..device.device import Device
from ..device.memory import Buffer
from ..errors import HisaStateError, SchemaError
from .buffers import MergeBufferManager, SimpleBufferManager
from .columnbatch import ColumnBatch
from .hashtable import DEFAULT_LOAD_FACTOR, OpenAddressingHashTable, grown

#: A merge absorbs an older run while ``ABSORB_RATIO x (newer side) >= older``.
#: Measured with ``bench/run.py --workload reach-road`` (295 merges of ~1,500
#: rows into an index growing to 450k; median ``run_wall_s`` of 4-8 runs each,
#: seeds 0-3, parent commit 3.5 s): 2 -> 1.5 s, 4 -> 1.6 s, 8 -> 1.9 s — within
#: this machine's +-0.3 s run-to-run spread of each other — and **1 -> 11.9 s
#: and 18.9 s**: shrinking or equal deltas then never merge and every lookup
#: walks hundreds of runs (the cliff ``tests/ci/test_simulated_floors.py``
#: pins).  2 rewrites the least on the flat part of the curve.
ABSORB_RATIO = 2

#: The fewest tuples a sorted run of an all-column index keeps a hash table
#: (and membership filter) for; smaller runs are searched (module docstring).
#: Swept on a 2-vCPU VM (``reach-road`` host time of one ``bench/run.py`` unit,
#: median of 3, and the ``slow`` paper tables' GPUlog cells): 4 Ki 1.63 s with
#: Table 2 fe_ocean 5.05 and fe_body 0.383; 16 Ki 1.42 s with com-dblp 3.46,
#: above the 3.38 of a table for every run; **64 Ki** 1.23 s with fe_ocean
#: 4.67, fe_body 0.339 and com-dblp 3.25; 116 Ki (H100's resident threads)
#: 1.11 s, but vsp_finan 2.62 -> 2.73, fe_body 0.339 -> 0.343 and SF.cedge
#: 0.201 -> 0.211.  At 64 Ki ``reach-road`` builds 7 tables per run, not 298.
TABLE_MIN_ROWS = 1 << 16


def first_absorbed(sizes: Sequence[int], newer: int) -> int:
    """The oldest of a run stack's ``sizes`` (oldest first) that a new run of
    ``newer`` absorbs under :data:`ABSORB_RATIO`; ``len(sizes)`` if none.

    The one absorb rule: :meth:`HISA.merge` applies it to sorted runs, the
    serving engine to the chain of segments that is its commit record.
    """
    first = len(sizes)
    while first and ABSORB_RATIO * newer >= sizes[first - 1]:
        first -= 1
        newer += sizes[first]
    return first


@dataclass(frozen=True)
class HisaMemoryBreakdown:
    """Bytes reserved by each HISA tier (for the memory columns of Tables 1-3)."""

    data_bytes: int
    index_bytes: int
    table_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.data_bytes + self.index_bytes + self.table_bytes


@dataclass(frozen=True)
class MatchedRuns:
    """Where a batch of probe keys matched: one key run per sorted run per key.

    ``starts[r, i]`` / ``lengths[r, i]`` locate probe key ``i``'s matches in
    sorted run ``r`` (``-1`` / ``0`` for a miss).  Opaque to callers, who pass
    it back to :meth:`HISA.expand_matches`; indexing selects probe keys.
    """

    starts: Array
    lengths: Array

    def __getitem__(self, keys) -> "MatchedRuns":
        return MatchedRuns(self.starts[:, keys], self.lengths[:, keys])


class HISA:
    """Hash-indexed sorted array over a single relation's tuples."""

    def __init__(
        self,
        device: Device,
        rows: ColumnBatch,
        join_columns: Sequence[int],
        *,
        load_factor: float = DEFAULT_LOAD_FACTOR,
        label: str = "relation",
        build_hash_index: bool = True,
        assume_sorted: bool = False,
    ) -> None:
        backend = device.backend
        # The batch hands over its (possibly lazy) columns directly — values
        # are gathered per column, never packed into row tuples.
        n = len(rows)
        arity = rows.arity
        natural_columns = rows.columns(label=f"{label}.ingest")
        self.device = device
        self.backend: ArrayBackend = backend
        self.label = label
        self.load_factor = float(load_factor)
        self.natural_arity = arity
        self._freed = False
        self.last_merge_in_place = False
        # Optional statistics hook: called after every merge with the delta
        # and post-merge tuple/distinct-key counts (maintained exactly, in
        # O(Δ), by :meth:`merge` while it is set).  Wired by Relation when
        # the engine runs with a StatsCatalog; see relational/stats.py.
        self.stats_observer = None

        join_columns = tuple(int(c) for c in join_columns)
        if any(c < 0 or c >= arity for c in join_columns):
            raise SchemaError(
                f"join columns {join_columns} out of range for arity {arity}"
            )
        if len(set(join_columns)) != len(join_columns):
            raise SchemaError(f"join columns must be distinct, got {join_columns}")
        if not join_columns:
            raise SchemaError("at least one join column is required")
        self.join_columns = join_columns
        self.n_join = len(join_columns)

        rest = tuple(c for c in range(arity) if c not in join_columns)
        self.column_order = join_columns + rest
        self._inverse_order = _invert_permutation(self.column_order)

        # --- Tier 1: SoA data columns (join columns permuted to the front) ---
        # Each stored column is its own dense, capacity-backed 1-D buffer, so
        # joins and merges gather single columns instead of whole tuples.
        self._column_storage: list[Array] = [
            backend.ascontiguousarray(natural_columns[column]) for column in self.column_order
        ]
        self._live = n
        if n:
            self.device.kernels.transform(
                n,
                bytes_per_item=2.0 * arity * TUPLE_ITEMSIZE,
                ops_per_item=arity,
                label=f"{label}.reorder_columns",
            )

        # --- Tier 2: sorted index array --------------------------------------
        # ``assume_sorted`` signals that ``rows`` are already in natural
        # lexicographic order (the deduplication kernel sorts them).  When the
        # index column order is the identity permutation — the canonical
        # all-column index and every prefix index — the producer's sort *is*
        # this index's sort, so the per-iteration delta is sorted once and
        # shared instead of re-sorted per index (callers guarantee the
        # precondition; it is not re-checked tuple by tuple).
        if assume_sorted and self.column_order == tuple(range(arity)):
            sorted_index = backend.arange(n, dtype=backend.int64)
            if n:
                self.device.kernels.transform(
                    n,
                    bytes_per_item=float(arity) * TUPLE_ITEMSIZE,
                    ops_per_item=arity,
                    label=f"{label}.adopt_sorted",
                )
        else:
            sorted_index = self.device.kernels.lexsort_columns(
                self.stored_columns(), label=f"{label}.sort_index", n_rows=n
            )

        # --- Cached packed sort keys + key runs --------------------------------
        # The index tier: the sorted index, the packed sort keys of the sorted
        # tuples and, unless the join key is the whole tuple (then the tuple
        # keys double as join keys: the last store is always the join keys),
        # the packed join keys.  Each is a capacity-backed array holding the
        # sorted runs ``[_bounds[r], _bounds[r + 1])`` end to end.
        sorted_columns = [column[sorted_index] for column in self.stored_columns()]
        self._stores: list[Array] = [sorted_index, backend.pack_lex_keys(sorted_columns)]
        if self.n_join < arity:
            self._stores.append(backend.pack_lex_keys(sorted_columns[: self.n_join]))
        # What the device reserves and moves per index-tier row, whatever the
        # host format of the keys: the index, the tuple key and the join key,
        # each at 8 bytes per column.
        self._index_row_bytes = INDEX_ITEMSIZE + TUPLE_ITEMSIZE * (
            arity + (self.n_join if self.n_join < arity else 0)
        )
        self._bounds = [0, n]
        run_starts, run_lengths = self._key_runs = _runs_from_keys(backend, self._stores[-1])
        self._distinct_keys = int(run_starts.size)
        self._max_run_length = int(run_lengths.max()) if self._distinct_keys else 0
        if n:
            self.device.kernels.transform(
                n,
                bytes_per_item=2.0 * self.n_join * TUPLE_ITEMSIZE,
                ops_per_item=self.n_join,
                label=f"{label}.find_runs",
            )

        # --- Tier 3: open-addressing hash tables, one per sorted run -----------
        # (on an all-column index, only for a large run, with a membership filter)
        self.table: OpenAddressingHashTable | None = None
        if build_hash_index:
            self.table = OpenAddressingHashTable(
                device, load_factor=self.load_factor, label=f"{label}.table", filtered=self.n_join == arity
            )
            if self._keeps_table(n):
                self.table.insert_batch(
                    self._hash_keys([column[run_starts] for column in sorted_columns[: self.n_join]]),
                    run_starts,
                    run_lengths,
                    label=f"{label}.table.build",
                )

        # --- Device memory accounting ------------------------------------------
        # Every tier accounts the capacity it has reserved.  The index tier
        # covers the sorted index array and the cached packed sort keys (which
        # are as large as the data array).
        self._data_buffer: Buffer | None = device.allocate(
            self._storage_nbytes(), label=f"{label}.data", charge_cost=False
        )
        self._buffers: dict[str, Buffer] = {}
        self._account_index_tiers()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tuple_count(self) -> int:
        return self._live

    def __len__(self) -> int:
        return self.tuple_count

    @property
    def arity(self) -> int:
        return self.natural_arity

    @property
    def distinct_key_count(self) -> int:
        """Distinct join keys (see :meth:`_count_keys` for how they are kept)."""
        if self._distinct_keys is None:
            self._recount_keys()
        return self._distinct_keys

    @property
    def max_run_length(self) -> int:
        """Longest join-key run — the worst-case matches one probe key returns."""
        if self._max_run_length is None:
            self._recount_keys()
        return self._max_run_length

    @property
    def run_sizes(self) -> list[int]:
        """Tuples in each sorted run of the index tier, oldest first."""
        return [end - start for start, end in zip(self._bounds, self._bounds[1:])]

    @property
    def capacity_rows(self) -> int:
        """Rows the backing storage can hold without reallocating."""
        return int(self._column_storage[0].shape[0])

    def _storage_nbytes(self) -> int:
        return sum(int(column.nbytes) for column in self._column_storage)

    def memory_breakdown(self) -> HisaMemoryBreakdown:
        return HisaMemoryBreakdown(
            data_bytes=self._data_buffer.nbytes if self._data_buffer is not None else self._storage_nbytes(),
            index_bytes=int(self._stores[0].shape[0]) * self._index_row_bytes,
            table_bytes=self.table.nbytes if self.table is not None else 0,
        )

    @property
    def nbytes(self) -> int:
        return self.memory_breakdown().total_bytes

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def stored_column(self, position: int) -> Array:
        """One stored column (index column order) as a dense 1-D view."""
        self._check_live()
        return self._column_storage[position][: self._live]

    def stored_columns(self) -> list[Array]:
        """All stored columns (join columns first), insertion order."""
        self._check_live()
        return [column[: self._live] for column in self._column_storage]

    def natural_column(self, column: int) -> Array:
        """One column in the relation's natural (schema) order."""
        return self.stored_column(self._inverse_order[column])

    def natural_columns(self) -> list[Array]:
        """All columns in schema order — zero-copy views for ColumnBatch wrapping."""
        return [self.natural_column(column) for column in range(self.natural_arity)]

    # -- sorted-order readers: one logical sorted array, via compact() -------
    @property
    def sorted_index(self) -> Array:
        """Data positions of all tuples in sorted order (compacts the runs first)."""
        self.compact()
        return self._stores[0][: self._live]

    @property
    def run_starts(self) -> Array:
        """Sorted-index position of each distinct join key's first tuple (compacts first)."""
        return self._compacted_key_runs()[0]

    @property
    def run_lengths(self) -> Array:
        """Tuples per distinct join key, in key order (compacts first)."""
        return self._compacted_key_runs()[1]

    def _compacted_key_runs(self) -> tuple[Array, Array]:
        self.compact()
        if self._key_runs is None:
            self._key_runs = _runs_from_keys(self.backend, self._stores[-1][: self._live])
        return self._key_runs

    # ------------------------------------------------------------------
    # Range queries (Algorithm 3 support)
    # ------------------------------------------------------------------
    def lookup_columns(
        self,
        key_columns: Sequence[Array],
        *,
        charge: bool = True,
    ) -> tuple[MatchedRuns, Array]:
        """Range-query a batch of join keys: ``key_columns[j]`` holds ``join_columns[j]``.

        Returns ``(runs, lengths)``: the matched key runs (for
        :meth:`expand_matches`) and each key's total match count.  Keys are
        hashed once by folding the columns directly, and every (key, sorted
        run) pair of the runs with tables is probed in that run's table in one
        batched walk — one GPU thread per pair — and verified against single
        stored columns, so no row tuples are ever assembled.  The small runs
        of an all-column index, which keep no table, are searched
        (:meth:`_search_runs`).
        """
        self._check_live()
        backend = self.backend
        m = int(key_columns[0].shape[0]) if key_columns else 0
        if m and len(key_columns) != self.n_join:
            raise SchemaError(f"expected keys of width {self.n_join}, got {len(key_columns)}")
        n_runs = len(self._bounds) - 1
        starts = backend.empty((n_runs, m), dtype=backend.int64)
        lengths = backend.empty((n_runs, m), dtype=backend.int64)
        if m:
            self._check_table()
            n_tabled = self.table.n_tables
            if n_tabled:
                hashes = self._hash_keys(key_columns, charge=charge)
            if n_tabled == 1:
                self._probe_run(0, hashes, key_columns, charge=charge, out=(starts[0], lengths[0]))
            elif n_tabled:
                # Pair ``r * m + i`` is key ``i`` in run ``r``: run-major, so
                # the flat results are the rows of ``starts`` / ``lengths``.
                pairs = backend.arange(n_tabled * m, dtype=backend.int64)
                keys = pairs % m
                self._probe_run(
                    pairs // m, hashes[keys], key_columns, keys=keys,
                    charge=charge, out=(starts[:n_tabled].reshape(-1), lengths[:n_tabled].reshape(-1)),
                )
            starts[n_tabled:], lengths[n_tabled:] = -1, 0
            for run, at, counts in self._search_runs(key_columns, charge=charge, counted=True):
                starts[run], lengths[run] = (at + self._bounds[run] + 1) * (counts > 0) - 1, counts
        return MatchedRuns(starts, lengths), lengths.sum(axis=0)

    def _hash_keys(self, key_columns: Sequence[Array], *, charge: bool = True) -> Array:
        """Fold join-key columns into the 64-bit hashes the tables are keyed by."""
        n_keys = int(key_columns[0].shape[0])
        if charge and n_keys:
            self.device.kernels.transform(
                n_keys,
                bytes_per_item=self.n_join * TUPLE_ITEMSIZE,
                ops_per_item=4.0 * self.n_join,
                label=f"{self.label}.hash_keys",
            )
        return self.backend.hash_columns(key_columns)

    def _probe_run(
        self,
        run: "int | Array",
        hashes: Array,
        key_columns: Sequence[Array],
        *,
        charge: bool,
        keys: Array | None = None,
        out: tuple[Array, Array] | None = None,
    ) -> tuple[Array, Array]:
        """Probe one sorted run's table (or each hash its own run's, ``run``
        an array), verifying every hash hit against the stored key.

        ``hashes[j]`` is the hash of key ``keys[j]`` of ``key_columns``
        (of key ``j`` without ``keys``); a key's columns are gathered only
        for its hits.  A hit on a different key with the same 64-bit hash
        walks on from the slot past it, so a key stored behind a colliding
        one is still found; only those resumed walks (and their
        verification) add to the charge.
        """
        self._check_table()
        backend = self.backend
        label = f"{self.label}.probe"
        slots = backend.empty(int(hashes.shape[0]), dtype=backend.int64)
        starts, lengths = self.table.probe(hashes, run, charge=charge, label=label, out=out, found=slots)
        hits = backend.nonzero_indices(starts >= 0)
        while hits.size:
            first_rows = self._stores[0][starts[hits]]
            key_rows = hits if keys is None else keys[hits]
            same = backend.ones(hits.size, dtype=backend.bool_)
            for position, key_column in enumerate(key_columns):
                same &= self._column_storage[position][first_rows] == key_column[key_rows]
            if charge:
                self.device.kernels.random_access(
                    int(hits.size),
                    bytes_per_access=self.n_join * TUPLE_ITEMSIZE,
                    label=f"{self.label}.verify_key",
                )
            collided = hits[~same]
            if not collided.size:
                break
            resumed = backend.empty(int(collided.size), dtype=backend.int64)
            resumed_starts, resumed_lengths = self.table.probe(
                hashes[collided],
                run if isinstance(run, int) else run[collided],
                charge=charge,
                label=label,
                start=slots[collided] + 1,
                found=resumed,
            )
            backend.scatter(starts, collided, resumed_starts)
            backend.scatter(lengths, collided, resumed_lengths)
            backend.scatter(slots, collided, resumed)
            hits = collided[resumed_starts >= 0]
        return starts, lengths

    def expand_matches(self, runs: MatchedRuns, lengths: Array) -> tuple[Array, Array]:
        """Expand :meth:`lookup_columns` results into flat (probe index, data position) pairs.

        Returns ``(probe_indices, data_positions)`` where ``data_positions``
        index directly into the data array (already translated through the
        sorted index array).  Pairs come probe-major — all of key 0's matches,
        oldest sorted run first, then key 1's — so ``probe_indices`` is
        monotone and gathers routed through it stay coalesced.
        """
        self._check_live()
        backend = self.backend
        total = int(lengths.sum())
        if total == 0:
            return backend.empty(0, dtype=backend.int64), backend.empty(0, dtype=backend.int64)
        probe_indices = backend.repeat(backend.arange(lengths.size, dtype=backend.int64), lengths)
        run_starts, run_lengths = runs.starts.T.ravel(), runs.lengths.T.ravel()
        # An output element's sorted position is its key run's start plus its
        # offset within the run: repeat (start - outputs before the run) per
        # run, then add the output ordinal.
        before = backend.cumsum(run_lengths) - run_lengths
        sorted_positions = backend.repeat(run_starts - before, run_lengths) + backend.arange(total, dtype=backend.int64)
        return probe_indices, self._stores[0][sorted_positions]

    def contains_columns(self, columns: Sequence[Array], *, charge: bool = True) -> Array:
        """Exact membership test for whole tuples; ``columns`` are in schema order.

        Requires the HISA to be indexed on *all* columns (as the ``full``
        version used for deduplication is).  Every tuple checks the membership
        filter of every run with a table, and the (tuple, run) pairs a filter
        admits probe that run's table, all in one batch — one GPU thread per
        pair; the small runs without a table are searched
        (:meth:`_search_runs`).  The runs are disjoint, so at most one run
        holds a tuple; neither a filter nor a search has false negatives, so
        no tuple that is present is missed.
        """
        self._check_live()
        backend = self.backend
        if self.n_join != self.natural_arity:
            raise HisaStateError("contains_columns() requires an all-column index")
        self._check_table()
        if not columns or columns[0].shape[0] == 0:
            return backend.empty(0, dtype=backend.bool_)
        key_columns = [columns[column] for column in self.column_order]
        present = backend.zeros(int(key_columns[0].shape[0]), dtype=backend.bool_)
        if self.table.n_tables:
            hashes = self._hash_keys(key_columns, charge=charge)
            tuples, runs = self.table.may_contain(hashes, charge=charge, label=f"{self.label}.filter_check")
            if tuples.size:
                starts, _ = self._probe_run(runs, hashes[tuples], key_columns, keys=tuples, charge=charge)
                backend.scatter(present, tuples[starts >= 0], True)
        for _, _, matches in self._search_runs(key_columns, charge=charge):
            present |= matches
        return present

    def _search_runs(
        self, key_columns: Sequence[Array], *, charge: bool, counted: bool = False
    ) -> list[tuple[int, Array, Array]]:
        """Search whole-tuple keys (index column order) in every run without a table.

        Returns ``(run, at, matches)`` per such run: ``matches`` says whether
        the run holds each key — how many of its tuples match it when
        ``counted`` (a constructor's run holds whatever rows it was given,
        duplicates included; the runs a merge writes are duplicate-free) —
        and ``at`` is where the first match sits within the run, meaningful
        only where there is one.  The keys are packed once in the
        tuple-key store's format (a batch that does not fit narrow keys
        widens the store, as a merge's delta does) and binary-searched in each
        run's cached tuple keys.  A sorted batch — ``new - full``'s
        deduplicated one — is charged as a merge path, batch and run keys each
        streamed once; any other as a binary search per key.  The charges
        fold into the caller's fused launch (outside one, they are one launch).
        """
        backend = self.backend
        bounds = self._bounds
        runs = [run for run in range(self.table.n_tables, len(bounds) - 1) if bounds[run + 1] > bounds[run]]
        if not runs:
            return []
        keys = backend.pack_lex_keys(key_columns)
        if is_wide_keys(keys) and not is_wide_keys(self._stores[1]):
            self._stores[1] = self._wide_store(1)
        elif is_wide_keys(self._stores[1]) and not is_wide_keys(keys):
            keys = backend.pack_lex_keys(key_columns, wide=True)
        found = []
        for run in runs:
            start, end = bounds[run], bounds[run + 1]
            run_keys = self._stores[1][start:end]
            # Searching all but the last key gives a position inside the run
            # for every key, and it holds the key if the run does.
            at = backend.searchsorted(run_keys[:-1], keys, side="left")
            matches = run_keys[at] == keys
            if counted:
                matches = (backend.searchsorted(run_keys, keys, side="right") - at) * matches
            found.append((run, at, matches))
        if charge:
            self._charge_search([bounds[run + 1] - bounds[run] for run in runs], keys)
        return found

    def _charge_search(self, run_sizes: list[int], keys: Array) -> None:
        """Charge :meth:`_search_runs`: a merge path per run for a sorted batch, else a binary search per key."""
        m = int(keys.shape[0])
        key_bytes = self.natural_arity * TUPLE_ITEMSIZE
        if self.backend.is_monotone(keys):
            streamed = float(m * len(run_sizes) + sum(run_sizes))
            self.device.charge(
                KernelCost(kernel=f"{self.label}.merge_search", sequential_bytes=streamed * key_bytes, ops=streamed)
            )
            return
        with self.device.fused(f"{self.label}.search_keys"):
            for size in run_sizes:
                self.device.kernels.binary_search_keys(
                    m, haystack_size=size, key_bytes=key_bytes, label=f"{self.label}.search_keys"
                )

    # ------------------------------------------------------------------
    # Merge (full <- full U delta), Section 4.2 / 5.1
    # ------------------------------------------------------------------
    def merge(
        self,
        delta: "HISA",
        buffer_manager: MergeBufferManager | None = None,
        *,
        charge: bool = True,
    ) -> "HISA":
        """Absorb ``delta``'s tuples into this HISA and return ``self``.

        ``delta`` must already be disjoint from ``self`` (the populate-delta
        phase guarantees it), so no deduplication is performed.  ``delta`` is
        consumed: its device buffers are freed and it must not be used
        afterwards.  The delta's rows are appended to the data array and its
        sorted index pushed as the newest sorted run, which then absorbs the
        older runs it is at least half as large as (module docstring):
        amortised O(|Δ| log(|full|/|Δ|)), and nothing about the runs that stay
        — keys, key runs, hash entries — is touched.
        """
        self._check_live()
        delta._check_live()
        if delta.natural_arity != self.natural_arity:
            raise SchemaError("cannot merge HISAs with different arity")
        if delta.join_columns != self.join_columns:
            raise SchemaError("cannot merge HISAs indexed on different join columns")
        if self.table is None:
            raise HisaStateError("cannot merge into a HISA built without a hash index")
        manager = buffer_manager if buffer_manager is not None else SimpleBufferManager(self.device, label=f"{self.label}.merge")

        delta.compact(charge=charge)
        n, d = self._live, delta.tuple_count
        if d == 0:
            delta.free()
            self.last_merge_in_place = True
            self._notify_stats(0, 0)
            return self

        parts = [store[:d] for store in delta._stores]
        parts[0] = parts[0] + n
        for position in range(1, len(parts)):
            # A store keeps its key format until a delta's keys do not fit
            # it; the narrow side is then re-packed wide, once.
            if is_wide_keys(parts[position]) and not is_wide_keys(self._stores[position]):
                self._stores[position] = self._wide_store(position)
            elif is_wide_keys(self._stores[position]) and not is_wide_keys(parts[position]):
                parts[position] = delta._wide_store(position)[:d]
        self._append_data(delta, manager, charge=charge)
        first = first_absorbed(self.run_sizes, d)
        # Statistics, push, path merges, key-run scan, key hashing and table
        # build stream the touched runs once each: one fused epilogue, plus a
        # search and a scatter launch per path merge beyond the first's scatter.
        with self.device.fused(f"{self.label}.merge_finalize", launches=max(1, 2 * (len(self._bounds) - 1 - first))):
            self._count_keys(delta, charge=charge)
            self._seal(first, parts, charge=charge)
        delta.free()
        self._notify_stats(d, delta.distinct_key_count)
        return self

    def compact(self, *, charge: bool = True) -> "HISA":
        """Merge every sorted run into one, so the index tier is one sorted array again."""
        self._check_live()
        absorbed = len(self._bounds) - 2
        if absorbed:
            with self.device.fused(f"{self.label}.compact", launches=2 * absorbed):
                newest = [store[self._bounds[-2] : self._live] for store in self._stores]
                del self._bounds[-1]
                self._seal(0, newest, charge=charge)
        return self

    def _count_keys(self, delta: "HISA", *, charge: bool) -> None:
        """Keep ``distinct_key_count`` / ``max_run_length`` across a merge.

        The delta of an all-column index is disjoint from ``self`` by
        construction: both are a sum and a maximum.  On fewer columns a join
        key can sit in several sorted runs, so neither is; only the
        statistics catalog reads them during a fixpoint, so only while a
        :attr:`stats_observer` is attached are the delta's distinct keys
        looked up in the runs already here (the multi-run probe a join does,
        charged like one), in O(Δ).  Otherwise both are marked unknown, and
        reading one recounts both (:meth:`_recount_keys`).
        """
        if self.n_join == self.natural_arity:
            self._distinct_keys += delta._distinct_keys
            self._max_run_length = max(self._max_run_length, delta._max_run_length)
            return
        if self.stats_observer is None:
            self._distinct_keys = self._max_run_length = None
            return
        distinct, longest = self.distinct_key_count, self.max_run_length
        run_starts, run_lengths = delta._compacted_key_runs()
        first_rows = delta._stores[0][run_starts]
        key_columns = [delta.stored_column(position)[first_rows] for position in range(self.n_join)]
        _, already = self.lookup_columns(key_columns, charge=charge)
        self._distinct_keys = distinct + self.backend.count_nonzero(already == 0)
        self._max_run_length = max(longest, int((already + run_lengths).max()))

    def _recount_keys(self) -> None:
        """Count the distinct join keys and the longest key run exactly, by
        sorting the stored join columns: host introspection, not charged,
        kept until the next merge."""
        backend = self.backend
        columns = [self.stored_column(position) for position in range(self.n_join)]
        order = backend.lexsort(columns, n_rows=self._live)
        _, run_lengths = _runs_from_keys(backend, backend.pack_lex_keys([column[order] for column in columns]))
        self._distinct_keys = int(run_lengths.size)
        self._max_run_length = int(run_lengths.max()) if self._distinct_keys else 0

    def _notify_stats(self, delta_rows: int, delta_distinct: int) -> None:
        if self.stats_observer is not None:
            self.stats_observer(
                delta_rows=delta_rows,
                delta_distinct=delta_distinct,
                total_rows=self.tuple_count,
                total_distinct=self.distinct_key_count,
                max_multiplicity=self.max_run_length,
            )

    # -- data-tier helper ------------------------------------------------
    def _append_data(self, delta: "HISA", manager: MergeBufferManager, *, charge: bool) -> None:
        """Append ``delta``'s rows to the data array, in place when possible.

        In place requires the backing device buffer (and host storage) to have
        enough reserved headroom — exactly what the eager buffer manager's
        over-allocation provides.  Otherwise a destination buffer is acquired
        from the manager and the whole relation is copied (amortised by the
        manager's growth policy).
        """
        backend = self.backend
        n, d = self.tuple_count, delta.tuple_count
        row_bytes = self.natural_arity * TUPLE_ITEMSIZE
        required = (n + d) * row_bytes

        in_place = (
            self._data_buffer is not None
            and self._data_buffer.nbytes >= required
            and self.capacity_rows >= n + d
        )
        if in_place:
            # Per-column streaming appends into the reserved headroom.  Only
            # the region past ``n`` is written, so live lazy batches holding
            # (base, selection) references into these columns stay valid.
            for position, column in enumerate(self._column_storage):
                column[n : n + d] = delta.stored_column(position)
            if charge:
                self.device.charge(
                    KernelCost(
                        kernel=f"{self.label}.merge_append",
                        sequential_bytes=2.0 * d * row_bytes,
                        ops=float(d),
                    )
                )
            manager.note_in_place(d * row_bytes)
        else:
            dest = manager.acquire(required, d * row_bytes)
            capacity = max(n + d, dest.nbytes // row_bytes)
            storage = [grown(backend, column, n, capacity) for column in self._column_storage]
            for position, column in enumerate(storage):
                column[n : n + d] = delta.stored_column(position)
            if charge:
                self.device.charge(
                    KernelCost(
                        kernel=f"{self.label}.merge_copy",
                        sequential_bytes=2.0 * float(required),
                        ops=float(n + d),
                    )
                )
            self._column_storage = storage
            old_buffer = self._data_buffer
            self._data_buffer = dest
            if old_buffer is not None:
                manager.retire(old_buffer)
        self._live = n + d
        self.last_merge_in_place = in_place

    # -- index-tier helpers ------------------------------------------------
    def _seal(self, first: int, parts: list[Array], *, charge: bool) -> None:
        """Make ``parts`` plus the sorted runs from ``first`` on the newest sorted run.

        ``parts`` is a sorted run outside the stack, one array per store.  It
        is path-merged with the stack's runs newest to oldest down to
        ``first`` (none for a plain push), written where run ``first`` began,
        scanned for key runs once and given one hash table — unless it is a
        small run of an all-column index (:data:`TABLE_MIN_ROWS`).
        """
        backend = self.backend
        bounds = self._bounds
        for run in range(len(bounds) - 2, first - 1, -1):
            parts = self._path_merge(
                [store[bounds[run] : bounds[run + 1]] for store in self._stores], parts, charge=charge
            )
        del bounds[first + 1 :]
        start, size = bounds[first], int(parts[0].shape[0])
        end = start + size
        bounds.append(end)
        self._key_runs = None
        capacity = int(self._stores[0].shape[0])
        if start == 0 and end > capacity:
            # Everything was absorbed and has outgrown the stores: the merged
            # arrays *are* the new index tier, as in a dense merge.
            self._stores = parts
        else:
            row_bytes = self._index_row_bytes
            if end > capacity:
                # Geometric growth, like the data tier's eager buffers; only
                # the runs that stay are carried over.
                self._stores = [grown(backend, store, start, max(2 * capacity, end)) for store in self._stores]
                if charge:
                    self.device.charge(
                        KernelCost(kernel=f"{self.label}.index_grow", sequential_bytes=2.0 * start * row_bytes)
                    )
            for store, part in zip(self._stores, parts):
                store[start:end] = part
            if charge:
                self.device.charge(
                    KernelCost(kernel=f"{self.label}.run_push", sequential_bytes=2.0 * size * row_bytes, ops=float(size))
                )

        self.table.truncate(first)
        if not self._keeps_table(size):
            self._account_index_tiers()
            return
        # Runs shrink more than twofold toward the top of the stack, so the
        # runs with tables are a prefix of it: table ``r`` is run ``r``.
        assert self.table.n_tables == first, (self.table.n_tables, first)
        index = self._stores[0][start:end]
        if self.n_join == self.natural_arity:
            # Every key run is a single tuple (an all-column index over
            # duplicate-free tuples): the key runs are positional.
            run_starts, run_lengths, first_rows = backend.arange(size, dtype=backend.int64), None, index
        else:
            run_starts, run_lengths = _runs_from_keys(backend, self._stores[-1][start:end])
            first_rows = index[run_starts]
        if charge and run_lengths is not None:
            # The key-run scan reads every cached join key of the run once.
            self.device.charge(
                KernelCost(
                    kernel=f"{self.label}.run_scan",
                    sequential_bytes=float(size) * self.n_join * TUPLE_ITEMSIZE,
                    ops=float(size),
                )
            )
        hashes = self._hash_keys(
            [self._column_storage[position][first_rows] for position in range(self.n_join)], charge=charge
        )
        self.table.insert_batch(
            hashes, run_starts + start, run_lengths, charge=charge, label=f"{self.label}.table_insert"
        )
        self._account_index_tiers()

    def _path_merge(self, left: list[Array], right: list[Array], *, charge: bool) -> list[Array]:
        """Merge two sorted runs (one array per store) into fresh arrays.

        The smaller side's cached tuple keys are binary-searched into the
        larger's, O(small log large); both sides then scatter into place.
        Tuple keys are distinct across runs, so ties cannot arise.
        """
        backend = self.backend
        small, large = (left, right) if left[0].shape[0] < right[0].shape[0] else (right, left)
        n_small, n_large = int(small[0].shape[0]), int(large[0].shape[0])
        total = n_small + n_large
        small_at = backend.searchsorted(large[1], small[1], side="left") + backend.arange(n_small, dtype=backend.int64)
        from_large = backend.ones(total, dtype=backend.bool_)
        backend.scatter(from_large, small_at, False)
        merged = []
        for small_part, large_part in zip(small, large):
            out = backend.empty(total, dtype=large_part.dtype)
            backend.scatter(out, small_at, small_part)
            out[from_large] = large_part
            merged.append(out)
        if charge:
            self.device.kernels.binary_search_keys(
                n_small,
                haystack_size=n_large,
                key_bytes=self.natural_arity * TUPLE_ITEMSIZE,
                label=f"{self.label}.merge_path",
            )
            self.device.charge(
                KernelCost(
                    kernel=f"{self.label}.merge_scatter",
                    sequential_bytes=2.0 * total * self._index_row_bytes,
                    ops=float(total),
                )
            )
        return merged

    def _keeps_table(self, size: int) -> bool:
        """Whether a sorted run of ``size`` tuples gets a hash table."""
        return self.n_join < self.natural_arity or size >= TABLE_MIN_ROWS

    def _wide_store(self, position: int) -> Array:
        """Key store ``position`` (1: tuple keys, 2: join keys) re-packed wide
        from the stored columns, same capacity: a host re-pack the simulated
        device does not see, since it charges keys at their logical width."""
        end = self._bounds[-1]
        index = self._stores[0][:end]
        width = self.natural_arity if position == 1 else self.n_join
        keys = self.backend.pack_lex_keys([self._column_storage[c][index] for c in range(width)], wide=True)
        return grown(self.backend, keys, end, int(self._stores[0].shape[0]))

    def _account_index_tiers(self) -> None:
        """Hold the index and table tiers' reserved capacity in the device pool.

        The allocator is touched only when a reservation changed — a
        geometric growth of the stores or of the table slab.
        """
        breakdown = self.memory_breakdown()
        reserved = {"index": breakdown.index_bytes}
        if self.table is not None:
            reserved["table"] = breakdown.table_bytes
        for tier, nbytes in reserved.items():
            buffer = self._buffers.get(tier)
            if buffer is not None and buffer.nbytes == nbytes:
                continue
            if buffer is not None:
                self.device.free(self._buffers.pop(tier), charge_cost=False)
            self._buffers[tier] = self.device.allocate(nbytes, label=f"{self.label}.{tier}", charge_cost=False)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def free(self) -> None:
        """Release all simulated device memory held by this HISA."""
        if self._freed:
            return
        self._freed = True
        buffers = [*self._buffers.values(), self._data_buffer]
        self._buffers, self._data_buffer = {}, None
        for buffer in buffers:
            self.device.free(buffer, charge_cost=False)

    @property
    def is_freed(self) -> bool:
        return self._freed

    def _check_live(self) -> None:
        if self._freed:
            raise HisaStateError(f"HISA {self.label!r} has been freed")

    def _check_table(self) -> None:
        if self.table is None:
            raise HisaStateError("this HISA was built without a hash index")


# ----------------------------------------------------------------------
# Module-level helpers
# ----------------------------------------------------------------------

def _invert_permutation(order: tuple[int, ...]) -> tuple[int, ...]:
    inverse = [0] * len(order)
    for position, column in enumerate(order):
        inverse[column] = position
    return tuple(inverse)


def _runs_from_keys(backend: ArrayBackend, sorted_join_keys: Array) -> tuple[Array, Array]:
    """Key-run starts/lengths from packed join keys in sorted order."""
    n = int(sorted_join_keys.shape[0])
    if n == 0:
        empty = backend.empty(0, dtype=backend.int64)
        return empty, empty.copy()
    new_run = backend.adjacent_unique_mask([sorted_join_keys], n_rows=n)
    run_starts = backend.nonzero_indices(new_run)
    run_lengths = backend.run_lengths_from_starts(run_starts, n)
    return run_starts, run_lengths
