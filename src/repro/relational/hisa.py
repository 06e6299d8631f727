"""The Hash-Indexed Sorted Array (HISA) — Section 4 of the paper.

The paper's HISA has three tiers.  Here a HISA is one index of a relation:
a column order — the join columns first (Algorithm 1 lines 1-5) — plus its
own index and table tiers over the relation's single data tier:

1. **data array** — the relation's :class:`~repro.relational.buffers.ColumnStore`:
   dense, capacity-backed columns in schema order, shared by every index of
   the relation (the paper keeps one per index; ``docs/benchmarks.md``
   records the departure).  Dense storage is what gives parallel iteration
   [R2] and coalesced access, and the store's reserved headroom (Eager
   Buffer Management, Section 5.3) lets a fixpoint iteration append its
   delta in place, once for all indexes.  The join-columns-first order is a
   reordering of the store's column list, never a copy.
2. **sorted index array** — the positions of the tuples, ordered
   lexicographically (join columns first).  Sorting groups equal join keys
   into contiguous *key runs*, enabling range queries [R1] and
   adjacent-compare deduplication [R4].
3. **open-addressing hash table** — maps the 64-bit hash of a join key to the
   first sorted-index position of that key's run [R1, R3]
   (:class:`~repro.relational.hashtable.OpenAddressingHashTable`).  Only an
   index on fewer than all columns has one, because only joins probe it (below).

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
  oldest and largest first; on an index on fewer columns, the hash table is
  a slab holding one table per large run the same way — per run of at least
  :data:`TABLE_MIN_ROWS` tuples, and the constructor's run (below);
* :meth:`HISA.merge` **pushes** the delta — already sorted, its keys already
  packed — as the newest run: O(|Δ|), nothing older moves, so the absolute
  positions in the older runs' tables stay valid;
* it then **absorbs** the suffix of runs that are no more than
  :data:`ABSORB_RATIO` times the newer side: the suffix is decided first,
  path-merged pairwise from the small end (binary-search the smaller side
  into the larger), and the result gets one key-run scan and, if it is
  large, one table — charged when the run is written, built on the host at
  first read (the last merge's tables of a fixpoint are read by nothing and
  never built).
  Every surviving run is therefore more than twice its newer neighbour: at
  most ⌈log₂(|full|/|Δ|)⌉ + 1 runs, amortised O(|Δ| log(|full|/|Δ|)) work per
  merge, and a delta comparable to ``full`` absorbs everything — one run,
  exactly the dense merge;
* on an index on fewer columns, a run a merge writes keeps a table only
  from :data:`TABLE_MIN_ROWS` tuples.  The table is what finds a key's range
  in a *large* sorted array; a small run answers by a search of the join keys
  it already caches, and the search is exact.  The constructor's run keeps
  its table at any size: it indexes a whole relation (its facts, a stratum's
  load, a retract's re-initialization) and is probed by every iteration and
  epoch until a merge absorbs it; an empty one keeps none.  Runs shrink more
  than twofold toward the top of the stack and the constructor's run is the
  oldest, so the runs with tables are a prefix of it and table ``r`` stays
  run ``r``;
* readers see one logical index: :meth:`HISA.lookup_columns` hashes the probe
  keys once, walks every (key, run) pair of the runs with tables in one
  batched probe and searches the others' join keys,
  :meth:`HISA.expand_matches` emits the matches probe-major (what one GPU
  thread per probe key walking its runs produces); nothing reads the runs
  as one sorted array, so nothing ever folds them back into one;
* an index on *all* columns keeps **no table at any size**.  It is the one
  every ``new - full`` difference, retract and WCOJ member check asks, and
  each of those is a set difference or intersection of sorted tuple keys
  (the dynamic set difference of *Scaling-Up In-Memory Datalog Processing*,
  PAPERS.md): :meth:`HISA.contains_columns` packs the batch once and
  searches every run's cached tuple keys, charged per run as whichever of a
  merge path (a sorted batch, as ``new - full``'s deduplicated one always
  is) and a binary search the device prices cheaper.  A table there would
  cost a build per large run and answer only what the search answers
  exactly; the paper's HISA keeps its table for the join range queries it
  was built for, and so does this one;
* a delta index carries no data of its own: it is the sorted positions and
  keys of the delta rows, which a merge finds appended to the store (a
  relation appends each delta once for all of its indexes; a HISA whose
  store is its own appends it there itself).

``merge(delta)`` mutates ``self`` (the full index) and returns it; ``delta``
is consumed.  A from-scratch ``HISA(device, all_tuples, join_columns)`` builds
over a store of its own; it is the oracle ``tests/relational/test_incremental.py``
holds every merge schedule to.

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
from .buffers import ColumnStore, EagerBufferManager
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

#: The fewest tuples a sorted run a merge writes on an index on fewer than all
#: columns keeps a hash table for; smaller runs are searched (module docstring).
#: Swept on a 2-vCPU VM (``reach-road`` host time of one ``bench/run.py`` unit,
#: median of 3, and the ``slow`` paper tables' GPUlog cells): 4 Ki 1.63 s with
#: Table 2 fe_ocean 5.05 and fe_body 0.383; 16 Ki 1.42 s with com-dblp 3.46,
#: above the 3.38 of a table for every run; **64 Ki** 1.23 s with fe_ocean
#: 4.67, fe_body 0.339 and com-dblp 3.25; 116 Ki (H100's resident threads)
#: 1.11 s, but vsp_finan 2.62 -> 2.73, fe_body 0.339 -> 0.343 and SF.cedge
#: 0.201 -> 0.211.  At 64 Ki ``reach-road`` built 7 tables per run, not 298,
#: when the all-column index still kept tables; it keeps none now.
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
    """Bytes reserved by an index's own tiers; the data tier is the store's
    (:attr:`ColumnStore.nbytes`), counted once per relation."""

    index_bytes: int
    table_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.index_bytes + self.table_bytes


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
    """Hash-indexed sorted array: one index over a column store's tuples.

    ``rows`` is the store to index (its live rows), or a batch, for which the
    HISA builds a store of its own and frees it with itself.
    """

    def __init__(
        self,
        device: Device,
        rows: "ColumnStore | ColumnBatch",
        join_columns: Sequence[int],
        *,
        load_factor: float = DEFAULT_LOAD_FACTOR,
        label: str = "relation",
        build_hash_index: bool = True,
        assume_sorted: bool = False,
    ) -> None:
        backend = device.backend
        arity = rows.arity
        join_columns = tuple(int(c) for c in join_columns)
        if any(c < 0 or c >= arity for c in join_columns):
            raise SchemaError(f"join columns {join_columns} out of range for arity {arity}")
        if len(set(join_columns)) != len(join_columns):
            raise SchemaError(f"join columns must be distinct, got {join_columns}")
        if not join_columns:
            raise SchemaError("at least one join column is required")
        self._owns_store = not isinstance(rows, ColumnStore)
        if self._owns_store:
            rows = ColumnStore(device, rows, label=label, manager=EagerBufferManager(device, label=f"{label}.merge_buffer"))
        self.store = rows
        n = len(rows)
        natural_columns = rows.live_columns()
        self.device = device
        self.backend: ArrayBackend = backend
        self.label = label
        self.load_factor = float(load_factor)
        self.natural_arity = arity
        self._freed = False
        self.join_columns = join_columns
        self.n_join = len(join_columns)

        rest = tuple(c for c in range(arity) if c not in join_columns)
        self.column_order = join_columns + rest

        # --- Tier 2: sorted index array --------------------------------------
        # ``assume_sorted`` signals that ``rows`` are already in natural
        # lexicographic order (the deduplication kernel sorts them).  When the
        # index column order is the identity permutation — the canonical
        # all-column index and every prefix index — the producer's sort *is*
        # this index's sort, so the per-iteration delta is sorted once and
        # shared instead of re-sorted per index (callers guarantee the
        # precondition; it is not re-checked tuple by tuple).
        if assume_sorted and self.column_order == tuple(range(arity)):
            order = backend.arange(n, dtype=backend.int64)
            if n:
                self.device.kernels.transform(
                    n,
                    bytes_per_item=float(arity) * TUPLE_ITEMSIZE,
                    ops_per_item=arity,
                    label=f"{label}.adopt_sorted",
                )
        else:
            order = self.device.kernels.lexsort_columns(
                [natural_columns[column] for column in self.column_order], label=f"{label}.sort_index", n_rows=n
            )

        # --- Cached packed sort keys ------------------------------------------
        # The index tier: the sorted index, the packed sort keys of the sorted
        # tuples and, unless the join key is the whole tuple (then the tuple
        # keys double as join keys: the last store is always the join keys),
        # the packed join keys.  Each is a capacity-backed array holding the
        # sorted runs ``[_bounds[r], _bounds[r + 1])`` end to end.
        sorted_columns = [natural_columns[column][order] for column in self.column_order]
        self._stores: list[Array] = [order, backend.pack_lex_keys(sorted_columns)]
        if self.n_join < arity:
            self._stores.append(backend.pack_lex_keys(sorted_columns[: self.n_join]))
        # What the device reserves and moves per index-tier row, whatever the
        # host format of the keys: the index, the tuple key and the join key,
        # each at 8 bytes per column.
        self._index_row_bytes = INDEX_ITEMSIZE + TUPLE_ITEMSIZE * (
            arity + (self.n_join if self.n_join < arity else 0)
        )
        self._bounds = [0, n]

        # --- Tier 3: open-addressing hash tables, one per large sorted run ------
        self.table: OpenAddressingHashTable | None = None
        if build_hash_index:
            self.table = OpenAddressingHashTable(device, load_factor=self.load_factor, label=f"{label}.table")
            # The first run of an index on fewer columns indexes a whole
            # relation (its facts, a stratum's load, a retract's
            # re-initialization), which every iteration and epoch probes: it
            # keeps a table whenever it holds tuples, and only the table reads
            # its key runs.  An all-column index keeps none (:meth:`_keeps_table`).
            if n and self.n_join < arity:
                self.device.kernels.transform(
                    n,
                    bytes_per_item=2.0 * self.n_join * TUPLE_ITEMSIZE,
                    ops_per_item=self.n_join,
                    label=f"{label}.find_runs",
                )
                run_starts, run_lengths = _runs_from_keys(backend, self._stores[-1])
                self.table.insert_batch(
                    self._hash_keys([column[run_starts] for column in sorted_columns[: self.n_join]]),
                    run_starts,
                    run_lengths,
                    label=f"{label}.table.build",
                )

        # --- Device memory accounting ------------------------------------------
        # The index and table tiers account the capacity they have reserved;
        # the index tier covers the sorted index array and the cached packed
        # sort keys.  The data tier is the store's.
        self._buffers: dict[str, Buffer] = {}
        self._account_index_tiers()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tuple_count(self) -> int:
        return self._bounds[-1]

    def __len__(self) -> int:
        return self.tuple_count

    @property
    def arity(self) -> int:
        return self.natural_arity

    @property
    def run_sizes(self) -> list[int]:
        """Tuples in each sorted run of the index tier, oldest first."""
        return [end - start for start, end in zip(self._bounds, self._bounds[1:])]

    def memory_breakdown(self) -> HisaMemoryBreakdown:
        return HisaMemoryBreakdown(
            index_bytes=int(self._stores[0].shape[0]) * self._index_row_bytes,
            table_bytes=self.table.nbytes if self.table is not None else 0,
        )

    @property
    def nbytes(self) -> int:
        return self.memory_breakdown().total_bytes

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def natural_column(self, column: int) -> Array:
        """One column of the indexed rows, in schema order, as a dense 1-D view."""
        self._check_live()
        return self.store.columns[column][: self.tuple_count]

    def natural_columns(self) -> list[Array]:
        """All columns in schema order — zero-copy views for ColumnBatch wrapping."""
        return [self.natural_column(column) for column in range(self.natural_arity)]

    def _key_column(self, position: int) -> Array:
        """The store's whole column at ``position`` of the index column order."""
        return self.store.columns[self.column_order[position]]

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
        a merge wrote, which keep no table, are searched
        (:meth:`_search_runs`): the first match by a left search, the count
        as the distance to a right one.
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
                same &= self._key_column(position)[first_rows] == key_column[key_rows]
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
        index directly into the store's columns (already translated through the
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
        version used for deduplication is), which keeps no hash table: every
        sorted run is searched (:meth:`_search_runs`).  The runs are
        disjoint, so at most one run holds a tuple.
        """
        self._check_live()
        backend = self.backend
        if self.n_join != self.natural_arity:
            raise HisaStateError("contains_columns() requires an all-column index")
        self._check_table()
        if not columns or columns[0].shape[0] == 0:
            return backend.empty(0, dtype=backend.bool_)
        present = backend.zeros(int(columns[0].shape[0]), dtype=backend.bool_)
        for _, _, matches in self._search_runs([columns[column] for column in self.column_order], charge=charge):
            present |= matches
        return present

    def _search_runs(
        self, key_columns: Sequence[Array], *, charge: bool, counted: bool = False
    ) -> list[tuple[int, Array, Array]]:
        """Search join keys (index column order) in every run without a table.

        Returns ``(run, at, matches)`` per such run: ``matches`` says whether
        the run holds each key — how many of its tuples carry it when
        ``counted`` (a join key's tuples sit side by side in a run) — and
        ``at`` is where the first of them sits within the run, meaningful only
        where there is one.  The keys are packed once in the join-key store's
        format — the tuple-key store on an all-column index; a batch that
        does not fit narrow keys widens the store, as a merge's delta does —
        and binary-searched in each run's cached join keys, charged per run
        by :meth:`_charge_search`.
        """
        backend = self.backend
        bounds = self._bounds
        runs = [run for run in range(self.table.n_tables, len(bounds) - 1) if bounds[run + 1] > bounds[run]]
        if not runs:
            return []
        store = len(self._stores) - 1
        keys = backend.pack_lex_keys(key_columns)
        if is_wide_keys(keys) and not is_wide_keys(self._stores[store]):
            self._stores[store] = self._wide_store(store)
        elif is_wide_keys(self._stores[store]) and not is_wide_keys(keys):
            keys = backend.pack_lex_keys(key_columns, wide=True)
        found = []
        for run in runs:
            start, end = bounds[run], bounds[run + 1]
            run_keys = self._stores[store][start:end]
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
        """Charge :meth:`_search_runs` per run, as a GPU kernel would choose.

        A binary search per key finds its first match (the key run's length
        is the scan the join charges, as after a hash probe): O(m log |run|).
        A sorted batch — ``new - full``'s deduplicated one — may instead
        merge-path against a run, batch and run keys each streamed once:
        O(m + |run|).  Each run is charged whichever the device's cost model
        prices cheaper, so a small delta searched in a large run pays for the
        delta, not the run.  The charges fold into the caller's fused launch
        (outside one, they are one launch).
        """
        m = int(keys.shape[0])
        key_bytes = self.n_join * TUPLE_ITEMSIZE
        merge_path = self.backend.is_monotone(keys)
        seconds = self.device.cost_model.seconds
        kernels = self.device.kernels
        with self.device.fused(f"{self.label}.search_keys"):
            for size in run_sizes:
                cost = kernels.binary_search_cost(m, size, key_bytes, label=f"{self.label}.search_keys")
                if merge_path:
                    streamed = float(m + size)
                    merged = KernelCost(
                        kernel=f"{self.label}.merge_search", sequential_bytes=streamed * key_bytes, ops=streamed
                    )
                    cost = min(merged, cost, key=seconds)
                self.device.charge(cost)

    # ------------------------------------------------------------------
    # Merge (full <- full U delta), Section 4.2 / 5.1
    # ------------------------------------------------------------------
    def merge(self, delta: "HISA", *, charge: bool = True) -> "HISA":
        """Absorb ``delta``'s tuples into this HISA and return ``self``.

        ``delta`` must already be disjoint from ``self`` (the populate-delta
        phase guarantees it), so no deduplication is performed, and one sorted
        run, as the constructor builds it (:class:`HisaStateError` otherwise).
        ``delta`` is consumed: its device buffers are freed and it must not be
        used afterwards.  The store holds the delta's rows right after this
        index's — a relation appends each delta once for all of its indexes —
        or, holding none past them, gets them appended here.  The delta's
        sorted index is pushed as the newest sorted run, which then absorbs
        the older runs it is at least half as large as (module docstring):
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
        if len(delta._bounds) > 2:
            raise HisaStateError("a merge takes a delta of one sorted run, as its constructor builds")

        n, d = self.tuple_count, delta.tuple_count
        if d == 0:
            delta.free()
            return self
        if len(self.store) == n:
            self.store.append(delta.natural_columns(), charge=charge)
        elif len(self.store) != n + d:
            raise HisaStateError("the store holds rows this merge's delta does not account for")

        parts = [store[:d] for store in delta._stores]
        parts[0] = parts[0] + n
        for position in range(1, len(parts)):
            # A store keeps its key format until a delta's keys do not fit
            # it; the narrow side is then re-packed wide, once.
            if is_wide_keys(parts[position]) and not is_wide_keys(self._stores[position]):
                self._stores[position] = self._wide_store(position)
            elif is_wide_keys(self._stores[position]) and not is_wide_keys(parts[position]):
                parts[position] = delta._wide_store(position)[:d]
        first = first_absorbed(self.run_sizes, d)
        # Push, path merges, key-run scan, key hashing and table build stream
        # the touched runs once each: one fused epilogue, plus a search and a
        # scatter launch per path merge beyond the first's scatter.
        with self.device.fused(f"{self.label}.merge_finalize", launches=max(1, 2 * (len(self._bounds) - 1 - first))):
            self._seal(first, parts, charge=charge)
        delta.free()
        return self

    # -- index-tier helpers ------------------------------------------------
    def _seal(self, first: int, parts: list[Array], *, charge: bool) -> None:
        """Make ``parts`` plus the sorted runs from ``first`` on the newest sorted run.

        ``parts`` is a sorted run outside the stack, one array per store.  It
        is path-merged with the stack's runs newest to oldest down to
        ``first`` (none for a plain push), written where run ``first`` began,
        scanned for key runs once and given one hash table — unless it
        keeps none (:meth:`_keeps_table`) and lookups search it instead.
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
        run_starts, run_lengths = _runs_from_keys(backend, self._stores[-1][start:end])
        first_rows = self._stores[0][start:end][run_starts]
        if charge:
            # The key-run scan reads every cached join key of the run once.
            self.device.charge(
                KernelCost(
                    kernel=f"{self.label}.run_scan",
                    sequential_bytes=float(size) * self.n_join * TUPLE_ITEMSIZE,
                    ops=float(size),
                )
            )
        hashes = self._hash_keys(
            [self._key_column(position)[first_rows] for position in range(self.n_join)], charge=charge
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
            self.device.charge(
                self.device.kernels.binary_search_cost(
                    n_small, n_large, self.natural_arity * TUPLE_ITEMSIZE, label=f"{self.label}.merge_path"
                )
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
        """Whether a sorted run of ``size`` tuples that a merge writes gets a
        hash table: never on an all-column index, which only membership tests
        read; from :data:`TABLE_MIN_ROWS` on any other (whose non-empty
        constructor run always keeps one)."""
        return self.n_join < self.natural_arity and size >= TABLE_MIN_ROWS

    def _wide_store(self, position: int) -> Array:
        """Key store ``position`` (1: tuple keys, 2: join keys) re-packed wide
        from the store's columns, same capacity: a host re-pack the simulated
        device does not see, since it charges keys at their logical width."""
        end = self._bounds[-1]
        index = self._stores[0][:end]
        width = self.natural_arity if position == 1 else self.n_join
        keys = self.backend.pack_lex_keys([self._key_column(c)[index] for c in range(width)], wide=True)
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
        """Release the index and table tiers' device memory, and the store if
        it is this HISA's own."""
        if self._freed:
            return
        self._freed = True
        for buffer in self._buffers.values():
            self.device.free(buffer, charge_cost=False)
        self._buffers = {}
        if self._owns_store:
            self.store.free()

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
