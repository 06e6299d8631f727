"""The simulated clock, pinned to literals, for N in {1, 2, 4} shards.

The cost model is deterministic: a fault-free run of a fixed program over
fixed facts charges the same kernels on every machine.  Until PR 17 the
single-device evaluator was the reference the sharded one was compared with;
with one driver for every shard count there is no second implementation left
to compare against, so the numbers themselves are the reference.

The ``triangle`` rows were **recorded at the parent commit of PR 17** (two
drivers); the ``tc`` / ``sg`` / ``cspa`` rows were re-pinned by PR 18, which
replaced the dense index merge with the run stack (fewer launches per merge,
a table build per sorted run instead of a slot refresh per key; ``triangle``
runs no merge and did not move).  None may move under a refactor.  A PR that
*means* to move the simulated clock — a cost-model fix, a new kernel, a
different plan — re-pins the affected rows (``PYTHONPATH=src python -m
tests.ci.test_simulated_pins`` prints the current table) and says why in
``CHANGES.md``.

The ``cspa-httpd`` row (PR 19) is there for the opposite reason: the twelve
rows above are too small for distinct-before-expand (``hash_join``'s outer
made distinct on its live columns before a high-fan-out step) to fire on the
``h100`` preset — which is the point of its launch-latency condition, and why
they did not move — so nothing among them would notice the lever being
switched off.  This one is the benchmark's own CSPA instance, where it fires
seven times, and pins the pre-dedup row volume (Σ ``raw_count``) next to the
clock: a refactor that silently stops passing liveness to the join moves all
three.

The ``serving`` rows (PR 21) are the resident engine's: bootstrap, three
2-edge insert epochs, one DRed retract epoch and one read of SG.  They were
**recorded at the parent commit of PR 21**, where ``ServingEngine`` built its
own devices, relations and evaluator; it now boots through ``GPULogEngine``,
and the rows are what says the move left the clock where it was.

**PR 22 re-pinned ``elapsed_seconds`` and ``kernel_launches`` of every row,
downward, and nothing else** (iterations, counts, exchange bytes, raw rows
and the per-epoch serving numbers are the parent's).  It deleted the row-major
tuple route; what moved is every place that route still ran, all of them at
load time or on a serving seed, none inside a batch iteration:

* a load-time deduplication (EDB load, stratum initialization, replica
  build, retraction rebuild) was ``unique_rows`` — ``arity`` radix passes, a
  row gather, a mask and a compact, ``arity + 3`` launches — and is the fused
  columnar dedup the iterations always ran, 3 launches (``-2`` per binary
  relation per shard it is loaded on, ``-3`` for ``triangle``'s arity 3);
* stratum initialization materialised each rule version's head batch as rows
  (``materialize_init``: a launch per lazy column and one for the row write)
  before loading it; the batch now goes to the load as it is and its columns
  are gathered inside the dedup's fused launch (several versions feeding one
  relation pay one ``gather_init`` concatenation instead);
* an EDB replica shipped ``full_rows()`` and concatenated row blocks
  (``replicate.gather``); it ships packed columns like every other exchange
  (``+1`` ``replicate.pack`` per source shard, the concatenation unchanged
  at one launch per target);
* a serving seed (host rows through ``add_new``) was deduplicated and
  differenced on the row route — ``dedup_new`` ``arity + 3`` launches and an
  unfused hash / probe / compact — and takes the batch path: 3 and 1.

The comment on each row gives its launch delta.

**Deleting the semi-join filter bank re-pinned three rows — ``("cspa", 2)``,
``("cspa", 4)`` and ``SERVING_PINS[2]`` — and nothing else.**  The bank was
the exchange layer's per-shard key sets, built from an inner's join column,
refreshed and merged after every iteration, broadcast to the peers and
probed before a broadcast.  On ``tc``, ``sg`` and ``triangle`` it never fired
(their inners are replicated EDBs, probed locally), so those rows are
bit-identical.  Where it fired, its launches cost more than the rows it
dropped: the simulated clock falls 2.7 % / 3.4 % / 5.8 % with 369 / 871 / 153
fewer launches.  Exchange bytes *rise* on the two CSPA rows, by 1,608 B
(+0.06 %) and 3,272 B (+0.08 %): rows the filter used to drop now ship.
Iterations, relation counts and the serving epoch numbers are unchanged.

**Making the checkpoint chain the serving engine's one commit record moved the
two serving session rows, upward, and nothing else.**  Every commit now
downloads the rows it appended (every row at bootstrap and after the retract)
under the checkpoint phase, with or without a checkpoint store; before, that
D2H was charged only when a store persisted a checkpoint, and the rollback
baseline was an uncharged copy.  The ``recover`` rows are bit-identical.

**Giving each sorted run of an all-column index a membership filter re-pinned
the simulated seconds of every row.**  Every relation has that index, so every
row builds filters (8 random bytes per tuple, set by the threads of the table
build: no launch of its own; 2 bytes per slot more for that table's slab to
clear, copy and allocate) and checks them in its membership tests (8 random
bytes per tuple per run, in the probe's launch), and the membership tests walk
only the tables whose filter admits the tuple.  Each row's comment gives its
old value and the net move, from -45 us (the 2-shard serving session) and
-2.4 us (``cspa-httpd``) to +0.1 us (``triangle`` on 2 and 4 shards, whose
replica loads build filters that few membership tests use).  Launches are
unchanged except in the serving sessions (-7 and -12): DRed's membership test
runs outside a fused kernel, and it now probes every run's admitted tuples in
one launch, and checks their keys in one, instead of one of each per run.
Iterations, counts, exchange bytes, raw rows and the per-epoch serving numbers
are unchanged.

**Looking a merge's delta keys up only for a statistics catalog re-pinned the
seconds of the three ``cspa`` rows, ``HTTPD_PIN`` and the two serving
sessions, downward, and nothing else.**  A merge into an index on fewer than
all columns used to look its delta's distinct keys up in the runs already
there, to keep ``distinct_key_count`` / ``max_run_length`` exact; only the
``cost`` planners' catalog reads them, and these rows run ``greedy``.  That
lookup rode in the merge's fused launch, so only its key-hash, probe and
key-check bytes go: from -581.1 ns (``cspa-httpd``) to -9.3 ns (the 2-shard
session).  ``tc``, ``sg`` and ``triangle`` merge only into all-column indexes
(``triangle`` not at all) and are bit-identical; launches, iterations, counts,
exchange bytes and the ``recover`` rows are unchanged.

**Keeping no hash table for an all-column index's runs below
``TABLE_MIN_ROWS`` re-pinned the seconds and launches of every row,
downward, and nothing else.**  Every relation here is far below the threshold,
so no all-column index builds a table: a load no longer launches its key hash
and table build (-2 launches per all-column index loaded), no slab is
allocated for one (a 125 us allocation each), and a merge builds no table or
filter in its fused launch.  Membership tests search the runs' cached tuple
keys inside the caller's launch instead.  From -1,880 us (``cspa-httpd``) to
-259 us (``triangle`` on one shard); iterations, counts, exchange bytes, raw
rows and the per-epoch serving numbers are unchanged.

**Keeping no hash table for the small runs a merge writes on an index on
fewer columns too re-pinned the three ``cspa`` rows, ``HTTPD_PIN`` and the
two serving sessions, downward, and nothing else.**  A run a merge writes
keeps a table only from ``TABLE_MIN_ROWS`` tuples on every index, and a join
lookup searches the smaller runs' cached join keys in its own launch; a
prefix index's constructor run keeps its table, but only if it holds tuples.
What goes is the slab growths the tiny merged tables caused (a 120 us
allocation each: six on ``cspa``, two on ``cspa-httpd``, five per serving
session) and the 2-slot table of each empty prefix index (``memalias[0]`` and
``[1]``: a launch and a 125 us allocation each, so launches -2 per shard on
``cspa``).  The searches cost more bytes than the probes they replace
(+71.0 us on ``cspa-httpd``, inside launches the joins already had).  From
-968.5 us (``("cspa", 1)``) to -600.0 us (the serving sessions).  ``tc``
and ``sg`` merge only into all-column indexes and ``triangle`` merges
nothing, so they are bit-identical, as are the ``recover`` rows (a restore
loads each index whole), iterations, counts, exchange bytes and raw rows.

**Searching an all-column index instead of probing it, charging key runs only
where a table is pushed, and fusing tail iterations re-pinned the seconds and
launches of every row, downward, and nothing else.**  Each row's comment
gives the three moves in that order:

* every relation here is below ``TABLE_MIN_ROWS``, so no all-column index
  kept a table already; what moves is the search charge, which now takes per
  run the cheaper of a merge path and a binary search (sub-nanosecond, and
  zero on most rows);
* a constructor charged ``{label}.find_runs`` for every index it built,
  though only a table reads the key runs: the all-column index at every load
  and each non-prefix delta index (one launch each outside a fused scope,
  -10 to -106 us);
* an iteration whose raw *new* rows fit ``resident_threads`` runs gather,
  dedup, ``new - full`` and the delta index builds as one launch
  (``{name}.tail_fused``) where they took four or more: every iteration of
  these rows is one, so -40 to -785 us, 5 us a launch.  ``triangle`` runs no
  iteration and moves by the ``find_runs`` launches alone, as do the
  ``recover`` rows (a restore loads each index whole).

Iterations, counts, exchange bytes, raw rows and the per-epoch serving
numbers are unchanged.

**Deduplicating fan-out parts where they arrive in *new*, and restoring a
checkpoint's rows in their saved order, re-pinned ``HTTPD_PIN`` and the two
``recover`` rows, and nothing else.**  Only the benchmark's CSPA instance has
parts of more than ``resident_threads`` rows after an iteration that fanned
out ``DISTINCT_FANOUT`` x: its seconds fall 13.7 us and its launches rise by
15 (the comment on ``HTTPD_PIN`` itemises them), while its raw rows, counts,
iterations and distinct-before-expand joins stay.  A restore no longer
deduplicates a checkpoint's full rows (they are the distinct full version)
but lets each index sort its own index tier: -10.02 us and 2 launches a shard.
No other row restores, and no other row's parts reach the threshold.

**Mirrored rule versions re-pinned the three ``cspa`` rows and ``HTTPD_PIN``,
and nothing else.**  CSPA is the only program here with two rule versions
that mirror each other (``RuleVersion.mirror_of``): the driver skips the
mirrored one and appends its partner's kept parts with the columns swapped,
and the index only the mirrored versions probed (``memalias[1]``) is no
longer built or merged.  Seconds and launches fall (the comment on each row
itemises them), the sharded rows ship fewer exchange bytes (a swap ships the
partner's kept part, not a second raw head), and ``HTTPD_PIN``'s raw rows
fall by the mirrored versions' 3,458,610.  Counts, iterations and the
distinct-before-expand joins do not move; SG is proved symmetric but has no
pair, so its rows, the serving rows and every other row do not move.

**One column store per relation re-pinned the seconds and launches of every
row, downward, and nothing else.**  A relation's tuples live once, in its
column store, and each index over it keeps only its index and table tiers.
Each row's comment splits the move into its parts:

* every index build charged ``{label}.reorder_columns``, a copy of the rows
  with the join columns first; the store is in schema order and an index
  reorders a list of columns, so the copy is gone — one launch per full
  index built outside a fused scope (loads, replica builds, restores), and
  bytes only inside the fused delta builds;
* an iteration appended its delta to every index's data array
  (``merge_append``, or ``merge_copy`` into a larger buffer); the store
  appends it once, so a relation with k indexes saves k - 1 launches an
  iteration (CSPA's and the serving sessions' relations have two or three);
* each index grew its data array through its own merge buffer manager, a
  charged allocation per growth; the store grows once, so the rows with
  multi-index IDB relations lose those allocations (120 us each).  The data
  reservations themselves are uncharged and move only the peak device bytes.

On two and four shards the rows read the slowest device, and on the sharded
``cspa`` rows the exchange overlap credit shrinks with the compute it hides
behind.  Iterations, counts, exchange bytes, raw rows, the
distinct-before-expand joins and the per-epoch serving numbers are unchanged.

Each serving row carries a ``recover`` row: the same session with a WAL and
a checkpoint per epoch, crashed after the retract epoch, and what
``ServingEngine.recover`` then charges on fresh devices.  It was recorded
before recovery stopped loading every relation empty ahead of its restore,
and re-pinned lower by exactly that load (see the comment on
``SERVING_PINS``); nothing else moved.
"""

import numpy as np
import pytest

from repro import GPULogEngine
from repro.datasets import load_dataset
from repro.experiments.planner_bench import TRIANGLE_PROGRAM, hub_graph
from repro.queries import CSPA_SOURCE, REACH_SOURCE, SG_SOURCE
from repro.relational.checkpoint import InMemoryCheckpointStore
from repro.serving import InMemoryWal, ServingEngine
from tests.helpers import paper_edges, random_dag_edges

SHARD_COUNTS = (1, 2, 4)


def cspa_facts():
    rng = np.random.default_rng(42)
    return {
        "assign": rng.integers(0, 24, size=(60, 2), dtype=np.int64),
        "dereference": rng.integers(0, 24, size=(40, 2), dtype=np.int64),
    }


#: name -> (program, facts, planner)
WORKLOADS = {
    "tc": (REACH_SOURCE, lambda: {"edge": paper_edges()}, "greedy"),
    "sg": (SG_SOURCE, lambda: {"edge": random_dag_edges()}, "greedy"),
    "cspa": (CSPA_SOURCE, cspa_facts, "greedy"),
    "triangle": (TRIANGLE_PROGRAM, lambda: {"edge": hub_graph(600)}, "cost+wcoj"),
}

#: the benchmark's ``cspa-httpd`` instance (``repro.datasets``' bench profile)
HTTPD = (CSPA_SOURCE, lambda: load_dataset("httpd").facts(), "greedy")


def measure(workload: str, num_shards: int) -> dict:
    source, make_facts, planner = HTTPD if workload == "cspa-httpd" else WORKLOADS[workload]
    engine = GPULogEngine(
        device="h100", oom_enabled=False, fault_plan="none", planner=planner, num_shards=num_shards
    )
    try:
        for name, rows in make_facts().items():
            engine.add_fact_array(name, rows)
        result = engine.run(source)
        launches = sum(
            summary.launches
            for device in engine.devices
            for summary in device.profiler.phase_summaries().values()
        )
    finally:
        engine.close()
    return {
        "elapsed_seconds": result.elapsed_seconds,
        "kernel_launches": launches,
        "total_iterations": result.total_iterations,
        "relation_counts": dict(sorted(result.relation_counts.items())),
        "exchange_bytes": result.exchange_bytes,
        "raw_rows": sum(
            item.raw_count for history in result.iteration_history.values() for item in history
        ),
        "distinct_outer_fired": sum(
            entry["distinct_outer"]["fired"] for entry in result.plan_report
        ),
    }


#: recorded at the parent commit of PR 17, tc / sg / cspa re-pinned by PR 18, seconds and launches of
#: every row re-pinned (lower) by PR 22 (see the module docstring)
#: the two sharded cspa rows re-pinned (lower) again when the semi-join filter bank was deleted
#: the three cspa rows re-pinned (lower) for mirrored rule versions (see the module docstring)
PINS = {
    ("cspa", 1): {
        # PR 22: launches -8: 3 load dedups 5->3, materialize_init -3, gather_init +1
        # run filters: -71.3 ns, filter build + check bytes added, probe bytes saved (was 0.005113112573680754 s)
        # merge-time key lookups removed: -14.7 ns, merge_finalize's key hash, probe and verify bytes gone (was 0.00511304132332156 s)
        # small all-column runs keep no table: -1240.7 us, launches -8: no table, filter or slab allocation for a small run, no key hash or
        # table launch for a small load (was 0.005113026657748327 s / 313)
        # small prefix runs keep no table: -968.5 us, launches -2: no slab growth (a 120 us allocation) for
        # a small merged run's table, no table build for memalias's two empty prefix indexes
        # (was 0.003872321401628928 s / 305)
        # all-column runs keep no table, searches priced per run: -5.3 ns (was 0.0029037927402028505 s)
        # find_runs only where a table is pushed: -50.0 us, launches -10
        # tail iterations fused: -395.0 us, launches -79 (was 0.0028537585082039647 s / 293)
        # mirrored versions: -111.9 us, launches -21: valuealias's two mirrored versions append their
        # partner's kept parts with the columns swapped instead of joining; -165.1 us, launches -9: the
        # memalias[1] index only a mirrored version probed is no longer built or merged
        # (was 0.0024587585082039643 s / 214)
        # one column store per relation: -450.1 us, launches -18: reorder_columns -35.0 us / -7 launches; one
        # merge_append/merge_copy a relation an iteration -55.0 us / -11 launches; 3 merge-buffer allocations
        # fewer -360.0 us (was 0.0021818146695987578 s / 184)
        "elapsed_seconds": 0.0017317198790591504, "kernel_launches": 166, "total_iterations": 5,
        "relation_counts": {"assign": 57, "dereference": 40, "memalias": 400, "valuealias": 529, "valueflow": 507},
        "exchange_bytes": 0.0,
    },
    ("cspa", 2): {
        # PR 22: launches -24: 6 load + 4 replica dedups 5->3, materialize_init -10, gather_init +2, replicate.pack +4
        # filter bank deleted: launches -369, semi-join filter build/refresh/merge launches gone (was 0.005704050720083613 s /
        # 1731 launches / 2,788,472 B: +1,608 B, the rows the filter dropped now ship)
        # run filters: -46.1 ns, filter build + check bytes added, probe bytes saved (was 0.00554903492119475 s)
        # merge-time key lookups removed: -11.5 ns, merge_finalize's key hash, probe and verify bytes gone (was 0.005548988850012201 s)
        # small all-column runs keep no table: -1240.4 us, launches -16: no table, filter or slab allocation for a small run, no key hash or
        # table launch for a small load (was 0.005548977353647868 s / 1362)
        # small prefix runs keep no table: -799.2 us, launches -4: as ("cspa", 1), per shard
        # (was 0.004308595498317922 s / 1346)
        # all-column runs keep no table, searches priced per run: -2.1 ns (was 0.003509421417769584 s)
        # find_runs only where a table is pushed: -30.0 us, launches -19
        # tail iterations fused: -215.0 us, launches -171 (was 0.003479406980226946 s / 1323)
        # mirrored versions: -195.8 us, launches -129, -30,480 B: the swaps route the kept (distinct when
        # deduplicated on arrival) parts, not a second version's raw head; memalias[1] index gone:
        # -145.0 us, launches -18 (was 0.0032644069802269457 s / 1152 / 2,790,080 B)
        # one column store per relation: -335.8 us, launches -38: reorder_columns -90.0 us / -18 launches; one
        # merge_append/merge_copy a relation an iteration -100.0 us / -20 launches; 6 merge-buffer allocations
        # fewer -720.0 us; exchange overlap credit +238.4 us (summed over shards; the row reads the slowest
        # device) (was 0.0029236091781565314 s / 1005)
        "elapsed_seconds": 0.0025877597357492786, "kernel_launches": 967, "total_iterations": 5,
        "relation_counts": {"assign": 57, "dereference": 40, "memalias": 400, "valuealias": 529, "valueflow": 507},
        "exchange_bytes": 2759600.0,
    },
    ("cspa", 4): {
        # PR 22: launches -48: 12 load + 8 replica dedups 5->3, materialize_init -20, gather_init +4, replicate.pack +8
        # filter bank deleted: launches -871, semi-join filter build/refresh/merge launches gone (was 0.005755212578455713 s /
        # 3626 launches / 4,076,808 B: +3,272 B, the rows the filter dropped now ship)
        # run filters: -19.5 ns, filter build + check bytes added, probe bytes saved (was 0.005560204898833141 s)
        # merge-time key lookups removed: -10.2 ns, merge_finalize's key hash, probe and verify bytes gone (was 0.005560185377695974 s)
        # small all-column runs keep no table: -1240.3 us, launches -32: no table, filter or slab allocation for a small run, no key hash or
        # table launch for a small load (was 0.00556017520001296 s / 2755)
        # small prefix runs keep no table: -776.6 us, launches -8: as ("cspa", 1), per shard
        # (was 0.004319879042051115 s / 2723)
        # all-column runs keep no table, searches priced per run: -1.0 ns (was 0.003543262227114113 s)
        # find_runs only where a table is pushed: -30.0 us, launches -37
        # tail iterations fused: -215.0 us, launches -337 (was 0.003513252674364661 s / 2678)
        # mirrored versions: -225.6 us, launches -291, -37,120 B, as ("cspa", 2); memalias[1] index gone:
        # -145.0 us, launches -36 (was 0.003298252674364662 s / 2341 / 4,080,080 B)
        # one column store per relation: -316.6 us, launches -74: reorder_columns -180.0 us / -36 launches; one
        # merge_append/merge_copy a relation an iteration -190.0 us / -38 launches; 12 merge-buffer allocations
        # fewer -1440.0 us; exchange overlap credit +535.3 us (summed over shards; the row reads the slowest
        # device) (was 0.0029276388052013225 s / 2014)
        "elapsed_seconds": 0.0026110472615302827, "kernel_launches": 1940, "total_iterations": 5,
        "relation_counts": {"assign": 57, "dereference": 40, "memalias": 400, "valuealias": 529, "valueflow": 507},
        "exchange_bytes": 4042960.0,
    },
    ("sg", 1): {
        # PR 22: launches -7: 2 load dedups 5->3, materialize_init -3
        # run filters: +7.0 ns, filter build + check bytes added, probe bytes saved (was 0.0008808256835138212 s)
        # small all-column runs keep no table: -380.1 us, launches -4: no table, filter or slab allocation for a small run, no key hash or
        # table launch for a small load (was 0.0008808326925302773 s / 56)
        # all-column runs keep no table, searches priced per run: -0.9 ns (was 0.0005007111240561645 s)
        # find_runs only where a table is pushed: -10.0 us, launches -2
        # tail iterations fused: -70.0 us, launches -14 (was 0.0004907030317012811 s / 50)
        # one column store per relation: -15.0 us, launches -3: reorder_columns -15.0 us / -3 launches (was
        # 0.0004207030317012812 s / 36)
        "elapsed_seconds": 0.00040569480208015605, "kernel_launches": 33, "total_iterations": 3,
        "relation_counts": {"edge": 85, "sg": 502},
        "exchange_bytes": 0.0,
    },
    ("sg", 2): {
        # PR 22: launches -16: 4 load + 2 replica dedups 5->3, materialize_init -6, replicate.pack +2
        # run filters: +0.6 ns, filter build + check bytes added, probe bytes saved (was 0.0011255032967448177 s)
        # small all-column runs keep no table: -380.1 us, launches -8: no table, filter or slab allocation for a small run, no key hash or
        # table launch for a small load (was 0.0011255039270526193 s / 191)
        # all-column runs keep no table, searches priced per run: -0.2 ns (was 0.0007454335153485032 s)
        # find_runs only where a table is pushed: -10.0 us, launches -4
        # tail iterations fused: -60.1 us, launches -25 (was 0.0007354292004636887 s / 179)
        # one column store per relation: -20.0 us, launches -8: reorder_columns -40.0 us / -8 launches (summed
        # over shards; the row reads the slowest device) (was 0.0006753786626713318 s / 154)
        "elapsed_seconds": 0.0006553733722006084, "kernel_launches": 146, "total_iterations": 3,
        "relation_counts": {"edge": 85, "sg": 502},
        "exchange_bytes": 6992.0,
    },
    ("sg", 4): {
        # PR 22: launches -32: 8 load + 4 replica dedups 5->3, materialize_init -12, replicate.pack +4
        # run filters: -0.4 ns, filter build + check bytes added, probe bytes saved (was 0.0011352726952537254 s)
        # small all-column runs keep no table: -380.0 us, launches -16: no table, filter or slab allocation for a small run, no key hash or
        # table launch for a small load (was 0.0011352722598745773 s / 371)
        # all-column runs keep no table, searches priced per run: +0.0 ns (was 0.0007552353930963807 s)
        # find_runs only where a table is pushed: -10.0 us, launches -8
        # tail iterations fused: -65.0 us, launches -46 (was 0.0007452333111981794 s / 347)
        # one column store per relation: -20.0 us, launches -16: reorder_columns -80.0 us / -16 launches (summed
        # over shards; the row reads the slowest device) (was 0.0006802031641956355 s / 301)
        "elapsed_seconds": 0.0006601998821443535, "kernel_launches": 285, "total_iterations": 3,
        "relation_counts": {"edge": 85, "sg": 502},
        "exchange_bytes": 13104.0,
    },
    ("tc", 1): {
        # PR 22: launches -5: 2 load dedups 5->3, materialize_init -1
        # run filters: -0.7 ns, filter build + check bytes added, probe bytes saved (was 0.000835029762081081 s)
        # small all-column runs keep no table: -380.0 us, launches -4: no table, filter or slab allocation for a small run, no key hash or
        # table launch for a small load (was 0.0008350290951213741 s / 47)
        # all-column runs keep no table, searches priced per run: +0.0 ns (was 0.00045502385843010503 s)
        # find_runs only where a table is pushed: -10.0 us, launches -2
        # tail iterations fused: -50.0 us, launches -10 (was 0.0004450234787898448 s / 41)
        # one column store per relation: -15.0 us, launches -3: reorder_columns -15.0 us / -3 launches (was
        # 0.00039502347878984473 s / 31)
        "elapsed_seconds": 0.0003800229766849844, "kernel_launches": 28, "total_iterations": 3,
        "relation_counts": {"edge": 10, "reach": 21},
        "exchange_bytes": 0.0,
    },
    ("tc", 2): {
        # PR 22: launches -12: 4 load + 2 replica dedups 5->3, materialize_init -2, replicate.pack +2
        # run filters: +0.2 ns, filter build + check bytes added, probe bytes saved (was 0.0010700175274951252 s)
        # small all-column runs keep no table: -380.0 us, launches -8: no table, filter or slab allocation for a small run, no key hash or
        # table launch for a small load (was 0.0010700177584458657 s / 139)
        # all-column runs keep no table, searches priced per run: +0.0 ns (was 0.000690015565227343 s)
        # find_runs only where a table is pushed: -10.0 us, launches -4
        # tail iterations fused: -50.0 us, launches -15 (was 0.0006800153692839828 s / 127)
        # one column store per relation: -20.0 us, launches -8: reorder_columns -40.0 us / -8 launches (summed
        # over shards; the row reads the slowest device) (was 0.0006300153692839828 s / 112)
        "elapsed_seconds": 0.0006100149773972627, "kernel_launches": 104, "total_iterations": 3,
        "relation_counts": {"edge": 10, "reach": 21},
        "exchange_bytes": 464.0,
    },
    ("tc", 4): {
        # PR 22: launches -24: 8 load + 4 replica dedups 5->3, materialize_init -4, replicate.pack +4
        # run filters: +0.2 ns, filter build + check bytes added, probe bytes saved (was 0.0010550141752068921 s)
        # small all-column runs keep no table: -380.0 us, launches -16: no table, filter or slab allocation for a small run, no key hash or
        # table launch for a small load (was 0.0010550143744043118 s / 262)
        # all-column runs keep no table, searches priced per run: +0.0 ns (was 0.0006750125559274653 s)
        # find_runs only where a table is pushed: -10.0 us, launches -8
        # tail iterations fused: -40.0 us, launches -20 (was 0.000665012408969945 s / 238)
        # one column store per relation: -20.0 us, launches -16: reorder_columns -80.0 us / -16 launches (summed
        # over shards; the row reads the slowest device) (was 0.0006250089534421193 s / 218)
        "elapsed_seconds": 0.0006050087085129192, "kernel_launches": 202, "total_iterations": 3,
        "relation_counts": {"edge": 10, "reach": 21},
        "exchange_bytes": 816.0,
    },
    ("triangle", 1): {
        # PR 22: launches -6: edge dedup 5->3, triangle dedup 6->3, materialize_init -1
        # run filters: +12.7 ns, filter build + check bytes added, probe bytes saved (was 0.0006418534958154282 s)
        # small all-column runs keep no table: -258.7 us, launches -4: no table, filter or slab allocation for a small run, no key hash or
        # table launch for a small load (was 0.0006418661893761959 s / 31)
        # all-column runs keep no table, searches priced per run: +0.0 ns (was 0.00038312858705117725 s)
        # find_runs only where a table is pushed: -10.1 us, launches -2
        # tail iterations fused: +0.0 us, launches +0 (was 0.00037303305853988756 s / 25)
        # one column store per relation: -20.2 us, launches -4: reorder_columns -20.2 us / -4 launches (was
        # 0.00037303305853988756 s / 25)
        "elapsed_seconds": 0.00035287884499224126, "kernel_launches": 21, "total_iterations": 0,
        "relation_counts": {"edge": 2396, "triangle": 3603},
        "exchange_bytes": 0.0,
    },
    ("triangle", 2): {
        # PR 22: launches -22: 4 load + 2 replica dedups, materialize_init (+compose) -10, replicate.pack +2
        # run filters: +119.7 ns, filter build + check bytes added, probe bytes saved (was 0.001009302272585789 s)
        # small all-column runs keep no table: -341.6 us, launches -12: no table, filter or slab allocation for a small run, no key hash or
        # table launch for a small load (was 0.0010094219791955971 s / 100)
        # all-column runs keep no table, searches priced per run: +0.0 ns (was 0.0006678624177355138 s)
        # find_runs only where a table is pushed: -15.1 us, launches -6
        # tail iterations fused: +0.0 us, launches +0 (was 0.0006527704958066964 s / 82)
        # one column store per relation: -30.2 us, launches -12: reorder_columns -60.3 us / -12 launches (summed
        # over shards; the row reads the slowest device) (was 0.0006527704958066964 s / 82)
        "elapsed_seconds": 0.0006226126144442777, "kernel_launches": 70, "total_iterations": 0,
        "relation_counts": {"edge": 2396, "triangle": 3603},
        "exchange_bytes": 38336.0,
    },
    ("triangle", 4): {
        # PR 22: launches -44: 8 load + 4 replica dedups, materialize_init (+compose) -20, replicate.pack +4
        # run filters: +101.7 ns, filter build + check bytes added, probe bytes saved (was 0.0010006264053621997 s)
        # small all-column runs keep no table: -366.4 us, launches -24: no table, filter or slab allocation for a small run, no key hash or
        # table launch for a small load (was 0.0010007281503515387 s / 208)
        # all-column runs keep no table, searches priced per run: +0.0 ns (was 0.000634348274563542 s)
        # find_runs only where a table is pushed: -15.0 us, launches -12
        # tail iterations fused: +0.0 us, launches +0 (was 0.0006193023380920532 s / 172)
        # one column store per relation: -30.1 us, launches -24: reorder_columns -120.4 us / -24 launches
        # (summed over shards; the row reads the slowest device) (was 0.0006193023380920532 s / 172)
        "elapsed_seconds": 0.0005892160617812994, "kernel_launches": 148, "total_iterations": 0,
        "relation_counts": {"edge": 2396, "triangle": 3603},
        "exchange_bytes": 115008.0,
    },
}


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_simulated_clock_and_counters_are_pinned(workload, num_shards):
    measured = measure(workload, num_shards)
    pinned = PINS[workload, num_shards]
    assert measured["elapsed_seconds"] == pytest.approx(pinned["elapsed_seconds"], rel=1e-12)
    for key in ("kernel_launches", "total_iterations", "relation_counts", "exchange_bytes"):
        assert measured[key] == pinned[key], key


#: recorded by PR 19; at its parent commit (no liveness passed to the join)
#: the same run reads 0.01512180541008267 s, 749 launches, 33,141,684 raw rows.
#: PR 22: 0.011486737435778363 s / 805 launches before; -8 launches as ("cspa", 1)
#: run filters: -2364.7 ns, filter build + check bytes added, probe bytes saved (was 0.011446735676224484 s)
#: merge-time key lookups removed: -581.1 ns, merge_finalize's key hash, probe and verify bytes gone (was 0.011444370989994092 s)
#: small all-column runs keep no table: -1880.1 us, launches -8 (was 0.011443789904214201 s / 797)
#: small prefix runs keep no table: -659.9 us, launches -2: memalias's empty tables and two slab growths
#: gone (-730.9 us), the searches of valueflow's merged runs in the joins' launches (+71.0 us)
#: (was 0.009563648896619195 s / 789)
#: all-column runs keep no table, searches priced per run: +0.0 ns (was 0.008903790794552382 s)
#: find_runs only where a table is pushed: -106.0 us, launches -21
#: tail iterations fused: -785.0 us, launches -157 (was 0.008797785237721158 s / 766)
#: dedup on arrival: -13.7 us, launches +15 (was 0.008012785237721157 s / 609).  26 parts of more than
#: resident_threads rows (22 valuealias, 4 valueflow), arriving after an iteration that fanned out at
#: least DISTINCT_FANOUT x, are deduplicated as they arrive: +1,896.4 us / +78 launches for those
#: dedups, whose gathers ride in them (their new_gather launches: -530.0 us / -26); the end of each
#: iteration then gathers and deduplicates the distinct parts (-1,351.1 us / -24), builds and diffs
#: smaller deltas (-98.7 us / -19), and six iterations hold few enough rows to fuse their tail
#: (+69.7 us / +6).  Raw rows, counts, iterations and the distinct-before-expand joins do not move.
#: mirrored versions: -973.9 us, launches -78, raw rows -3,458,610 (was 0.007999080683459498 s / 624 /
#: 12,154,723): valuealias's delta-1 version of its first rule and delta-2 version of its second compute
#: their partners' output with the columns swapped, so they no longer join, and their swaps are
#: appended as their partners kept them (no gather, no arrival dedup; Σ raw_count counts joins only);
#: -406.8 us, launches -33: memalias[1], an index only the second of them probed, is no longer built or
#: merged.  Counts, iterations and the seven distinct-before-expand joins do not move.
#: one column store per relation: -1139.2 us, launches -35: reorder_columns -41.3 us / -8 launches; one
#: merge_append/merge_copy a relation an iteration -136.1 us / -27 launches; 8 merge-buffer allocations fewer
#: -961.7 us (was 0.006618342332652925 s / 513)
HTTPD_PIN = {
    "elapsed_seconds": 0.005479155719069497, "kernel_launches": 478,
    "raw_rows": 8696113, "distinct_outer_fired": 7, "total_iterations": 11,
    "relation_counts": {"assign": 365, "dereference": 109, "memalias": 2828, "valuealias": 29148, "valueflow": 23752},
}


def test_distinct_before_expand_is_pinned_on_the_httpd_instance():
    measured = measure("cspa-httpd", 1)
    assert measured["elapsed_seconds"] == pytest.approx(HTTPD_PIN["elapsed_seconds"], rel=1e-12)
    for key in ("kernel_launches", "raw_rows", "distinct_outer_fired", "total_iterations", "relation_counts"):
        assert measured[key] == HTTPD_PIN[key], key


def measure_serving(num_shards: int, **protection) -> dict:
    """Bootstrap, three insert epochs, a retract epoch and a read of SG;
    ``protection`` is a WAL and a checkpoint store, which change nothing here."""
    edges = random_dag_edges()
    resident, held = edges[:-6], edges[-6:]
    engine = ServingEngine(
        SG_SOURCE, {"edge": resident}, device="h100", fault_plan="none",
        num_shards=num_shards, background=False, **protection,
    )
    try:
        epochs = [engine.submit(inserts={"edge": held[i : i + 2]}).result() for i in (0, 2, 4)]
        epochs.append(engine.submit(retracts={"edge": held[:2]}).result())
        final = engine.query("sg").count
        launches = sum(
            summary.launches
            for device in engine.devices
            for summary in device.profiler.phase_summaries().values()
        )
        return {
            "simulated_seconds": engine.simulated_seconds,
            "kernel_launches": launches,
            "epoch_iterations": [epoch.iterations for epoch in epochs],
            "retracted": epochs[-1].retracted,
            "rederived": epochs[-1].rederived,
            "sg": final,
        }
    finally:
        engine.close()


#: recorded at the parent commit of PR 21; seconds and launches re-pinned (lower) by PR 22 (see the
#: module docstring): 0.005177487173421231 s / 363 and 0.007441700738530274 s / 1206 before
#: row 2 re-pinned (lower) again when the semi-join filter bank was deleted
#: both sessions re-pinned (higher) when the checkpoint chain became the one commit record: the commit
#: step's checkpoint-phase D2H of each relation's rows (a base at bootstrap and after the retract, the
#: rows an insert epoch appended otherwise) is now charged with or without a checkpoint store
#: ``recover``: the crash -> ``ServingEngine.recover`` of the same session (``measure_recovery``),
#: recorded at 0.0014253559023650975 s / 45 launches (1 shard) and 0.0014252115832310967 s / 90
#: (2 shards) and re-pinned lower when recovery stopped initializing every relation empty before
#: ``restore`` initializes it again: per shard, the empty load's 0-row ``h2d_facts`` launch and
#: one hash-table build per index (sg [0], [1], [0,1], edge [0], [0,1]: a launch and a 125 us
#: allocation each) and sg[1]'s 2-launch sort — 9 launches and 645 us
SERVING_PINS = {
    1: {  # launches -29: 4 load/rebuild dedups 5->3, 4 seed dedups 5->3, seed populate-delta -10, materialize_init -3
        # commit record: +40.37 us, +8 launches (d2h_checkpoint: base 2, inserts 2 + 1 + 1, retract base 2;
        # was 0.00503248184489901 s / 334)
        # run filters: -35099.6 ns, filter build + check bytes added, probe bytes saved;
        # -7 launches: DRed's membership tests launch one probe and one key check each, not one per run (edge[0,1]
        # probe -1, sg[0,1] probe -3, verify_key -3) (was 0.005072854929874135 s / 342)
        # merge-time key lookups removed: -12.8 ns, merge_finalize's key hash, probe and verify bytes gone (was 0.005037755314509204 s)
        # small all-column runs keep no table: -1200.2 us, launches -24 (was 0.0050377424727837666 s / 335)
        # small prefix runs keep no table: -600.0 us: five slab growths (a 120 us allocation each) of edge[0],
        # sg[0] and sg[1] for the epochs' tiny runs gone; launches unchanged (was 0.003837591267719449 s)
        # all-column runs keep no table, searches priced per run: -9.2 ns (was 0.0032375461033965873 s)
        # find_runs only where a table is pushed: -50.0 us, launches -10
        # tail iterations fused: -350.0 us, launches -70 (was 0.0031875173940320483 s / 301)
        # one column store per relation: -715.1 us, launches -23: reorder_columns -60.0 us / -12 launches; one
        # merge_append/merge_copy a relation an iteration -55.0 us / -11 launches; 5 merge-buffer allocations
        # fewer -600.1 us (was 0.0028375173940320473 s / 231)
        "simulated_seconds": 0.0021223952565685555, "kernel_launches": 208, "epoch_iterations": [2, 1, 1, 1],
        "retracted": {"edge": 2, "sg": 94}, "rederived": {"sg": 66}, "sg": 474,
        # recover, run filters: +10.9 ns, filter build bytes added (was 0.0007803557590815154 s)
        # recover, small all-column runs keep no table: -260.1 us, launches -4 (was 0.0007803666356700014 s / 36)
        # recover, find_runs only where a table is pushed: -10.0 us, launches -2 (was 0.0005203047645946094 s / 32)
        # recover, a restore loads the checkpoint's rows in their saved order: -10.02 us, launches -2 — edge
        # and sg each drop the init dedup (3 launches) and sort their two identity-order indexes themselves
        # (2 launches each instead of 1 to adopt the dedup's sort) (was 0.0005102979433163851 s / 30)
        # recover, one column store per relation: -25.0 us, launches -5: reorder_columns -25.0 us / -5 launches
        # (was 0.0005002740169044885 s / 28)
        "recover": {"simulated_seconds": 0.0004752545695259964, "kernel_launches": 23, "epoch": 4, "sg": 474},
    },
    2: {  # launches -56: as above per shard, 14 replica dedups 5->3, replicate.pack +14
        # filter bank deleted: launches -153, semi-join filter build/refresh/merge launches gone (was 0.007271701171912806 s /
        # 1150); the filters were rebuilt after every retract epoch's invalidation
        # commit record: +40.22 us (slowest device), +14 launches (base 4, inserts 3 + 1 + 2, retract base 4;
        # was 0.0068515589801933655 s / 997)
        # run filters: -45008.2 ns, filter build + check bytes added, probe bytes saved;
        # -12 launches: DRed's membership tests launch one probe and one key check each, not one per run (edge[0,1]
        # probe -1, sg[0,1] probe -7, verify_key -4) (was 0.006891774221525168 s / 1011)
        # merge-time key lookups removed: -9.3 ns, merge_finalize's key hash, probe and verify bytes gone (was 0.006846766015802136 s)
        # small all-column runs keep no table: -1200.1 us, launches -40 (was 0.006846756686623851 s / 999)
        # small prefix runs keep no table: -600.0 us (slowest device), as row 1; launches unchanged
        # (was 0.005646655270924328 s)
        # all-column runs keep no table, searches priced per run: -4.3 ns (was 0.005046635092922029 s)
        # find_runs only where a table is pushed: -50.0 us, launches -18
        # tail iterations fused: -335.0 us, launches -119 (was 0.004996619238667563 s / 941)
        # one column store per relation: -750.1 us, launches -55: reorder_columns -175.1 us / -35 launches; one
        # merge_append/merge_copy a relation an iteration -100.0 us / -20 launches; 10 merge-buffer allocations
        # fewer -1200.1 us (summed over shards; the row reads the slowest device) (was 0.004661619238667568 s /
        # 822)
        "simulated_seconds": 0.003911539263806451, "kernel_launches": 767, "epoch_iterations": [2, 1, 1, 1],
        "retracted": {"edge": 2, "sg": 94}, "rederived": {"sg": 66}, "sg": 474,
        # recover, run filters: +6.2 ns, filter build bytes added (was 0.0007802114399475149 s)
        # recover, small all-column runs keep no table: -260.0 us, launches -8 (was 0.0007802176373035918 s / 72)
        # recover, find_runs only where a table is pushed: -10.0 us, launches -4 (was 0.0005201797177847029 s / 64)
        # recover, a restore loads the checkpoint's rows in their saved order: -10.01 us (slowest device),
        # launches -4, as row 1 per shard (was 0.0005101757621781204 s / 60)
        # recover, one column store per relation: -25.0 us, launches -10: reorder_columns -50.0 us / -10
        # launches (summed over shards; the row reads the slowest device) (was 0.0005001617158165218 s / 56)
        "recover": {"simulated_seconds": 0.00047515036334809464, "kernel_launches": 46, "epoch": 4, "sg": 474},
    },
}


@pytest.mark.parametrize("num_shards", sorted(SERVING_PINS))
def test_serving_session_is_pinned(num_shards):
    measured = measure_serving(num_shards)
    pinned = SERVING_PINS[num_shards]
    assert measured["simulated_seconds"] == pytest.approx(pinned["simulated_seconds"], rel=1e-12)
    for key in ("kernel_launches", "epoch_iterations", "retracted", "rederived", "sg"):
        assert measured[key] == pinned[key], key


def measure_recovery(num_shards: int) -> dict:
    """The same session with a WAL and a checkpoint per epoch, crashed after its
    retract epoch: what ``ServingEngine.recover`` charges on fresh devices."""
    edges = random_dag_edges()
    resident, held = edges[:-6], edges[-6:]
    store, wal = InMemoryCheckpointStore(keep=2), InMemoryWal()
    engine = ServingEngine(
        SG_SOURCE, {"edge": resident}, device="h100", fault_plan="none",
        num_shards=num_shards, background=False, wal=wal, checkpoint_store=store,
    )
    try:
        for i in (0, 2, 4):
            engine.submit(inserts={"edge": held[i : i + 2]}).result()
        engine.submit(retracts={"edge": held[:2]}).result()
    finally:
        engine.crash()
    recovered = ServingEngine.recover(store, wal, background=False, fault_plan="none")
    try:
        launches = sum(
            summary.launches
            for device in recovered.devices
            for summary in device.profiler.phase_summaries().values()
        )
        return {
            "simulated_seconds": recovered.simulated_seconds,
            "kernel_launches": launches,
            "epoch": recovered.epoch,
            "sg": recovered.query("sg").count,
        }
    finally:
        recovered.close()


@pytest.mark.parametrize("num_shards", sorted(SERVING_PINS))
def test_serving_recovery_is_pinned(num_shards):
    measured = measure_recovery(num_shards)
    pinned = SERVING_PINS[num_shards]["recover"]
    assert measured["simulated_seconds"] == pytest.approx(pinned["simulated_seconds"], rel=1e-12)
    for key in ("kernel_launches", "epoch", "sg"):
        assert measured[key] == pinned[key], key


if __name__ == "__main__":  # prints the tables to paste into PINS / HTTPD_PIN / SERVING_PINS
    print("PINS = {")
    for name in sorted(WORKLOADS):
        for shards in SHARD_COUNTS:
            print(f"    ({name!r}, {shards}): {measure(name, shards)!r},")
    print("}")
    print(f"HTTPD_PIN = {measure('cspa-httpd', 1)!r}")
    print("SERVING_PINS = {")
    for shards in (1, 2):
        print(f"    {shards}: {dict(measure_serving(shards), recover=measure_recovery(shards))!r},")
    print("}")
