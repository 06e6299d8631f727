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
"""

import numpy as np
import pytest

from repro import GPULogEngine
from repro.datasets import load_dataset
from repro.experiments.planner_bench import TRIANGLE_PROGRAM, hub_graph
from repro.queries import CSPA_SOURCE, REACH_SOURCE, SG_SOURCE
from repro.serving import ServingEngine
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
PINS = {
    ("cspa", 1): {
        # PR 22: launches -8: 3 load dedups 5->3, materialize_init -3, gather_init +1
        "elapsed_seconds": 0.005113112573680754, "kernel_launches": 313, "total_iterations": 5,
        "relation_counts": {"assign": 57, "dereference": 40, "memalias": 400, "valuealias": 529, "valueflow": 507},
        "exchange_bytes": 0.0,
    },
    ("cspa", 2): {
        # PR 22: launches -24: 6 load + 4 replica dedups 5->3, materialize_init -10, gather_init +2, replicate.pack +4
        # filter bank deleted: launches -369, semi-join filter build/refresh/merge launches gone (was 0.005704050720083613 s /
        # 1731 launches / 2,788,472 B: +1,608 B, the rows the filter dropped now ship)
        "elapsed_seconds": 0.00554903492119475, "kernel_launches": 1362, "total_iterations": 5,
        "relation_counts": {"assign": 57, "dereference": 40, "memalias": 400, "valuealias": 529, "valueflow": 507},
        "exchange_bytes": 2790080.0,
    },
    ("cspa", 4): {
        # PR 22: launches -48: 12 load + 8 replica dedups 5->3, materialize_init -20, gather_init +4, replicate.pack +8
        # filter bank deleted: launches -871, semi-join filter build/refresh/merge launches gone (was 0.005755212578455713 s /
        # 3626 launches / 4,076,808 B: +3,272 B, the rows the filter dropped now ship)
        "elapsed_seconds": 0.005560204898833141, "kernel_launches": 2755, "total_iterations": 5,
        "relation_counts": {"assign": 57, "dereference": 40, "memalias": 400, "valuealias": 529, "valueflow": 507},
        "exchange_bytes": 4080080.0,
    },
    ("sg", 1): {
        # PR 22: launches -7: 2 load dedups 5->3, materialize_init -3
        "elapsed_seconds": 0.0008808256835138212, "kernel_launches": 56, "total_iterations": 3,
        "relation_counts": {"edge": 85, "sg": 502},
        "exchange_bytes": 0.0,
    },
    ("sg", 2): {
        # PR 22: launches -16: 4 load + 2 replica dedups 5->3, materialize_init -6, replicate.pack +2
        "elapsed_seconds": 0.0011255032967448177, "kernel_launches": 191, "total_iterations": 3,
        "relation_counts": {"edge": 85, "sg": 502},
        "exchange_bytes": 6992.0,
    },
    ("sg", 4): {
        # PR 22: launches -32: 8 load + 4 replica dedups 5->3, materialize_init -12, replicate.pack +4
        "elapsed_seconds": 0.0011352726952537254, "kernel_launches": 371, "total_iterations": 3,
        "relation_counts": {"edge": 85, "sg": 502},
        "exchange_bytes": 13104.0,
    },
    ("tc", 1): {
        # PR 22: launches -5: 2 load dedups 5->3, materialize_init -1
        "elapsed_seconds": 0.000835029762081081, "kernel_launches": 47, "total_iterations": 3,
        "relation_counts": {"edge": 10, "reach": 21},
        "exchange_bytes": 0.0,
    },
    ("tc", 2): {
        # PR 22: launches -12: 4 load + 2 replica dedups 5->3, materialize_init -2, replicate.pack +2
        "elapsed_seconds": 0.0010700175274951252, "kernel_launches": 139, "total_iterations": 3,
        "relation_counts": {"edge": 10, "reach": 21},
        "exchange_bytes": 464.0,
    },
    ("tc", 4): {
        # PR 22: launches -24: 8 load + 4 replica dedups 5->3, materialize_init -4, replicate.pack +4
        "elapsed_seconds": 0.0010550141752068921, "kernel_launches": 262, "total_iterations": 3,
        "relation_counts": {"edge": 10, "reach": 21},
        "exchange_bytes": 816.0,
    },
    ("triangle", 1): {
        # PR 22: launches -6: edge dedup 5->3, triangle dedup 6->3, materialize_init -1
        "elapsed_seconds": 0.0006418534958154282, "kernel_launches": 31, "total_iterations": 0,
        "relation_counts": {"edge": 2396, "triangle": 3603},
        "exchange_bytes": 0.0,
    },
    ("triangle", 2): {
        # PR 22: launches -22: 4 load + 2 replica dedups, materialize_init (+compose) -10, replicate.pack +2
        "elapsed_seconds": 0.001009302272585789, "kernel_launches": 100, "total_iterations": 0,
        "relation_counts": {"edge": 2396, "triangle": 3603},
        "exchange_bytes": 38336.0,
    },
    ("triangle", 4): {
        # PR 22: launches -44: 8 load + 4 replica dedups, materialize_init (+compose) -20, replicate.pack +4
        "elapsed_seconds": 0.0010006264053621997, "kernel_launches": 208, "total_iterations": 0,
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
HTTPD_PIN = {
    "elapsed_seconds": 0.011446735676224484, "kernel_launches": 797,
    "raw_rows": 12154723, "distinct_outer_fired": 7, "total_iterations": 11,
    "relation_counts": {"assign": 365, "dereference": 109, "memalias": 2828, "valuealias": 29148, "valueflow": 23752},
}


def test_distinct_before_expand_is_pinned_on_the_httpd_instance():
    measured = measure("cspa-httpd", 1)
    assert measured["elapsed_seconds"] == pytest.approx(HTTPD_PIN["elapsed_seconds"], rel=1e-12)
    for key in ("kernel_launches", "raw_rows", "distinct_outer_fired", "total_iterations", "relation_counts"):
        assert measured[key] == HTTPD_PIN[key], key


def measure_serving(num_shards: int) -> dict:
    edges = random_dag_edges()
    resident, held = edges[:-6], edges[-6:]
    engine = ServingEngine(
        SG_SOURCE, {"edge": resident}, device="h100", fault_plan="none",
        num_shards=num_shards, background=False,
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
SERVING_PINS = {
    1: {  # launches -29: 4 load/rebuild dedups 5->3, 4 seed dedups 5->3, seed populate-delta -10, materialize_init -3
        "simulated_seconds": 0.00503248184489901, "kernel_launches": 334, "epoch_iterations": [2, 1, 1, 1],
        "retracted": {"edge": 2, "sg": 94}, "rederived": {"sg": 66}, "sg": 474,
    },
    2: {  # launches -56: as above per shard, 14 replica dedups 5->3, replicate.pack +14
        # filter bank deleted: launches -153, semi-join filter build/refresh/merge launches gone (was 0.007271701171912806 s /
        # 1150); the filters were rebuilt after every retract epoch's invalidation
        "simulated_seconds": 0.0068515589801933655, "kernel_launches": 997, "epoch_iterations": [2, 1, 1, 1],
        "retracted": {"edge": 2, "sg": 94}, "rederived": {"sg": 66}, "sg": 474,
    },
}


@pytest.mark.parametrize("num_shards", sorted(SERVING_PINS))
def test_serving_session_is_pinned(num_shards):
    measured = measure_serving(num_shards)
    pinned = SERVING_PINS[num_shards]
    assert measured["simulated_seconds"] == pytest.approx(pinned["simulated_seconds"], rel=1e-12)
    for key in ("kernel_launches", "epoch_iterations", "retracted", "rederived", "sg"):
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
        print(f"    {shards}: {measure_serving(shards)!r},")
    print("}")
