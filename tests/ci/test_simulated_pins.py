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


#: recorded at the parent commit of PR 17, tc / sg / cspa re-pinned by PR 18 (see the module docstring)
PINS = {
    ("cspa", 1): {
        "elapsed_seconds": 0.005153110696910758, "kernel_launches": 321, "total_iterations": 5,
        "relation_counts": {"assign": 57, "dereference": 40, "memalias": 400, "valuealias": 529, "valueflow": 507},
        "exchange_bytes": 0.0,
    },
    ("cspa", 2): {
        "elapsed_seconds": 0.0057740494372669265, "kernel_launches": 1755, "total_iterations": 5,
        "relation_counts": {"assign": 57, "dereference": 40, "memalias": 400, "valuealias": 529, "valueflow": 507},
        "exchange_bytes": 2788472.0,
    },
    ("cspa", 4): {
        "elapsed_seconds": 0.005825211577307605, "kernel_launches": 3674, "total_iterations": 5,
        "relation_counts": {"assign": 57, "dereference": 40, "memalias": 400, "valuealias": 529, "valueflow": 507},
        "exchange_bytes": 4076808.0,
    },
    ("sg", 1): {
        "elapsed_seconds": 0.0009158285802389868, "kernel_launches": 63, "total_iterations": 3,
        "relation_counts": {"edge": 85, "sg": 502},
        "exchange_bytes": 0.0,
    },
    ("sg", 2): {
        "elapsed_seconds": 0.0011655043232605905, "kernel_launches": 207, "total_iterations": 3,
        "relation_counts": {"edge": 85, "sg": 502},
        "exchange_bytes": 6992.0,
    },
    ("sg", 4): {
        "elapsed_seconds": 0.001175272928373839, "kernel_launches": 403, "total_iterations": 3,
        "relation_counts": {"edge": 85, "sg": 502},
        "exchange_bytes": 13104.0,
    },
    ("tc", 1): {
        "elapsed_seconds": 0.0008600303219192528, "kernel_launches": 52, "total_iterations": 3,
        "relation_counts": {"edge": 10, "reach": 21},
        "exchange_bytes": 0.0,
    },
    ("tc", 2): {
        "elapsed_seconds": 0.0011000176219678165, "kernel_launches": 151, "total_iterations": 3,
        "relation_counts": {"edge": 10, "reach": 21},
        "exchange_bytes": 464.0,
    },
    ("tc", 4): {
        "elapsed_seconds": 0.0010850142819260435, "kernel_launches": 286, "total_iterations": 3,
        "relation_counts": {"edge": 10, "reach": 21},
        "exchange_bytes": 816.0,
    },
    ("triangle", 1): {
        "elapsed_seconds": 0.0006719242597977146, "kernel_launches": 37, "total_iterations": 0,
        "relation_counts": {"edge": 2396, "triangle": 3603},
        "exchange_bytes": 0.0,
    },
    ("triangle", 2): {
        "elapsed_seconds": 0.001064431622758005, "kernel_launches": 122, "total_iterations": 0,
        "relation_counts": {"edge": 2396, "triangle": 3603},
        "exchange_bytes": 38336.0,
    },
    ("triangle", 4): {
        "elapsed_seconds": 0.001055720101278224, "kernel_launches": 252, "total_iterations": 0,
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
#: the same run reads 0.01512180541008267 s, 749 launches, 33,141,684 raw rows
HTTPD_PIN = {
    "elapsed_seconds": 0.011486737435778363, "kernel_launches": 805,
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


#: recorded at the parent commit of PR 21 (see the module docstring)
SERVING_PINS = {
    1: {
        "simulated_seconds": 0.005177487173421231, "kernel_launches": 363, "epoch_iterations": [2, 1, 1, 1],
        "retracted": {"edge": 2, "sg": 94}, "rederived": {"sg": 66}, "sg": 474,
    },
    2: {
        "simulated_seconds": 0.007441700738530274, "kernel_launches": 1206, "epoch_iterations": [2, 1, 1, 1],
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
