"""Performance floors on the simulated clock, as plain assertions.

The cost model is deterministic, so a ratio of two simulated times is a fact
about the code, not about the machine: each lever the engine ships (generic
join, cost planner, checkpoints, EDB replication in the exchange, incremental
serving epochs, the run-stack index merge) must keep paying — or keep costing
no more — than the thresholds below.  Fault injection is pinned off; host wall-clock is
``bench/run.py``'s job (see ``docs/benchmarks.md``).
"""

import math

import numpy as np
import pytest

from repro import GPULogEngine
from repro.datalog.engine import SHARDS_ENV_VAR
from repro.datasets import load_dataset
from repro.device import Device
from repro.device.profiler import PHASE_MERGE
from repro.experiments.planner_bench import TRIANGLE_PROGRAM, hub_graph, wedge_count
from repro.experiments.serving_workload import dense_digraph_edges, sg_tree_edges, trickle_epochs
from repro.queries import CSPA_SOURCE, REACH_SOURCE, SG_SOURCE
from repro.relational import HISA, InMemoryCheckpointStore

#: Floor for the generic join over the greedy binary plan on the hub triangle.
MIN_WCOJ_SPEEDUP = 1.5
#: The binary plan's wedge intermediate must dwarf the output by this much,
#: or the triangle instance is not binary-hostile enough to mean anything.
MIN_INTERMEDIATE_BLOWUP = 10.0
#: Ceiling for the cost planner over the greedy order on the paper's workloads.
MAX_COST_REGRESSION = 1.05
#: Ceiling for ``checkpoint_every=50`` over the checkpoint-free fixpoint.
MAX_CHECKPOINT_OVERHEAD = 1.10
#: Ceiling for exchange bytes with small-EDB replication (and the head
#: pre-routing it enables) over ``replicate_max_bytes=0``.
MAX_REPLICATED_EXCHANGE_RATIO = 0.7
#: Floor for a full re-fixpoint over the median trickle insert epoch.
MIN_SERVING_SPEEDUP = 5.0
#: Ceiling for the index elements path merges rewrite over a whole fixpoint,
#: per output tuple.  The 300-chain: 200x with one dense sorted array (the
#: parent of PR 18), 6.95x with the run stack at ratio 2.  At ratio 1 nothing
#: is rewritten at all — the near-equal deltas never merge — and the run-count
#: bound beside it is what fails, with 300 runs.
MAX_REWRITES_PER_TUPLE = 12.0


def sg_d5():
    return {"edge": sg_tree_edges(5, 3)}


def run(source, facts, **options):
    # One device unless a floor says otherwise, whatever REPRO_SHARDS says.
    options.setdefault("num_shards", 1)
    engine = GPULogEngine(
        device="h100", oom_enabled=False, collect_relations=False, fault_plan="none", **options
    )
    try:
        for name, rows in facts.items():
            engine.add_fact_array(name, np.asarray(rows, dtype=np.int64))
        return engine.run(source)
    finally:
        engine.close()


def test_generic_join_beats_binary_plan_on_hub_triangle():
    edges = hub_graph(2500)
    greedy = run(TRIANGLE_PROGRAM, {"edge": edges}, planner="greedy")
    wcoj = run(TRIANGLE_PROGRAM, {"edge": edges}, planner="cost+wcoj")
    assert wcoj.count("triangle") == greedy.count("triangle") > 0
    assert wedge_count(edges) >= MIN_INTERMEDIATE_BLOWUP * greedy.count("triangle")
    assert greedy.elapsed_seconds >= MIN_WCOJ_SPEEDUP * wcoj.elapsed_seconds


@pytest.mark.parametrize(
    "source,make_facts,head",
    [
        (SG_SOURCE, sg_d5, "sg"),
        (REACH_SOURCE, lambda: load_dataset("Gnutella31", profile="test").facts(), "reach"),
        (CSPA_SOURCE, lambda: load_dataset("httpd", profile="test").facts(), "valueflow"),
    ],
    ids=["sg", "tc", "cspa"],
)
def test_cost_planner_never_loses_to_greedy(source, make_facts, head):
    facts = make_facts()
    greedy = run(source, facts, planner="greedy")
    cost = run(source, facts, planner="cost")
    assert cost.count(head) == greedy.count(head) > 0
    assert cost.elapsed_seconds <= MAX_COST_REGRESSION * greedy.elapsed_seconds


def test_checkpoint_premium_stays_small():
    plain = run(SG_SOURCE, sg_d5())
    insured = run(SG_SOURCE, sg_d5(), checkpoint_every=50, checkpoint_store=InMemoryCheckpointStore())
    assert insured.checkpoints_taken > 0
    assert insured.relation_counts == plain.relation_counts
    assert insured.elapsed_seconds <= MAX_CHECKPOINT_OVERHEAD * plain.elapsed_seconds


def test_replicated_exchange_saves_bytes_and_overlaps():
    single = run(SG_SOURCE, sg_d5(), num_shards=1)
    replicated = run(SG_SOURCE, sg_d5(), num_shards=4)
    unreplicated = run(SG_SOURCE, sg_d5(), num_shards=4, replicate_max_bytes=0)
    assert replicated.count("sg") == unreplicated.count("sg") == single.count("sg")
    assert replicated.replicated_joins > 0
    assert unreplicated.replicated_joins == 0
    assert 0 < replicated.exchange_bytes <= MAX_REPLICATED_EXCHANGE_RATIO * unreplicated.exchange_bytes
    assert replicated.exchange_overlap_efficiency > 0


@pytest.mark.parametrize(
    "source,make_edges,head,batch,epochs",
    [
        (SG_SOURCE, lambda: sg_tree_edges(6, 3), "sg", 8, 8),
        (REACH_SOURCE, lambda: dense_digraph_edges(400, 3200), "reach", 16, 6),
    ],
    ids=["sg-tree-d6", "tc-dense-n400"],
)
def test_insert_epoch_beats_refixpoint(monkeypatch, source, make_edges, head, batch, epochs):
    monkeypatch.setenv(SHARDS_ENV_VAR, "1")
    # trickle_epochs itself raises if the resident answer and the re-fixpoint
    # over the same final EDB disagree on |head|.
    info = trickle_epochs(source, make_edges(), head, batch=batch, epochs=epochs, retract_epochs=0)
    assert info["count"] > 0
    assert info["full"] >= MIN_SERVING_SPEEDUP * float(np.median(info["inserts"]))


def test_fixpoint_merges_stay_incremental():
    chain = np.array([[i, i + 1] for i in range(120)], dtype=np.int64)
    result = run(REACH_SOURCE, {"edge": chain})
    assert result.count("reach") == 120 * 121 // 2
    assert result.stats.rebuild_merges == 0
    assert result.stats.in_place_merges > 0


def test_chain_fixpoint_index_maintenance_is_amortised(monkeypatch):
    """300 deltas shrinking by one row each — neighbours are near-equal, the
    schedule that almost never merges under a ratio of 1: the run stack stays
    logarithmic, rewrites O(log) per tuple, and allocates only to grow."""
    n = 300
    reach = n * (n + 1) // 2
    run_counts, rewritten = [], []
    merge, charge = HISA.merge, Device.charge

    def counting_merge(self, *args, **kwargs):
        merged = merge(self, *args, **kwargs)
        run_counts.append(len(merged.run_sizes))
        return merged

    def counting_charge(self, cost, phase=None):
        if cost.kernel.endswith(".merge_scatter"):
            rewritten.append(cost.ops)
        return charge(self, cost, phase)

    monkeypatch.setattr(HISA, "merge", counting_merge)
    monkeypatch.setattr(Device, "charge", counting_charge)
    engine = GPULogEngine(device="h100", oom_enabled=False, collect_relations=False, fault_plan="none", num_shards=1)
    try:
        engine.add_fact_array("edge", np.array([[i, i + 1] for i in range(n)], dtype=np.int64))
        result = engine.run(REACH_SOURCE)
        merge_events = [event for event in engine.devices[0].profiler.events if event.phase == PHASE_MERGE]
    finally:
        engine.close()
    assert result.count("reach") == reach
    assert result.stats.in_place_merges > 0
    assert len(run_counts) == n - 1 and max(run_counts) <= math.ceil(math.log2(n)) + 1
    assert 0 < sum(rewritten) <= MAX_REWRITES_PER_TUPLE * reach
    # Nothing allocates per merge: the table slab doubles (7 growths here),
    # and the data buffer grows by the eager manager's policy — headroom for
    # eight deltas per ``device_malloc`` (37 of them) — as it did before.
    data_allocations = sum(e.cost.allocations for e in merge_events if e.cost.kernel == "device_malloc")
    index_allocations = sum(e.cost.allocations for e in merge_events) - data_allocations
    assert index_allocations <= math.log2(reach)
    assert data_allocations <= (n - 1) / 8 + 1
