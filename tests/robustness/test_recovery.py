"""Recovery equivalence: faulted runs must match fault-free results exactly.

Every scenario injects a deterministic fault (transient kernel failure,
shard crash mid-exchange, OOM inside dedup) into a paper query and asserts
the final relations are identical to the fault-free run — recovery must be
invisible in the output, visible only in the recovery counters and the
``fault_recovery`` phase of the cost model.
"""

import numpy as np
import pytest

from repro.datalog.engine import GPULogEngine
from repro.datalog.planner import PLANNERS
from repro.device import FAULT_PLAN_ENV_VAR, Device, FaultPlan
from repro.errors import (
    BufferError_,
    DeviceBufferError,
    DeviceOutOfMemoryError,
    FixpointInterrupted,
)
from repro.queries import CSPA_SOURCE, REACH_SOURCE, SG_SOURCE
from repro.relational import DiskCheckpointStore, InMemoryCheckpointStore

SHARD_COUNTS = [1, 2, 4]

QUERIES = {
    "tc": (REACH_SOURCE, "paper_edges", ["reach"]),
    "sg": (SG_SOURCE, "random_dag_edges", ["sg"]),
    "cspa": (CSPA_SOURCE, None, ["valueflow", "valuealias", "memalias"]),
}

# Each scenario: fault spec string, extra engine kwargs, the recovery
# counter the run must have bumped, and whether it needs multiple shards.
SCENARIOS = {
    "kernel-fault": dict(
        fault="kernel:*<-*:at=2",
        engine_kwargs={},
        counter="transient_retries",
        needs_shards=False,
        dedup_floor=None,
    ),
    "shard-crash": dict(
        fault="exchange:*:at=3",
        engine_kwargs={"checkpoint_every": 2},
        counter="shard_rebuilds",
        needs_shards=True,
        dedup_floor=None,
    ),
    "dedup-oom": dict(
        fault="alloc:*.dedup_scratch:at=1",
        engine_kwargs={},
        counter="oom_degraded_dedups",
        needs_shards=False,
        # The degradation floor assumes production-sized batches; lower it so
        # the test graphs exercise the recursive halving path.
        dedup_floor=2,
    ),
}


def query_facts(query, request):
    source, fixture, outputs = QUERIES[query]
    if fixture is not None:
        return source, {"edge": request.getfixturevalue(fixture)}, outputs
    rng = np.random.default_rng(42)
    facts = {
        "assign": rng.integers(0, 24, size=(60, 2), dtype=np.int64),
        "dereference": rng.integers(0, 24, size=(40, 2), dtype=np.int64),
    }
    return source, facts, outputs


def run_engine(source, facts, outputs, num_shards, *, fault_plan="none", **kwargs):
    # fault_plan defaults to the explicit "none" opt-out (not None) so
    # baseline runs stay fault-free even when the CI chaos job exports
    # REPRO_FAULT_PLAN=ci-default for the whole process.
    engine = GPULogEngine(
        device="h100", oom_enabled=False, num_shards=num_shards, fault_plan=fault_plan, **kwargs
    )
    for name, rows in facts.items():
        engine.add_fact_array(name, rows)
    result = engine.run(source)
    relations = {name: result.relation_set(name) for name in outputs}
    engine.close()
    assert all(device.pool.in_use_bytes == 0 for device in engine.devices)
    return result, relations


# ----------------------------------------------------------------------
# The equivalence matrix: query x shard count x fault scenario
# ----------------------------------------------------------------------
@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_faulted_run_matches_fault_free(request, monkeypatch, query, num_shards, scenario):
    config = SCENARIOS[scenario]
    if config["needs_shards"] and num_shards == 1:
        pytest.skip("scenario requires inter-shard exchanges")
    if config["dedup_floor"] is not None:
        monkeypatch.setattr(
            "repro.relational.relation.OOM_DEDUP_FLOOR_ROWS", config["dedup_floor"]
        )
    source, facts, outputs = query_facts(query, request)
    _, expected = run_engine(source, facts, outputs, num_shards)

    plan = FaultPlan.parse(config["fault"])
    result, relations = run_engine(
        source, facts, outputs, num_shards, fault_plan=plan, **config["engine_kwargs"]
    )
    # The fault actually fired...
    assert plan.fault_count >= 1, f"fault plan {config['fault']!r} never fired"
    assert getattr(result, config["counter"]) >= 1
    # ...and recovery was invisible in the output.
    for name in outputs:
        assert relations[name] == expected[name], f"relation {name!r} diverged after recovery"
        assert relations[name], f"relation {name!r} unexpectedly empty"


def test_shard_rebuild_leaves_the_iteration_history_of_a_fault_free_run(random_dag_edges):
    # A rebuilt shard restarts with an empty history of its own; the
    # relation's history (Table 1's Tail, the serving engine's ``changed``)
    # must still read as if nothing had happened.
    def history(fault_plan):
        result, _ = run_engine(
            REACH_SOURCE, {"edge": random_dag_edges}, ["reach"], 2,
            fault_plan=fault_plan, checkpoint_every=2,
        )
        steps = [(s.iteration, s.new_count, s.delta_count, s.full_count) for s in result.iteration_history["reach"]]
        return result, steps

    clean, expected = history("none")
    faulted, steps = history("exchange:*:at=9")
    assert faulted.shard_rebuilds == 1
    assert steps == expected and len(steps) == clean.total_iterations
    assert faulted.tail_iterations("reach") == clean.tail_iterations("reach")


@pytest.mark.parametrize("seed", [7, 2025])
@pytest.mark.parametrize("num_shards", [1, 2])
def test_seeded_fault_plans_preserve_results(request, seed, num_shards):
    source, facts, outputs = query_facts("tc", request)
    _, expected = run_engine(source, facts, outputs, num_shards)
    # Join-chain kernels only (every label contains "<-"): those launches sit
    # inside the version retry loop, so no checkpoint is needed to recover.
    plan = FaultPlan.seeded(seed, kinds=("kernel",), pattern="*<-*", faults=2, horizon=6)
    result, relations = run_engine(source, facts, outputs, num_shards, fault_plan=plan)
    assert plan.fault_count >= 1
    assert result.transient_retries >= 1
    assert relations["reach"] == expected["reach"]


def test_retries_are_charged_to_the_recovery_phase(request):
    source, facts, outputs = query_facts("tc", request)
    plan = FaultPlan.parse("kernel:*<-*:at=2")
    result, _ = run_engine(source, facts, outputs, 1, fault_plan=plan)
    # Simulated exponential backoff shows up as fault_recovery seconds.
    assert result.phase_seconds.get("fault_recovery", 0.0) > 0.0


def test_checkpoints_are_charged_and_counted(request):
    source, facts, outputs = query_facts("tc", request)
    result, _ = run_engine(source, facts, outputs, 2, checkpoint_every=2)
    assert result.checkpoints_taken >= 1
    assert result.phase_seconds.get("checkpoint", 0.0) > 0.0


# ----------------------------------------------------------------------
# Interrupt and resume
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_shards", [1, 2])
def test_exhausted_retries_interrupt_with_resumable_checkpoint(request, num_shards):
    source, facts, outputs = query_facts("tc", request)
    _, expected = run_engine(source, facts, outputs, num_shards)

    # A fault on every join launch defeats the retry budget; the engine must
    # surrender a checkpoint instead of looping forever.
    engine = GPULogEngine(
        device="h100",
        oom_enabled=False,
        num_shards=num_shards,
        fault_plan="kernel:*<-*:every=1:times=50",
        checkpoint_every=2,
        max_retries=2,
    )
    for name, rows in facts.items():
        engine.add_fact_array(name, rows)
    with pytest.raises(FixpointInterrupted) as excinfo:
        engine.run(source)
    checkpoint = excinfo.value.checkpoint
    engine.close()
    assert checkpoint is not None
    assert checkpoint.program_source
    assert checkpoint.num_shards == num_shards

    # A fresh, fault-free engine picks the fixpoint up from the checkpoint.
    clean = GPULogEngine(
        device="h100", oom_enabled=False, num_shards=num_shards, fault_plan="none"
    )
    result = clean.resume(checkpoint)
    relations = {name: result.relation_set(name) for name in outputs}
    clean.close()
    assert relations["reach"] == expected["reach"]


def test_resume_from_disk_checkpoint(request, tmp_path):
    source, facts, outputs = query_facts("tc", request)
    _, expected = run_engine(source, facts, outputs, 1)

    store = DiskCheckpointStore(str(tmp_path))
    engine = GPULogEngine(
        device="h100",
        oom_enabled=False,
        fault_plan="kernel:*<-*:every=1:times=50",
        checkpoint_every=2,
        checkpoint_store=store,
        max_retries=2,
    )
    for name, rows in facts.items():
        engine.add_fact_array(name, rows)
    with pytest.raises(FixpointInterrupted):
        engine.run(source)
    engine.close()

    # Resume in a separate engine from the on-disk snapshot alone (the
    # program travels inside the checkpoint).
    loaded = store.latest()
    assert loaded is not None
    clean = GPULogEngine(device="h100", oom_enabled=False, fault_plan="none")
    result = clean.resume(loaded)
    relations = {name: result.relation_set(name) for name in outputs}
    clean.close()
    assert relations["reach"] == expected["reach"]
    assert result.checkpoint_restores >= 1


def test_resume_rejects_mismatched_shard_count(request):
    from repro.errors import CheckpointError

    source, facts, outputs = query_facts("tc", request)
    store = InMemoryCheckpointStore()
    engine = GPULogEngine(
        device="h100",
        oom_enabled=False,
        num_shards=2,
        checkpoint_every=2,
        checkpoint_store=store,
        fault_plan="none",
    )
    for name, rows in facts.items():
        engine.add_fact_array(name, rows)
    engine.run(source)
    engine.close()
    checkpoint = store.latest()
    assert checkpoint is not None

    mismatched = GPULogEngine(device="h100", oom_enabled=False, num_shards=4, fault_plan="none")
    with pytest.raises(CheckpointError):
        mismatched.resume(checkpoint)


# ----------------------------------------------------------------------
# OOM degradation and status reporting
# ----------------------------------------------------------------------
def test_injected_join_oom_degrades_to_chunks(request):
    source, facts, outputs = query_facts("tc", request)
    for num_shards in (1, 2):  # one recovery ladder for every shard count
        _, expected = run_engine(source, facts, outputs, num_shards)
        plan = FaultPlan.parse("alloc:reach.new:at=2")
        result, relations = run_engine(source, facts, outputs, num_shards, fault_plan=plan)
        assert plan.fault_count >= 1
        assert result.oom_chunked_joins >= 1
        assert relations["reach"] == expected["reach"]


@pytest.mark.parametrize("num_shards,occurrence", [(1, 16), (2, 34)])
def test_adapter_reports_oom_status_under_injected_alloc_fault(
    request, monkeypatch, num_shards, occurrence
):
    # The alloc sweep that found the close() bug: an injected allocation
    # failure anywhere in the run must surface as an OOM status at the
    # adapter boundary, never as a crash out of the finally-close.
    from repro.engines import STATUS_OOM
    from repro.engines.gpulog import GPULogAdapter

    monkeypatch.setenv("REPRO_FAULT_PLAN", f"alloc:*:at={occurrence}")
    source, facts, _ = query_facts("tc", request)
    adapter = GPULogAdapter(device="h100", num_shards=num_shards)
    outcome = adapter.run(source, facts)
    assert outcome.status == STATUS_OOM


@pytest.mark.parametrize("num_shards,occurrence", [(1, 16), (2, 34)])
def test_close_after_oom_does_not_raise(request, num_shards, occurrence):
    source, facts, _ = query_facts("tc", request)
    engine = GPULogEngine(
        device="h100", num_shards=num_shards, fault_plan=f"alloc:*:at={occurrence}"
    )
    for name, rows in facts.items():
        engine.add_fact_array(name, rows)
    with pytest.raises(DeviceOutOfMemoryError):
        engine.run(source)
    # An OOM mid-resize can leave stale buffer holders; close() must still
    # release everything it can without raising.
    engine.close()
    engine.close()


def test_engine_shares_env_plan_and_honors_none_opt_out(monkeypatch):
    monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "kernel:*:at=999999")
    engine = GPULogEngine(device="h100", oom_enabled=False, num_shards=2)
    # One plan instance shared across shards: occurrence counters are
    # cluster-global, so schedules stay deterministic under sharding.
    assert engine.devices[0].fault_plan is not None
    assert engine.devices[1].fault_plan is engine.devices[0].fault_plan
    # An explicit "none" beats the environment on every shard device.
    opted_out = GPULogEngine(device="h100", oom_enabled=False, num_shards=2, fault_plan="none")
    assert all(device.fault_plan is None for device in opted_out.devices)


def test_buffer_error_rename_keeps_alias():
    assert BufferError_ is DeviceBufferError
    device = Device("a100")
    buffer = device.allocate(1024, label="victim")
    device.free(buffer)
    with pytest.raises(DeviceBufferError):
        device.free(buffer)


@pytest.mark.parametrize("planner", PLANNERS)
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_resume_stages_later_strata_idb_facts(num_shards, planner):
    """A ground fact of an IDB relation in a stratum the checkpoint has not
    reached is loaded when that stratum starts, as in an uninterrupted run,
    on any shard count and under either planner."""
    source = REACH_SOURCE + "\ntop(x, y) :- reach(x, y), reach(y, x).\ntop(100, 200).\n"
    edges = np.array([[1, 2], [2, 3], [3, 1], [3, 4]], dtype=np.int64)
    store = InMemoryCheckpointStore()
    engine = GPULogEngine(
        device="h100", oom_enabled=False, num_shards=num_shards, planner=planner,
        fault_plan="none", checkpoint_every=1, checkpoint_store=store,
    )
    engine.add_fact_array("edge", edges)
    expected = engine.run(source)
    expected_relations = {name: expected.relation_set(name) for name in ("reach", "top")}
    engine.close()
    assert (100, 200) in expected_relations["top"]

    stratum_zero = [checkpoint_id for checkpoint_id in store.list_ids() if "-s0-" in checkpoint_id]
    assert stratum_zero
    for checkpoint_id in stratum_zero:
        resumed = GPULogEngine(
            device="h100", oom_enabled=False, num_shards=num_shards, planner=planner,
            fault_plan="none",
        )
        result = resumed.resume(store.load(checkpoint_id))
        relations = {name: result.relation_set(name) for name in ("reach", "top")}
        resumed.close()
        assert relations == expected_relations, checkpoint_id


@pytest.mark.parametrize("num_shards", [1, 2])
def test_resume_plans_as_run_plans(num_shards):
    """``resume`` measures the snapshot's EDB rows and the IDB ground facts
    into the catalog, as ``run`` measures the staged facts, so a recursive
    cyclic version that ``run`` planned as a generic join resumes as one from
    every checkpoint, with the same answer."""
    from repro.experiments.planner_bench import hub_graph

    source = "t(x, y) :- edge(x, y).\nt(x, y) :- t(x, z), edge(z, y), edge(y, x).\n"
    store = InMemoryCheckpointStore()
    engine = GPULogEngine(
        device="h100", oom_enabled=False, num_shards=num_shards, planner="cost+wcoj",
        fault_plan="none", checkpoint_every=1, checkpoint_store=store,
    )
    engine.add_fact_array("edge", hub_graph(300))
    expected = engine.run(source)
    engine.close()

    def plans(result):
        return [(entry["delta_atom"], entry["planned_algorithm"]) for entry in result.plan_report]

    assert (0, "wcoj") in plans(expected)
    assert store.list_ids()
    for checkpoint_id in store.list_ids():
        resumed = GPULogEngine(
            device="h100", oom_enabled=False, num_shards=num_shards, planner="cost+wcoj", fault_plan="none",
        )
        result = resumed.resume(store.load(checkpoint_id))
        resumed.close()
        assert plans(result) == plans(expected), checkpoint_id
        assert result.relation_set("t") == expected.relation_set("t"), checkpoint_id
