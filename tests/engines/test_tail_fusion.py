"""A tail iteration's gather → dedup → ``new - full`` → delta build is one launch.

``Relation.end_iteration`` fuses the four stages into one ``{name}.tail_fused``
launch when the iteration's raw *new* rows fit ``resident_threads``.  The
launch lands in the deduplication phase, carries every stage's bytes and ops,
and the merge after it keeps its own launches.  A fault injected into any
stage aborts the whole launch with nothing recorded; the checkpoint rollback
replays the iteration and the answer is byte-identical, row order included.
"""

import dataclasses

import numpy as np
import pytest

from repro import GPULogEngine
from repro.device import FaultPlan, device_preset
from repro.device.faults import CI_DEFAULT_SPEC
from repro.device.profiler import (
    PHASE_DEDUPLICATION,
    PHASE_INDEX_DELTA,
    PHASE_MERGE,
    PHASE_POPULATE_DELTA,
)
from repro.queries import REACH_SOURCE

#: the phases the tail's stages charge when they run unfused
TAIL_PHASES = (PHASE_DEDUPLICATION, PHASE_POPULATE_DELTA, PHASE_INDEX_DELTA)


def chain():
    return np.array([[i, i + 1] for i in range(12)], dtype=np.int64)


def run_reach(device="h100", fault_plan="none", **options):
    engine = GPULogEngine(device=device, oom_enabled=False, fault_plan=fault_plan, num_shards=1, **options)
    try:
        engine.add_fact_array("edge", chain())
        result = engine.run(REACH_SOURCE)
        return result, list(engine.devices[0].profiler.events)
    finally:
        engine.close()


def tail_events(events, iteration):
    return [event for event in events if event.iteration == iteration and event.phase in TAIL_PHASES]


def test_a_tail_iteration_is_one_launch_carrying_every_stage():
    result, events = run_reach()
    # Unfused: a spec whose launch keeps no thread resident never fuses.
    unfused_result, unfused_events = run_reach(device=dataclasses.replace(device_preset("h100"), launch_threads=0))
    np.testing.assert_array_equal(result.rows("reach"), unfused_result.rows("reach"))
    history = result.iteration_history["reach"]
    tails = [step for step in history if step.raw_count]
    assert len(tails) >= 10 and all(step.raw_count <= device_preset("h100").resident_threads for step in tails)
    for step in tails:
        (fused,) = tail_events(events, step.iteration)
        assert fused.kernel == "reach.tail_fused" and fused.cost.launches == 1
        assert fused.phase == PHASE_DEDUPLICATION
        stages = tail_events(unfused_events, step.iteration)
        assert sum(event.cost.launches for event in stages) >= 3
        for field in ("sequential_bytes", "random_bytes", "ops", "alloc_bytes"):
            assert getattr(fused.cost, field) == pytest.approx(sum(getattr(e.cost, field) for e in stages), rel=1e-12)
        merges = [e for e in events if e.iteration == step.iteration and e.phase == PHASE_MERGE]
        if step.delta_count:
            assert "reach[0,1].merge_finalize" in {event.kernel for event in merges}
    assert result.elapsed_seconds < unfused_result.elapsed_seconds


@pytest.mark.parametrize(
    "stage",
    [
        "reach.gather_new",
        "reach.dedup_new.sort",
        "reach?0,1?.merge_search",
        "reach.populate_delta.compact",
        "reach.delta?0,1?.adopt_sorted",
    ],
)
def test_a_fault_in_any_stage_aborts_the_tail_and_the_rollback_replays_it(stage):
    clean, clean_events = run_reach(checkpoint_every=1)
    plan = FaultPlan.parse(f"{CI_DEFAULT_SPEC};kernel:{stage}:at=3")
    faulted, faulted_events = run_reach(fault_plan=plan, checkpoint_every=1)
    assert plan.fault_count >= 1 and faulted.checkpoint_restores >= 1
    # The aborted launch recorded nothing: only the replay's is there.
    fused = [[e for e in events if e.kernel == "reach.tail_fused"] for events in (clean_events, faulted_events)]
    assert len(fused[0]) == len(fused[1])
    # A restore reloads the checkpoint's full version in its saved order, so
    # the rows come back in the order the fault-free run derived them.
    rows, expected = (result.rows("reach") for result in (faulted, clean))
    assert rows.dtype == expected.dtype and rows.tobytes() == expected.tobytes()
