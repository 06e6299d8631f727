"""Tests for the phase-aware profiler and the device facade."""

import functools
import operator

import numpy as np
import pytest

from repro.datalog.engine import GPULogEngine
from repro.device import (
    Device,
    KernelCost,
    PHASE_JOIN,
    PHASE_MERGE,
    Profiler,
)
from repro.device.profiler import PHASE_EXCHANGE_OVERLAP
from repro.queries import SG_SOURCE

from tests import helpers


def test_phase_attribution_and_nesting():
    profiler = Profiler()
    profiler.record(KernelCost(kernel="a"), 1.0)
    with profiler.phase(PHASE_JOIN):
        profiler.record(KernelCost(kernel="b"), 2.0)
        with profiler.phase(PHASE_MERGE):
            profiler.record(KernelCost(kernel="c"), 3.0)
        profiler.record(KernelCost(kernel="d"), 4.0)
    seconds = profiler.phase_seconds()
    assert seconds["other"] == 1.0
    assert seconds[PHASE_JOIN] == 6.0
    assert seconds[PHASE_MERGE] == 3.0
    assert profiler.total_seconds == 10.0


def test_phase_fractions_sum_to_one():
    profiler = Profiler()
    with profiler.phase(PHASE_JOIN):
        profiler.record(KernelCost(kernel="j"), 3.0)
    with profiler.phase(PHASE_MERGE):
        profiler.record(KernelCost(kernel="m"), 1.0)
    fractions = profiler.phase_fractions()
    assert fractions[PHASE_JOIN] == pytest.approx(0.75)
    assert sum(fractions.values()) == pytest.approx(1.0)


def test_iteration_tagging():
    profiler = Profiler()
    with profiler.iteration(1):
        profiler.record(KernelCost(kernel="a"), 1.0)
    with profiler.iteration(2):
        profiler.record(KernelCost(kernel="b"), 2.0)
    assert profiler.iteration_seconds() == {1: 1.0, 2: 2.0}


def test_kernel_seconds_and_reset():
    profiler = Profiler()
    profiler.record(KernelCost(kernel="a"), 1.5)
    profiler.record(KernelCost(kernel="a"), 0.5)
    assert profiler.kernel_seconds() == {"a": 2.0}
    profiler.reset()
    assert profiler.total_seconds == 0.0


def test_device_charge_records_fixed_and_variable():
    device = Device("h100", oom_enabled=False)
    device.charge(KernelCost(kernel="k", sequential_bytes=1e9, launches=1))
    assert device.profiler.fixed_seconds > 0
    assert device.profiler.variable_seconds > 0
    assert device.elapsed_seconds == pytest.approx(
        device.profiler.fixed_seconds + device.profiler.variable_seconds
    )


def test_device_allocate_free_and_snapshot():
    device = Device("h100", memory_capacity_bytes=1 << 20)
    buffer = device.allocate(1024, label="x")
    snapshot = device.snapshot()
    assert snapshot.peak_memory_bytes >= 1024
    assert snapshot.allocation_count == 1
    device.free(buffer)
    assert device.pool.in_use_bytes == 0


def test_merge_from_combines_profilers():
    a, b = Profiler(), Profiler()
    a.record(KernelCost(kernel="x"), 1.0)
    b.record(KernelCost(kernel="y"), 2.0)
    a.merge_from(b)
    assert a.total_seconds == 3.0


def test_total_seconds_is_the_events_summed_in_recording_order():
    """The running total equals re-summing every event, bit for bit.

    A sharded run records ordinary kernels and negative overlap credits.  The
    left fold below is what ``sum(e.seconds for e in events)`` computes up to
    Python 3.11; 3.12's ``sum`` compensates rounding, so the fold is spelled
    out and ``sum`` is compared within a tolerance.
    """
    engine = GPULogEngine(device="h100", oom_enabled=False, num_shards=4, overlap=True)
    try:
        engine.add_fact_array("edge", np.asarray(helpers.random_dag_edges(), dtype=np.int64))
        engine.run(SG_SOURCE)
        events = [device.profiler.events for device in engine.devices]
        assert any(event.phase == PHASE_EXCHANGE_OVERLAP for shard in events for event in shard)
        for device, shard in zip(engine.devices, events):
            expected = functools.reduce(operator.add, (event.seconds for event in shard), 0.0)
            assert device.elapsed_seconds == expected
            assert device.elapsed_seconds == pytest.approx(sum(event.seconds for event in shard), rel=1e-12)
        merged = Profiler()
        for device in engine.devices:
            merged.merge_from(device.profiler)
        assert merged.total_seconds == functools.reduce(
            operator.add, (event.seconds for event in merged.events), 0.0
        )
    finally:
        engine.close()
