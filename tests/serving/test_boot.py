"""A serving engine is a batch engine that stays resident.

``ServingEngine`` boots through ``GPULogEngine`` (PR 21): what it loads is
what ``GPULogEngine.run`` loads, a bootstrap that raises frees what it built,
and the keywords that went away with the second construction path are gone,
not swallowed.
"""

import dataclasses
import threading

import pytest

import repro.serving.engine as serving_module
from repro import GPULogEngine
from repro.errors import CheckpointError, DeviceOutOfMemoryError, SchemaError
from repro.queries import REACH_SOURCE
from repro.relational.checkpoint import InMemoryCheckpointStore
from repro.serving import InMemoryWal, ServingEngine
from repro.serving.recovery import recover_engine

SHARD_COUNTS = [1, 2]
CHAIN = [(i, i + 1) for i in range(6)]

#: ground facts written in the program text, integers and symbols
WITH_FACTS = 'edge(1, 2). edge(2, 3). edge("a", "b"). edge("b", 1).' + REACH_SOURCE
EXTRA = {"edge": [(3, 4), ("b", "c")]}


def batch_answer(source, facts, num_shards):
    engine = GPULogEngine(device="h100", fault_plan="none", num_shards=num_shards)
    try:
        for name, rows in facts.items():
            engine.add_facts(name, rows)
        result = engine.run(source)
        return {name: result.relation_set(name) for name in ("edge", "reach")}
    finally:
        engine.close()


def serving_answer(engine):
    return {name: set(engine.query(name, decode=True)) for name in ("edge", "reach")}


@pytest.mark.parametrize("facts", [{}, EXTRA], ids=["program-only", "with-facts-mapping"])
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_ground_facts_in_the_program_text_are_loaded(num_shards, facts):
    expected = batch_answer(WITH_FACTS, facts, num_shards)
    assert ("a", 3) in expected["reach"]
    store, wal = InMemoryCheckpointStore(), InMemoryWal()
    engine = ServingEngine(
        WITH_FACTS, facts, background=False, fault_plan="none", num_shards=num_shards,
        checkpoint_store=store, wal=wal,
    )
    try:
        assert serving_answer(engine) == expected
        rows = engine.query("edge").rows.tobytes()
        engine.crash()
        # The checkpoint already holds the program's facts: recovery restores
        # them and loads nothing, so the bytes (and the row count) are the same.
        engine = ServingEngine.recover(store, wal, background=False, fault_plan="none")
        assert engine.query("edge").rows.tobytes() == rows
        assert serving_answer(engine) == expected
        engine.submit(inserts={"edge": [(3, "a")]}).result()
        assert (1, "b") in set(engine.query("reach", decode=True))
    finally:
        engine.close()


@pytest.fixture
def built(monkeypatch):
    """The batch engines ``ServingEngine`` constructs, so a test can look at the
    devices of an engine whose constructor raised."""
    engines = []

    class Recorded(GPULogEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(serving_module, "GPULogEngine", Recorded)
    return engines


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize(
    "facts, fault_plan, error",
    [
        ({"edge": [(0, 1, 2)]}, "none", SchemaError),
        ({"edge": CHAIN}, "alloc:*.new:every=1", DeviceOutOfMemoryError),
    ],
    ids=["wrong-arity", "alloc-fault-in-bootstrap"],
)
def test_a_failed_bootstrap_leaves_nothing_behind(built, num_shards, facts, fault_plan, error):
    threads = set(threading.enumerate())
    with pytest.raises(error):
        ServingEngine(REACH_SOURCE, facts, num_shards=num_shards, fault_plan=fault_plan)
    (core,) = built
    assert len(core.devices) == num_shards
    assert [device.pool.in_use_bytes for device in core.devices] == [0] * num_shards
    assert core.relations == {}
    assert set(threading.enumerate()) == threads
    # The schema error precedes every allocation; the injected fault hits the
    # fixpoint's first `new` buffer, after the loaded relations held memory.
    assert (core.device.peak_memory_bytes > 0) == (error is DeviceOutOfMemoryError)


@pytest.mark.parametrize(
    "keyword",
    [
        "transactional", "epoch_retries", "name", "memory_capacity_bytes", "load_factor", "eager_buffers",
        "buffer_growth_factor", "max_iterations", "semijoin_filter", "overlap", "replicate_max_bytes",
        "checkpoint_every_epochs",
    ],
)
def test_removed_serving_keywords_are_type_errors(keyword):
    with pytest.raises(TypeError, match=keyword):
        ServingEngine(REACH_SOURCE, {"edge": CHAIN}, fault_plan="none", **{keyword: 1})


@pytest.mark.parametrize("keyword", ["buffer_growth_factor", "retry_backoff_seconds", "max_iterations", "semijoin_filter"])
def test_removed_batch_keywords_are_type_errors(keyword):
    with pytest.raises(TypeError, match=keyword):
        GPULogEngine(device="h100", **{keyword: 1})


def test_recovery_takes_shards_and_planner_from_the_checkpoint():
    store = InMemoryCheckpointStore()
    engine = ServingEngine(
        REACH_SOURCE, {"edge": CHAIN}, background=False, fault_plan="none", num_shards=2,
        planner="cost+wcoj", checkpoint_store=store,
    )
    engine.crash()
    for override in ({"num_shards": 1}, {"planner": "greedy"}):
        with pytest.raises(CheckpointError, match="cannot be overridden"):
            recover_engine(store, None, **override)
    with pytest.raises(TypeError, match="transactional"):
        recover_engine(store, None, transactional=False)
    recovered = recover_engine(store, None, background=False, fault_plan="none")
    try:
        assert (recovered.num_shards, recovered.planner) == (2, "cost+wcoj")
        assert recovered.epoch_retries == ServingEngine.epoch_retries == 2
        assert recovered.query("reach").count == 21
    finally:
        recovered.close()


def test_recovery_rejects_a_checkpoint_of_a_retired_planner():
    """``cost`` is no longer a planner mode: a checkpoint whose metadata
    names it recovers into the engine's unknown-planner error."""
    store = InMemoryCheckpointStore()
    engine = ServingEngine(
        REACH_SOURCE, {"edge": CHAIN}, background=False, fault_plan="none", num_shards=1,
        planner="cost+wcoj", checkpoint_store=store,
    )
    engine.crash()
    checkpoint = store.latest()
    serving = {**checkpoint.metadata["serving"], "planner": "cost"}
    retired = InMemoryCheckpointStore()
    retired.save(dataclasses.replace(checkpoint, metadata={**checkpoint.metadata, "serving": serving}))
    with pytest.raises(SchemaError, match=r"unknown planner 'cost'; expected one of greedy, cost\+wcoj$"):
        recover_engine(retired, None, background=False, fault_plan="none")
