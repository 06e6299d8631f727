"""One column store per relation: its indexes hold no copy of the tuples.

A relation's full version lives once, in its
:class:`~repro.relational.buffers.ColumnStore` (one ``{name}.data``
reservation per shard); each HISA index over it reserves only its index and
table tiers, and an iteration appends its delta to the store once.
"""

import re

import numpy as np

from repro import GPULogEngine
from repro.device import Device
from repro.experiments.planner_bench import TRIANGLE_PROGRAM, hub_graph
from repro.queries import CSPA_SOURCE
from repro.relational import Relation

#: ``edge.data``, ``edge[0,1].index``, ``edge.replica[1].table``, ...
_OWNER = re.compile(r"^(?P<owner>.*?)(\[[\d,]+\])?\.(?P<tier>data|index|table|delta|new|merge_buffer)$")


def _live_reservations(monkeypatch):
    """Spy on ``Device.allocate``: returns a function listing the spied
    buffers still live on a device as ``(owner, tier, nbytes)``."""
    made = []
    allocate = Device.allocate

    def spying(self, nbytes, label="", **options):
        buffer = allocate(self, nbytes, label, **options)
        made.append((self, buffer))
        return buffer

    monkeypatch.setattr(Device, "allocate", spying)

    def live(device):
        alive = {buffer.buffer_id for buffer in device.pool.live_buffers()}
        found = []
        for owner, buffer in made:
            match = _OWNER.match(buffer.label)
            if owner is device and buffer.buffer_id in alive and match:
                found.append((match["owner"], match["tier"], buffer.nbytes))
        return found

    return live


def test_a_three_index_relation_reserves_one_data_tier_per_shard(monkeypatch):
    live = _live_reservations(monkeypatch)
    engine = GPULogEngine(device="h100", oom_enabled=False, fault_plan="none", planner="cost+wcoj", num_shards=2)
    try:
        engine.add_fact_array("edge", hub_graph(60))
        engine.run(TRIANGLE_PROGRAM)
        for device, shard in zip(engine.devices, engine.relations["edge"].shards):
            assert len(shard.index_column_sets) == 3
            data = [nbytes for owner, tier, nbytes in live(device) if owner == "edge" and tier == "data"]
            assert len(data) == 1
            assert data == [shard._store.nbytes]
            assert shard._store.nbytes == shard.full_count * shard.arity * 8
            # Every index over the store reserves only its own tiers.
            tiers = {tier for owner, tier, _ in live(device) if owner == "edge"}
            assert tiers <= {"data", "index", "table"}
    finally:
        engine.close()


def test_memory_bytes_counts_the_store_once(device):
    relation = Relation(device, "r", 3)
    for columns in ((1,), (2, 0), (1, 2)):
        relation.require_index(columns)
    rng = np.random.default_rng(5)
    relation.initialize(rng.integers(0, 10, size=(80, 3), dtype=np.int64))
    relation.add_new(rng.integers(0, 10, size=(40, 3), dtype=np.int64))
    relation.end_iteration()
    relation.add_new(rng.integers(10, 20, size=(30, 3), dtype=np.int64))

    def tiers():
        return (
            relation._store.nbytes
            + sum(index.memory_breakdown().total_bytes for index in relation.full_indexes.values())
            + relation.delta_batch.nbytes
            + sum(buffer.nbytes for buffer in relation._new_buffers)
        )

    assert len(relation.full_indexes) == 4
    assert relation.memory_bytes() == tiers()
    # Four indexes, one copy of the rows: each index's own tiers exclude them.
    assert relation._store.nbytes >= relation.full_count * 3 * 8
    relation.end_iteration()
    assert relation.memory_bytes() == tiers()
    relation.free()
    assert device.pool.in_use_bytes == 0


def test_an_iteration_appends_once_per_relation():
    """``in_place_merges`` counts data-tier appends absorbed in place: at most
    one per relation per iteration, however many indexes the relation has."""
    rng = np.random.default_rng(42)
    engine = GPULogEngine(device="h100", oom_enabled=False, fault_plan="none", num_shards=1)
    try:
        engine.add_fact_array("assign", rng.integers(0, 24, size=(60, 2), dtype=np.int64))
        engine.add_fact_array("dereference", rng.integers(0, 24, size=(40, 2), dtype=np.int64))
        result = engine.run(CSPA_SOURCE)
        assert len(engine.relations["valueflow"].shards[0].index_column_sets) == 3
    finally:
        engine.close()
    history = [stats for name in ("valueflow", "valuealias", "memalias") for stats in result.iteration_history[name]]
    assert all(stats.in_place_merges <= 1 for stats in history)
    assert sum(stats.in_place_merges for stats in history) > 0
