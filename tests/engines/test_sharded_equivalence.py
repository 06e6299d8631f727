"""Sharded multi-device evaluation vs the single-device engine.

``GPULogEngine(num_shards=N)`` hash-partitions every relation across N
simulated devices and exchanges foreign-keyed delta tuples each iteration;
the results must be identical to the single-device engine on all three paper
query shapes for every shard count, and the exchange volume must be charged
(non-zero interconnect bytes whenever N > 1 and routing happens).
"""

import numpy as np
import pytest

from repro.datalog.engine import GPULogEngine
from repro.datalog.sharded import DEFAULT_REPLICATE_MAX_BYTES
from repro.queries import CSPA_SOURCE, REACH_SOURCE, SG_SOURCE

SHARD_COUNTS = [1, 2, 3, 4]

#: the exchange-layer ablation matrix: EDB replication (with the head
#: pre-routing it enables) × overlap.  The ids keep the names of the earlier
#: semi-join-filter matrix so per-test history lines up: "filtered" is the
#: default schedule, "unfiltered" is ``replicate_max_bytes=0``.
ABLATIONS = [
    pytest.param(DEFAULT_REPLICATE_MAX_BYTES, True, id="filtered-overlapped"),
    pytest.param(DEFAULT_REPLICATE_MAX_BYTES, False, id="filtered-synchronous"),
    pytest.param(0, True, id="unfiltered-overlapped"),
    pytest.param(0, False, id="unfiltered-synchronous"),
]


def run_engine(source, facts, outputs, num_shards, **engine_kwargs):
    engine = GPULogEngine(
        device="h100", oom_enabled=False, num_shards=num_shards, **engine_kwargs
    )
    for name, rows in facts.items():
        engine.add_fact_array(name, rows)
    result = engine.run(source)
    relations = {name: result.relation_set(name) for name in outputs}
    engine.close()
    return result, relations


def cspa_facts():
    rng = np.random.default_rng(42)
    return {
        "assign": rng.integers(0, 24, size=(60, 2), dtype=np.int64),
        "dereference": rng.integers(0, 24, size=(40, 2), dtype=np.int64),
    }


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_tc_sharded_equals_single_device(paper_edges, num_shards):
    baseline, expected = run_engine(REACH_SOURCE, {"edge": paper_edges}, ["reach"], 1)
    result, relations = run_engine(REACH_SOURCE, {"edge": paper_edges}, ["reach"], num_shards)
    assert relations["reach"] == expected["reach"]
    assert relations["reach"]
    assert result.total_iterations == baseline.total_iterations


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_sg_sharded_equals_single_device(random_dag_edges, num_shards):
    _, expected = run_engine(SG_SOURCE, {"edge": random_dag_edges}, ["sg"], 1)
    _, relations = run_engine(SG_SOURCE, {"edge": random_dag_edges}, ["sg"], num_shards)
    assert relations["sg"] == expected["sg"]
    assert relations["sg"]


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_cspa_sharded_equals_single_device(num_shards):
    outputs = ["valueflow", "valuealias", "memalias"]
    _, expected = run_engine(CSPA_SOURCE, cspa_facts(), outputs, 1)
    _, relations = run_engine(CSPA_SOURCE, cspa_facts(), outputs, num_shards)
    for name in outputs:
        assert relations[name] == expected[name], f"relation {name!r} diverged"
        assert relations[name], f"relation {name!r} unexpectedly empty"


@pytest.mark.parametrize("replicate_max_bytes,overlap", ABLATIONS)
@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_tc_ablation_matrix_equals_single_device(paper_edges, num_shards, replicate_max_bytes, overlap):
    _, expected = run_engine(REACH_SOURCE, {"edge": paper_edges}, ["reach"], 1)
    _, relations = run_engine(
        REACH_SOURCE,
        {"edge": paper_edges},
        ["reach"],
        num_shards,
        replicate_max_bytes=replicate_max_bytes,
        overlap=overlap,
    )
    assert relations["reach"] == expected["reach"]
    assert relations["reach"]


@pytest.mark.parametrize("replicate_max_bytes,overlap", ABLATIONS)
@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_sg_ablation_matrix_equals_single_device(random_dag_edges, num_shards, replicate_max_bytes, overlap):
    _, expected = run_engine(SG_SOURCE, {"edge": random_dag_edges}, ["sg"], 1)
    _, relations = run_engine(
        SG_SOURCE,
        {"edge": random_dag_edges},
        ["sg"],
        num_shards,
        replicate_max_bytes=replicate_max_bytes,
        overlap=overlap,
    )
    assert relations["sg"] == expected["sg"]
    assert relations["sg"]


@pytest.mark.parametrize("replicate_max_bytes,overlap", ABLATIONS)
@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_cspa_ablation_matrix_equals_single_device(num_shards, replicate_max_bytes, overlap):
    outputs = ["valueflow", "valuealias", "memalias"]
    _, expected = run_engine(CSPA_SOURCE, cspa_facts(), outputs, 1)
    _, relations = run_engine(
        CSPA_SOURCE,
        cspa_facts(),
        outputs,
        num_shards,
        replicate_max_bytes=replicate_max_bytes,
        overlap=overlap,
    )
    for name in outputs:
        assert relations[name] == expected[name], f"relation {name!r} diverged"
        assert relations[name], f"relation {name!r} unexpectedly empty"


def test_sharded_run_reports_exchange_volume(paper_edges):
    result, _ = run_engine(REACH_SOURCE, {"edge": paper_edges}, ["reach"], 3)
    assert result.shard_count == 3
    assert len(result.shard_elapsed_seconds) == 3
    # Head tuples are routed to their owner shards, so a multi-shard TC run
    # must move tuples across the charged interconnect.
    assert result.exchange_bytes > 0
    assert result.exchange_tuples > 0
    assert "shard_exchange" in result.phase_seconds
    # Elapsed time is the slowest shard, not the cluster sum.
    assert result.elapsed_seconds == pytest.approx(max(result.shard_elapsed_seconds))


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_every_charge_of_a_fault_free_run_lands_in_a_named_phase(random_dag_edges, num_shards):
    # SG's first rule is non-recursive: stratum init materializes its output,
    # which is join output on every shard count — not unattributed "other".
    result, _ = run_engine(SG_SOURCE, {"edge": random_dag_edges}, ["sg"], num_shards)
    assert result.phase_seconds.get("other", 0.0) == 0.0
    assert result.phase_seconds["join"] > 0.0


def test_single_device_run_reports_no_exchange(paper_edges):
    result, _ = run_engine(REACH_SOURCE, {"edge": paper_edges}, ["reach"], 1)
    assert result.shard_count == 1
    assert result.exchange_bytes == 0
    assert result.exchange_tuples == 0
    assert "shard_exchange" not in result.phase_seconds


@pytest.mark.parametrize("num_shards", [1, 4])
def test_close_releases_every_shard_device_and_is_idempotent(paper_edges, num_shards):
    engine = GPULogEngine(device="h100", oom_enabled=False, num_shards=num_shards)
    engine.add_fact_array("edge", paper_edges)
    engine.run(REACH_SOURCE)
    assert len(engine.devices) == num_shards
    assert any(device.pool.in_use_bytes > 0 for device in engine.devices)
    engine.close()
    for device in engine.devices:
        assert device.pool.in_use_bytes == 0
    # Double close (and close after close) must be a no-op, not an error.
    engine.close()
    for device in engine.devices:
        assert device.pool.in_use_bytes == 0


def test_close_before_run_is_a_noop():
    engine = GPULogEngine(device="h100", oom_enabled=False, num_shards=2)
    engine.close()
    engine.close()


def test_num_shards_env_default(monkeypatch, paper_edges):
    monkeypatch.setenv("REPRO_SHARDS", "2")
    engine = GPULogEngine(device="h100", oom_enabled=False)
    assert engine.num_shards == 2
    # An explicit argument beats the environment.
    explicit = GPULogEngine(device="h100", oom_enabled=False, num_shards=1)
    assert explicit.num_shards == 1


def test_invalid_num_shards_rejected():
    from repro.errors import SchemaError

    with pytest.raises(SchemaError):
        GPULogEngine(device="h100", oom_enabled=False, num_shards=0)


def test_fused_nway_ablation_rejected_under_sharding():
    # The driver cannot run a fused n-way join across exchange
    # barriers; silently reporting materialized-pipeline numbers would
    # corrupt the Section 5.2 ablation, so construction must fail loudly.
    from repro.errors import SchemaError

    with pytest.raises(SchemaError):
        GPULogEngine(device="h100", oom_enabled=False, num_shards=2, materialize_nway=False)
    # Fine on a single device (the ablation baseline) and with the default.
    GPULogEngine(device="h100", oom_enabled=False, num_shards=1, materialize_nway=False)
    GPULogEngine(device="h100", oom_enabled=False, num_shards=2)
