"""The workload trace the fixpoint driver records, which the baselines price.

``PINNED`` was recorded from the host evaluator the baselines used to run
beside GPUlog: a second semi-naïve loop over the same rule plans, on sorted
host arrays.  The driver's own trace must reproduce it field for field, on
every shard count and under the CI chaos fault plan (retried, OOM-chunked
and rolled-back attempts count once).  Each iteration is the
``IterationTrace`` fields in order: iteration, outer tuples/bytes, probes,
match tuples/bytes, new tuples/bytes, delta tuples/bytes, full tuples/bytes
before, full tuples/bytes after, largest join output bytes.
"""

import dataclasses

import numpy as np
import pytest

from repro import GPULogEngine
from repro.datasets import load_dataset
from repro.device import FaultPlan
from repro.engines import SouffleCPUEngine
from repro.queries import CSPA_SOURCE, REACH_SOURCE, SG_SOURCE

from tests.helpers import paper_edges, same_generation, transitive_closure

#: name -> (program, facts)
CASES = {
    "reach-paper": (REACH_SOURCE, lambda: {"edge": paper_edges()}),
    "sg-paper": (SG_SOURCE, lambda: {"edge": paper_edges()}),
    "reach-fe_body": (REACH_SOURCE, lambda: load_dataset("fe_body", profile="test").facts()),
    "sg-ego-Facebook": (SG_SOURCE, lambda: load_dataset("ego-Facebook", profile="test").facts()),
    "cspa-httpd": (CSPA_SOURCE, lambda: load_dataset("httpd", profile="test").facts()),
    # IDB ground facts are staged and loaded with the stratum's initialisation.
    "reach-idb-facts": (
        REACH_SOURCE,
        lambda: {"edge": np.array([[0, 1]], dtype=np.int64), "reach": np.array([[5, 6]], dtype=np.int64)},
    ),
}

#: name -> (relation counts, iterations)
PINNED = {
    "reach-paper": (
        {"edge": 10, "reach": 21},
        (
            (0, 10, 160, 0, 0, 0, 0, 0, 10, 160, 0, 0, 10, 160, 0),
            (1, 10, 160, 10, 10, 240, 10, 160, 8, 128, 10, 160, 18, 288, 240),
            (2, 8, 128, 8, 5, 120, 5, 80, 3, 48, 18, 288, 21, 336, 120),
            (3, 3, 48, 3, 0, 0, 0, 0, 0, 0, 21, 336, 21, 336, 0),
        ),
    ),
    "sg-paper": (
        {"edge": 10, "sg": 14},
        (
            (0, 10, 160, 10, 18, 432, 0, 0, 8, 128, 0, 0, 8, 128, 432),
            (1, 8, 128, 18, 26, 752, 12, 192, 6, 96, 8, 128, 14, 224, 512),
            (2, 6, 96, 8, 4, 112, 2, 32, 0, 0, 14, 224, 14, 224, 64),
        ),
    ),
    "reach-fe_body": (
        {"edge": 143, "reach": 1676},
        (
            (0, 143, 2288, 0, 0, 0, 0, 0, 143, 2288, 0, 0, 143, 2288, 0),
            (1, 143, 2288, 143, 317, 7608, 317, 5072, 195, 3120, 143, 2288, 338, 5408, 7608),
            (2, 195, 3120, 195, 419, 10056, 419, 6704, 197, 3152, 338, 5408, 535, 8560, 10056),
            (3, 197, 3152, 197, 408, 9792, 408, 6528, 173, 2768, 535, 8560, 708, 11328, 9792),
            (4, 173, 2768, 173, 371, 8904, 371, 5936, 153, 2448, 708, 11328, 861, 13776, 8904),
            (5, 153, 2448, 153, 333, 7992, 333, 5328, 140, 2240, 861, 13776, 1001, 16016, 7992),
            (6, 140, 2240, 140, 307, 7368, 307, 4912, 127, 2032, 1001, 16016, 1128, 18048, 7368),
            (7, 127, 2032, 127, 283, 6792, 283, 4528, 116, 1856, 1128, 18048, 1244, 19904, 6792),
            (8, 116, 1856, 116, 267, 6408, 267, 4272, 105, 1680, 1244, 19904, 1349, 21584, 6408),
            (9, 105, 1680, 105, 234, 5616, 234, 3744, 91, 1456, 1349, 21584, 1440, 23040, 5616),
            (10, 91, 1456, 91, 199, 4776, 199, 3184, 77, 1232, 1440, 23040, 1517, 24272, 4776),
            (11, 77, 1232, 77, 169, 4056, 169, 2704, 63, 1008, 1517, 24272, 1580, 25280, 4056),
            (12, 63, 1008, 63, 134, 3216, 134, 2144, 48, 768, 1580, 25280, 1628, 26048, 3216),
            (13, 48, 768, 48, 92, 2208, 92, 1472, 32, 512, 1628, 26048, 1660, 26560, 2208),
            (14, 32, 512, 32, 52, 1248, 52, 832, 16, 256, 1660, 26560, 1676, 26816, 1248),
            (15, 16, 256, 16, 12, 288, 12, 192, 0, 0, 1676, 26816, 1676, 26816, 288),
        ),
    ),
    "sg-ego-Facebook": (
        {"edge": 221, "sg": 5402},
        (
            (0, 221, 3536, 221, 1753, 42072, 0, 0, 1428, 22848, 0, 0, 1428, 22848, 42072),
            (1, 1428, 22848, 5300, 15220, 456064, 11216, 179456, 3396, 54336, 1428, 22848, 4824, 77184, 363136),
            (2, 3396, 54336, 10341, 20859, 611928, 13794, 220704, 578, 9248, 4824, 77184, 5402, 86432, 445248),
            (3, 578, 9248, 1520, 1932, 54288, 980, 15680, 0, 0, 5402, 86432, 5402, 86432, 31680),
        ),
    ),
    "cspa-httpd": (
        {"assign": 81, "dereference": 37, "memalias": 841, "valuealias": 5164, "valueflow": 3852},
        (
            (0, 243, 3888, 0, 0, 0, 0, 0, 161, 2576, 0, 0, 161, 2576, 0),
            (1, 966, 15456, 966, 1306, 31344, 1306, 20896, 318, 5088, 161, 2576, 479, 7664, 7944),
            (2, 688, 11008, 803, 1095, 27072, 980, 15680, 353, 5648, 479, 7664, 832, 13312, 5856),
            (3, 976, 15616, 1733, 6115, 173728, 5358, 85728, 802, 12832, 832, 13312, 1634, 26144, 62240),
            (4, 1468, 23488, 2311, 8598, 238960, 7755, 124080, 935, 14960, 1634, 26144, 2569, 41104, 50976),
            (5, 2204, 35264, 5321, 46715, 1378600, 43598, 697568, 1204, 19264, 2569, 41104, 3773, 60368, 410048),
            (6, 3454, 55264, 8459, 114711, 3371528, 109706, 1755296, 1447, 23152, 3773, 60368, 5220, 83520, 1073952),
            (7, 3862, 61792, 11283, 209001, 6260856, 201580, 3225280, 1903, 30448, 5220, 83520, 7123, 113968, 2115648),
            (8, 4306, 68896, 18450, 451962, 13860720, 437818, 7005088, 1268, 20288, 7123, 113968, 8391, 134256, 4058880),
            (9, 5674, 90784, 35405, 1378967, 42639928, 1349236, 21587776, 1136, 18176, 8391, 134256, 9527, 152432,
             14060960),
            (10, 6030, 96480, 30487, 1581162, 48670736, 1556705, 24907280, 330, 5280, 9527, 152432, 9857, 157712,
             20161248),
            (11, 330, 5280, 462, 168, 4320, 36, 576, 0, 0, 9857, 157712, 9857, 157712, 3168),
        ),
    ),
    "reach-idb-facts": (
        {"edge": 1, "reach": 2},
        (
            (0, 1, 16, 0, 0, 0, 0, 0, 2, 32, 0, 0, 2, 32, 0),
            (1, 2, 32, 2, 0, 0, 0, 0, 0, 0, 2, 32, 2, 32, 0),
        ),
    ),
}

SHARD_COUNTS = (1, 2, 4)


def run(name, *, num_shards=1, fault_plan="none", checkpoint_every=1):
    """GPUlog's result for a case; under a fault plan with checkpoints, so an
    exchange fault rolls back instead of interrupting."""
    source, facts = CASES[name]
    plan = FaultPlan.parse(fault_plan)
    engine = GPULogEngine(
        device="h100", oom_enabled=False, num_shards=num_shards, planner="greedy",
        fault_plan=plan if plan is not None else "none",
        checkpoint_every=checkpoint_every if plan is not None else 0,
    )
    try:
        for relation, rows in facts().items():
            engine.add_fact_array(relation, rows)
        return engine.run(source), plan
    finally:
        engine.close()


def as_literal(trace):
    return dict(sorted(trace.relation_counts.items())), tuple(
        dataclasses.astuple(item) for item in trace.iterations
    )


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("name", sorted(PINNED))
def test_trace_is_pinned(name, num_shards):
    result, _ = run(name, num_shards=num_shards)
    assert as_literal(result.trace) == PINNED[name]


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("name", sorted(PINNED))
def test_faulted_attempts_count_once(name, num_shards):
    result, _ = run(name, num_shards=num_shards, fault_plan="ci-default")
    assert as_literal(result.trace) == PINNED[name]
    if (name, num_shards) == ("cspa-httpd", 2):
        # Every rung of the ladder ran here: a retried version, an OOM-chunked
        # one, and a rollback past a rebuilt shard.
        assert result.transient_retries and result.oom_chunked_joins and result.shard_rebuilds


def test_iterations_a_rollback_replays_count_once():
    """A shard crash two iterations past the last checkpoint: the items of the
    iterations the rollback undid go with them."""
    result, _ = run("cspa-httpd", num_shards=2, fault_plan="exchange:*:at=60", checkpoint_every=4)
    assert result.checkpoint_restores == 1
    assert as_literal(result.trace) == PINNED["cspa-httpd"]


def test_trace_relations_match_reference(paper_edges):
    result, _ = run("reach-paper")
    trace = result.trace
    reach = transitive_closure(paper_edges)
    assert result.relation_set("reach") == reach
    assert trace.relation_counts["reach"] == len(reach)
    assert trace.edb_relations == {"edge"}
    assert trace.relation_arities == {"edge": 2, "reach": 2}


def test_trace_iteration_counters_are_consistent():
    trace = run("reach-fe_body")[0].trace
    assert trace.iterations[0].iteration == 0  # initialisation pass
    assert trace.iteration_count == sum(1 for t in trace.iterations if t.iteration > 0)
    # Full sizes never decrease and end at the final relation size.
    fulls = [t.full_tuples_after for t in trace.iterations if t.iteration > 0]
    assert all(a <= b for a, b in zip(fulls, fulls[1:]))
    assert fulls[-1] == trace.relation_counts["reach"]
    # Deltas sum to the final size (every tuple enters the delta exactly once).
    assert trace.total_delta_tuples == trace.relation_counts["reach"]
    # Matches are at least as many as the deduplicated new tuples, which are at
    # least as many as the delta tuples of the fixpoint iterations (the
    # initialisation pass seeds the delta without producing "new" tuples).
    fixpoint_deltas = sum(t.delta_tuples for t in trace.iterations if t.iteration > 0)
    assert trace.total_match_tuples >= trace.total_new_tuples >= fixpoint_deltas


def test_trace_bytes_fields(paper_edges):
    result, _ = run("sg-paper")
    trace = result.trace
    assert result.relation_set("sg") == same_generation(paper_edges)
    last = trace.iterations[-1]
    assert last.full_bytes_after == trace.final_full_bytes
    assert trace.edb_bytes == paper_edges.nbytes
    for item in trace.iterations:
        assert item.match_bytes >= item.largest_join_output_bytes


def test_idb_facts_are_staged():
    result, _ = run("reach-idb-facts")
    assert {(5, 6), (0, 1)} <= result.relation_set("reach")
    assert result.trace.iterations[0].delta_tuples == 2


def test_invalid_fact_shape_rejected():
    with pytest.raises(Exception):
        SouffleCPUEngine().run(REACH_SOURCE, {"edge": np.array([1, 2, 3])})
