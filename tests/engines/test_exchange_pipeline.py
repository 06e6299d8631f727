"""The pipelined sharded exchange layer: replication, laziness, overlap.

Covers the volume-minimizing exchange schedule end to end:

* small-EDB replication (and the head pre-routing it enables) never changes
  the fixpoint (hypothesis property);
* a misaligned probe broadcasts its outer rows, matching or not, and counts
  the broadcast join;
* receiver-side interconnect accounting mirrors the sender side, and the
  per-shard send/recv split exposes routing skew;
* overlap scheduling hides exchange time under the previous iteration's
  compute (non-zero efficiency, shorter simulated elapsed time) and ablates
  cleanly;
* a shard crash during an overlapped in-flight transfer recovers
  byte-identically through the checkpoint ladder;
* the planner's backward liveness analysis and the profiler's window credit
  arithmetic, unit-tested directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.analysis import analyze_program
from repro.datalog.ast import Program
from repro.datalog.engine import GPULogEngine
from repro.datalog.planner import head_shard_variable, plan_program
from repro.device.cost import KernelCost
from repro.device.profiler import (
    PHASE_EXCHANGE_OVERLAP,
    PHASE_JOIN,
    PHASE_SHARD_EXCHANGE,
    Profiler,
)
from repro.queries import REACH_SOURCE, SG_SOURCE


def run_engine(source, facts, num_shards, **kwargs):
    engine = GPULogEngine(device="h100", oom_enabled=False, num_shards=num_shards, **kwargs)
    for name, rows in facts.items():
        engine.add_fact_array(name, np.asarray(rows, dtype=np.int64))
    result = engine.run(source)
    engine.close()
    return result


# tgt is probed on column 1 by two rules and on column 0 by one, so its
# canonical shard column is 1 and the out3 probe must broadcast.
MISALIGNED_SOURCE = """
out1(x, y) :- src1(x, z), tgt(y, z).
out2(x, y) :- src2(x, z), tgt(y, z).
out3(x, y) :- src3(x, z), tgt(z, y).
"""


# ----------------------------------------------------------------------
# Hypothesis property: replication is answer-neutral
# ----------------------------------------------------------------------
edge_lists = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=40
)


@settings(max_examples=25, deadline=None)
@given(
    edges=edge_lists,
    num_shards=st.sampled_from([2, 3]),
    source=st.sampled_from([SG_SOURCE, MISALIGNED_SOURCE]),
)
def test_replication_is_answer_neutral(edges, num_shards, source):
    """Replicated EDB inners and pre-routed heads derive exactly the
    relations of the all-exchange schedule (``replicate_max_bytes=0``)."""
    rows = np.unique(np.asarray(edges, dtype=np.int64), axis=0)
    names = ("edge",) if source == SG_SOURCE else ("src1", "src2", "src3", "tgt")
    facts = {name: rows for name in names}
    replicated = run_engine(source, facts, num_shards)
    unreplicated = run_engine(source, facts, num_shards, replicate_max_bytes=0)
    assert replicated.replicated_joins > 0
    assert unreplicated.replicated_joins == 0
    assert replicated.relation_counts == unreplicated.relation_counts
    for name in replicated.relation_counts:
        assert replicated.relation_set(name) == unreplicated.relation_set(name)


# ----------------------------------------------------------------------
# Misaligned probes broadcast
# ----------------------------------------------------------------------
def _broadcast_facts(disjoint: bool) -> dict:
    # src3's probe keys either miss every tgt column-0 value (disjoint) or
    # hit them all.
    src3_keys = np.arange(100, 110) if disjoint else np.arange(0, 10)
    return {
        "src1": np.stack([np.arange(10), np.arange(10)], axis=1),
        "src2": np.stack([np.arange(10), np.arange(10)], axis=1),
        "src3": np.stack([np.arange(10), src3_keys], axis=1),
        "tgt": np.stack([np.arange(0, 10), np.arange(20, 30)], axis=1),
    }


def test_matching_broadcast_still_ships_and_counts():
    engine = GPULogEngine(
        device="h100", oom_enabled=False, num_shards=3, replicate_max_bytes=0
    )
    for name, rows in _broadcast_facts(disjoint=False).items():
        engine.add_fact_array(name, np.asarray(rows, dtype=np.int64))
    result = engine.run(MISALIGNED_SOURCE)
    assert result.count("out3") > 0
    assert result.broadcast_joins >= 1
    engine.close()


def test_unfiltered_broadcast_counts_even_when_unmatched():
    # A broadcast ships its outer rows whether or not they match anywhere,
    # so the counter (rows actually replicated) fires on a no-match workload.
    result = run_engine(
        MISALIGNED_SOURCE,
        _broadcast_facts(disjoint=True),
        3,
        replicate_max_bytes=0,
    )
    assert result.count("out3") == 0
    assert result.broadcast_joins >= 1


# ----------------------------------------------------------------------
# Satellite: receiver-side accounting and skew
# ----------------------------------------------------------------------
def test_recv_bytes_mirror_send_bytes(random_dag_edges):
    result = run_engine(SG_SOURCE, {"edge": random_dag_edges}, 4)
    assert result.exchange_bytes > 0
    assert result.exchange_recv_bytes == pytest.approx(result.exchange_bytes)
    assert len(result.exchange_send_bytes_per_shard) == 4
    assert len(result.exchange_recv_bytes_per_shard) == 4
    assert sum(result.exchange_send_bytes_per_shard) == pytest.approx(result.exchange_bytes)
    assert sum(result.exchange_recv_bytes_per_shard) == pytest.approx(result.exchange_recv_bytes)
    # max-over-mean of per-shard traffic: >= 1 whenever anything moved.
    assert result.exchange_skew >= 1.0


def test_single_shard_reports_no_recv_or_skew(paper_edges):
    result = run_engine(REACH_SOURCE, {"edge": paper_edges}, 1)
    assert result.exchange_recv_bytes == 0
    assert result.exchange_skew == 0.0
    assert result.exchange_overlap_efficiency == 0.0


# ----------------------------------------------------------------------
# Overlap scheduling
# ----------------------------------------------------------------------
def test_overlap_hides_exchange_time(random_dag_edges):
    overlapped = run_engine(SG_SOURCE, {"edge": random_dag_edges}, 4, overlap=True)
    synchronous = run_engine(SG_SOURCE, {"edge": random_dag_edges}, 4, overlap=False)
    assert overlapped.relation_set("sg") == synchronous.relation_set("sg")
    assert overlapped.exchange_overlap_hidden_seconds > 0
    assert 0 < overlapped.exchange_overlap_efficiency <= 1.0
    assert synchronous.exchange_overlap_hidden_seconds == 0
    assert synchronous.exchange_overlap_efficiency == 0.0
    # Hiding exchange under compute can only shorten the simulated run.
    assert overlapped.elapsed_seconds < synchronous.elapsed_seconds


def test_overlap_credit_arithmetic():
    """Window k's exchange hides under window k-1's compute, capped by both."""
    profiler = Profiler()
    compute = KernelCost(kernel="join")
    exchange = KernelCost(kernel="d2d")

    profiler.begin_overlap_schedule()
    with profiler.overlap_window():
        profiler.record(compute, 1.0, phase=PHASE_JOIN)
        profiler.record(exchange, 0.2, phase=PHASE_SHARD_EXCHANGE)
    # First window: nothing in flight yet (pipeline fill) — no credit.
    assert profiler.overlap_hidden_seconds == 0.0
    with profiler.overlap_window():
        profiler.record(compute, 0.1, phase=PHASE_JOIN)
        profiler.record(exchange, 0.5, phase=PHASE_SHARD_EXCHANGE)
    # min(exchange=0.5, previous compute=1.0) hidden.
    assert profiler.overlap_hidden_seconds == pytest.approx(0.5)
    with profiler.overlap_window():
        profiler.record(exchange, 0.5, phase=PHASE_SHARD_EXCHANGE)
    # Previous window only computed 0.1s: the exchange is mostly exposed.
    assert profiler.overlap_hidden_seconds == pytest.approx(0.6)
    assert profiler.overlap_window_exchange_seconds == pytest.approx(1.2)
    # Credits are negative-second events under the overlap phase, so the
    # elapsed total reflects the hidden time.
    credits = [e for e in profiler.events if e.phase == PHASE_EXCHANGE_OVERLAP]
    assert sum(e.seconds for e in credits) == pytest.approx(-0.6)
    # A restart (fault rollback) refills the pipeline: no stale carry-over.
    profiler.begin_overlap_schedule()
    with profiler.overlap_window():
        profiler.record(exchange, 0.4, phase=PHASE_SHARD_EXCHANGE)
    assert profiler.overlap_hidden_seconds == pytest.approx(0.6)


def test_crash_during_overlapped_exchange_recovers_byte_identically(random_dag_edges):
    facts = {"edge": random_dag_edges}
    clean = run_engine(SG_SOURCE, facts, 4, overlap=True)
    faulted = run_engine(
        SG_SOURCE,
        facts,
        4,
        overlap=True,
        checkpoint_every=1,
        fault_plan="exchange:*:at=3",
    )
    assert faulted.shard_rebuilds >= 1
    assert faulted.checkpoint_restores >= 1
    assert faulted.relation_set("sg") == clean.relation_set("sg")
    assert faulted.relation_counts == clean.relation_counts


def test_ablation_env_flags(monkeypatch, paper_edges):
    monkeypatch.setenv("REPRO_EXCHANGE_OVERLAP", "0")
    engine = GPULogEngine(device="h100", oom_enabled=False, num_shards=2)
    assert engine.overlap is False
    # Explicit arguments beat the environment.
    explicit = GPULogEngine(device="h100", oom_enabled=False, num_shards=2, overlap=True)
    assert explicit.overlap is True


# ----------------------------------------------------------------------
# Planner liveness (unit)
# ----------------------------------------------------------------------
def test_version_live_columns_drops_dead_intermediate_columns():
    program = Program.parse(
        """
        out(x, w) :- a(x, y), b(y, z), c(z, w).
        """
    )
    plan = plan_program(analyze_program(program))
    version = next(iter(plan.rule_plans.values())).versions[0]
    live_before, live_final = version.live_columns
    assert len(live_before) == len(version.joins)
    for index, step in enumerate(version.joins):
        # The probe key must always be live going into its own step.
        assert step.outer_key_positions[0] in live_before[index]
    # Exactly the head's variable positions are read from the final schema;
    # every other final-schema column is dead and need not cross a shard.
    assert live_final == {column.position for column in version.head if column.kind == "var"}
    assert len(live_final) < len(version.joins[-1].schema)
    # The initial scan of a(x, y) needs x (head) and y (probe key) — in a
    # two-column schema that is everything.
    assert live_before[0] == {0, 1}


def test_head_shard_variable_resolves_position():
    program = Program.parse("out(y, x) :- a(x, y), b(y, z).")
    plan = plan_program(analyze_program(program))
    version = next(iter(plan.rule_plans.values())).versions[0]
    final_schema = version.joins[-1].schema if version.joins else version.initial.schema
    name = head_shard_variable(version, 0)
    assert name in final_schema
    assert head_shard_variable(version, 99) is None
