"""The pipelined sharded exchange layer: filters, laziness, overlap.

Covers the volume-minimizing exchange schedule end to end:

* semi-join filtering never changes the fixpoint and never ships *more*
  rows than the unfiltered exchange (hypothesis property);
* a filtered broadcast that prunes every row ships nothing — no replicated
  rows counted, no empty transfer launched;
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
from repro.device import Device
from repro.device.cost import KernelCost
from repro.device.profiler import (
    PHASE_EXCHANGE_OVERLAP,
    PHASE_JOIN,
    PHASE_SHARD_EXCHANGE,
    Profiler,
)
from repro.queries import REACH_SOURCE, SG_SOURCE
from repro.relational.semijoin import ExchangeFilterBank


def run_engine(source, facts, num_shards, **kwargs):
    engine = GPULogEngine(device="h100", oom_enabled=False, num_shards=num_shards, **kwargs)
    for name, rows in facts.items():
        engine.add_fact_array(name, np.asarray(rows, dtype=np.int64))
    result = engine.run(source)
    engine.close()
    return result


# ----------------------------------------------------------------------
# Hypothesis property: filtering only ever removes exchanged rows
# ----------------------------------------------------------------------
edge_lists = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=40
)


@settings(max_examples=25, deadline=None)
@given(edges=edge_lists, num_shards=st.sampled_from([2, 3]))
def test_filtered_exchange_ships_no_more_rows_than_unfiltered(edges, num_shards):
    """Same fixpoint, and filtered exchange volume (rows) <= unfiltered.

    Compared in *rows*, with EDB replication disabled in both arms: filters
    only ever drop rows from a shipment, whereas the byte totals also carry
    the filter key sets themselves (which on tiny inputs can outweigh the
    rows they prune — that trade is benchmarked, not asserted).
    """
    facts = {"edge": np.unique(np.asarray(edges, dtype=np.int64), axis=0)}
    filtered = run_engine(
        SG_SOURCE, facts, num_shards, semijoin_filter=True, replicate_max_bytes=0
    )
    unfiltered = run_engine(
        SG_SOURCE, facts, num_shards, semijoin_filter=False, replicate_max_bytes=0
    )
    assert filtered.relation_set("sg") == unfiltered.relation_set("sg")
    assert filtered.exchange_tuples <= unfiltered.exchange_tuples


# ----------------------------------------------------------------------
# Satellite: a fully pruned broadcast ships nothing
# ----------------------------------------------------------------------
# tgt is probed on column 1 by two rules and on column 0 by one, so its
# canonical shard column is 1 and the out3 probe must broadcast.
MISALIGNED_SOURCE = """
out1(x, y) :- src1(x, z), tgt(y, z).
out2(x, y) :- src2(x, z), tgt(y, z).
out3(x, y) :- src3(x, z), tgt(z, y).
"""


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


def _broadcast_launches(engine_result_devices):
    return sum(
        1
        for device in engine_result_devices
        for event in device.profiler.events
        if ".bcast.d2d" in event.kernel
    )


def test_fully_pruned_broadcast_ships_nothing():
    engine = GPULogEngine(
        device="h100", oom_enabled=False, num_shards=3, replicate_max_bytes=0
    )
    for name, rows in _broadcast_facts(disjoint=True).items():
        engine.add_fact_array(name, np.asarray(rows, dtype=np.int64))
    result = engine.run(MISALIGNED_SOURCE)
    # Every probe key misses every shard's filter: the broadcast replicates
    # zero rows, so it neither counts as a broadcast join nor launches a
    # transfer for the pruned payloads.
    assert result.count("out3") == 0
    assert result.broadcast_joins == 0
    assert result.semijoin_rows_dropped > 0
    assert _broadcast_launches(engine.devices) == 0
    engine.close()


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
    # Ablation control: without filtering the same no-match workload really
    # replicates its rows, so the counter (rows actually replicated) fires.
    result = run_engine(
        MISALIGNED_SOURCE,
        _broadcast_facts(disjoint=True),
        3,
        semijoin_filter=False,
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
    monkeypatch.setenv("REPRO_SEMIJOIN_FILTER", "0")
    monkeypatch.setenv("REPRO_EXCHANGE_OVERLAP", "0")
    engine = GPULogEngine(device="h100", oom_enabled=False, num_shards=2)
    assert engine.semijoin_filter is False
    assert engine.overlap is False
    # Explicit arguments beat the environment.
    explicit = GPULogEngine(
        device="h100", oom_enabled=False, num_shards=2, semijoin_filter=True, overlap=True
    )
    assert explicit.semijoin_filter is True
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


# ----------------------------------------------------------------------
# Filter bank (unit)
# ----------------------------------------------------------------------
def _two_device_bank():
    devices = [Device("h100", oom_enabled=False) for _ in range(2)]
    return devices, ExchangeFilterBank(devices)


class _FakeShard:
    """Minimal stand-in exposing the shard surface the bank reads."""

    def __init__(self, device, full, delta=()):
        from repro.relational.columnbatch import ColumnBatch

        self._full = np.asarray(full, dtype=np.int64).reshape(-1, 2)
        self._delta = np.asarray(delta, dtype=np.int64).reshape(-1, 2)
        self._device = device
        self._wrap = ColumnBatch

    def full_batch(self):
        return self._wrap.from_rows(self._device, self._full)

    @property
    def delta_batch(self):
        return self._wrap.from_rows(self._device, self._delta)

    @property
    def delta_count(self):
        return len(self._delta)


def test_filter_bank_probe_and_refresh():
    devices, bank = _two_device_bank()
    shards = [
        _FakeShard(devices[0], [(1, 10), (3, 30)]),
        _FakeShard(devices[1], [(5, 50)]),
    ]
    bank.ensure("rel", 0, shards)
    assert bank.has("rel", 0)
    assert bank.has_relation("rel")
    assert not bank.has_relation("other")
    keys = devices[0].backend.asarray([1, 2, 3, 5], dtype=np.int64)
    mask0 = bank.probe(devices[0], "rel", 0, 0, keys)
    assert list(mask0) == [True, False, True, False]
    mask1 = bank.probe(devices[0], "rel", 0, 1, keys)
    assert list(mask1) == [False, False, False, True]
    # Untracked (relation, column) pairs return None: ship unfiltered.
    assert bank.probe(devices[0], "rel", 1, 0, keys) is None
    # Delta refresh folds the new keys into shard 0's set only.
    shards[0] = _FakeShard(devices[0], [(1, 10)], delta=[(7, 70)])
    bank.refresh("rel", shards)
    mask0 = bank.probe(devices[0], "rel", 0, 0, devices[0].backend.asarray([7], dtype=np.int64))
    assert list(mask0) == [True]
    bank.invalidate()
    assert len(bank) == 0
    assert bank.probe(devices[0], "rel", 0, 0, keys) is None


def test_filter_bank_empty_keyset_rejects_everything():
    devices, bank = _two_device_bank()
    shards = [_FakeShard(devices[0], []), _FakeShard(devices[1], [(5, 50)])]
    bank.ensure("rel", 0, shards)
    keys = devices[0].backend.asarray([0, 5], dtype=np.int64)
    assert list(bank.probe(devices[1], "rel", 0, 0, keys)) == [False, False]
