"""Measurement loops: what is timed, what is verified, what is read back.

Both drivers go through the public API only (``GPULogEngine`` with results
collected; ``ServingEngine`` submit -> ack -> query) on device ``h100``, the
numpy backend and ``fault_plan="none"``.  Timed regions use
``time.perf_counter``; input generation, digesting and oracle checks are
outside them.
"""

from __future__ import annotations

import math
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import durability
import oracle
import workloads
from trace import Tracer

PHASES = (
    "join", "deduplication", "indexing_delta", "indexing_full", "merge_delta_full",
    "load", "host_transfer", "shard_exchange", "checkpoint", "retraction",
)


@dataclass
class Tally:
    """Operations attempted and failed: a timed run, epoch, query or recover,
    or an oracle check; a raised error, failed ticket or mismatch is a failure."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def run(self, what: str, operation):
        """Run one timed operation; an exception counts as its failure."""
        try:
            value = operation()
        except Exception:
            traceback.print_exc()
            self.check(False, what)
            return None
        self.check(True, what)
        return value


def percentile(samples: list[float], share: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    if len(samples) < 20:
        return None
    rank = math.floor(100 - 1000 / len(samples))
    return rank, percentile(samples, rank / 100)


def device_counts(devices) -> dict[str, float]:
    """Exact counters every device's profiler exposes, summed over shards."""
    launches = transfer = interconnect = 0.0
    for device in devices:
        launches += sum(summary.launches for summary in device.profiler.phase_summaries().values())
        transfer += device.profiler.transfer_bytes
        interconnect += device.profiler.interconnect_bytes
    return {
        "count.kernel_launches": launches,
        "count.exchange_bytes": interconnect,
        "count.host_transfer_bytes": transfer - interconnect,
    }


def history_counts(history) -> dict[str, float]:
    """What the per-iteration bookkeeping of every relation adds up to."""
    return {
        # useful outcomes per attempt: rows that survived deduplication
        "count.dedup_survival": sum(s.delta_count for s in history) / max(1, sum(s.new_count for s in history)),
        "count.in_place_merges": sum(s.in_place_merges for s in history),
        "count.rebuild_merges": sum(s.rebuild_merges for s in history),
    }


def matches(rows, inputs: workloads.Inputs, pinned: list) -> bool:
    return oracle.digest(inputs.canonical(np.asarray(rows, dtype=np.int64))) == pinned


# ----------------------------------------------------------------------
# Batch: GPULogEngine().run() with results collected
# ----------------------------------------------------------------------
def batch_unit(workload: workloads.Workload, seed: int, quick: bool):
    """From nothing to a result in hand: inputs, a fresh engine, staging, then
    ``run`` plus a pass over every output tuple.  Returns ``(seconds for all of
    it, seconds of run-plus-pass alone, result, exact counters, inputs)``."""
    from repro import GPULogEngine

    started = time.perf_counter()
    inputs = workloads.build(workload, seed, quick)
    engine = GPULogEngine(**workloads.ENGINE, **workload.engine)
    try:
        for name, rows in inputs.facts.items():
            engine.add_fact_array(name, rows)
        run_started = time.perf_counter()
        result = engine.run(workload.source, name=workload.name)
        tuples = 0
        for name in workload.outputs:
            for _row in result.relation(name):
                tuples += 1
        done = time.perf_counter()
        counts = device_counts(engine.devices)
        counts.update(history_counts([step for steps in result.iteration_history.values() for step in steps]))
        counts.update({f"sim.{phase}_s": result.phase_seconds.get(phase, 0.0) for phase in PHASES})
        counts.update({
            "sim_s": result.elapsed_seconds,
            "peak_device_bytes": result.peak_memory_bytes,
            "count.iterations": result.total_iterations,
            "count.idb_tuples": tuples,
        })
        return done - started, done - run_started, result, counts, inputs
    finally:
        engine.close()


def measure_batch(workload, seed: int, seconds: float, quick: bool, traced: bool, trace_path: str):
    """One discarded cold unit, then units for ``seconds`` (at least two) whose
    run-plus-pass is the timed operation, then optionally one traced unit.
    Every unit sets up from nothing, so each is one set-up sample."""
    tally = Tally()
    pinned = oracle.expected(workload.instance, quick)

    def unit(what: str):
        """``(set-up seconds, run seconds, counters, input digest)`` of one verified unit."""
        outcome = tally.run(what, lambda: batch_unit(workload, seed, quick))
        if outcome is None:
            return None
        total, run_wall, result, counts, inputs = outcome
        for name in workload.outputs:
            tally.check(matches(result.relation(name), inputs, pinned[name]), f"{what}: {name} differs from the oracle")
        return total, run_wall, counts, inputs.digest  # the result and inputs are let go here

    cold = unit("cold run")
    if cold is None:
        raise SystemExit("bench: the cold run failed; nothing to measure")
    units = [cold]
    loop_started = time.perf_counter()
    while len(units) < 3 or time.perf_counter() - loop_started < seconds:
        outcome = unit(f"run {len(units)}")
        if outcome is None:
            break
        units.append(outcome)
        tally.check(outcome[2] == cold[2], f"run {len(units) - 1}: simulated clock and counters differ from the cold run's")
    walls = [run_wall for _, run_wall, _, _ in units[1:]]
    if not walls:
        raise SystemExit("bench: no timed run succeeded")

    run_wall_s = statistics.median(walls)
    print(f"inputs sha256 {cold[3]}")
    print(f"run_wall_s median {run_wall_s:.4f} min {min(walls):.4f} max {max(walls):.4f} n={len(walls)}")
    end_to_end = {"setup_s": statistics.median(total for total, _, _, _ in units), "op_ms_p50": run_wall_s * 1e3}
    layers = empty_layers()
    layers.update(cold[2])
    layers.update({"run_wall_s": run_wall_s, "cold_run_wall_s": cold[1]})
    if traced:
        tracer = Tracer()
        tracer.install()
        try:
            outcome = unit("traced run")
        finally:
            tracer.uninstall()
        tracer.write(trace_path, workload=workload.name, seed=seed, inputs_sha256=cold[3])
        layers.update(span_metrics(tracer))
        if outcome is not None:
            layers["trace.overhead_pct"] = (outcome[1] / run_wall_s - 1.0) * 100.0
    return tally, end_to_end, layers


#: Per-layer metrics that are not span totals: the simulated clock's phases
#: and exact counters read from public results, and the timings of single
#: operation types (zero on a workload that has no such operation).
LAYER_VALUES = (
    *(f"sim.{phase}_s" for phase in PHASES),
    "sim_s", "peak_device_bytes",
    "count.iterations", "count.kernel_launches", "count.idb_tuples", "count.dedup_survival",
    "count.in_place_merges", "count.rebuild_merges", "count.exchange_bytes", "count.host_transfer_bytes",
    "count.wal_fsyncs", "count.wal_bytes", "count.checkpoint_bytes", "count.disk_bytes_per_user_byte",
    "serving.epoch_sim_ms_p50", "serving.epoch_host_ms_p50", "serving.epoch_iterations_mean",
    "run_wall_s", "cold_run_wall_s", "insert_ack_ms_p50", "insert_ack_ms_p90", "query_ms_p50",
    "retract_ack_ms_p50", "recover_s", "trace.overhead_pct",
)


def empty_layers() -> dict[str, float]:
    """Every per-layer metric at zero: no calls, no such operation."""
    from trace import SPAN_NAMES

    layers = dict.fromkeys(LAYER_VALUES, 0.0)
    for name in SPAN_NAMES:
        layers[f"{name}.calls"] = 0
        layers[f"{name}.self_s"] = 0.0
    return layers


def span_metrics(tracer: Tracer) -> dict[str, float]:
    out = {}
    for name, (calls, seconds) in tracer.totals().items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = seconds
    return out


# ----------------------------------------------------------------------
# Serving: closed loop, one client, default ServingEngine configuration
# ----------------------------------------------------------------------
@dataclass
class ServingSamples:
    """Timings of every session so far; ``counts`` are the last session's."""

    setup: list[float] = field(default_factory=list)
    ack: list[float] = field(default_factory=list)
    query: list[float] = field(default_factory=list)
    cycle: list[float] = field(default_factory=list)
    retract: list[float] = field(default_factory=list)
    recover: list[float] = field(default_factory=list)
    epoch_sim: list[float] = field(default_factory=list)
    epoch_host: list[float] = field(default_factory=list)
    epoch_iterations: list[int] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    #: bytes and fsyncs that reached the disk (traced session only)
    disk: dict[str, float] = field(default_factory=dict)
    digest: str = ""


def absorb(counts: dict, history: list, engine) -> None:
    """Add an engine's exact counters to the session's before the engine goes away."""
    phases = engine.devices[0].profiler.phase_seconds()
    for name, value in {
        **device_counts(engine.devices),
        **{f"sim.{phase}_s": phases.get(phase, 0.0) for phase in PHASES},
        "sim_s": engine.simulated_seconds,
    }.items():
        counts[name] = counts.get(name, 0.0) + value
    counts["peak_device_bytes"] = max(counts.get("peak_device_bytes", 0), *(device.peak_memory_bytes for device in engine.devices))
    counts["count.idb_tuples"] = engine.relations["sg"].full_count
    history += [step for relation in engine.relations.values() for step in relation.history]


def serving_session(workload, seed: int, quick: bool, tally: Tally, samples: ServingSamples,
                    directory: str, tracer: Tracer) -> bool:
    """Bootstrap, insert epochs each followed by a full read, then retract
    epochs (serve-trickle) or crash/recover rounds (serve-durable)."""
    from repro.serving import ServingEngine

    stream = workload.quick_stream if quick else workload.stream
    pinned = oracle.expected(workload.instance, quick)["stream"]
    # A traced session also counts what reaches the disk; an untraced one
    # runs with nothing of the benchmark's in its way.
    fsyncs = durability.FsyncLog() if tracer.installed else None
    started = time.perf_counter()
    inputs = workloads.build(workload, seed, quick)
    batches = [inputs.held[i * stream.batch:(i + 1) * stream.batch] for i in range(stream.insert_epochs)]
    extra = {}
    if stream.durable:
        shutil.rmtree(directory, ignore_errors=True)
        extra["checkpoint_store"], extra["wal"] = durability.parts(directory)
    counts, history = {}, []
    if fsyncs is not None:
        fsyncs.install()
    engine = None
    try:
        engine = ServingEngine(workload.source, inputs.facts, **workloads.ENGINE, **extra)
        snapshot = engine.query("sg")
        count, rows = snapshot.count, snapshot.rows
        samples.setup.append(time.perf_counter() - started)
        samples.digest = inputs.digest
        tally.check(matches(rows, inputs, pinned["prefix"][0]), "bootstrap: sg differs from the oracle")

        for epoch, batch in enumerate(batches, start=1):
            tracer.run = epoch
            begun = time.perf_counter()
            result = engine.submit(inserts={"edge": batch}).result()
            acked = time.perf_counter()
            snapshot = engine.query("sg")
            count, rows = snapshot.count, snapshot.rows
            done = time.perf_counter()
            samples.ack.append(acked - begun)
            samples.query.append(done - acked)
            samples.cycle.append(done - begun)
            samples.epoch_sim.append(result.simulated_seconds)
            samples.epoch_host.append(result.host_seconds)
            samples.epoch_iterations.append(result.iterations)
            tally.check(count == pinned["prefix"][epoch][0], f"epoch {epoch}: |sg| = {count} differs from the oracle")
        tally.check(matches(rows, inputs, pinned["prefix"][len(batches)]), "after inserts: sg differs from the oracle")

        for index in range(stream.retract_epochs):
            tracer.run = len(batches) + 1 + index
            begun = time.perf_counter()
            engine.submit(retracts={"edge": batches[index]}).result()
            samples.retract.append(time.perf_counter() - begun)
            tally.attempted += 1
        if stream.retract_epochs:
            tally.check(matches(engine.query("sg").rows, inputs, pinned["retracted"]), "after retracts: sg differs from the oracle")

        for index in range(stream.recovers):
            tracer.run = len(batches) + 1 + index
            absorb(counts, history, engine)
            engine.crash()
            begun = time.perf_counter()
            engine = ServingEngine.recover(*durability.parts(directory), **workloads.ENGINE)
            rows = engine.query("sg").rows
            samples.recover.append(time.perf_counter() - begun)
            tally.check(matches(rows, inputs, pinned["prefix"][len(batches)]), f"recover {index + 1}: sg differs from the oracle")

        absorb(counts, history, engine)
        samples.counts = {**counts, **history_counts(history)}
    finally:
        if fsyncs is not None:
            fsyncs.uninstall()
        if engine is not None:
            engine.close()
    if fsyncs is not None:
        wal_bytes, checkpoint_bytes = fsyncs.bytes_under("wal.jsonl"), fsyncs.bytes_under("ckpt")
        samples.disk = {
            "count.wal_fsyncs": fsyncs.calls_under("wal.jsonl"),
            "count.wal_bytes": wal_bytes,
            "count.checkpoint_bytes": checkpoint_bytes,
            "count.disk_bytes_per_user_byte": (wal_bytes + checkpoint_bytes) / sum(batch.nbytes for batch in batches),
        }
    return True


def report(name: str, unit: str, samples: list[float], scale: float) -> float:
    """Print a timing as its median and the highest percentile the sample
    supports, with the sample count; returns the median."""
    median = statistics.median(samples) * scale if samples else 0.0
    high = tail(samples)
    beyond = f" p{high[0]} {high[1] * scale:.4f}" if high else ""
    print(f"{name} p50 {median:.4f}{beyond} {unit} n={len(samples)}")
    return median


def measure_serving(workload, seed: int, seconds: float, quick: bool, traced: bool, trace_path: str, directory: str):
    """Whole sessions for ``seconds`` (at least one); each session's bootstrap
    up to its first answered query is one set-up sample."""
    tally, samples, tracer = Tally(), ServingSamples(), Tracer()
    stream = workload.quick_stream if quick else workload.stream
    loop_started = time.perf_counter()
    while not samples.setup or time.perf_counter() - loop_started < seconds:
        if not tally.run("session", lambda: serving_session(workload, seed, quick, tally, samples, directory, tracer)):
            break
    if not samples.cycle:
        raise SystemExit("bench: no serving session completed")
    if stream.durable:
        tally.run("durability", lambda: durability.check(workload, seed, quick, tally, directory))

    print(f"inputs sha256 {samples.digest}")
    cycle_ms = report("cycle_ms (submit -> ack -> query rows)", "ms", samples.cycle, 1e3)
    end_to_end = {"setup_s": statistics.median(samples.setup), "op_ms_p50": cycle_ms}
    layers = empty_layers()
    layers.update(samples.counts)
    layers.update({
        "insert_ack_ms_p50": report("insert_ack_ms", "ms", samples.ack, 1e3),
        "insert_ack_ms_p90": percentile(samples.ack, 0.9) * 1e3 if len(samples.ack) >= 100 else 0.0,
        "query_ms_p50": report("query_ms", "ms", samples.query, 1e3),
        "retract_ack_ms_p50": report("retract_ack_ms", "ms", samples.retract, 1e3),
        "recover_s": report("recover_s", "s", samples.recover, 1.0),
        "serving.epoch_sim_ms_p50": statistics.median(samples.epoch_sim) * 1e3,
        "serving.epoch_host_ms_p50": statistics.median(samples.epoch_host) * 1e3,
        "serving.epoch_iterations_mean": statistics.fmean(samples.epoch_iterations),
        "count.iterations": sum(samples.epoch_iterations[-stream.insert_epochs:]),
    })
    if traced:
        traced_samples = ServingSamples()
        tracer.install()
        try:
            tally.run("traced session", lambda: serving_session(workload, seed, quick, tally, traced_samples, directory, tracer))
        finally:
            tracer.uninstall()
        tracer.write(trace_path, workload=workload.name, seed=seed, inputs_sha256=samples.digest)
        layers.update(span_metrics(tracer))
        layers.update(traced_samples.disk)
        if traced_samples.cycle:
            layers["trace.overhead_pct"] = (statistics.median(traced_samples.cycle) * 1e3 / cycle_ms - 1.0) * 100.0
    shutil.rmtree(directory, ignore_errors=True)
    return tally, end_to_end, layers
