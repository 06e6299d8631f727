"""Soufflé-like CPU baseline engine.

Soufflé compiles Datalog into C++ with concurrent B-tree / brie indexes and
evaluates semi-naïvely on a multicore CPU.  The paper's key observation
(Section 1) is that these engines hit a scalability wall: at 32 threads on
transitive closure, 77.8 % of the time is spent in *serialized* tuple
deduplication/insertion, and the remaining parallel phase is limited by the
CPU's memory bandwidth (~0.19 TB/s on the EPYC Milan, versus 3.35 TB/s on the
H100).

The cost model reflects those two effects directly:

* The join phase is a roofline over the iteration's memory traffic (outer
  scan + matched tuples) and its B-tree probe work, parallelised over
  ``threads`` with an efficiency factor (the paper measures 450-680 % CPU on a
  3200 % budget).
* The insert/dedup phase charges a B-tree insertion (``log`` depth of pointer
  chasing) per derived tuple, with a large serial fraction.

Both are priced over the workload trace GPUlog's evaluator records, and the
relation contents are GPUlog's, so every derived relation matches GPUlog
exactly (the paper checks that all relation sizes match Soufflé's).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

from ..datalog.seminaive import IterationTrace, WorkloadTrace
from ..device.spec import AMD_EPYC_7543P, DeviceSpec
from .base import BaselineEngine


@dataclass(frozen=True)
class SouffleCostParameters:
    """Tunable constants of the Soufflé cost model.

    Defaults were calibrated so that the simulated REACH / SG / CSPA runs land
    in the paper's reported ranges relative to GPUlog on the H100 (Tables 2-4).
    """

    threads: int = 32
    #: nanoseconds per visited B-tree level during a probe (pointer chase).
    probe_level_ns: float = 1.5
    #: nanoseconds to materialise one matched tuple in the join loop.
    match_ns: float = 0.8
    #: nanoseconds per visited B-tree level during an insert (includes CAS/locking).
    insert_level_ns: float = 1.4
    #: fraction of the insert/dedup work that is effectively serialized.
    insert_serial_fraction: float = 0.55
    #: parallel efficiency of the join phase across the available threads.
    join_parallel_efficiency: float = 0.30
    #: fixed per-iteration overhead (task scheduling, synchronisation), microseconds.
    iteration_overhead_us: float = 40.0


class SouffleCPUEngine(BaselineEngine):
    """A Soufflé-like multicore CPU Datalog engine (comparison baseline)."""

    name = "souffle"

    def __init__(
        self,
        spec: DeviceSpec = AMD_EPYC_7543P,
        parameters: SouffleCostParameters | None = None,
    ) -> None:
        self.spec = spec
        self.parameters = parameters or SouffleCostParameters()

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def simulate(self, trace: WorkloadTrace) -> tuple[float, int, None]:
        """A CPU never runs out of device memory: seconds and peak only."""
        return self.estimate_seconds(trace), self.estimate_peak_memory(trace), None

    def estimate_seconds(self, trace: WorkloadTrace) -> float:
        total = self._load_seconds(trace)  # loading the EDB into indexed relations
        for item in trace.iterations:
            join_time, insert_time = self._phase_seconds(item)
            total += join_time + insert_time + self.parameters.iteration_overhead_us * 1e-6
        return total

    def _phase_seconds(self, item: IterationTrace) -> tuple[float, float]:
        """One iteration's (join, insert/dedup) seconds."""
        params = self.parameters
        parallel = max(1, params.threads) * params.join_parallel_efficiency
        bandwidth = self.spec.memory_bandwidth_gbps * 1e9 * self.spec.sequential_efficiency
        probe_depth = log2(max(2, item.full_tuples_before + 2))
        join_compute = (
            item.probes * probe_depth * params.probe_level_ns + item.match_tuples * params.match_ns
        ) * 1e-9
        join_bytes = item.outer_bytes + item.match_bytes + item.probes * 64.0
        join_time = max(join_compute / parallel, join_bytes / bandwidth)

        insert_depth = log2(max(2, item.full_tuples_after + 2))
        insert_compute = item.new_tuples * insert_depth * params.insert_level_ns * 1e-9
        serial = insert_compute * params.insert_serial_fraction
        return join_time, serial + (insert_compute - serial) / parallel

    def _load_seconds(self, trace: WorkloadTrace) -> float:
        params = self.parameters
        edb_tuples = sum(trace.relation_counts.get(name, 0) for name in trace.edb_relations)
        depth = log2(max(2, edb_tuples + 2))
        load_compute = edb_tuples * depth * params.insert_level_ns * 1e-9
        serial = load_compute * 0.5
        return serial + (load_compute - serial) / (params.threads * params.join_parallel_efficiency)

    def estimate_peak_memory(self, trace: WorkloadTrace) -> int:
        """B-tree storage overhead of roughly 2.4x the raw tuple payload."""
        overhead = 2.4
        peak = trace.edb_bytes * overhead
        if trace.iterations:
            largest = max(item.full_bytes_after for item in trace.iterations)
            transient = max(item.match_bytes for item in trace.iterations)
            peak += largest * overhead + transient
        return int(peak)

    def breakdown(self, trace: WorkloadTrace) -> dict[str, float]:
        """Join-vs-insert split (used to check the 77.8 % serialized-insert claim)."""
        join_total = 0.0
        insert_total = 0.0
        for item in trace.iterations:
            join_time, insert_time = self._phase_seconds(item)
            join_total += join_time
            insert_total += insert_time
        total = join_total + insert_total
        if total <= 0:
            return {"join": 0.0, "insert": 0.0}
        return {"join": join_total / total, "insert": insert_total / total}
