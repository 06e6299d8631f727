"""GPUJoin-like baseline engine (Shovon et al., USENIX ATC'23).

GPUJoin stores each relation in an open-addressing hash table that holds the
*whole tuples* (not an index over a dense array, as HISA does).  The paper
identifies two consequences it exploits in the comparison of Section 6.4:

* **Memory footprint** — fast parallel construction needs a *low* load factor
  (the ATC'23 artifact uses ~0.4), so the hash tables are 2.5x larger than the
  payload, and the fused merge needs a non-deduplicated staging buffer as big
  as ``full + new``; this is why GPUJoin OOMs on com-dblp and Gnutella31 in
  Table 2 while GPUlog does not.
* **Fused dedup over the full relation** — GPUJoin merges the raw new tuples
  into full and deduplicates the *merged* relation, re-scanning all of full
  every iteration, which grows increasingly expensive (Section 5.1,
  "Populating delta").

GPUJoin is specialised to binary-join queries (reachability); SG's n-way join
is unsupported, matching its absence from Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.ast import Program
from ..datalog.seminaive import WorkloadTrace
from ..device.spec import NVIDIA_H100, DeviceSpec
from .base import BaselineEngine


@dataclass(frozen=True)
class GPUJoinCostParameters:
    """Tunable constants of the GPUJoin cost model."""

    #: hash-table load factor used for tuple storage (low for fast build).
    load_factor: float = 0.45
    #: average probe-chain length at that load factor (linear probing).
    average_probe_chain: float = 3.0
    #: bytes of hash-table slot metadata per stored tuple (key + state).
    slot_overhead_bytes: float = 16.0
    #: number of full-relation passes performed by the fused merge+dedup.
    merge_passes: float = 8.0
    #: kernel launch overhead per iteration, microseconds.
    iteration_overhead_us: float = 60.0


class GPUJoinEngine(BaselineEngine):
    """GPUJoin-style iterated hash joins over tuple-storing hash tables."""

    name = "gpujoin"
    unsupported_detail = "GPUJoin only supports binary-join (two-atom) recursive queries"

    def __init__(
        self,
        spec: DeviceSpec = NVIDIA_H100,
        *,
        memory_capacity_bytes: int | None = None,
        parameters: GPUJoinCostParameters | None = None,
    ) -> None:
        self.spec = spec
        self.memory_capacity_bytes = (
            memory_capacity_bytes if memory_capacity_bytes is not None else spec.memory_capacity_bytes
        )
        self.parameters = parameters or GPUJoinCostParameters()

    @staticmethod
    def supports(program: Program) -> bool:
        """GPUJoin handles rules with at most two body atoms (binary joins)."""
        return all(len(rule.body) <= 2 for rule in program.proper_rules())

    # ------------------------------------------------------------------
    # Cost and memory model
    # ------------------------------------------------------------------
    def simulate(self, trace: WorkloadTrace) -> tuple[float, int, int | None]:
        params = self.parameters
        seq_bw = self.spec.memory_bandwidth_gbps * 1e9 * self.spec.sequential_efficiency
        rnd_bw = self.spec.memory_bandwidth_gbps * 1e9 * self.spec.random_efficiency
        capacity = self.memory_capacity_bytes

        table_overhead = 1.0 / params.load_factor
        edb_table_bytes = trace.edb_bytes * table_overhead + (
            sum(trace.relation_counts.get(n, 0) for n in trace.edb_relations) * params.slot_overhead_bytes
        )

        seconds = 0.0
        peak = edb_table_bytes
        # Building the EDB hash tables: one random write per tuple slot.
        seconds += edb_table_bytes / seq_bw + trace.edb_bytes / rnd_bw

        for item in trace.iterations:
            # Join phase: probe chains over tuple-storing hash tables.
            probe_bytes = item.probes * params.average_probe_chain * (
                params.slot_overhead_bytes + self._average_row_bytes(trace)
            )
            join_bytes_seq = item.outer_bytes + item.match_bytes
            join_time = probe_bytes / rnd_bw + join_bytes_seq / seq_bw

            # Fused merge + dedup: rebuild/merge the full table including the raw
            # (non-deduplicated) new tuples, re-scanning and re-sorting the whole
            # relation, rebuilding its hash table (random writes at a low load
            # factor) and reallocating the staging buffer every iteration
            # (GPUJoin has no eager buffer management).
            merged_bytes = (item.full_bytes_after + item.new_bytes) * params.merge_passes
            rebuild_bytes = item.full_bytes_after * table_overhead + item.new_bytes
            realloc_bytes = (item.full_bytes_after + item.new_bytes) * 2.0
            merge_time = (
                merged_bytes / seq_bw
                + rebuild_bytes / rnd_bw
                + realloc_bytes / (0.5 * seq_bw)
            )

            seconds += join_time + merge_time + params.iteration_overhead_us * 1e-6

            # Memory: full table at low load factor + raw new staging + join output.
            full_tuples = item.full_tuples_after
            idb_table_bytes = item.full_bytes_after * table_overhead + full_tuples * params.slot_overhead_bytes
            staging = item.new_bytes + item.largest_join_output_bytes
            required = edb_table_bytes + idb_table_bytes + staging
            peak = max(peak, required)
            if required > capacity:
                return seconds, int(peak), item.iteration

        return seconds, int(peak), None

    @staticmethod
    def _average_row_bytes(trace: WorkloadTrace) -> float:
        arities = list(trace.relation_arities.values()) or [2]
        return 8.0 * sum(arities) / len(arities)
