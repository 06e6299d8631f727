"""cuDF-like baseline engine (dataframe joins on the GPU).

The paper runs the Datalog queries re-expressed as iterated cuDF dataframe
``merge`` / ``concat`` / ``drop_duplicates`` calls (the code of the GPUJoin
repository).  Two structural properties of that formulation drive the results
in Tables 2 and 3:

* **Full materialisation** — every iteration joins against the *entire*
  accumulated relation (dataframes carry no delta index), materialises the
  whole join output, concatenates it with the accumulated result and runs a
  global ``drop_duplicates``.  Join output therefore grows with the cumulative
  match count, and the sort-based dedup rescans the full relation every
  iteration.
* **Memory behaviour** — ``merge`` materialises both inputs' hash table and
  the complete output, and ``drop_duplicates`` needs sort scratch space of the
  concatenated frame, which is why cuDF OOMs on most of the large graphs.

As in the other baselines, only time and memory are modelled, over the
workload trace GPUlog's evaluator records; the relation contents are GPUlog's.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

from ..datalog.seminaive import WorkloadTrace
from ..device.spec import NVIDIA_H100, DeviceSpec
from .base import BaselineEngine


@dataclass(frozen=True)
class CudfCostParameters:
    """Tunable constants of the cuDF cost model."""

    #: per-column storage overhead of the dataframe representation (null masks,
    #: 2x staging during concat) relative to the raw payload.
    frame_overhead: float = 2.0
    #: scratch factor of the sort-based drop_duplicates (keys + permutation).
    dedup_scratch: float = 2.0
    #: additional passes over the data per iteration (hash build, gather, concat).
    passes_per_iteration: float = 8.0
    #: per-iteration framework overhead (kernel launches, dataframe dispatch), µs.
    iteration_overhead_us: float = 350.0


class CudfLikeEngine(BaselineEngine):
    """Iterated dataframe merge/dedup evaluation, cuDF style."""

    name = "cudf"

    def __init__(
        self,
        spec: DeviceSpec = NVIDIA_H100,
        *,
        memory_capacity_bytes: int | None = None,
        parameters: CudfCostParameters | None = None,
    ) -> None:
        self.spec = spec
        self.memory_capacity_bytes = (
            memory_capacity_bytes if memory_capacity_bytes is not None else spec.memory_capacity_bytes
        )
        self.parameters = parameters or CudfCostParameters()

    # ------------------------------------------------------------------
    # Cost and memory model
    # ------------------------------------------------------------------
    def simulate(self, trace: WorkloadTrace) -> tuple[float, int, int | None]:
        params = self.parameters
        seq_bw = self.spec.memory_bandwidth_gbps * 1e9 * self.spec.sequential_efficiency
        rnd_bw = self.spec.memory_bandwidth_gbps * 1e9 * self.spec.random_efficiency
        capacity = self.memory_capacity_bytes

        edb_frame_bytes = trace.edb_bytes * params.frame_overhead
        seconds = trace.edb_bytes / seq_bw
        peak = edb_frame_bytes
        cumulative_match_bytes = 0.0

        for item in trace.iterations:
            # The dataframe formulation joins the accumulated relation against
            # the EDB each iteration: its join output is (to first order) the
            # cumulative match volume of the semi-naive trace.
            cumulative_match_bytes += item.match_bytes
            join_output_bytes = cumulative_match_bytes
            join_input_bytes = item.full_bytes_after * params.frame_overhead + edb_frame_bytes
            join_time = (join_input_bytes + join_output_bytes) / seq_bw + item.probes * 32.0 / rnd_bw

            # concat + global drop_duplicates over full U output: sort-based.
            concat_bytes = item.full_bytes_after + join_output_bytes
            sort_passes = max(1.0, log2(max(2.0, concat_bytes / 8.0)) / 8.0)
            dedup_time = concat_bytes * params.dedup_scratch * sort_passes / seq_bw

            extra = concat_bytes * params.passes_per_iteration / seq_bw
            seconds += join_time + dedup_time + extra + params.iteration_overhead_us * 1e-6

            required = (
                edb_frame_bytes
                + item.full_bytes_after * params.frame_overhead
                + item.match_bytes * params.frame_overhead
                + (item.full_bytes_after + item.match_bytes) * params.dedup_scratch
            )
            peak = max(peak, required)
            if required > capacity:
                return seconds, int(peak), item.iteration

        return seconds, int(peak), None
