"""Table 2 — REACH runtime: GPUlog vs Soufflé vs GPUJoin vs cuDF.

Every engine is run on the same synthetic graph; the baselines reuse a shared
workload trace.  Runtimes are projected to the paper's dataset sizes using the
scale factor (paper transitive-closure size / synthetic transitive-closure
size), and memory capacities are scaled by the same factor so that OOM
behaviour is comparable.

Expected shape (paper): GPUlog is fastest everywhere; GPUJoin is >=3x slower
where it completes and OOMs on the largest graphs; cuDF OOMs on all but the
smallest graph; Soufflé is roughly 10-45x slower than GPUlog.
"""

from __future__ import annotations

from ..engines import CudfLikeEngine, GPUJoinEngine, SouffleCPUEngine
from ..device.spec import NVIDIA_H100
from .runner import (
    ResultTable,
    format_seconds,
    get_dataset,
    get_trace,
    output_size,
    project_seconds,
    query_program,
    run_gpulog,
    scale_factor,
)

TABLE2_DATASETS = ("com-dblp", "fe_ocean", "vsp_finan", "Gnutella31", "fe_body", "SF.cedge")

#: Paper Table 2 runtimes in seconds ("OOM" where the engine ran out of memory).
PAPER_TABLE2 = {
    "com-dblp": {"gpulog": 14.30, "souffle": 232.99, "gpujoin": "OOM", "cudf": "OOM"},
    "fe_ocean": {"gpulog": 23.36, "souffle": 292.15, "gpujoin": 100.30, "cudf": "OOM"},
    "vsp_finan": {"gpulog": 21.91, "souffle": 239.33, "gpujoin": 125.94, "cudf": "OOM"},
    "Gnutella31": {"gpulog": 5.58, "souffle": 96.82, "gpujoin": "OOM", "cudf": "OOM"},
    "fe_body": {"gpulog": 3.76, "souffle": 23.40, "gpujoin": 22.35, "cudf": "OOM"},
    "SF.cedge": {"gpulog": 1.63, "souffle": 33.27, "gpujoin": 3.76, "cudf": 64.29},
}


def run_table2(datasets=TABLE2_DATASETS, profile: str = "bench") -> ResultTable:
    """Regenerate Table 2 on the synthetic datasets."""
    table = ResultTable(
        title="Table 2: REACH runtime, GPUlog (H100) vs Soufflé / GPUJoin / cuDF (projected seconds)",
        headers=["Dataset", "Reach size", "GPUlog", "Souffle", "GPUJoin", "cuDF", "Souffle/GPUlog"],
    )
    program = query_program("reach")
    for name in datasets:
        dataset = get_dataset(name, profile)
        trace = get_trace(name, "reach", profile)
        measured = output_size(trace, "reach")
        scale = scale_factor(name, "reach", measured)
        capacity = int(NVIDIA_H100.memory_capacity_bytes / scale)

        gpulog_result, _ = run_gpulog(name, "reach", profile)
        gpulog_projected = project_seconds(
            gpulog_result.fixed_seconds, gpulog_result.variable_seconds, scale
        )

        souffle = SouffleCPUEngine().run(program, dataset.facts(), trace=trace)
        gpujoin = GPUJoinEngine(memory_capacity_bytes=capacity).run(program, dataset.facts(), trace=trace)
        cudf = CudfLikeEngine(memory_capacity_bytes=capacity).run(program, dataset.facts(), trace=trace)

        souffle_projected = souffle.projected_seconds(scale)
        table.add_row(
            name,
            measured,
            format_seconds(gpulog_projected),
            format_seconds(souffle_projected),
            format_seconds(gpujoin.projected_seconds(scale)) if gpujoin.ok else gpujoin.display_time(),
            format_seconds(cudf.projected_seconds(scale)) if cudf.ok else cudf.display_time(),
            f"{souffle_projected / max(gpulog_projected, 1e-12):.1f}x",
        )
    table.add_note(
        "Projected to paper scale via (paper reach size / synthetic reach size); "
        "paper reference values are recorded in PAPER_TABLE2 (projection method: docs/benchmarks.md)."
    )
    return table
