"""Table 6 — sort / merge / allocation micro-benchmarks: A100 GPU vs Zen 3 CPU.

The paper ports GPUlog's two most expensive primitives (stable sort of tuple
rows and sorted merge) to oneTBB and compares them against the GPU versions on
randomly generated 2-ary tuples, together with the buffer allocation and
initialisation time.  Here the kernels the engine itself runs for those two
jobs — ``lexsort_columns`` plus one ``gather_column`` per column, and the
append of an equal-sized sorted delta to a relation's column store plus
``HISA.merge`` of its index — run on the simulated A100 and
EPYC 7543P devices; the sizes are scaled down by SIZE_SCALE and the reported
times are projected back up (the primitives are bandwidth-bound and scale
linearly, which is exactly the paper's point).

Expected shape (paper): the GPU is roughly 10-20x faster on every operation
and size, mirroring the memory-bandwidth ratio of the two devices.
"""

from __future__ import annotations

import numpy as np

from ..device.cost import KernelCost
from ..device.device import Device
from ..relational.buffers import ColumnStore, SimpleBufferManager
from ..relational.columnbatch import ColumnBatch
from ..relational.hisa import HISA
from .runner import ResultTable, format_seconds

PAPER_SIZES = (1_000_000, 10_000_000, 50_000_000, 100_000_000, 500_000_000)
SIZE_SCALE = 1000  # synthetic arrays are 1/1000th of the paper's tuple counts

#: Paper Table 6 (seconds): size -> (sort A100, sort Zen3, merge A100, merge Zen3, mem A100, mem Zen3)
PAPER_TABLE6 = {
    1_000_000: (0.12, 1.09, 0.03, 0.06, 0.03, 0.02),
    10_000_000: (0.39, 7.5, 0.08, 0.64, 0.17, 0.05),
    50_000_000: (1.63, 30.09, 0.18, 1.96, 0.11, 0.88),
    100_000_000: (2.9, 64.02, 0.3, 3.56, 0.18, 1.7),
    500_000_000: (15.66, 351.4, 1.21, 15.68, 0.82, 8.59),
}


def _microbench(device: Device, n_tuples: int, seed: int = 7) -> tuple[float, float, float]:
    """Run sort, merge and allocation primitives; return their simulated seconds."""
    rng = np.random.default_rng(seed)
    columns = [rng.integers(0, 1 << 30, size=n_tuples, dtype=np.int64) for _ in range(2)]
    # The delta's first column lies above the full's, so the two are disjoint
    # (what populate-delta guarantees a merge) and interleave nowhere.
    others = [rng.integers(lo, lo + (1 << 30), size=n_tuples, dtype=np.int64) for lo in (1 << 30, 0)]

    before = device.elapsed_seconds
    order = device.kernels.lexsort_columns(columns, label="microbench.sort")
    sorted_columns = [
        device.kernels.gather_column(column, order, label="microbench.sort.gather") for column in columns
    ]
    sort_seconds = device.elapsed_seconds - before

    other_order = np.lexsort((others[1], others[0]))
    # A relation's layout: one store of the tuples with an index over it, and
    # a delta index of sorted positions and keys over the delta's rows, which
    # the merge appends to the store.
    store = ColumnStore(
        device,
        ColumnBatch.from_columns(device, sorted_columns),
        label="microbench",
        manager=SimpleBufferManager(device, label="microbench.merge_buffer"),
    )
    full = HISA(device, store, (0, 1), label="microbench.full", assume_sorted=True)
    delta_rows = ColumnBatch.from_columns(device, [column[other_order] for column in others])
    delta = HISA(
        device,
        ColumnStore(device, delta_rows, label="microbench.delta"),
        (0, 1),
        label="microbench.delta",
        assume_sorted=True,
        build_hash_index=False,
    )
    recorded = len(device.profiler.events)
    full.merge(delta)
    # The destination buffer's allocation is Table 6's third column, not the merge.
    merge_seconds = sum(
        event.seconds - device.cost_model.allocation_seconds(event.cost)
        for event in device.profiler.events[recorded:]
    )
    full.free()
    store.free()

    before = device.elapsed_seconds
    device.charge(
        KernelCost(
            kernel="microbench.alloc",
            alloc_bytes=float(sum(column.nbytes for column in columns)),
            allocations=1,
            launches=0,
        )
    )
    alloc_seconds = device.elapsed_seconds - before
    return sort_seconds, merge_seconds, alloc_seconds


def run_table6(paper_sizes=PAPER_SIZES, size_scale: int = SIZE_SCALE) -> ResultTable:
    """Regenerate Table 6 by running the primitives on both simulated devices."""
    table = ResultTable(
        title="Table 6: sort / merge / allocation on A100 vs EPYC 7543P (projected seconds)",
        headers=[
            "# Tuples",
            "Sort A100", "Sort Zen3", "Sort ratio",
            "Merge A100", "Merge Zen3", "Merge ratio",
            "Alloc A100", "Alloc Zen3",
        ],
    )
    for paper_size in paper_sizes:
        n = max(1000, int(paper_size / size_scale))
        gpu = Device("a100", oom_enabled=False)
        cpu = Device("epyc-7543p", oom_enabled=False)
        gpu_sort, gpu_merge, gpu_alloc = _microbench(gpu, n)
        cpu_sort, cpu_merge, cpu_alloc = _microbench(cpu, n)
        factor = size_scale
        table.add_row(
            f"{paper_size:,}",
            format_seconds(gpu_sort * factor),
            format_seconds(cpu_sort * factor),
            f"{cpu_sort / max(gpu_sort, 1e-12):.1f}x",
            format_seconds(gpu_merge * factor),
            format_seconds(cpu_merge * factor),
            f"{cpu_merge / max(gpu_merge, 1e-12):.1f}x",
            format_seconds(gpu_alloc * factor),
            format_seconds(cpu_alloc * factor),
        )
    table.add_note(
        "Arrays are generated at 1/1000th of the paper's sizes and times are projected linearly; "
        "the claim under test is the ~10-20x GPU advantage on every primitive and size.  "
        "Sort is the engine's lexsort_columns plus one gather_column per column; merge is "
        "the column-store append of an equal-sized sorted delta plus HISA.merge of its index "
        "(path merge, key-run scan, table build)."
    )
    return table
