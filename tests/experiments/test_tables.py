"""Regenerates Tables 1-6 of the paper at the ``bench`` profile (slow).

Each test prints the regenerated table (visible with ``-s``) and asserts the
directional claims the paper makes about it; docs/benchmarks.md describes how
the tables are projected to paper scale.  Run with
``python -m pytest -m slow tests/experiments``.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
)

pytestmark = pytest.mark.slow


def _parse_seconds(cell: str) -> float:
    if cell in ("OOM", "n/a"):
        return float("inf")
    return float(cell)


def test_table1_eager_buffer_management():
    table = run_table1()
    print("\n" + table.format())
    for row in table.rows:
        normal_seconds, eager_seconds = float(row[3]), float(row[4])
        memory_ratio = float(row[8].rstrip("x"))
        assert eager_seconds <= normal_seconds, f"EBM slower on {row[0]}"
        assert memory_ratio >= 1.0


def test_table2_reach_engine_comparison():
    table = run_table2()
    print("\n" + table.format())
    oom_cells = 0
    for row in table.rows:
        gpulog = _parse_seconds(row[2])
        souffle = _parse_seconds(row[3])
        gpujoin = _parse_seconds(row[4])
        cudf = _parse_seconds(row[5])
        assert gpulog < souffle, f"GPUlog not faster than Souffle on {row[0]}"
        assert gpulog < gpujoin, f"GPUlog not faster than GPUJoin on {row[0]}"
        assert gpulog < cudf, f"GPUlog not faster than cuDF on {row[0]}"
        assert souffle / gpulog > 5, f"Souffle speedup too small on {row[0]}"
        oom_cells += int(row[4] == "OOM") + int(row[5] == "OOM")
    assert oom_cells >= 3, "expected several OOM cells as in the paper's Table 2"


def test_table3_sg_engine_comparison():
    table = run_table3()
    print("\n" + table.format())
    for row in table.rows:
        gpulog = _parse_seconds(row[2])
        hip = _parse_seconds(row[3])
        souffle = _parse_seconds(row[4])
        cudf = _parse_seconds(row[5])
        assert gpulog < hip < souffle, f"expected GPUlog < HIP < Souffle on {row[0]}"
        assert gpulog < cudf


def test_table4_cspa_speedup():
    table = run_table4()
    print("\n" + table.format())
    for row in table.rows:
        gpulog = _parse_seconds(row[6])
        souffle = _parse_seconds(row[7])
        speedup = souffle / gpulog
        assert speedup > 10, f"CSPA speedup {speedup:.1f}x too small on {row[0]}"


def test_table5_hardware_sweep():
    table = run_table5()
    print("\n" + table.format())
    for row in table.rows:
        h100, a100, mi250, mi50 = (float(cell) for cell in row[2:6])
        assert h100 <= a100 <= mi250 <= mi50, f"device ordering violated on {row[1]}"


def test_table6_microbenchmarks():
    table = run_table6()
    print("\n" + table.format())
    for row in table.rows:
        tuples = int(row[0].replace(",", ""))
        sort_ratio = float(row[3].rstrip("x"))
        merge_ratio = float(row[6].rstrip("x"))
        # The GPU wins at every size; at the smallest size (1M tuples) launch
        # overhead narrows the gap — the paper's own Table 6 shows the same
        # effect (merge: 0.03s vs 0.06s there).
        assert sort_ratio > 1.0 and merge_ratio > 1.0, f"GPU slower at {row[0]}"
        if tuples >= 10_000_000:
            assert sort_ratio > 3, f"GPU sort advantage too small at {row[0]}"
            assert merge_ratio > 2.5, f"GPU merge advantage too small at {row[0]}"
        if tuples >= 100_000_000:
            # At the largest sizes the bandwidth gap dominates completely.
            assert sort_ratio > 6, f"GPU sort advantage too small at {row[0]}"
            assert merge_ratio > 5, f"GPU merge advantage too small at {row[0]}"
