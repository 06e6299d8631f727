"""Tests for the experiment harness (scale factors, re-pricing, figure drivers)."""

import pytest

from repro.datalog.engine import SHARDS_ENV_VAR
from repro.device import device_preset
from repro.experiments import (
    FIGURE1_SG,
    ResultTable,
    clear_caches,
    paper_output_size,
    project_seconds,
    query_program,
    reprice_events,
    reprice_phase_seconds,
    run_figure1,
    run_gpulog,
    run_load_factor_ablation,
    scale_factor,
)
from repro.experiments.table6_microbench import run_table6


def setup_module(module):
    clear_caches()


def test_result_table_formatting():
    table = ResultTable(title="Demo", headers=["a", "b"])
    table.add_row(1, "xx")
    table.add_row("yyyy", 2.5)
    table.add_note("a note")
    text = table.format()
    assert "Demo" in text and "yyyy" in text and "note: a note" in text


def test_query_program_lookup():
    assert query_program("reach").name == "reach"
    with pytest.raises(ValueError):
        query_program("nope")


def test_scale_factor_and_projection():
    assert paper_output_size("com-dblp", "reach") == 1_910_000_000
    assert scale_factor("com-dblp", "reach", 1_910_000) == pytest.approx(1000.0)
    assert scale_factor("com-dblp", "reach", 0) == 1.0
    assert project_seconds(0.5, 0.001, 1000) == pytest.approx(1.5)


def test_figure1_trace_matches_paper():
    table, sg = run_figure1()
    assert sg == FIGURE1_SG
    assert len(table.rows) >= 2


def test_run_gpulog_caches_and_repricing(monkeypatch):
    # The events re-priced are one device's, so the run must be on one device.
    monkeypatch.setenv(SHARDS_ENV_VAR, "1")
    clear_caches()
    result, events = run_gpulog("SF.cedge", "reach", profile="test")
    result2, events2 = run_gpulog("SF.cedge", "reach", profile="test")
    assert result2 is result and events2 is events

    h100_total, h100_fixed, h100_variable = reprice_events(events, "h100")
    assert h100_total == pytest.approx(result.elapsed_seconds, rel=1e-6)
    assert h100_fixed + h100_variable == pytest.approx(h100_total)

    cpu_total, _, _ = reprice_events(events, "epyc-7543p")
    assert cpu_total > h100_total

    mi50_phases = reprice_phase_seconds(events, device_preset("mi50"))
    assert sum(mi50_phases.values()) > 0


def test_device_ordering_after_projection():
    """Table 5's claim: H100 <= A100 <= MI250 <= MI50 once data terms dominate."""
    _, events = run_gpulog("SF.cedge", "reach", profile="test")
    scale = 1000.0
    projected = []
    for device in ("h100", "a100", "mi250", "mi50"):
        _, fixed, variable = reprice_events(events, device)
        projected.append(project_seconds(fixed, variable, scale))
    assert projected == sorted(projected)


def test_load_factor_ablation_small():
    table = run_load_factor_ablation(n_keys=2000, load_factors=(0.5, 0.9))
    assert len(table.rows) == 2
    slots_low, slots_high = int(table.rows[0][1]), int(table.rows[1][1])
    assert slots_low >= slots_high  # lower load factor needs more slots


def test_table6_microbench_gpu_wins():
    table = run_table6(paper_sizes=(100_000_000,), size_scale=1000)
    row = table.rows[0]
    sort_ratio = float(row[3].rstrip("x"))
    merge_ratio = float(row[6].rstrip("x"))
    assert sort_ratio > 4
    assert merge_ratio > 2
