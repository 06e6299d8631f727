"""The claim rule and the traced-pair diff of ``tools/bench_pairs.py`` on fixed numbers."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = sys.modules.setdefault("bench_pairs", importlib.util.module_from_spec(_SPEC))
_SPEC.loader.exec_module(bench_pairs)

PARENT = [744.0, 760.0, 731.0, 752.0, 748.0, 739.0, 770.0, 741.0, 755.0, 746.0]


def test_a_clear_gain_holds():
    change = [628.0, 640.0, 619.0, 633.0, 631.0, 625.0, 650.0, 622.0, 637.0, 629.0]
    verdict = bench_pairs.claim_verdict(PARENT, change)
    assert (verdict.wins, verdict.pairs, verdict.holds) == (10, 10, True)
    assert verdict.parent_median == 747.0 and verdict.change_median == 630.0
    # Inclusive quartiles of the sorted parent runs 731 ... 770.
    assert (verdict.parent_q1, verdict.parent_q3) == (741.75, 754.25)


def test_eight_wins_of_ten_do_not_hold():
    change = [p - 100.0 for p in PARENT]
    change[0] = change[1] = 800.0
    verdict = bench_pairs.claim_verdict(PARENT, change)
    assert verdict.wins == 8 and not verdict.holds


def test_a_gap_inside_the_parents_spread_does_not_hold():
    change = [p - 5.0 for p in PARENT]  # wins every pair, by less than q3 - q1 = 12.5
    verdict = bench_pairs.claim_verdict(PARENT, change)
    assert verdict.wins == 10 and not verdict.holds
    assert bench_pairs.claim_verdict(PARENT, [p - 13.0 for p in PARENT]).holds


def test_ties_are_not_wins_and_higher_is_better_flips_the_sign():
    assert bench_pairs.claim_verdict([1.0, 2.0], [1.0, 2.0]).wins == 0
    verdict = bench_pairs.claim_verdict([1.0, 1.1, 0.9, 1.0], [2.0, 2.1, 1.9, 2.0], better="higher")
    assert verdict.wins == 4 and verdict.holds
    assert not bench_pairs.claim_verdict([1.0, 1.1, 0.9, 1.0], [2.0, 2.1, 1.9, 2.0]).holds


def test_unpaired_or_single_runs_are_refused():
    with pytest.raises(ValueError):
        bench_pairs.claim_verdict([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        bench_pairs.claim_verdict([1.0], [0.5])


def metrics(**values):
    return {name.replace("__", "."): {"value": value, "unit": "u"} for name, value in values.items()}


def test_the_traced_pair_lists_every_simulated_metric_that_moved():
    parent = metrics(
        sim_s=0.008, sim__join_s=0.0023, sim__deduplication_s=0.0018, peak_device_bytes=102045696,
        count__kernel_launches=609, count__iterations=11, run_wall_s=1.5, backend__take__self_s=0.09,
    )
    change = metrics(
        sim_s=0.0079, sim__join_s=0.0018, sim__deduplication_s=0.0018, peak_device_bytes=28234848,
        count__kernel_launches=624, count__iterations=11, run_wall_s=1.2, backend__take__self_s=0.07,
        count__exchange_bytes=0.0,
    )
    assert bench_pairs.layer_diff(parent, change) == [
        ("count.exchange_bytes", None, 0.0),
        ("count.kernel_launches", 609, 624),
        ("peak_device_bytes", 102045696, 28234848),
        ("sim.join_s", 0.0023, 0.0018),
        ("sim_s", 0.008, 0.0079),
    ]
    # Host timings and span counters never appear; identical sides list nothing.
    assert bench_pairs.layer_diff(parent, parent) == []
