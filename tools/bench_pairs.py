#!/usr/bin/env python
"""Measure a claimed gain: alternating parent/change pairs of ``bench/run.py``.

Each pair runs ``bench/run.py --workload W --seed S --seconds X --trace 0``
once in the parent checkout and once in the change checkout, on the same
seed, with the side that runs first alternating from pair to pair (pair 0
starts with the parent).  Every run's result is printed as it lands; then,
for each end-to-end metric of ``BENCHMARK.json``, both medians, the parent's
quartiles, the change's win count and the verdict of the claim rule in
``docs/benchmarks.md``: the change wins at least nine tenths of the pairs
*and* its median is better than the parent's by more than the parent's
interquartile range.

    python tools/bench_pairs.py --parent ../parent --change . \\
        --workload cspa-httpd --pairs 10 --first-seed 1000

After the pairs, one ``--trace 1`` run per side at the first seed shows
*where* a saving sits: every per-layer metric of the simulated side (``sim_s``,
the ``sim.*_s`` phases, ``peak_device_bytes`` and the ``count.*`` counters,
which repeat exactly from run to run) that differs between the two sides is
printed with both values.

Exit status is non-zero when any run is not ``correct`` or has ``failed > 0``
(the verdicts are printed either way; a claim that does not hold is not an
error of the tool).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

#: The claim rule's share of pairs the change must win.
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Verdict:
    """One metric's summary over the pairs, and whether the claim holds."""

    parent_median: float
    change_median: float
    parent_q1: float
    parent_q3: float
    wins: int
    pairs: int
    holds: bool


def claim_verdict(parent: list[float], change: list[float], better: str = "lower") -> Verdict:
    """The claim rule over paired runs (``parent[i]`` and ``change[i]`` share a seed).

    A pair is a win when the change is strictly better.  The claim holds when
    the wins reach :data:`WIN_SHARE` of the pairs and the change's median is
    better than the parent's by more than ``q3 - q1`` of the parent's runs
    (inclusive quartiles).
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs, one parent and one change value each")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    holds = wins >= math.ceil(WIN_SHARE * len(parent)) and sign * (parent_median - change_median) > q3 - q1
    return Verdict(parent_median, change_median, q1, q3, wins, len(parent), holds)


def layer_diff(parent: dict, change: dict) -> list[tuple[str, "float | None", "float | None"]]:
    """``(name, parent value, change value)`` of every simulated per-layer
    metric of two traced result lines' ``metrics`` that differs (a metric
    one side lacks reads ``None`` there), by name."""
    def simulated(name: str) -> bool:
        return name in ("sim_s", "peak_device_bytes") or name.startswith(("sim.", "count."))

    def value(metrics: dict, name: str) -> "float | None":
        return metrics[name]["value"] if name in metrics else None

    names = sorted(name for name in set(parent) | set(change) if simulated(name))
    return [
        (name, value(parent, name), value(change, name))
        for name in names
        if value(parent, name) != value(change, name)
    ]


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``bench/run.py`` run in ``checkout`` (untraced unless ``trace``): its result line."""
    command = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        return {"correct": False, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def end_to_end_metrics(checkout: Path) -> list[tuple[str, str]]:
    """``(name, better)`` of every end-to-end metric ``checkout`` declares."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return [(metric["name"], metric["better"]) for metric in spec["end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True, help="pair i runs seed first_seed + i")
    parser.add_argument("--seconds", type=float, default=8.0, help="how long one run measures")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = end_to_end_metrics(sides["change"])
    values: dict[str, dict[str, list[float]]] = {side: {name: [] for name, _ in metrics} for side in sides}
    bad_runs = 0
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            ok = bool(result.get("correct")) and int(result.get("failed", 1)) == 0
            bad_runs += not ok
            shown = []
            for name, _ in metrics:
                value = result["metrics"].get(name, {}).get("value")
                if value is not None:
                    values[side][name].append(float(value))
                shown.append(f"{name}={value}")
            print(
                f"pair {pair:2d} seed {seed} {side:6s} {' '.join(shown)} "
                f"correct={result.get('correct')} failed={result.get('failed')}",
                flush=True,
            )

    print(f"\n{args.workload}: {args.pairs} pairs, first seed {args.first_seed}")
    print(f"{'metric':14s} {'parent p50':>11s} {'change p50':>11s} {'parent q1':>10s} {'parent q3':>10s} "
          f"{'wins':>6s}  claim")
    for name, better in metrics:
        parent, change = values["parent"][name], values["change"][name]
        if len(parent) != len(change) or len(parent) < 2:
            print(f"{name:14s} (not reported on every run)")
            continue
        verdict = claim_verdict(parent, change, better)
        print(
            f"{name:14s} {verdict.parent_median:11.4g} {verdict.change_median:11.4g} "
            f"{verdict.parent_q1:10.4g} {verdict.parent_q3:10.4g} {verdict.wins:>3d}/{verdict.pairs:<2d}  "
            f"{'holds' if verdict.holds else 'does not hold'}"
        )

    traced = {}
    for side in sides:
        result = run_once(sides[side], args.workload, args.first_seed, args.seconds, trace=1)
        bad_runs += not (bool(result.get("correct")) and int(result.get("failed", 1)) == 0)
        traced[side] = result["metrics"]
    differing = layer_diff(traced["parent"], traced["change"])
    print(f"\ntraced pair, seed {args.first_seed}: {len(differing)} simulated per-layer metric(s) differ")
    for name, parent_value, change_value in differing:
        print(f"{name:32s} {parent_value!s:>24s} {change_value!s:>24s}")
    if bad_runs:
        print(f"{bad_runs} run(s) not correct or with failed > 0", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
