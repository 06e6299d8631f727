"""Two-set agreement: run the whole benchmark twice on the same code and fail
unless the second set is within each end-to-end bound of the first and every
exact number (the simulated clock, device peak, ``sim.*`` and ``count.*``) is
identical.  Prints both sets side by side.

    python bench/selfcheck.py [--seed N] [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import env
import run


def exact(metric: str) -> bool:
    return metric.startswith(("sim.", "count.")) or metric in ("sim_s", "peak_device_bytes")


def one_set(arguments: list[str]) -> dict:
    done = subprocess.run([sys.executable, os.path.join(env.BENCH_DIR, "run.py"), *arguments], stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        raise SystemExit(f"selfcheck: the benchmark exited {done.returncode}")
    with open(os.path.join(env.OUT_DIR, "results.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    arguments = parser.parse_args()
    passed_on = ["--seed", str(arguments.seed)] + (["--quick"] if arguments.quick else [])
    first, second = one_set(passed_on), one_set(passed_on)
    bounds = {metric["name"]: metric["bound"] for metric in run.declared()["end_to_end"]}

    disagreements = 0
    print(f"{'workload':16} {'metric':44} {'first':>14} {'second':>14}  verdict")
    for workload, entry in first.items():
        for metric, info in entry["metrics"].items():
            a, b = info["value"], second[workload]["metrics"][metric]["value"]
            if metric in bounds:
                ok = b <= a * (1.0 + bounds[metric])
                verdict = f"within {bounds[metric]:.0%}" if ok else f"WORSE by more than {bounds[metric]:.0%}"
            elif exact(metric):
                ok = a == b
                verdict = "identical" if ok else "DIFFERS"
            else:
                ok, verdict = True, ""
            disagreements += not ok
            if a or b:
                print(f"{workload:16} {metric:44} {a:14.6g} {b:14.6g}  {verdict}")
    print(f"selfcheck: {disagreements} disagreement(s)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
