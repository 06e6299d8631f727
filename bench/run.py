"""The repo's benchmark: seven workloads, two clocks, per-layer spans.

    python bench/run.py                       every workload, untraced then traced, as a table
    python bench/run.py --workload sg-tree --seed 3 --seconds 8 --trace 0
                                              one measured run; last stdout line is the result

One run of one workload happens in one process: set-up, then the workload's
operation repeated for ``--seconds``, every output checked against the
oracle.  ``--trace 0`` reports the end-to-end metrics from an untouched
program; ``--trace 1`` does the same and then one more pass with
``bench/trace.py``'s wrappers installed, reports the per-layer metrics and
writes ``bench/out/trace-<workload>.json``.  The result line has exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the names and
units of the metrics are those ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys

import env

BENCHMARK_JSON = os.path.join(env.ROOT, "BENCHMARK.json")


def declared() -> dict:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_one(name: str, seed: int, seconds: float, traced: bool, quick: bool) -> int:
    import drivers
    import workloads

    spec = declared()
    workload = workloads.WORKLOADS[name]
    trace_path = os.path.join(env.OUT_DIR, f"trace-{name}.json")
    if workload.stream is None:
        tally, end_to_end, layers = drivers.measure_batch(workload, seed, seconds, quick, traced, trace_path)
    else:
        directory = os.path.join(env.OUT_DIR, f"durable-{os.getpid()}")
        tally, end_to_end, layers = drivers.measure_serving(workload, seed, seconds, quick, traced, trace_path, directory)
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    values = layers if traced else end_to_end
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    names = {metric["name"] for metric in spec["per_layer" if traced else "end_to_end"]}
    if set(values) != names:
        print(f"bench: metrics differ from BENCHMARK.json: {sorted(set(values) ^ names)}", file=sys.stderr)
        return 3
    for metric, value in {**end_to_end, **(layers if traced else {})}.items():
        if value or metric in end_to_end:
            print(f"{metric} {value:.6g} {units[metric]}")
    print(f"failed_share {tally.failed / tally.attempted:.6g} ratio ({tally.failed} of {tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in values.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, quick: bool) -> int:
    """Each workload in its own child process, one after the other (two cores:
    the client thread and the serving worker); untraced first, then traced."""
    results: dict[str, dict] = {}
    for workload in declared()["workloads"]:
        for traced in (0, 1):
            command = [sys.executable, os.path.abspath(__file__), "--workload", workload["name"],
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
            done = subprocess.run(command + (["--quick"] if quick else []), stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"bench: {workload['name']} --trace {traced} exited {done.returncode}", file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            entry = results.setdefault(workload["name"], {"attempted": 0, "failed": 0, "metrics": {}})
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["metrics"].update(result["metrics"])
    with open(os.path.join(env.OUT_DIR, "results.json"), "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, "seconds": seconds, "quick": quick, "workloads": results}, handle, indent=1)
    print_table(results)
    return 1 if any(entry["failed"] for entry in results.values()) else 0


def print_table(results: dict[str, dict]) -> None:
    names = list(results)
    print(f"{'metric':44} {'unit':8} " + " ".join(f"{name:>14}" for name in names))
    rows = {metric: info["unit"] for entry in results.values() for metric, info in entry["metrics"].items()}
    for metric, unit in rows.items():
        cells = [results[name]["metrics"][metric]["value"] for name in names]
        print(f"{metric:44} {unit:8} " + " ".join(f"{cell:14.6g}" for cell in cells))
    shares = [results[name]["failed"] / results[name]["attempted"] for name in names]
    print(f"{'failed_share':44} {'ratio':8} " + " ".join(f"{share:14.6g}" for share in shares))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this workload only and print a result line")
    parser.add_argument("--seed", type=int, default=0, help="draws the labelling and row order of the inputs")
    parser.add_argument("--seconds", type=float, help="how long one run measures (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small shapes, oracle evaluated live: for the smoke test only")
    arguments = parser.parse_args()
    env.prepare()
    seconds = arguments.seconds if arguments.seconds is not None else (0.05 if arguments.quick else declared()["run_seconds"])
    if arguments.workload is None:
        return run_all(arguments.seed, seconds, arguments.quick)
    return run_one(arguments.workload, arguments.seed, seconds, bool(arguments.trace), arguments.quick)


if __name__ == "__main__":
    sys.exit(main())
