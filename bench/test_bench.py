"""The benchmark's own smoke tests: ``python -m pytest bench -q``.

Outside the tier-1 ``testpaths``; they run the ``--quick`` shapes only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import defaultdict

import pytest

import env
import run
import trace
import workloads


@pytest.fixture(scope="module")
def quick_results() -> dict:
    started = time.perf_counter()
    done = subprocess.run([sys.executable, os.path.join(env.BENCH_DIR, "run.py"), "--quick"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    with open(os.path.join(env.OUT_DIR, "results.json"), "r", encoding="utf-8") as handle:
        results = json.load(handle)
    results["elapsed"] = elapsed
    return results


def test_quick_runs_end_to_end_in_time(quick_results):
    assert quick_results["elapsed"] < 20.0
    assert all(entry["failed"] == 0 and entry["attempted"] > 0 for entry in quick_results["workloads"].values())


def test_every_declared_name_is_emitted_and_nothing_else(quick_results):
    spec = run.declared()
    declared = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(quick_results["workloads"]) == list(workloads.WORKLOADS)
    for name, entry in quick_results["workloads"].items():
        emitted = {metric: info["unit"] for metric, info in entry["metrics"].items()}
        assert emitted == declared, name


def test_same_seed_same_inputs_other_seed_other_inputs():
    for workload in workloads.WORKLOADS.values():
        digests = [workloads.build(workload, seed, quick=True).digest for seed in (0, 0, 1)]
        assert digests[0] == digests[1] != digests[2], workload.name


def test_self_times_add_up_to_each_root(quick_results):
    for name in quick_results["workloads"]:
        with open(os.path.join(env.OUT_DIR, f"trace-{name}.json"), "r", encoding="utf-8") as handle:
            document = json.load(handle)
        spans = [[span[1], span[2], span[3], span[4]] for span in document["spans"]]  # name, start, end, parent
        children = defaultdict(list)
        for number, span in enumerate(spans):
            if span[3] is not None:
                children[span[3]].append(number)

        def subtree_self(number: int) -> float:
            own = trace.self_seconds(spans[number], [spans[child] for child in children[number]])
            return own + sum(subtree_self(child) for child in children[number])

        roots = [number for number, span in enumerate(spans) if span[3] is None]
        assert roots, name
        for root in roots:
            duration = spans[root][2] - spans[root][1]
            assert subtree_self(root) == pytest.approx(duration, rel=0.01, abs=1e-6), (name, spans[root][0])


def test_every_wrapped_binding_is_restored():
    env.prepare()
    import repro.serving  # noqa: F401  (loads every module a target lives in)

    before = trace.bindings()
    tracer = trace.Tracer()
    tracer.install()
    assert all(now is not was for (*_, now), (*_, was) in zip(trace.bindings(), before))
    tracer.uninstall()
    after = trace.bindings()
    assert len(after) == len(before) and all(now is was for (*_, now), (*_, was) in zip(after, before))
