"""Process environment every benchmark entry point starts from."""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


def prepare() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/`` and drop every
    ``REPRO_*`` variable, so no ambient setting (backend, shard count, planner,
    fault plan) changes the load.  Exits 2 where there is no source tree."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"bench: no program to measure: {source}/repro is missing", file=sys.stderr)
        raise SystemExit(2)
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    if source not in sys.path:
        sys.path.insert(0, source)
    os.makedirs(OUT_DIR, exist_ok=True)
