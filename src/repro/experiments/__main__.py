"""Command-line entry point: regenerate any table or figure of the paper.

Usage::

    python -m repro.experiments list
    python -m repro.experiments table2
    python -m repro.experiments table4 figure6
    python -m repro.experiments all
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from ..backend import BACKEND_ENV_VAR
from ..datalog.engine import OVERLAP_ENV_VAR, PLANNER_ENV_VAR, SHARDS_ENV_VAR
from ..datalog.planner import PLANNERS
from . import ALL_EXPERIMENTS
from .planner_bench import EXPLAIN_ENV_VAR
from .serving_workload import PROTECTED_ENV_VAR


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of 'Optimizing Datalog for the GPU'.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["list"],
        help="experiment names (e.g. table1 ... table6, figure1, figure6, "
        "ablation-materialization, ablation-load-factor), 'all', or 'list'",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="array backend for every engine run (numpy, cupy, guard, "
        f"guard:<name>); defaults to ${BACKEND_ENV_VAR} and then numpy",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count for every GPUlog run (partitioned multi-device "
        f"evaluation); defaults to ${SHARDS_ENV_VAR} and then 1",
    )
    parser.add_argument(
        "--planner",
        default=None,
        choices=sorted(PLANNERS),
        help="join planner for every GPUlog run (greedy = the rule body's "
        "order, cost+wcoj = the same order plus the worst-case-optimal "
        "generic join for cyclic, skewed rules); defaults "
        f"to ${PLANNER_ENV_VAR} and then greedy",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="dump each rule version's chosen join order, algorithm, and "
        "estimated vs. observed cardinalities after planner-aware runs "
        f"(exports {EXPLAIN_ENV_VAR}=1)",
    )
    parser.add_argument(
        "--no-exchange-overlap",
        action="store_true",
        help="ablation: disable double-buffered exchange/compute overlap in "
        f"sharded runs (exports {OVERLAP_ENV_VAR}=0)",
    )
    parser.add_argument(
        "--serving-protected",
        action="store_true",
        help="add epoch-transactional rows (disk WAL + per-epoch durable "
        "checkpoints) to the serving experiment next to the unprotected "
        f"baseline (exports {PROTECTED_ENV_VAR}=1)",
    )
    args = parser.parse_args(argv)
    if args.backend:
        # One switch retargets every Device the experiment drivers build.
        os.environ[BACKEND_ENV_VAR] = args.backend
    if args.shards is not None:
        if args.shards < 1:
            parser.error("--shards must be >= 1")
        # Same pattern as --backend: every GPULogEngine the drivers build
        # resolves its default shard count from this variable.
        os.environ[SHARDS_ENV_VAR] = str(args.shards)
    if args.planner:
        # Same pattern again: drivers that build engines without an explicit
        # planner resolve their default from this variable.
        os.environ[PLANNER_ENV_VAR] = args.planner
    if args.explain:
        os.environ[EXPLAIN_ENV_VAR] = "1"
    if args.no_exchange_overlap:
        os.environ[OVERLAP_ENV_VAR] = "0"
    if args.serving_protected:
        os.environ[PROTECTED_ENV_VAR] = "1"

    requested = list(args.experiments)
    if not requested or requested == ["list"]:
        print("available experiments:")
        for name in ALL_EXPERIMENTS:
            print(f"  {name}")
        return 0
    if requested == ["all"]:
        requested = list(ALL_EXPERIMENTS)

    unknown = [name for name in requested if name not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2

    for name in requested:
        start = time.time()
        table = ALL_EXPERIMENTS[name]()
        elapsed = time.time() - start
        print(table.format())
        print(f"(regenerated {name} in {elapsed:.1f}s wall time)")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
