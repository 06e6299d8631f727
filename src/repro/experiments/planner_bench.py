"""Cyclic-pattern workloads for the join-planner ablation (triangle, 4-clique).

Triangle counting and 4-clique enumeration are the canonical queries where
binary join plans are worst-case suboptimal: on a skewed graph the first
binary join materializes every *wedge* (two-edge path), which a hub vertex
inflates quadratically, while the generic join's per-row min-side
intersection never expands more than the smallest candidate run.  The
:func:`hub_graph` generator produces exactly that regime — one hub connected
both ways to every vertex plus a sparse random remainder — so the
``greedy``/``cost+wcoj`` planner ablation separates cleanly.
"""

from __future__ import annotations

import os

import numpy as np

from ..datalog.engine import PLANNER_ENV_VAR, EvaluationResult, GPULogEngine
from .runner import ResultTable, format_seconds

#: Exported by the experiments CLI's ``--explain`` flag: dump each rule
#: version's chosen join order, algorithm, and estimated vs. observed
#: cardinalities after every planner-workload run.
EXPLAIN_ENV_VAR = "REPRO_EXPLAIN"

TRIANGLE_PROGRAM = "triangle(x, y, z) :- edge(x, y), edge(y, z), edge(z, x).\n"

CLIQUE4_PROGRAM = (
    "clique4(x, y, z, w) :- edge(x, y), edge(y, z), edge(z, x), "
    "edge(x, w), edge(y, w), edge(z, w).\n"
)

#: Default scales: large enough that the binary plan's wedge intermediate
#: dwarfs the output (and the generic join wins on simulated time), small
#: enough for a CI smoke run.
TRIANGLE_NODES = 2000
CLIQUE4_NODES = 500


def hub_graph(n: int, extra: int | None = None, seed: int = 7) -> np.ndarray:
    """A skewed edge set: vertex 0 linked both ways to all, plus random edges.

    Max degree is ~``n`` while the average stays ~4, so worst-case join
    estimates (hub multiplicity) and average-case ones diverge by orders of
    magnitude — the planner's WCOJ trigger.
    """
    if extra is None:
        extra = 2 * n
    rng = np.random.default_rng(seed)
    rows = [(0, v) for v in range(1, n)] + [(v, 0) for v in range(1, n)]
    src = rng.integers(1, n, size=extra)
    dst = rng.integers(1, n, size=extra)
    rows += [(int(a), int(b)) for a, b in zip(src, dst) if a != b]
    return np.unique(np.asarray(rows, dtype=np.int64), axis=0)


def wedge_count(edges: np.ndarray) -> int:
    """Rows the binary plan's first join (edge ⋈ edge on y) materializes."""
    _, out_degree = np.unique(edges[:, 0], return_counts=True)
    out_by_node = dict(zip(np.unique(edges[:, 0]).tolist(), out_degree.tolist()))
    return int(sum(out_by_node.get(int(y), 0) for y in edges[:, 1]))


def run_planner_workload(
    program: str,
    head: str,
    edges: np.ndarray,
    planner: str,
    *,
    num_shards: int = 1,
    collect: bool = False,
) -> tuple[EvaluationResult, str]:
    """One engine run of a cyclic workload under ``planner``; returns
    (result, explain dump)."""
    engine = GPULogEngine(
        "h100", planner=planner, num_shards=num_shards, collect_relations=collect
    )
    try:
        engine.add_fact_array("edge", edges)
        result = engine.run(program, name=head)
        return result, engine.explain()
    finally:
        engine.close()


def _version_summary(result: EvaluationResult, head: str) -> dict:
    """The recursive-or-only version entry for ``head`` from the plan report."""
    entries = [entry for entry in result.plan_report if entry["head"] == head]
    return entries[0] if entries else {}


def _run_workload_table(
    title: str, program: str, head: str, edges: np.ndarray
) -> ResultTable:
    explain = os.environ.get(EXPLAIN_ENV_VAR, "").strip() not in ("", "0", "false", "no", "off")
    table = ResultTable(
        title=title,
        headers=["planner", "algorithm", "tuples", "seconds", "speedup", "est_rows", "obs_rows"],
    )
    planners = [os.environ[PLANNER_ENV_VAR]] if os.environ.get(PLANNER_ENV_VAR) else ["greedy", "cost+wcoj"]
    baseline_seconds: float | None = None
    for planner in planners:
        result, dump = run_planner_workload(program, head, edges, planner)
        summary = _version_summary(result, head)
        if baseline_seconds is None:
            baseline_seconds = result.elapsed_seconds
        speedup = baseline_seconds / result.elapsed_seconds if result.elapsed_seconds else 0.0
        estimated = summary.get("estimated_rows")
        table.add_row(
            planner,
            summary.get("algorithm", "?"),
            result.count(head),
            format_seconds(result.elapsed_seconds),
            f"{speedup:.2f}x",
            f"{estimated:.0f}" if estimated is not None else "n/a",
            f"{summary.get('observed_rows', 0.0):.0f}",
        )
        if explain:
            for line in dump.splitlines():
                table.add_note(f"[{planner}] {line}")
    table.add_note(
        f"hub graph: {edges.shape[0]} edges, binary wedge intermediate = {wedge_count(edges)} rows"
    )
    return table


def run_triangle(nodes: int = TRIANGLE_NODES) -> ResultTable:
    """Triangle counting on the hub graph under both planners."""
    return _run_workload_table(
        f"Triangle count (hub graph, n={nodes})",
        TRIANGLE_PROGRAM,
        "triangle",
        hub_graph(nodes),
    )


def run_clique4(nodes: int = CLIQUE4_NODES) -> ResultTable:
    """4-clique enumeration on the hub graph under both planners."""
    return _run_workload_table(
        f"4-clique count (hub graph, n={nodes})",
        CLIQUE4_PROGRAM,
        "clique4",
        hub_graph(nodes, 3 * nodes),
    )
