"""Serving-trickle experiment: incremental epoch latency vs re-fixpoint.

A serving tier keeps the fixpoint resident and maintains it differentially;
the alternative — what a stateless batch deployment pays — is a full
re-fixpoint over the whole EDB on every mutation batch.  This driver runs
both against two trickle workloads (SG tree leaves and dense-digraph TC,
|Δ|/|EDB| <= 1% per epoch) and reports insert/retract epoch latency
percentiles in simulated seconds next to the re-fixpoint cost, so the O(Δ)
vs O(|EDB|) gap is a table; ``tests/ci/test_simulated_floors.py`` floors the
median insert epoch of the same script at 5x.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from ..datalog.engine import GPULogEngine
from ..queries import REACH_SOURCE, SG_SOURCE
from ..serving import ServingEngine
from .runner import ResultTable

#: Default scales: large enough that the re-fixpoint dwarfs an epoch, small
#: enough for the experiments CLI smoke run.
SG_DEPTH, SG_FAN = 6, 3
TC_NODES, TC_DRAWS = 400, 3200

#: Set to 1 (``repro-experiments serving --serving-protected``) to add rows
#: for the epoch-transactional configuration: a disk WAL with
#: fsync-on-commit plus per-epoch durable checkpoints in a temp directory.
PROTECTED_ENV_VAR = "REPRO_SERVING_PROTECTED"


def sg_tree_edges(depth: int, fan: int) -> np.ndarray:
    """Balanced tree edges — the SG workload shape (many same-level pairs)."""
    edges: list[tuple[int, int]] = []
    frontier = [0]
    next_id = 1
    for _ in range(depth):
        grown: list[int] = []
        for parent in frontier:
            for _ in range(fan):
                edges.append((parent, next_id))
                grown.append(next_id)
                next_id += 1
        frontier = grown
    return np.array(edges, dtype=np.int64)


def dense_digraph_edges(nodes: int, draws: int, seed: int = 7) -> np.ndarray:
    """A dense random digraph (one giant SCC, |reach| ~ nodes^2).

    Dense is deliberate: on sparse graphs a single trickle batch can extend
    long paths and trigger many delta iterations, making epoch latency
    volatile; in a giant SCC each batch converges in ~2 iterations, so the
    percentiles measure incremental maintenance, not graph diameter.
    """
    rng = np.random.default_rng(seed)
    edges = np.unique(rng.integers(0, nodes, size=(draws, 2), dtype=np.int64), axis=0)
    return edges[edges[:, 0] != edges[:, 1]]


def trickle_epochs(
    source: str,
    edges: np.ndarray,
    count_name: str,
    *,
    batch: int,
    epochs: int,
    retract_epochs: int,
    protected: bool = False,
) -> dict:
    """Run the trickle script against one resident engine; return latencies.

    The final ``batch * epochs`` EDB rows are held out of the bootstrap and
    injected one batch per epoch; ``retract_epochs`` then delete the first
    few batches again via DRed.  The comparator is the batch engine's full
    re-fixpoint over the same final EDB, checked for count equality.
    ``protected`` runs the engine in its epoch-transactional configuration:
    a disk WAL (fsync on commit markers) plus a durable checkpoint per
    epoch, both in a temp directory discarded afterwards.
    """
    held = edges[-batch * epochs :]
    base = edges[: -batch * epochs]
    insert_sims: list[float] = []
    retract_sims: list[float] = []
    with tempfile.TemporaryDirectory() as tmp:
        extra: dict = {}
        if protected:
            from ..relational import DiskCheckpointStore
            from ..serving import DiskWal

            extra = {
                "wal": DiskWal(os.path.join(tmp, "wal.jsonl")),
                "checkpoint_store": DiskCheckpointStore(os.path.join(tmp, "ckpt")),
            }
        with ServingEngine(
            source, {"edge": base}, background=False, fault_plan="none", **extra
        ) as engine:
            for index in range(epochs):
                chunk = held[index * batch : (index + 1) * batch]
                insert_sims.append(
                    engine.submit(inserts={"edge": chunk}).result().simulated_seconds
                )
            final_count = engine.query(count_name).count
            for index in range(retract_epochs):
                chunk = held[index * batch : (index + 1) * batch]
                retract_sims.append(
                    engine.submit(retracts={"edge": chunk}).result().simulated_seconds
                )

    refixpoint = GPULogEngine(
        device="h100", oom_enabled=False, collect_relations=False, fault_plan="none"
    )
    try:
        refixpoint.add_fact_array("edge", edges)
        result = refixpoint.run(source)
        if result.count(count_name) != final_count:
            raise AssertionError(
                f"serving diverged: |{count_name}|={final_count} vs "
                f"re-fixpoint {result.count(count_name)}"
            )
        full_simulated = result.elapsed_seconds
    finally:
        refixpoint.close()
    return {
        "edges": int(edges.shape[0]),
        "batch": batch,
        "count": final_count,
        "full": full_simulated,
        "inserts": insert_sims,
        "retracts": retract_sims,
    }


def _milliseconds(value: float) -> str:
    return f"{value * 1e3:.3f}"


def _add_rows(table: ResultTable, name: str, info: dict) -> None:
    for phase, sims in (("insert", info["inserts"]), ("retract", info["retracts"])):
        if not sims:
            continue
        p50 = float(np.percentile(sims, 50))
        p95 = float(np.percentile(sims, 95))
        worst = max(sims)
        table.add_row(
            name,
            phase,
            len(sims),
            f"{info['batch'] / info['edges'] * 100:.2f}%",
            _milliseconds(p50),
            _milliseconds(p95),
            _milliseconds(worst),
            _milliseconds(info["full"]),
            f"{info['full'] / max(1e-12, p50):.1f}x",
        )


def run_serving_workload(
    sg_depth: int = SG_DEPTH,
    sg_fan: int = SG_FAN,
    tc_nodes: int = TC_NODES,
    tc_draws: int = TC_DRAWS,
) -> ResultTable:
    """Epoch-latency percentiles for both trickle workloads vs re-fixpoint."""
    table = ResultTable(
        title="Serving trickle epochs vs full re-fixpoint (simulated milliseconds)",
        headers=[
            "workload", "phase", "epochs", "Δ/EDB",
            "p50", "p95", "max", "re-fixpoint", "p50 speedup",
        ],
    )
    protected_arms = (False, True) if os.environ.get(PROTECTED_ENV_VAR) == "1" else (False,)
    counts: dict[str, int] = {}
    for name, source, edges, count_name, batch, epochs in (
        (f"sg tree d{sg_depth}f{sg_fan}", SG_SOURCE, sg_tree_edges(sg_depth, sg_fan), "sg", 8, 8),
        (f"tc dense n={tc_nodes}", REACH_SOURCE, dense_digraph_edges(tc_nodes, tc_draws), "reach", 16, 6),
    ):
        for protected in protected_arms:
            info = trickle_epochs(
                source, edges, count_name,
                batch=batch, epochs=epochs, retract_epochs=4, protected=protected,
            )
            label = f"{name} [protected]" if protected else name
            _add_rows(table, label, info)
            counts[count_name] = info["count"]
    table.add_note(
        f"final |sg|={counts['sg']}, |reach|={counts['reach']}; every epoch verified "
        "against a from-scratch fixpoint over the same final EDB"
    )
    table.add_note(
        "retract epochs run DRed (over-delete + re-derive) and may legitimately "
        "cost more than insert epochs; only insert epochs are floored (>= 5x)"
    )
    if len(protected_arms) > 1:
        table.add_note(
            "[protected] rows run the epoch-transactional configuration: disk "
            "WAL with fsync-on-commit plus a durable checkpoint every epoch "
            "(WAL fsyncs are host work the simulated clock does not charge)"
        )
    return table
