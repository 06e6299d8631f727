"""The seven benchmark workloads: Datalog sources, input generators, scripts.

Nothing here imports ``repro.datasets`` / ``repro.queries`` / ``repro.experiments``:
the generator shapes and programs are copies taken at the commit that defined
the benchmark, so a later change under ``src/`` cannot change the load.

Every instance has one *canonical* form (what the oracle evaluates and
``expected.json`` pins) whose random structure is drawn from a fixed shape
seed.  ``--seed`` draws what the program actually receives: a random
relabelling of the node ids plus a shuffle of each fact array's row order.
That gives distinct inputs per seed (different hash placement, sort orders,
partitioning) whose work is the same to within hash-collision noise — the
run-to-run spread of a metric then measures the machine, not the draw — and
lets any seed be verified against the pins by mapping output rows back
through the inverse relabelling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

SG_SOURCE = """
sg(x, y) :- edge(p, x), edge(p, y), x != y.
sg(x, y) :- edge(a, x), sg(a, b), edge(b, y), x != y.
"""

REACH_SOURCE = """
reach(x, y) :- edge(x, y).
reach(x, y) :- edge(x, z), reach(z, y).
"""

CSPA_SOURCE = """
valueflow(y, x) :- assign(y, x).
valueflow(x, y) :- assign(x, z), memalias(z, y).
valueflow(x, y) :- valueflow(x, z), valueflow(z, y).
valueflow(x, x) :- assign(x, y).
valueflow(x, x) :- assign(y, x).
valuealias(x, y) :- valueflow(z, x), valueflow(z, y).
valuealias(x, y) :- valueflow(z, x), memalias(z, w), valueflow(w, y).
memalias(x, w) :- dereference(y, x), valuealias(y, z), dereference(z, w).
"""

TRIANGLE_SOURCE = "triangle(x, y, z) :- edge(x, y), edge(y, z), edge(z, x).\n"

#: What every engine of every workload is built with.
ENGINE = {"device": "h100", "backend": "numpy", "fault_plan": "none"}


# ----------------------------------------------------------------------
# Generators (shapes copied from src/repro at the defining commit)
# ----------------------------------------------------------------------
def _unique_rows(rows: list[tuple[int, int]]) -> np.ndarray:
    return np.unique(np.asarray(rows, dtype=np.int64), axis=0)


def tree_edges(depth: int, fan: int) -> np.ndarray:
    """Balanced tree, parents before children; the last level's edges come last."""
    edges, frontier, next_id = [], [0], 1
    for _ in range(depth):
        grown = []
        for parent in frontier:
            for _ in range(fan):
                edges.append((parent, next_id))
                grown.append(next_id)
                next_id += 1
        frontier = grown
    return np.array(edges, dtype=np.int64)


def road_edges(length: int, width: int, shortcut_probability: float, shape_seed: int) -> np.ndarray:
    """Directed ``length x width`` grid with sparse two-ahead shortcut edges."""
    rng = np.random.default_rng(shape_seed)
    edges = []
    for i in range(length):
        for j in range(width):
            node = i * width + j
            if i + 1 < length:
                edges.append((node, node + width))
            if j + 1 < width:
                edges.append((node, node + 1))
            if i + 2 < length and rng.random() < shortcut_probability:
                edges.append((node, node + 2 * width))
    return _unique_rows(edges)


def hub_edges(n: int, shape_seed: int) -> np.ndarray:
    """Vertex 0 linked both ways to every vertex, plus ``2n`` random edges."""
    rng = np.random.default_rng(shape_seed)
    rows = [(0, v) for v in range(1, n)] + [(v, 0) for v in range(1, n)]
    src = rng.integers(1, n, size=2 * n)
    dst = rng.integers(1, n, size=2 * n)
    rows += [(int(a), int(b)) for a, b in zip(src, dst) if a != b]
    return _unique_rows(rows)


def cspa_facts(
    n_functions: int,
    variables_per_function: int,
    chain_length: int,
    fan_in: int,
    call_chain_length: int,
    pointer_fraction: float,
    shape_seed: int,
) -> dict[str, np.ndarray]:
    """Program-shaped ``assign`` / ``dereference`` EDB (one inter-function
    assign and two dereferences per pointer, as the httpd-shaped input uses)."""
    rng = np.random.default_rng(shape_seed)
    assigns, dereferences = [], []
    per = variables_per_function
    for function in range(n_functions):
        first = function * per
        local = 0
        for _ in range(max(1, per // (chain_length + 1))):
            head = local
            for _ in range(chain_length):
                if local + 1 >= per:
                    break
                assigns.append((first + local + 1, first + local))
                local += 1
            local += 1
            for _ in range(fan_in):
                source = int(rng.integers(0, per))
                if source != head:
                    assigns.append((first + head, first + source))
        same_chain = (function + 1) // call_chain_length == function // call_chain_length
        if function + 1 < n_functions and same_chain:
            src = int(rng.integers(0, per))
            dst = int(rng.integers(0, per))
            assigns.append((first + per + dst, first + src))
        pointers = rng.choice(per, size=max(1, int(per * pointer_fraction)), replace=False)
        for pointer in pointers:
            for _ in range(2):
                value = int(rng.integers(0, per))
                if value != int(pointer):
                    dereferences.append((first + int(pointer), first + value))
    assign = _unique_rows(assigns)
    return {"assign": assign[assign[:, 0] != assign[:, 1]], "dereference": _unique_rows(dereferences)}


# ----------------------------------------------------------------------
# Instances: the canonical inputs an oracle answer is pinned for
# ----------------------------------------------------------------------
def _sg_tree(quick: bool) -> dict[str, np.ndarray]:
    return {"edge": tree_edges(4, 3) if quick else tree_edges(6, 3)}


def _reach_road(quick: bool) -> dict[str, np.ndarray]:
    return {"edge": road_edges(40, 3, 0.02, 0) if quick else road_edges(300, 4, 0.02, 0)}


def _cspa_httpd(quick: bool) -> dict[str, np.ndarray]:
    if quick:
        return cspa_facts(3, 12, 3, 1, 3, 0.25, 61)
    return cspa_facts(12, 26, 4, 2, 6, 0.2, 61)


def _triangle_hub(quick: bool) -> dict[str, np.ndarray]:
    return {"edge": hub_edges(400 if quick else 32_000, 7)}


@dataclass(frozen=True)
class Stream:
    """Serving script over a tree: the last ``held_out`` edges stay out of the
    bootstrap and arrive ``batch`` per epoch; retract epochs then delete the
    earliest batches again, one each."""

    held_out: int
    batch: int
    insert_epochs: int
    retract_epochs: int = 0
    recovers: int = 0
    durable: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instance: str
    source: str
    outputs: tuple[str, ...]
    engine: dict = field(default_factory=dict)
    stream: Stream | None = None
    quick_stream: Stream | None = None


INSTANCES = {
    "sg-tree": (_sg_tree, SG_SOURCE),
    "reach-road": (_reach_road, REACH_SOURCE),
    "cspa-httpd": (_cspa_httpd, CSPA_SOURCE),
    "triangle-hub": (_triangle_hub, TRIANGLE_SOURCE),
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sg-tree",
            "README path with huge per-iteration deltas: result download and decode dominate, merge second",
            "sg-tree", SG_SOURCE, ("sg",),
        ),
        Workload(
            "reach-road",
            "296 tiny iterations: HISA merge, hash-slot updates and per-iteration fixed overhead dominate",
            "reach-road", REACH_SOURCE, ("reach",),
        ),
        Workload(
            "cspa-httpd",
            "three mutually recursive relations with 10M-row intermediates: join, sort and dedup; host memory",
            "cspa-httpd", CSPA_SOURCE, ("valueflow", "valuealias", "memalias"),
        ),
        Workload(
            "triangle-hub",
            "non-recursive cyclic join under cost+wcoj: stats, planning, index build, one generic join, no merge",
            "triangle-hub", TRIANGLE_SOURCE, ("triangle",), engine={"planner": "cost+wcoj"},
        ),
        Workload(
            "sg-tree-4shard",
            "sg-tree's input on 4 shards: the only load on the sharded evaluator and the exchange kernels",
            "sg-tree", SG_SOURCE, ("sg",), engine={"num_shards": 4},
        ),
        Workload(
            "serve-trickle",
            "resident SG, closed loop of 2-edge insert epochs each followed by a full read, then DRed retracts",
            "sg-tree", SG_SOURCE, ("sg",),
            stream=Stream(320, 2, 100, 4),
            quick_stream=Stream(16, 2, 8, 2),
        ),
        Workload(
            "serve-durable",
            "same stream with a disk WAL and a checkpoint per epoch, then crash and recover: durability layers",
            "sg-tree", SG_SOURCE, ("sg",),
            # a prefix of serve-trickle's stream, so the oracle pins that one only
            stream=Stream(320, 2, 24, recovers=3, durable=True),
            quick_stream=Stream(16, 2, 6, recovers=1, durable=True),
        ),
    )
}


def canonical_facts(instance: str, quick: bool) -> dict[str, np.ndarray]:
    return INSTANCES[instance][0](quick)


@dataclass
class Inputs:
    """What one run hands to the program, and how to read its answers back."""

    facts: dict[str, np.ndarray]
    #: serving only: the held-out edges, in arrival order
    held: np.ndarray | None
    #: ``inverse[label]`` is the canonical node id of a label the program saw
    inverse: np.ndarray
    digest: str

    def canonical(self, rows: np.ndarray) -> np.ndarray:
        return self.inverse[np.asarray(rows, dtype=np.int64)]


def build(workload: Workload, seed: int, quick: bool = False) -> Inputs:
    """The inputs of ``workload`` for ``seed``: relabelled, shuffled, digested."""
    facts = canonical_facts(workload.instance, quick)
    stream = workload.quick_stream if quick else workload.stream
    held = None
    if stream is not None:
        edges = facts["edge"]
        facts, held = {"edge": edges[: -stream.held_out]}, edges[-stream.held_out:]
    rng = np.random.default_rng(seed)
    labels = rng.permutation(1 + max(int(rows.max()) for rows in canonical_facts(workload.instance, quick).values()))
    facts = {name: rng.permutation(labels[rows]) for name, rows in facts.items()}
    if held is not None:
        held = labels[held]
    digest = hashlib.sha256(workload.name.encode())
    for name in sorted(facts):
        digest.update(name.encode() + facts[name].tobytes())
    if held is not None:
        digest.update(held.tobytes())
    return Inputs(facts, held, np.argsort(labels), digest.hexdigest())
