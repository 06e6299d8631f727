"""Importable reference implementations shared across test modules.

These used to live in ``tests/conftest.py``, but conftest modules have no
package context under pytest's default import mode, so ``from ..conftest
import ...`` failed collection.  Test modules import them as::

    from tests.helpers import same_generation, transitive_closure
"""

from __future__ import annotations

import networkx as nx
import numpy as np


def paper_edges() -> np.ndarray:
    """The 9-node example graph of Figures 1 and 2 of the paper."""
    return np.array(
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6), (4, 7), (4, 8), (5, 8)],
        dtype=np.int64,
    )


def random_dag_edges() -> np.ndarray:
    rng = np.random.default_rng(1234)
    upper = np.triu(rng.random((40, 40)) < 0.12, k=1)
    src, dst = np.nonzero(upper)
    return np.column_stack([src, dst]).astype(np.int64)


def transitive_closure(edges: np.ndarray) -> set[tuple[int, int]]:
    """Reference transitive closure (paths of length >= 1, cycles included)."""
    graph = nx.DiGraph([tuple(map(int, edge)) for edge in edges])
    closure: set[tuple[int, int]] = set()
    for source in graph.nodes:
        reachable: set[int] = set()
        for successor in graph.successors(source):
            reachable.add(successor)
            reachable |= nx.descendants(graph, successor)
        closure.update((source, target) for target in reachable)
    return closure


def same_generation(edges: np.ndarray) -> set[tuple[int, int]]:
    """Reference SG relation via naive fixpoint iteration."""
    edge_set = {tuple(map(int, edge)) for edge in edges}
    by_source: dict[int, set[int]] = {}
    for parent, child in edge_set:
        by_source.setdefault(parent, set()).add(child)

    sg: set[tuple[int, int]] = set()
    for children in by_source.values():
        for x in children:
            for y in children:
                if x != y:
                    sg.add((x, y))
    while True:
        new = set()
        for a, b in sg:
            for x in by_source.get(a, ()):
                for y in by_source.get(b, ()):
                    if x != y and (x, y) not in sg:
                        new.add((x, y))
        if not new:
            return sg
        sg |= new


def reference_unique(columns: list[np.ndarray]) -> list[np.ndarray]:
    """Sorted, duplicate-free tuples of per-column arrays, by plain ``np.lexsort``.

    The independent oracle for the packed-key dedup: multi-key sort, gather,
    compare every column with its predecessor, compact.  No packed keys.
    """
    columns = [np.asarray(column, dtype=np.int64) for column in columns]
    if not columns or columns[0].shape[0] == 0:
        return columns
    order = np.lexsort(tuple(reversed(columns)))
    columns = [column[order] for column in columns]
    keep = np.ones(order.shape[0], dtype=bool)
    keep[1:] = np.logical_or.reduce([column[1:] != column[:-1] for column in columns])
    return [column[keep] for column in columns]
