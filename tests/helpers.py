"""Importable reference implementations shared across test modules.

These used to live in ``tests/conftest.py``, but conftest modules have no
package context under pytest's default import mode, so ``from ..conftest
import ...`` failed collection.  Test modules import them as::

    from tests.helpers import same_generation, transitive_closure
"""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager

import networkx as nx
import numpy as np

from repro.backend import NumpyBackend
from repro.relational import HISA, ColumnBatch
from repro.relational.hisa import MatchedRuns


def batch_of(device, rows) -> ColumnBatch:
    """``rows`` as a device batch (uncharged: tests hand the device its input)."""
    return ColumnBatch.from_rows(device, np.asarray(rows, dtype=np.int64))


def hisa_of(device, rows, join_columns, **options) -> HISA:
    return HISA(device, batch_of(device, rows), join_columns, **options)


def key_columns(keys) -> list[np.ndarray]:
    """``(m, width)`` probe keys as the per-column arrays ``lookup_columns`` takes."""
    keys = np.asarray(keys, dtype=np.int64)
    return [np.ascontiguousarray(keys[:, position]) for position in range(keys.shape[1])]


def hisa_rows(hisa: HISA, *, sorted_order: bool = False) -> np.ndarray:
    """A HISA's tuples in schema column order: insertion order, or sorted the
    way the index sorts them — by its column order, join columns first — on
    the host."""
    rows = np.column_stack(hisa.natural_columns())
    return lex_sorted(rows, hisa.column_order) if sorted_order else rows


def lex_sorted(rows: np.ndarray, column_order) -> np.ndarray:
    """``rows`` sorted lexicographically by the columns of ``column_order``, first column first."""
    return rows[np.lexsort([rows[:, column] for column in reversed(column_order)])]


def hisa_runs(hisa: HISA) -> list[np.ndarray]:
    """The tuples of each sorted run of a HISA's index tier, oldest run first,
    each in the order its run's sorted index lists them (schema column order)."""
    rows = np.column_stack(hisa.natural_columns())
    bounds = np.cumsum([0, *hisa.run_sizes])
    return [rows[hisa._stores[0][start:end]] for start, end in zip(bounds, bounds[1:])]


class CollidingBackend(NumpyBackend):
    """NumPy with a weak key hash: a key's first column counts only modulo
    4, so keys that differ there by a multiple of 4 — ``(1,)`` and ``(5,)``,
    ``(1, 7)`` and ``(5, 7)`` — share their 64-bit hash."""

    def hash_columns(self, columns):
        return super().hash_columns([np.asarray(columns[0]) % 4, *columns[1:]])


class WideKeyBackend(NumpyBackend):
    """NumPy that packs every sort key in the wide format, whatever the values."""

    def pack_lex_keys(self, columns, *, wide=False):
        return super().pack_lex_keys(columns, wide=True)


#: the array backends the lookup tests run on: plain NumPy (narrow keys while
#: the values fit), NumPy with only wide keys, and NumPy whose hash collides
#: (every table walk then meets hits on other keys)
LOOKUP_BACKENDS = {"numpy": NumpyBackend, "wide": WideKeyBackend, "colliding": CollidingBackend}


def lookup_per_run(hisa: HISA, key_columns, *, charge: bool = True) -> tuple[MatchedRuns, np.ndarray]:
    """``HISA.lookup_columns`` as a loop over the sorted runs: the keys are
    hashed once and each run's table is probed on its own; the runs without
    a table (the small runs a merge writes, on any index) are searched.  The
    reference the batched walk over all (key, run) pairs must match, result
    and charge."""
    m = int(key_columns[0].shape[0])
    n_runs = len(hisa.run_sizes)
    starts = np.empty((n_runs, m), dtype=np.int64)
    lengths = np.empty((n_runs, m), dtype=np.int64)
    if m:
        n_tabled = hisa.table.n_tables
        if n_tabled:
            hashes = hisa._hash_keys(key_columns, charge=charge)
        for run in range(n_tabled):
            hisa._probe_run(run, hashes, key_columns, charge=charge, out=(starts[run], lengths[run]))
        for run, at, counts in hisa._search_runs(key_columns, charge=charge, counted=True):
            starts[run], lengths[run] = (at + hisa._bounds[run] + 1) * (counts > 0) - 1, counts
    return MatchedRuns(starts, lengths), lengths.sum(axis=0)


class CrashCopies:
    """Copies of ``live`` as a machine that stopped just before each fsync
    would find it: every file cut to the length it was last fsynced at
    (never: empty).

    Inside :meth:`at_every_fsync`, each ``os.fsync`` first copies ``live``
    into ``scratch`` and appends ``(copy, tag(), file)`` to :attr:`copies`,
    ``file`` being the path under ``live`` about to be synced; :meth:`take`
    adds one more copy by hand.
    """

    def __init__(self, live, scratch, tag=lambda: None) -> None:
        self.live, self.scratch, self.tag = str(live), str(scratch), tag
        self.copies: list[tuple[str, object, str]] = []
        self._synced: dict[int, int] = {}

    def _files(self):
        for folder, _, names in os.walk(self.live):
            for name in names:
                yield os.path.join(folder, name)

    def take(self, syncing: str = "") -> None:
        target = os.path.join(self.scratch, f"crash-{len(self.copies):03d}")
        shutil.copytree(self.live, target)
        for source in self._files():
            copy = os.path.join(target, os.path.relpath(source, self.live))
            os.truncate(copy, min(os.path.getsize(copy), self._synced.get(os.stat(source).st_ino, 0)))
        self.copies.append((target, self.tag(), syncing))

    @contextmanager
    def at_every_fsync(self, monkeypatch):
        real_fsync = os.fsync
        held: dict[int, int] = {}

        def fsync(fd):
            inode = os.fstat(fd).st_ino
            self.take(next((os.path.relpath(path, self.live) for path in self._files()
                            if os.stat(path).st_ino == inode), ""))
            real_fsync(fd)
            # Holding the file open keeps its inode from naming a later file.
            if inode not in held:
                held[inode] = os.dup(fd)
            self._synced[inode] = os.fstat(fd).st_size

        monkeypatch.setattr(os, "fsync", fsync)
        try:
            yield self
        finally:
            monkeypatch.undo()
            for descriptor in held.values():
                os.close(descriptor)


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


def horner_pack_sort_keys(backend, *batches):
    """``ArrayBackend.pack_sort_keys`` as it was first written: every field in
    Horner form, each column's minimum subtracted in its own pass over the key
    buffer.  The oracle for the packer, which subtracts one combined offset."""
    arity = len(batches[0])
    if arity == 0:
        return None
    batches = [
        [backend.asarray(column, dtype=np.int64) for column in columns]
        for columns in batches
        if int(columns[0].shape[0])
    ]
    if not batches:
        return backend.empty(0, dtype=backend.uint64), ((0, 0),) * arity
    lows = [min(int(columns[j].min()) for columns in batches) for j in range(arity)]
    highs = [max(int(columns[j].max()) for columns in batches) for j in range(arity)]
    layout = tuple((low, (high - low).bit_length()) for low, high in zip(lows, highs))
    if sum(width for _, width in layout) > 64:
        return None
    lengths = [int(columns[0].shape[0]) for columns in batches]
    keys = backend.empty(sum(lengths), dtype=backend.uint64)
    offset = 0
    for columns, length in zip(batches, lengths):
        part = keys[offset : offset + length]
        offset += length
        for position, (column, (minimum, width)) in enumerate(zip(columns, layout)):
            if position == 0:
                part[...] = column.view(backend.uint64)
            else:
                if 0 < width < 64:  # width 64 means every earlier field is 0 wide
                    part <<= np.uint64(width)
                part += column.view(backend.uint64)
            part -= np.uint64(minimum % (1 << 64))
    return keys, layout


def naive_datalog(source: str, facts: dict) -> dict[str, set[tuple[int, ...]]]:
    """Reference Datalog evaluation: naive fixpoint over Python sets.

    Reads rules of the shape ``head(..) :- atom(..), .., x != y.`` whose
    terms are variables or integer constants, with the six comparisons
    (``=``/``==``, ``!=``, ``<``, ``<=``, ``>``, ``>=``) between terms, ground
    facts ``r(1, 2).`` and ``//`` comments; re-derives every rule from the
    whole database until nothing new appears — no deltas, no join order, no
    duplicates to handle, and only a throwaway dict per round to look rows up
    by their bound terms, so it shares nothing with the engine but the rule
    text.
    """
    import operator
    import re

    compare = {
        "=": operator.eq, "==": operator.eq, "!=": operator.ne,
        "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    }

    def term(text):
        text = text.strip()
        return int(text) if re.fullmatch(r"-?\d+", text) else text

    def value(term, env):
        return term if isinstance(term, int) else env[term]

    database = {name: {tuple(map(int, row)) for row in rows} for name, rows in facts.items()}
    rules = []
    for clause in re.sub(r"//[^\n]*", "", source).split("."):
        if not clause.strip():
            continue
        head_text, _, body_text = clause.partition(":-")
        atoms = [
            (name, tuple(term(text) for text in terms.split(",")))
            for name, terms in re.findall(r"(\w+)\(([^)]*)\)", head_text + "," + body_text)
        ]
        if not body_text.strip():
            database.setdefault(atoms[0][0], set()).add(atoms[0][1])
            continue
        guards = [
            (term(left), compare[op], term(right))
            for left, op, right in re.findall(
                r"(-?\w+)\s*(==|!=|<=|>=|=|<|>)\s*(-?\w+)", re.sub(r"\w+\([^)]*\)", "", body_text)
            )
        ]
        rules.append((atoms[0], atoms[1:], guards))

    def bindings(body, env, lookup):
        if not body:
            yield env
            return
        (name, terms), rest = body[0], body[1:]
        bound = tuple(
            position for position, term in enumerate(terms) if isinstance(term, int) or term in env
        )
        by_bound = lookup.get((name, bound))
        if by_bound is None:
            by_bound = lookup[name, bound] = {}
            for row in database.get(name, ()):
                by_bound.setdefault(tuple(row[position] for position in bound), []).append(row)
        for row in by_bound.get(tuple(value(terms[position], env) for position in bound), ()):
            extended = dict(env)
            if all(
                extended.setdefault(term, value) == value
                for term, value in zip(terms, row)
                if not isinstance(term, int)
            ):
                yield from bindings(rest, extended, lookup)

    changed = True
    while changed:
        changed = False
        for (head, head_terms), body, guards in rules:
            derived = {
                tuple(value(term, env) for term in head_terms)
                for env in bindings(body, {}, {})
                if all(check(value(left, env), value(right, env)) for left, check, right in guards)
            }
            known = database.setdefault(head, set())
            if not derived <= known:
                known |= derived
                changed = True
    return database
