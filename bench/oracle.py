"""Independent answer oracle for the benchmark: a set-based semi-naive Datalog
interpreter that imports nothing from ``repro``.

It is deliberately a different design from the engine (Python sets and dict
indexes, no sorting, no hashing of its own), so an agreement between the two
is evidence and not an echo.  ``python bench/oracle.py --write`` evaluates
every full-size instance once and pins count + sha256 per output relation in
``bench/expected.json``; the benchmark compares against the pins, and
evaluates ``--quick`` instances live.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import time

import numpy as np

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def parse(source: str) -> list[tuple[tuple, list[tuple], list[tuple]]]:
    """Rules as ``(head, body, filters)``; an atom is ``(name, variables)``."""
    rules = []
    for clause in re.sub(r"//[^\n]*", "", source).split("."):
        if not clause.strip():
            continue
        head_text, body_text = clause.split(":-")
        atoms = [(name, tuple(v.strip() for v in args.split(",")))
                 for name, args in re.findall(r"(\w+)\(([^)]*)\)", head_text + ":-" + body_text)]
        filters = re.findall(r"(\w+)\s*!=\s*(\w+)", body_text)
        leftover = re.sub(r"\w+\([^)]*\)|\w+\s*!=\s*\w+|[,\s]", "", body_text)
        if leftover or any(not v.isidentifier() for _, vs in atoms for v in vs):
            raise ValueError(f"oracle cannot read clause {clause.strip()!r}")
        rules.append((atoms[0], atoms[1:], filters))
    return rules


class Oracle:
    """Relations as sets of tuples, kept at their fixpoint under ``rules``."""

    def __init__(self, source: str, facts: dict[str, np.ndarray]) -> None:
        self.rules = parse(source)
        self.full: dict[str, set] = {}
        self._index: dict[tuple, dict] = {}
        self.insert(facts)

    def rows(self, name: str) -> set:
        return self.full.get(name, set())

    def insert(self, facts: dict[str, np.ndarray]) -> None:
        """Add facts and continue semi-naive evaluation from them alone."""
        delta = {name: {tuple(row) for row in np.asarray(rows).tolist()} - self.rows(name)
                 for name, rows in facts.items()}
        while any(delta.values()):
            for name, rows in delta.items():
                self.full.setdefault(name, set()).update(rows)
                for (indexed, positions), index in self._index.items():
                    if indexed == name:
                        for row in rows:
                            index.setdefault(tuple(row[p] for p in positions), []).append(row)
            derived: dict[str, set] = {}
            for head, body, filters in self.rules:
                for pivot, (name, variables) in enumerate(body):
                    rest = body[:pivot] + body[pivot + 1:]
                    out = derived.setdefault(head[0], set())
                    for row in delta.get(name, ()):
                        binding = self._bind({}, variables, row)
                        if binding is not None:
                            self._extend(binding, rest, head[1], filters, out)
            delta = {name: rows - self.rows(name) for name, rows in derived.items()}

    @staticmethod
    def _bind(binding: dict, variables: tuple, row: tuple) -> dict | None:
        bound = dict(binding)
        for variable, value in zip(variables, row):
            if bound.setdefault(variable, value) != value:
                return None
        return bound

    def _matches(self, atom: tuple, binding: dict) -> list:
        name, variables = atom
        positions = tuple(p for p, v in enumerate(variables) if v in binding)
        index = self._index.get((name, positions))
        if index is None:
            index = self._index[(name, positions)] = {}
            for row in self.rows(name):
                index.setdefault(tuple(row[p] for p in positions), []).append(row)
        return index.get(tuple(binding[variables[p]] for p in positions), ())

    def _extend(self, binding: dict, atoms: list, head: tuple, filters: list, out: set) -> None:
        if not atoms:
            if all(binding[a] != binding[b] for a, b in filters):
                out.add(tuple(binding[v] for v in head))
            return
        # Expand the atom with the fewest matches under this binding, so a
        # cyclic body (triangle on a hub graph) never enumerates the wedges.
        candidates = [self._matches(atom, binding) for atom in atoms]
        best = min(range(len(atoms)), key=lambda i: len(candidates[i]))
        rest = atoms[:best] + atoms[best + 1:]
        for row in candidates[best]:
            bound = self._bind(binding, atoms[best][1], row)
            if bound is not None:
                self._extend(bound, rest, head, filters, out)


def digest(rows) -> list:
    """``[count, sha256]`` of a relation's rows taken in lexicographic order."""
    array = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows), dtype="<i8")
    if array.size == 0:
        return [0, hashlib.sha256(b"").hexdigest()]
    array = array.reshape(len(array), -1)
    ordered = array[np.lexsort(array.T[::-1])]
    return [int(len(ordered)), hashlib.sha256(np.ascontiguousarray(ordered).tobytes()).hexdigest()]


def answers(instance: str, quick: bool) -> dict:
    """Oracle answers for one canonical instance: ``{relation: digest}``; the
    tree instance also carries the serving stream's per-epoch digests."""
    import workloads

    facts = workloads.canonical_facts(instance, quick)
    source = workloads.INSTANCES[instance][1]
    oracle = Oracle(source, facts)
    out = {name: digest(oracle.rows(name)) for name in sorted(oracle.full) if name not in facts}
    if instance == "sg-tree":
        trickle = workloads.WORKLOADS["serve-trickle"]
        stream = trickle.quick_stream if quick else trickle.stream
        edges = facts["edge"]
        base, held = edges[: -stream.held_out], edges[-stream.held_out:]
        batches = [held[i * stream.batch:(i + 1) * stream.batch] for i in range(stream.insert_epochs)]
        oracle = Oracle(source, {"edge": base})
        prefix = [digest(oracle.rows("sg"))]
        for batch in batches:
            oracle.insert({"edge": batch})
            prefix.append(digest(oracle.rows("sg")))
        # Deletion is not monotone: answer the retract phase from scratch.
        kept = np.concatenate([base, *batches[stream.retract_epochs:]])
        out["stream"] = {"prefix": prefix, "retracted": digest(Oracle(source, {"edge": kept}).rows("sg"))}
    return out


@functools.lru_cache(maxsize=None)
def expected(instance: str, quick: bool) -> dict:
    """Pinned answers for a full-size instance; ``--quick`` ones are evaluated live."""
    if quick:
        return answers(instance, True)
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)[instance]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="evaluate every full-size instance and pin bench/expected.json")
    args = parser.parse_args()
    if not args.write:
        parser.error("nothing to do: pass --write")
    import workloads

    pins = {}
    for instance in workloads.INSTANCES:
        started = time.perf_counter()
        pins[instance] = answers(instance, False)
        print(f"{instance}: {time.perf_counter() - started:.1f} s", file=sys.stderr)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
