"""Spans around each layer's public entry points, recorded from outside.

``Tracer.install`` replaces every binding of the functions in :data:`TARGETS`
— class attributes, and for module-level functions each ``repro.*`` module
that imported the name — with a timing wrapper; ``uninstall`` puts the
originals back.  Nothing under ``src/`` knows it is being traced.

A span is ``[name, start, end, parent, thread, run]``.  Spans nest per thread;
a span opened on another thread while ``serving.ticket_wait`` is open (the
serving worker doing the epoch the client is blocked on) is parented to that
wait, so an epoch's work hangs off the request that caused it.  A span's self
time is its duration minus the part of it its children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict

#: (span name, owner as ``module`` or ``module:Class``, attribute)
TARGETS = [
    ("datalog.parse", "repro.datalog.ast:Program", "parse"),
    ("datalog.analyze", "repro.datalog.analysis", "analyze_program"),
    ("datalog.plan", "repro.datalog.planner", "plan_program"),
    ("datalog.engine.run", "repro.datalog.engine:GPULogEngine", "run"),
    ("datalog.seminaive.evaluate", "repro.datalog.seminaive:SemiNaiveEvaluator", "evaluate"),
    ("datalog.seminaive.delta_fixpoint", "repro.datalog.seminaive:SemiNaiveEvaluator", "delta_fixpoint"),
    ("datalog.sharded.evaluate", "repro.datalog.sharded:ShardedSemiNaiveEvaluator", "evaluate"),
    ("datalog.sharded.evaluate", "repro.datalog.sharded:ShardedSemiNaiveEvaluator", "delta_fixpoint"),
    ("relational.relation.initialize", "repro.relational.relation:Relation", "initialize"),
    ("relational.relation.add_new", "repro.relational.relation:Relation", "add_new"),
    ("relational.relation.end_iteration", "repro.relational.relation:Relation", "end_iteration"),
    ("relational.relation.full_rows_host", "repro.relational.relation:Relation", "full_rows_host"),
    ("relational.relation.retract", "repro.relational.relation:Relation", "retract"),
    ("relational.relation.checkpoint_state", "repro.relational.relation:Relation", "checkpoint_state"),
    ("relational.hisa.merge", "repro.relational.hisa:HISA", "merge"),
    ("relational.hisa.lookup_columns", "repro.relational.hisa:HISA", "lookup_columns"),
    ("relational.hisa.contains_columns", "repro.relational.hisa:HISA", "contains_columns"),
    ("relational.hisa.expand_matches", "repro.relational.hisa:HISA", "expand_matches"),
    ("relational.hashtable.insert_batch", "repro.relational.hashtable:OpenAddressingHashTable", "insert_batch"),
    ("relational.hashtable.update_slots", "repro.relational.hashtable:OpenAddressingHashTable", "update_slots"),
    ("relational.hashtable.probe", "repro.relational.hashtable:OpenAddressingHashTable", "probe"),
    ("relational.operators.hash_join", "repro.relational.operators", "hash_join"),
    ("relational.operators.deduplicate", "repro.relational.operators", "deduplicate"),
    ("relational.operators.difference", "repro.relational.operators", "difference"),
    ("relational.wcoj.generic_join", "repro.relational.wcoj", "generic_join"),
    ("relational.stats.seed_facts", "repro.relational.stats:StatsCatalog", "seed_facts"),
    ("relational.semijoin.probe", "repro.relational.semijoin:ExchangeFilterBank", "probe"),
    ("relational.semijoin.probe", "repro.relational.semijoin:ExchangeFilterBank", "refresh"),
    ("relational.checkpoint.save", "repro.relational.checkpoint:DiskCheckpointStore", "save"),
    ("device.charge", "repro.device.device:Device", "charge"),
    ("device.kernels.lexsort_columns", "repro.device.kernels:DeviceKernels", "lexsort_columns"),
    ("device.kernels.unique_columns", "repro.device.kernels:DeviceKernels", "unique_columns"),
    ("device.kernels.exchange", "repro.device.kernels:DeviceKernels", "scatter_to"),
    ("device.kernels.exchange", "repro.device.kernels:DeviceKernels", "device_to_device"),
    ("device.kernels.exchange", "repro.device.kernels:DeviceKernels", "broadcast_to"),
    ("device.kernels.host_transfer", "repro.device.kernels:DeviceKernels", "to_host"),
    ("device.kernels.host_transfer", "repro.device.kernels:DeviceKernels", "from_host"),
    ("backend.lexsort", "repro.backend.numpy_backend:NumpyBackend", "lexsort"),
    ("backend.take", "repro.backend.numpy_backend:NumpyBackend", "take"),
    ("backend.concatenate", "repro.backend.numpy_backend:NumpyBackend", "concatenate"),
    ("backend.scatter", "repro.backend.numpy_backend:NumpyBackend", "scatter"),
    ("backend.repeat", "repro.backend.numpy_backend:NumpyBackend", "repeat"),
    ("serving.submit", "repro.serving.engine:ServingEngine", "submit"),
    ("serving.ticket_wait", "repro.serving.engine:EpochTicket", "result"),
    ("serving.query", "repro.serving.engine:ServingEngine", "query"),
    ("serving.recover", "repro.serving.engine:ServingEngine", "recover"),
    ("serving.wal.append_batch", "repro.serving.wal:WriteAheadLog", "append_batch"),
    ("serving.wal.append_commit", "repro.serving.wal:WriteAheadLog", "append_commit"),
    ("serving.cache.get", "repro.serving.cache:ProgramCache", "get"),
]

SPAN_NAMES = sorted({name for name, _, _ in TARGETS})

#: The span that adopts work done for it on another thread.
ADOPTER = "serving.ticket_wait"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        #: identifier shared by the spans of one request; the driver sets it
        self.run = 0
        self._local = threading.local()
        self._adopter: list | None = None
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, name: str, function):
        spans, local, adopts = self.spans, self._local, name == ADOPTER
        clock, thread_id = time.perf_counter, threading.get_ident

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else self._adopter, thread_id(), self.run]
            spans.append(span)
            stack.append(span)
            if adopts:
                self._adopter = span
            span[1] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if adopts:
                    self._adopter = None

        return traced

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer is already installed")
        replacements: dict[int, object] = {}  # one wrapper per function, however many modules hold it
        for name, owner, attribute, original in bindings():
            if id(original) not in replacements:
                if isinstance(original, (staticmethod, classmethod)):
                    replacements[id(original)] = type(original)(self._wrap(name, original.__func__))
                else:
                    replacements[id(original)] = self._wrap(name, original)
            setattr(owner, attribute, replacements[id(original)])
            self._originals.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in self._originals:
            setattr(owner, attribute, original)
        self._originals = []

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float]]:
        """``{span name: (calls, self seconds)}`` over every recorded span."""
        children: dict[int, list[list]] = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append(span)
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        for span in self.spans:
            total = out[span[0]]
            total[0] += 1
            total[1] += self_seconds(span, children.get(id(span), ()))
        return {name: (calls, seconds) for name, (calls, seconds) in out.items()}

    def write(self, path: str, **header) -> None:
        """Dump the spans (times relative to the first start) as JSON."""
        origin = min((span[1] for span in self.spans), default=0.0)
        index = {id(span): number for number, span in enumerate(self.spans)}
        document = dict(header)
        document["fields"] = ["id", "name", "start_s", "end_s", "parent", "thread", "run"]
        document["spans"] = [
            [number, span[0], span[1] - origin, span[2] - origin,
             index[id(span[3])] if span[3] is not None else None, span[4], span[5]]
            for number, span in enumerate(self.spans)
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def bindings() -> list[tuple[str, object, str, object]]:
    """Every ``(span name, owner, attribute, current value)`` a tracer replaces:
    the class for a method, and for a module-level function each ``repro``
    module holding the name (``from .planner import plan_program`` copies it)."""
    found = []
    for name, owner_path, attribute in TARGETS:
        module_name, _, class_name = owner_path.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            owners = [getattr(module, class_name)]
        else:
            original = getattr(module, attribute)
            owners = [other for other_name, other in list(sys.modules.items())
                      if other_name.split(".")[0] == "repro" and vars(other).get(attribute) is original]
        found += [(name, owner, attribute, inspect.getattr_static(owner, attribute)) for owner in owners]
    return found


def self_seconds(span: list, children) -> float:
    """Duration of ``span`` minus the union of its children's intervals in it."""
    start, end = span[1], span[2]
    covered, reach = 0.0, start
    for child in sorted(children, key=lambda c: c[1]):
        low, high = max(child[1], reach), min(child[2], end)
        if high > low:
            covered += high - low
            reach = high
    return (end - start) - covered
