"""Shared infrastructure for the experiment drivers (one per paper table/figure).

Provides:

* dataset / GPUlog-run caching, so that e.g. Table 2, Table 5 and Figure 6
  can share the expensive evaluations of the same (program, dataset) pairs —
  the baselines price the workload trace of that same run;
* the *scale factor* computation used to project simulated runs of the scaled
  synthetic datasets back to the paper's full-size workloads (the paper output
  size divided by the measured synthetic output size — see docs/benchmarks.md);
* event re-pricing: replaying the kernel costs recorded by one GPUlog run
  under a different :class:`~repro.device.spec.DeviceSpec` (used by Table 3's
  HIP column and Table 5's hardware sweep — the algorithm and data are
  identical across devices, only the cost model changes);
* a small result-table type shared by every driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..backend import get_backend
from ..datalog.ast import Program
from ..datalog.engine import EvaluationResult, GPULogEngine
from ..datalog.seminaive import WorkloadTrace
from ..device.cost import CostModel
from ..device.device import Device
from ..device.profiler import ProfileEvent
from ..device.spec import DeviceSpec, device_preset
from ..datasets.registry import PROFILE_BENCH, dataset_spec, load_dataset
from ..queries import cspa_program, reach_program, sg_program

CSPA_OUTPUT_RELATIONS = ("valueflow", "valuealias", "memalias")


# ----------------------------------------------------------------------
# Result tables
# ----------------------------------------------------------------------

@dataclass
class ResultTable:
    """A formatted experiment result: headers, rows and free-form notes."""

    title: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        self.rows.append([str(cell) for cell in cells])

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def format(self) -> str:
        widths = [len(header) for header in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header_line = "  ".join(header.ljust(widths[i]) for i, header in enumerate(self.headers))
        lines.append(header_line)
        lines.append("-" * len(header_line))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format()


# ----------------------------------------------------------------------
# Caches
# ----------------------------------------------------------------------

_DATASET_CACHE: dict[tuple[str, str], object] = {}
_GPULOG_CACHE: dict[tuple[str, str, str, str, str], tuple[EvaluationResult, list[ProfileEvent]]] = {}


def clear_caches() -> None:
    """Drop every cached dataset and GPUlog run (used by tests)."""
    _DATASET_CACHE.clear()
    _GPULOG_CACHE.clear()


def get_dataset(name: str, profile: str = PROFILE_BENCH):
    """Load (and cache) a dataset by registry name."""
    key = (name, profile)
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = load_dataset(name, profile)
    return _DATASET_CACHE[key]


def query_program(query: str) -> Program:
    """The benchmark program for ``query`` in {"reach", "sg", "cspa"}."""
    if query == "reach":
        return reach_program()
    if query == "sg":
        return sg_program()
    if query == "cspa":
        return cspa_program()
    raise ValueError(f"unknown benchmark query {query!r}")


def get_trace(dataset_name: str, query: str, profile: str = PROFILE_BENCH) -> WorkloadTrace:
    """The workload trace of the cached GPUlog run of ``query`` on ``dataset_name``."""
    result, _ = run_gpulog(dataset_name, query, profile)
    return result.trace


def run_gpulog(
    dataset_name: str,
    query: str,
    profile: str = PROFILE_BENCH,
    *,
    device: str | DeviceSpec = "h100",
    eager_buffers: bool = True,
    materialize_nway: bool = True,
    use_cache: bool = True,
    backend: str | None = None,
) -> tuple[EvaluationResult, list[ProfileEvent]]:
    """Run GPUlog on a registered dataset, returning the result and kernel events.

    Runs with the default configuration are cached per (dataset, profile,
    query, device, backend) so that multiple tables can reuse them.  ``backend``
    selects the array backend by registry name; ``None`` defers to the
    ``REPRO_BACKEND`` environment variable (and then NumPy), so one exported
    variable retargets every experiment driver.
    """
    device_key = device if isinstance(device, str) else device.name
    backend_key = get_backend(backend).name
    cacheable = use_cache and eager_buffers and materialize_nway
    key = (dataset_name, profile, query, device_key, backend_key)
    if cacheable and key in _GPULOG_CACHE:
        return _GPULOG_CACHE[key]

    dataset = get_dataset(dataset_name, profile)
    program = query_program(query)
    engine = GPULogEngine(
        Device(device, backend=backend),
        eager_buffers=eager_buffers,
        materialize_nway=materialize_nway,
        collect_relations=False,
    )
    for relation, rows in dataset.facts().items():
        engine.add_fact_array(relation, rows)
    result = engine.run(program)
    events = engine.device.profiler.events
    engine.close()
    if cacheable:
        _GPULOG_CACHE[key] = (result, events)
    return result, events


# ----------------------------------------------------------------------
# Scale factors and projection
# ----------------------------------------------------------------------

def output_size(trace_or_result, query: str) -> int:
    """Total output tuples of a run (reach/sg size, or the three CSPA relations)."""
    counts = (
        trace_or_result.relation_counts
        if hasattr(trace_or_result, "relation_counts")
        else dict(trace_or_result)
    )
    if query == "cspa":
        return sum(counts.get(name, 0) for name in CSPA_OUTPUT_RELATIONS)
    target = "reach" if query == "reach" else "sg"
    return counts.get(target, 0)


def paper_output_size(dataset_name: str, query: str) -> int:
    """Output size the paper reports for (dataset, query), 0 if unknown."""
    spec = dataset_spec(dataset_name)
    if query == "cspa":
        return sum(spec.paper.output_sizes.get(name, 0) for name in CSPA_OUTPUT_RELATIONS)
    return spec.paper.output_sizes.get(query, 0)


def scale_factor(dataset_name: str, query: str, measured_output: int) -> float:
    """Paper output size / measured synthetic output size (>= 1)."""
    paper = paper_output_size(dataset_name, query)
    if paper <= 0 or measured_output <= 0:
        return 1.0
    return max(1.0, paper / measured_output)


def project_seconds(fixed_seconds: float, variable_seconds: float, scale: float) -> float:
    """Project a decomposed runtime to a ``scale`` times larger workload."""
    return fixed_seconds + variable_seconds * scale


# ----------------------------------------------------------------------
# Event re-pricing (Table 3 HIP column, Table 5 hardware sweep)
# ----------------------------------------------------------------------

def reprice_events(events: Iterable[ProfileEvent], device: str | DeviceSpec) -> tuple[float, float, float]:
    """Re-price recorded kernel events under a different device specification.

    Returns ``(total, fixed, variable)`` simulated seconds.  The replay is
    exact because the kernel work descriptions (bytes, ops, divergence,
    allocations) do not depend on the device; only the cost model does.
    """
    spec = device_preset(device) if isinstance(device, str) else device
    model = CostModel(spec)
    total = 0.0
    fixed = 0.0
    for event in events:
        seconds = model.seconds(event.cost)
        event_fixed = model.launch_seconds(event.cost) + event.cost.allocations * spec.alloc_latency_us * 1e-6
        total += seconds
        fixed += min(seconds, event_fixed)
    return total, fixed, total - fixed


def reprice_phase_seconds(events: Iterable[ProfileEvent], device: str | DeviceSpec) -> dict[str, float]:
    """Per-phase simulated seconds of recorded events under another device."""
    spec = device_preset(device) if isinstance(device, str) else device
    model = CostModel(spec)
    phases: dict[str, float] = {}
    for event in events:
        phases[event.phase] = phases.get(event.phase, 0.0) + model.seconds(event.cost)
    return phases


def format_seconds(value: float) -> str:
    """Consistent numeric formatting for table cells."""
    if value >= 100:
        return f"{value:.0f}"
    if value >= 1:
        return f"{value:.2f}"
    return f"{value:.3f}"


def format_gib(nbytes: float) -> str:
    return f"{nbytes / 1024**3:.2f}"
