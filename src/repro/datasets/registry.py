"""Registry of the paper's benchmark datasets, mapped to synthetic generators.

Every dataset name used in Tables 1-5 resolves here to a synthetic generator
of the same structural family (see :mod:`repro.datasets.graphs` and
:mod:`repro.datasets.cspa`) in two profiles:

* ``bench`` — the size used by the benchmark harness (output relations in the
  10^5 range, large enough for the cost model's data terms to be meaningful);
* ``test`` — a much smaller size used by the test suite.

Each entry also records the output sizes the paper reports for that dataset
(transitive-closure size, SG size, CSPA relation sizes).  The experiment
drivers divide the paper size by the measured synthetic size to obtain the
*scale factor* used when projecting simulated runtimes back to paper scale
(see docs/benchmarks.md for the methodology).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

from ..errors import DatasetError
from .cspa import CSPADataset, generate_cspa_dataset
from .graphs import (
    GraphDataset,
    chained_communities,
    finite_element_mesh,
    p2p_graph,
    road_network,
    scale_free_graph,
)

Dataset = Union[GraphDataset, CSPADataset]

PROFILE_BENCH = "bench"
PROFILE_TEST = "test"
PROFILES = (PROFILE_BENCH, PROFILE_TEST)


@dataclass(frozen=True)
class PaperReference:
    """Numbers the paper reports for a dataset (used for scale factors)."""

    #: output-relation sizes reported by the paper, keyed by query name
    #: ("reach", "sg") or by relation name for CSPA ("valueflow", ...).
    output_sizes: dict[str, int] = field(default_factory=dict)
    #: iteration counts reported by the paper (Table 1), keyed by query.
    iterations: dict[str, int] = field(default_factory=dict)
    notes: str = ""


@dataclass(frozen=True)
class DatasetSpec:
    """One named benchmark dataset with per-profile generators."""

    name: str
    kind: str  # "graph" or "cspa"
    category: str
    description: str
    paper: PaperReference
    generators: dict[str, Callable[[], Dataset]]

    def load(self, profile: str = PROFILE_BENCH) -> Dataset:
        if profile not in self.generators:
            raise DatasetError(f"dataset {self.name!r} has no profile {profile!r}")
        return self.generators[profile]()


def _graph_spec(name, category, description, paper, bench, test):
    return DatasetSpec(
        name=name,
        kind="graph",
        category=category,
        description=description,
        paper=paper,
        generators={PROFILE_BENCH: bench, PROFILE_TEST: test},
    )


_REGISTRY: dict[str, DatasetSpec] = {}


def _register(spec: DatasetSpec) -> None:
    _REGISTRY[spec.name] = spec


# ----------------------------------------------------------------------
# Road networks
# ----------------------------------------------------------------------
_register(_graph_spec(
    "usroads",
    "road",
    "US road network: very large diameter, hundreds of tail iterations (Table 1).",
    PaperReference(output_sizes={"reach": 87_000_000}, iterations={"reach": 606}),
    bench=lambda: road_network(170, 5, shortcut_probability=0.02, seed=11, name="usroads"),
    test=lambda: road_network(30, 3, shortcut_probability=0.0, seed=11, name="usroads"),
))

_register(_graph_spec(
    "SF.cedge",
    "road",
    "San Francisco road segments: road network used for REACH and SG.",
    PaperReference(output_sizes={"reach": 80_000_000, "sg": 382_000_000}),
    bench=lambda: road_network(110, 6, shortcut_probability=0.03, seed=12, name="SF.cedge"),
    test=lambda: road_network(24, 3, shortcut_probability=0.0, seed=12, name="SF.cedge"),
))

# ----------------------------------------------------------------------
# Finite-element meshes
# ----------------------------------------------------------------------
_register(_graph_spec(
    "fe_ocean",
    "mesh",
    "Finite-element ocean model mesh: regular stencil, long diameter.",
    PaperReference(output_sizes={"reach": 1_670_000_000}, iterations={"reach": 247}),
    bench=lambda: finite_element_mesh(120, 8, seed=21, name="fe_ocean"),
    test=lambda: finite_element_mesh(20, 4, seed=21, name="fe_ocean"),
))

_register(_graph_spec(
    "fe_body",
    "mesh",
    "Finite-element body mesh: used for REACH (Table 2) and SG (Table 3).",
    PaperReference(output_sizes={"reach": 156_000_000, "sg": 408_000_000}),
    bench=lambda: finite_element_mesh(60, 9, seed=22, name="fe_body"),
    test=lambda: finite_element_mesh(16, 4, seed=22, name="fe_body"),
))

_register(_graph_spec(
    "fe_sphere",
    "mesh",
    "Finite-element sphere mesh: SG workload (Table 3).",
    PaperReference(output_sizes={"sg": 205_000_000}),
    bench=lambda: finite_element_mesh(48, 8, seed=23, name="fe_sphere"),
    test=lambda: finite_element_mesh(14, 4, seed=23, name="fe_sphere"),
))

# ----------------------------------------------------------------------
# Social / collaboration networks
# ----------------------------------------------------------------------
_register(_graph_spec(
    "com-dblp",
    "social",
    "DBLP collaboration network: hub-heavy, tiny diameter, largest REACH output.",
    PaperReference(output_sizes={"reach": 1_910_000_000}, iterations={"reach": 31}),
    bench=lambda: scale_free_graph(2200, 5, seed=31, name="com-dblp"),
    test=lambda: scale_free_graph(150, 3, seed=31, name="com-dblp"),
))

_register(_graph_spec(
    "loc-Brightkite",
    "social",
    "Brightkite location-based social network: SG workload.",
    PaperReference(output_sizes={"sg": 92_300_000}),
    bench=lambda: scale_free_graph(550, 3, seed=32, name="loc-Brightkite"),
    test=lambda: scale_free_graph(120, 3, seed=32, name="loc-Brightkite"),
))

_register(_graph_spec(
    "CA-HepTH",
    "social",
    "High-energy-physics co-authorship network: SG workload.",
    PaperReference(output_sizes={"sg": 74_000_000}),
    bench=lambda: scale_free_graph(450, 3, seed=33, name="CA-HepTH"),
    test=lambda: scale_free_graph(100, 3, seed=33, name="CA-HepTH"),
))

_register(_graph_spec(
    "ego-Facebook",
    "social",
    "Facebook ego network: smallest SG workload.",
    PaperReference(output_sizes={"sg": 15_000_000}),
    bench=lambda: scale_free_graph(300, 3, seed=34, name="ego-Facebook"),
    test=lambda: scale_free_graph(80, 3, seed=34, name="ego-Facebook"),
))

# ----------------------------------------------------------------------
# P2P and optimisation graphs
# ----------------------------------------------------------------------
_register(_graph_spec(
    "Gnutella31",
    "p2p",
    "Gnutella peer-to-peer overlay snapshot: bounded out-degree, ~30 iterations.",
    PaperReference(output_sizes={"reach": 884_000_000}, iterations={"reach": 31}),
    bench=lambda: p2p_graph(1700, 3, 130, seed=41, name="Gnutella31"),
    test=lambda: p2p_graph(200, 2, 30, seed=41, name="Gnutella31"),
))

_register(_graph_spec(
    "vsp_finan",
    "finance",
    "Financial-optimisation matrix graph: long chained structure, many iterations.",
    PaperReference(output_sizes={"reach": 910_000_000}, iterations={"reach": 520}),
    bench=lambda: chained_communities(42, 4, 4, seed=51, name="vsp_finan"),
    test=lambda: chained_communities(8, 3, 3, seed=51, name="vsp_finan"),
))

# ----------------------------------------------------------------------
# CSPA program graphs (Table 4)
# ----------------------------------------------------------------------
_register(DatasetSpec(
    name="httpd",
    kind="cspa",
    category="program-analysis",
    description="Apache httpd value-flow graph (Graspan input), scaled synthetic equivalent.",
    paper=PaperReference(
        output_sizes={
            "assign": 362_000,
            "dereference": 1_140_000,
            "valueflow": 1_360_000,
            "valuealias": 234_000_000,
            "memalias": 88_900_000,
        }
    ),
    generators={
        PROFILE_BENCH: lambda: generate_cspa_dataset(
            12, 26, chain_length=4, fan_in=2, inter_function_assigns=1,
            call_chain_length=6, pointer_fraction=0.2, dereferences_per_pointer=2,
            seed=61, name="httpd",
        ),
        PROFILE_TEST: lambda: generate_cspa_dataset(
            5, 16, chain_length=3, fan_in=1, inter_function_assigns=1,
            call_chain_length=5, pointer_fraction=0.25, dereferences_per_pointer=2,
            seed=61, name="httpd",
        ),
    },
))

_register(DatasetSpec(
    name="linux",
    kind="cspa",
    category="program-analysis",
    description="Statically-linked Linux subset value-flow graph, scaled synthetic equivalent.",
    paper=PaperReference(
        output_sizes={
            "assign": 1_980_000,
            "dereference": 7_500_000,
            "valueflow": 5_500_000,
            "valuealias": 22_300_000,
            "memalias": 88_400_000,
        }
    ),
    generators={
        PROFILE_BENCH: lambda: generate_cspa_dataset(
            30, 22, chain_length=3, fan_in=1, inter_function_assigns=1,
            call_chain_length=3, pointer_fraction=0.2, dereferences_per_pointer=2,
            seed=62, name="linux",
        ),
        PROFILE_TEST: lambda: generate_cspa_dataset(
            8, 14, chain_length=3, fan_in=1, inter_function_assigns=1,
            call_chain_length=3, pointer_fraction=0.25, dereferences_per_pointer=2,
            seed=62, name="linux",
        ),
    },
))

_register(DatasetSpec(
    name="postgresql",
    kind="cspa",
    category="program-analysis",
    description="PostgreSQL value-flow graph, scaled synthetic equivalent.",
    paper=PaperReference(
        output_sizes={
            "assign": 1_200_000,
            "dereference": 3_460_000,
            "valueflow": 3_710_000,
            "valuealias": 223_000_000,
            "memalias": 88_400_000,
        }
    ),
    generators={
        PROFILE_BENCH: lambda: generate_cspa_dataset(
            12, 26, chain_length=4, fan_in=2, inter_function_assigns=1,
            call_chain_length=7, pointer_fraction=0.2, dereferences_per_pointer=2,
            seed=63, name="postgresql",
        ),
        PROFILE_TEST: lambda: generate_cspa_dataset(
            6, 16, chain_length=3, fan_in=1, inter_function_assigns=1,
            call_chain_length=6, pointer_fraction=0.25, dereferences_per_pointer=2,
            seed=63, name="postgresql",
        ),
    },
))


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------

def dataset_names(kind: str | None = None) -> list[str]:
    """Names of all registered datasets, optionally filtered by kind."""
    return sorted(name for name, spec in _REGISTRY.items() if kind is None or spec.kind == kind)


def dataset_spec(name: str) -> DatasetSpec:
    """Return the :class:`DatasetSpec` registered under ``name``."""
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise DatasetError(f"unknown dataset {name!r}; known datasets: {known}")
    return _REGISTRY[name]


def load_dataset(name: str, profile: str = PROFILE_BENCH) -> Dataset:
    """Generate the synthetic dataset registered under ``name``."""
    return dataset_spec(name).load(profile)
