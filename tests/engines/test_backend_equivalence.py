"""Engine-level equivalence across array backends.

Running the full TC/SG/CSPA fixpoints under ``GuardBackend(NumpyBackend)``
proves two things at once: the results are identical to the default backend
(the indirection changes nothing), and the entire execution stack touches
*only* the ArrayBackend contract (the guard raises on anything else).
"""

import numpy as np
import pytest

from repro.backend import GuardBackend, NumpyBackend
from repro.datalog.engine import GPULogEngine
from repro.errors import SchemaError
from repro.queries import CSPA_SOURCE, REACH_SOURCE, SG_SOURCE


def run_with_backend(source, facts, outputs, *, backend):
    engine = GPULogEngine(device="h100", oom_enabled=False, backend=backend)
    for name, rows in facts.items():
        engine.add_fact_array(name, rows)
    result = engine.run(source)
    relations = {name: result.relation_set(name) for name in outputs}
    engine.close()
    return relations, result


def test_tc_guard_backend_equivalence(paper_edges):
    default, _ = run_with_backend(REACH_SOURCE, {"edge": paper_edges}, ["reach"], backend=None)
    guarded, _ = run_with_backend(REACH_SOURCE, {"edge": paper_edges}, ["reach"], backend="guard")
    assert guarded["reach"] == default["reach"]
    assert guarded["reach"]


def test_sg_guard_backend_equivalence(random_dag_edges):
    default, _ = run_with_backend(SG_SOURCE, {"edge": random_dag_edges}, ["sg"], backend=None)
    guarded, _ = run_with_backend(SG_SOURCE, {"edge": random_dag_edges}, ["sg"], backend="guard")
    assert guarded["sg"] == default["sg"]
    assert guarded["sg"]


def test_cspa_guard_backend_equivalence():
    rng = np.random.default_rng(7)
    facts = {
        "assign": rng.integers(0, 24, size=(60, 2), dtype=np.int64),
        "dereference": rng.integers(0, 24, size=(40, 2), dtype=np.int64),
    }
    outputs = ["valueflow", "valuealias", "memalias"]
    default, _ = run_with_backend(CSPA_SOURCE, facts, outputs, backend=None)
    guarded, _ = run_with_backend(CSPA_SOURCE, facts, outputs, backend="guard")
    for name in outputs:
        assert guarded[name] == default[name], f"relation {name!r} diverged"
        assert guarded[name]


def test_guard_instance_backend_accepted(paper_edges):
    backend = GuardBackend(NumpyBackend())
    relations, _result = run_with_backend(REACH_SOURCE, {"edge": paper_edges}, ["reach"], backend=backend)
    assert relations["reach"]
    # The datapath really routed through the contract: core primitives fired.
    assert backend.call_counts["lexsort"] > 0
    assert backend.call_counts["searchsorted"] > 0
    assert backend.call_counts["from_host"] > 0
    assert backend.call_counts["to_host"] > 0


def test_transfer_boundary_charged(paper_edges):
    engine = GPULogEngine(device="h100", oom_enabled=False)
    engine.add_fact_array("edge", paper_edges)
    result = engine.run(REACH_SOURCE)
    # Fact upload + result download both cross PCIe and must be charged.
    transferred = engine.device.profiler.transfer_bytes
    assert transferred >= paper_edges.nbytes
    assert result.phase_seconds.get("host_transfer", 0.0) > 0.0
    engine.close()


def test_collectless_run_still_charges_fact_upload(paper_edges):
    engine = GPULogEngine(device="h100", oom_enabled=False, collect_relations=False)
    engine.add_fact_array("edge", paper_edges)
    result = engine.run(REACH_SOURCE)
    assert result.phase_seconds.get("host_transfer", 0.0) > 0.0
    engine.close()


def test_device_backend_conflict_is_rejected():
    from repro.device import Device

    device = Device("h100", backend="numpy")
    with pytest.raises(SchemaError):
        GPULogEngine(device, backend="guard")
    # Matching (or omitted) backend requests are fine.
    GPULogEngine(device, backend="numpy")
    GPULogEngine(device)
