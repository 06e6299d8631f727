"""The occupancy-table dedup route changes nothing an engine run can observe.

A CSPA fixpoint over 36 program variables packs its two-column tuples into
12-bit keys, so most of its dedups have at most 4 key slots per row and take
the table route of ``DeviceKernels._unique_packed``.  Run once with the route
and once with it switched off (the slots-per-row bound at 0), the relations
and every profiled kernel event must be identical.
"""

import pytest

from repro.datalog.engine import GPULogEngine
from repro.datasets.cspa import generate_cspa_dataset
from repro.device import kernels as kernels_module
from repro.queries import CSPA_SOURCE

OUTPUTS = ("valueflow", "valuealias", "memalias")


def _quick_cspa():
    """The benchmark's quick ``cspa-httpd`` shape: 3 functions x 12 variables."""
    dataset = generate_cspa_dataset(
        3, 12, chain_length=3, fan_in=1, inter_function_assigns=1,
        call_chain_length=3, pointer_fraction=0.25, dereferences_per_pointer=2, seed=61,
    )
    return {"assign": dataset.assign, "dereference": dataset.dereference}


def _run(backend):
    engine = GPULogEngine(device="h100", oom_enabled=False, backend=backend, num_shards=1)
    for name, rows in _quick_cspa().items():
        engine.add_fact_array(name, rows)
    result = engine.run(CSPA_SOURCE)
    relations = {name: result.relation_set(name) for name in OUTPUTS}
    events = engine.device.profiler.events
    engine.close()
    return relations, events, result.elapsed_seconds


@pytest.mark.parametrize("backend", [None, "guard"], ids=["numpy", "guard"])
def test_cspa_is_identical_with_and_without_the_table_route(monkeypatch, backend):
    fired = []
    occupied_keys = kernels_module._occupied_keys

    def spy(array_backend, keys, bits):
        fired.append(int(keys.shape[0]))
        return occupied_keys(array_backend, keys, bits)

    monkeypatch.setattr(kernels_module, "_occupied_keys", spy)
    with_table = _run(backend)
    assert len(fired) >= 5 and sum(fired) > 10_000  # the route really carried the dedups
    monkeypatch.setattr(kernels_module, "DENSE_KEY_SLOTS_PER_ROW", 0)
    fired.clear()
    without_table = _run(backend)
    assert fired == []
    assert with_table[0] == without_table[0]
    assert all(with_table[0][name] for name in OUTPUTS)
    assert with_table[1] == without_table[1]
    assert with_table[2] == without_table[2]
