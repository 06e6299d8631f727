"""Every ``charge=False`` in ``src/`` is written down here, with its reason.

``charge=False`` asks a kernel to do its array work without advancing the
simulated clock.  That is right for introspection and for work another charge
already covers, and wrong everywhere else — it is how work escapes the cost
model (ROADMAP aim 3).  The call sites are found by parsing, not executing,
and pinned as a literal: a new one is a deliberate edit of this file that says
why the work is free.  PR 22 took the list from six to four (the cached
row view of a delta and the fused n-way join's index probes went with the row
route), and the serving commit record took it to three: the rollback baseline
is the checkpoint chain, whose download is charged once.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro")

#: (file under src/repro, enclosing function, callee) -> why nothing is charged
UNCHARGED = {
    ("relational/relation.py", "as_set", "full_rows_host"): "test introspection of the full version",
    ("relational/sharded.py", "as_set", "full_rows_host"): "test introspection of the full version",
    ("datalog/seminaive.py", "_initial_rows", "columns"): (
        "a degraded re-execution slices the scan's stored columns, which are already materialized"
    ),
}


def uncharged_calls() -> set[tuple[str, str, str]]:
    found = set()
    for directory, _subdirectories, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            relative = os.path.relpath(path, SRC).replace(os.sep, "/")
            for function in ast.walk(tree):
                if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(function):
                    if isinstance(node, ast.Call) and any(
                        keyword.arg == "charge"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is False
                        for keyword in node.keywords
                    ):
                        callee = node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
                        found.add((relative, function.name, callee))
    return found


def test_every_uncharged_call_is_listed_with_a_reason():
    assert uncharged_calls() == set(UNCHARGED)
    assert len(UNCHARGED) <= 3
    assert all(reason for reason in UNCHARGED.values())


def test_an_uncharged_membership_test_charges_nothing():
    """A membership test searches every run of the all-column index: with
    ``charge=True`` the search is charged, with ``charge=False`` nothing at
    all is recorded, and the answers agree."""
    import numpy as np

    from repro.device import Device
    from tests.helpers import hisa_of, key_columns

    device = Device("h100", oom_enabled=False)
    rows = np.arange(600, dtype=np.int64).reshape(300, 2)
    full = hisa_of(device, rows[:250], (0, 1), label="f")
    full.merge(hisa_of(device, rows[250:], (0, 1), label="f.d", build_hash_index=False))
    assert len(full.run_sizes) == 2
    probes = key_columns(np.concatenate([rows, rows + 1]))

    before, seconds = len(device.profiler.events), device.elapsed_seconds
    uncharged = full.contains_columns(probes, charge=False)
    assert len(device.profiler.events) == before and device.elapsed_seconds == seconds

    charged = full.contains_columns(probes)
    assert [event.cost.kernel for event in device.profiler.events[before:]] == ["f.search_keys"]
    np.testing.assert_array_equal(charged, uncharged)


def test_small_runs_are_searched_inside_the_callers_launch(monkeypatch):
    """An all-column index keeps no table at any run size, so a membership
    test searches every run.  Each run is charged the cheaper of a merge
    path (batch and run keys streamed once; only for a sorted batch, as
    ``new - full``'s is) and a binary search per key (random reads), by the
    device's cost model; neither adds a launch to the caller's fused one.
    On a prefix index the constructor's run keeps its table and is probed,
    and a join lookup searches the merged run at the join key's width, in
    the same one launch."""
    import numpy as np

    from repro.device import Device
    from repro.device.kernels import DeviceKernels
    from repro.relational import hisa
    from tests.helpers import hisa_of, key_columns

    def recording(cost, phase=None):
        stages.append(cost)
        return charge(cost, phase)

    rows = np.arange(600, dtype=np.int64).reshape(300, 2)
    stored = set(map(tuple, rows.tolist()))
    probes = np.concatenate([rows, rows + 1])
    for threshold in (hisa.TABLE_MIN_ROWS, 0):
        monkeypatch.setattr(hisa, "TABLE_MIN_ROWS", threshold)
        device = Device("h100", oom_enabled=False)
        full = hisa_of(device, rows[:250], (0, 1), label="f")
        full.merge(hisa_of(device, rows[250:], (0, 1), label="f.d", build_hash_index=False))
        assert full.run_sizes == [250, 50] and full.table.n_tables == 0
        stages = []
        charge = device.charge
        device.charge = recording
        # A large sorted batch merges through both runs; two sorted keys
        # binary-search the large run and merge through the small one; a
        # batch in any order can only binary-search.
        merge, search = "f.merge_search", "f.search_keys"
        for batch, kernels in (
            (np.unique(probes, axis=0), [merge, merge]),
            (probes[:2], [search, merge]),
            (probes, [search, search]),
        ):
            del stages[:]
            before = len(device.profiler.events)
            with device.fused("diff"):
                present = full.contains_columns(key_columns(batch))
            assert present.tolist() == [tuple(row) in stored for row in batch.tolist()]
            fused = device.profiler.events[before:]
            assert len(fused) == 1 and fused[0].cost.launches == 1
            searches = stages[:-1]  # the last is the fused launch
            assert [cost.kernel for cost in searches] == kernels
            for cost, run in zip(searches, (250, 50)):
                if cost.kernel == merge:
                    assert cost.sequential_bytes == 16.0 * (len(batch) + run) and cost.random_bytes == 0
                else:
                    assert cost == DeviceKernels.binary_search_cost(len(batch), run, 16.0, label=search)

    monkeypatch.undo()  # the default threshold
    device = Device("h100", oom_enabled=False)
    prefix = hisa_of(device, rows[:250], (0,), label="p")
    prefix.merge(hisa_of(device, rows[250:], (0,), label="p.d", build_hash_index=False))
    assert prefix.run_sizes == [250, 50] and prefix.table.n_tables == 1
    stages = []
    charge = device.charge
    device.charge = recording
    keys = probes[:, :1]
    for batch, ordered in ((np.unique(keys, axis=0), True), (keys[::-1], False)):
        del stages[:]
        before = len(device.profiler.events)
        with device.fused("join"):
            _, lengths = prefix.lookup_columns(key_columns(batch))
        assert lengths.tolist() == [int(key in rows[:, 0]) for key in batch[:, 0].tolist()]
        fused = device.profiler.events[before:]
        assert len(fused) == 1 and fused[0].cost.launches == 1
        kernels = [cost.kernel for cost in stages[:-1]]
        m, search = len(batch), stages[-2]
        if ordered:
            assert kernels == ["p.hash_keys", "p.probe", "p.verify_key", "p.merge_search"]
            assert search.sequential_bytes == 8.0 * (m + 50) and search.random_bytes == 0
        else:
            assert kernels == ["p.hash_keys", "p.probe", "p.verify_key", "p.search_keys"]
            assert search.random_bytes == 8.0 * m * np.log2(50)
