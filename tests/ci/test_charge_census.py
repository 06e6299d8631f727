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


def test_an_uncharged_membership_test_charges_no_filter_work(monkeypatch):
    """The run filters are charged like the probes they stand in front of:
    with ``charge=True`` a check rides in every membership test, with
    ``charge=False`` nothing at all is recorded."""
    import numpy as np

    from repro.device import Device
    from repro.relational import EagerBufferManager, hisa
    from tests.helpers import hisa_of, key_columns

    monkeypatch.setattr(hisa, "TABLE_MIN_ROWS", 0)  # every run keeps a table and filter
    device = Device("h100", oom_enabled=False)
    rows = np.arange(600, dtype=np.int64).reshape(300, 2)
    full = hisa_of(device, rows[:250], (0, 1), label="f")
    full.merge(hisa_of(device, rows[250:], (0, 1), label="f.d", build_hash_index=False), EagerBufferManager(device))
    assert len(full.run_sizes) == 2
    probes = key_columns(np.concatenate([rows, rows + 1]))

    before, seconds = len(device.profiler.events), device.elapsed_seconds
    uncharged = full.contains_columns(probes, charge=False)
    assert len(device.profiler.events) == before and device.elapsed_seconds == seconds

    charged = full.contains_columns(probes)
    kernels = [event.cost.kernel for event in device.profiler.events[before:]]
    assert kernels.count("f.filter_check") == 1
    np.testing.assert_array_equal(charged, uncharged)


def test_a_merge_no_catalog_observes_looks_no_key_up():
    """A merge into an index on fewer than all columns looks its delta's keys
    up in the runs already there only to keep the distinct-key count and the
    longest key run exact, which only a statistics catalog reads: with no
    observer attached it charges no probe and no key check."""
    import numpy as np

    from repro.device import Device
    from repro.relational import EagerBufferManager
    from tests.helpers import hisa_of

    rows = np.array([(key, value) for key in range(20) for value in range(12)], dtype=np.int64)
    rows = rows[np.random.default_rng(5).permutation(len(rows))]
    looked_up = {}
    for observed in (False, True):
        device = Device("h100", oom_enabled=False)
        full = hisa_of(device, rows[:200], (0,), label="p")
        if observed:
            full.stats_observer = lambda **totals: None
        stages = []
        charge = device.charge

        def recording(cost, phase=None):
            stages.append(cost.kernel)
            return charge(cost, phase)

        device.charge = recording
        full.merge(hisa_of(device, rows[200:], (0,), label="p.d", build_hash_index=False), EagerBufferManager(device))
        assert "p.merge_finalize" in stages and full.distinct_key_count == 20
        looked_up[observed] = {"p.probe", "p.verify_key"} & set(stages)
    assert looked_up == {False: set(), True: {"p.probe", "p.verify_key"}}


def test_small_runs_are_searched_inside_the_callers_launch(monkeypatch):
    """An all-column index's runs below ``TABLE_MIN_ROWS`` keep no table.  A
    sorted batch (``new - full``'s) is merged against each: batch and run
    keys streamed once, no random access.  Any other batch (a retract probe,
    a WCOJ member check) is binary-searched.  Neither adds a launch to the
    caller's fused one, and a run at or above the threshold still charges its
    filter check, probe and key verification."""
    import numpy as np

    from repro.device import Device
    from repro.relational import EagerBufferManager, hisa
    from tests.helpers import hisa_of, key_columns

    rows = np.arange(600, dtype=np.int64).reshape(300, 2)
    probes = np.concatenate([rows, rows + 1])
    for threshold in (hisa.TABLE_MIN_ROWS, 100):
        monkeypatch.setattr(hisa, "TABLE_MIN_ROWS", threshold)
        device = Device("h100", oom_enabled=False)
        full = hisa_of(device, rows[:250], (0, 1), label="f")
        full.merge(hisa_of(device, rows[250:], (0, 1), label="f.d", build_hash_index=False), EagerBufferManager(device))
        assert full.run_sizes == [250, 50] and full.table.n_tables == (threshold == 100)
        stages = []
        charge = device.charge

        def recording(cost, phase=None):
            stages.append(cost)
            return charge(cost, phase)

        device.charge = recording
        for batch, ordered in ((np.unique(probes, axis=0), True), (probes, False)):
            del stages[:]
            before = len(device.profiler.events)
            with device.fused("diff"):
                present = full.contains_columns(key_columns(batch))
            assert present.tolist() == [tuple(row) in set(map(tuple, rows.tolist())) for row in batch.tolist()]
            fused = device.profiler.events[before:]
            assert len(fused) == 1 and fused[0].cost.launches == 1
            kernels = [cost.kernel for cost in stages[:-1]]  # the last is the fused launch
            table_stages = ["f.hash_keys", "f.filter_check", "f.probe", "f.verify_key"] if threshold == 100 else []
            searched = [50] if threshold == 100 else [250, 50]  # sizes of the runs without a table
            searches = stages[len(table_stages) : -1]
            if ordered:
                # one merge path per run, batch and run keys streamed once each
                assert kernels == table_stages + ["f.merge_search"]
                assert searches[0].sequential_bytes == sum(16.0 * (len(batch) + n) for n in searched)
                assert searches[0].random_bytes == 0
            else:
                assert kernels == table_stages + ["f.search_keys"] * len(searched)
                assert all(cost.random_bytes > 0 for cost in searches)
