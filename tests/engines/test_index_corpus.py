"""Relations probed on several column sets, held to the naive oracle.

Every relation keeps its tuples once, in one column store, and each index
over it — the all-column one, prefix ones and non-prefix ones — is a column
order with its own sorted runs and hash table.  The generated corpus runs
small recursive programs over a binary ``e`` and a ternary ``r`` whose rules
probe IDB and EDB relations on non-prefix column sets (``(1,)``, ``(2,)``,
``(0, 2)``, ``(1, 2)``) and holds every answer to
``tests.helpers.naive_datalog``: on one and two shards, under both planners,
under a colliding hash, resumed from every checkpoint, and through a serving
insert epoch and retract epoch.  A relation driven by hand covers the
permuted column order ``(2, 0)``, which the planner never asks for (it keys
an index by ascending column).  Constants stay under ten per domain, so no
example outgrows a thousand rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GPULogEngine
from repro.datalog.analysis import analyze_program
from repro.datalog.ast import Program
from repro.datalog.planner import plan_program
from repro.device import Device
from repro.relational import InMemoryCheckpointStore, Relation
from repro.serving import ServingEngine

from tests.helpers import CollidingBackend, key_columns, naive_datalog

#: tier-1 draws a tenth of the active hypothesis profile's examples per
#: configuration; the nightly profile (``HYPOTHESIS_PROFILE=nightly``) 10x that
EXAMPLES = max(1, settings.default.max_examples // 10)

SHAPES = {
    "binary-both-ends": "t(x, y) :- e(x, y).\nt(x, y) :- t(x, z), t(z, y).",
    "ternary-first-last": "p(x, y, z) :- r(x, y, z).\np(x, y, z) :- p(x, y, w), p(w, v, z).",
    "ternary-rotate": (
        "p(x, y, z) :- r(x, y, z).\n"
        "p(x, y, z) :- p(y, z, w), p(w, x, v).\n"
        "p(x, y, z) :- p(x, w, y), r(v, w, z)."
    ),
    "ternary-two-columns": "p(x, y, z) :- r(x, y, z).\np(x, y, z) :- p(w, u, x), p(u, y, w), e(x, z).",
    "mixed-arity": (
        "t(x, y) :- e(x, y).\n"
        "p(x, y, z) :- r(x, y, z).\n"
        "t(x, z) :- p(x, y, z), t(z, y).\n"
        "p(x, y, z) :- t(z, x), p(y, x, z)."
    ),
}

ARITIES = {"e": 2, "r": 3}

#: (engine options, name) — every configuration the corpus runs under
CONFIGS = [
    ({"num_shards": 1, "planner": "greedy"}, "1-shard-greedy"),
    ({"num_shards": 2, "planner": "greedy"}, "2-shards-greedy"),
    ({"num_shards": 1, "planner": "cost+wcoj"}, "1-shard-cost+wcoj"),
    ({"num_shards": 2, "planner": "cost+wcoj"}, "2-shards-cost+wcoj"),
    ({"num_shards": 1, "backend": CollidingBackend()}, "colliding"),
]

domain = st.integers(0, 9)
facts_strategy = st.fixed_dictionaries(
    {
        "e": st.lists(st.tuples(domain, domain), min_size=1, max_size=10),
        "r": st.lists(st.tuples(domain, domain, domain), min_size=1, max_size=10),
    }
)


def arrays(facts):
    return {name: np.asarray(rows, dtype=np.int64).reshape(-1, ARITIES[name]) for name, rows in facts.items()}


def expected_answers(source, facts):
    expected = naive_datalog(source, facts)
    return {name: expected.get(name, set()) for name in Program.parse(source).idb_relations()}


def answers(result, source):
    return {name: result.relation_set(name) for name in Program.parse(source).idb_relations()}


def test_the_corpus_probes_non_prefix_column_sets():
    probed = set()
    for source in SHAPES.values():
        for planner in ("greedy", "cost+wcoj"):
            plan = plan_program(analyze_program(Program.parse(source)), planner=planner)
            probed |= {columns for _, columns in plan.required_indexes()}
    assert {(1,), (2,), (0, 2), (1, 2)} <= probed


@pytest.mark.parametrize("options", [options for options, _ in CONFIGS], ids=[name for _, name in CONFIGS])
@settings(max_examples=EXAMPLES, deadline=None)
@given(shape=st.sampled_from(sorted(SHAPES)), facts=facts_strategy)
def test_answers_match_the_oracle(options, shape, facts):
    source = SHAPES[shape]
    engine = GPULogEngine(device="h100", fault_plan="none", **options)
    try:
        for name, rows in arrays(facts).items():
            engine.add_fact_array(name, rows)
        result = engine.run(source)
    finally:
        engine.close()
    expected = expected_answers(source, facts)
    assert answers(result, source) == expected
    for name, rows in expected.items():
        assert result.count(name) == len(rows), name


@pytest.mark.parametrize("num_shards", [1, 2])
@settings(max_examples=EXAMPLES, deadline=None)
@given(shape=st.sampled_from(sorted(SHAPES)), facts=facts_strategy)
def test_every_checkpoint_resumes_to_the_oracle(num_shards, shape, facts):
    source = SHAPES[shape]
    store = InMemoryCheckpointStore()
    engine = GPULogEngine(
        device="h100", fault_plan="none", num_shards=num_shards, checkpoint_every=1, checkpoint_store=store
    )
    try:
        for name, rows in arrays(facts).items():
            engine.add_fact_array(name, rows)
        engine.run(source)
    finally:
        engine.close()
    expected = expected_answers(source, facts)
    for checkpoint_id in store.list_ids():
        resumed = GPULogEngine(device="h100", fault_plan="none", num_shards=num_shards)
        try:
            result = resumed.resume(store.load(checkpoint_id))
        finally:
            resumed.close()
        assert answers(result, source) == expected, checkpoint_id


@pytest.mark.parametrize("num_shards", [1, 2])
@settings(max_examples=EXAMPLES, deadline=None)
@given(shape=st.sampled_from(sorted(SHAPES)), facts=facts_strategy, held=st.integers(1, 3))
def test_serving_epochs_match_the_oracle(num_shards, shape, facts, held):
    """Boot without the last ``held`` facts of each EDB relation, insert them
    in one epoch, retract the first ones in another: every snapshot is the
    oracle's answer over the facts resident at that point."""
    source = SHAPES[shape]
    state = {name: list(dict.fromkeys(rows)) for name, rows in facts.items()}
    inserts = {name: rows[-held:] for name, rows in state.items() if len(rows) > held}
    resident = {name: [row for row in rows if row not in inserts.get(name, ())] for name, rows in state.items()}
    retracts = {name: rows[:1] for name, rows in resident.items() if rows}
    engine = ServingEngine(
        source, arrays(resident), background=False, num_shards=num_shards, fault_plan="none"
    )
    try:
        for epoch in ({}, {"inserts": arrays(inserts)}, {"retracts": arrays(retracts)}):
            if epoch:
                engine.submit(**epoch).result()
            for name, rows in epoch.get("inserts", {}).items():
                resident[name] = resident[name] + [tuple(row) for row in rows.tolist()]
            for name, rows in epoch.get("retracts", {}).items():
                resident[name] = [row for row in resident[name] if row not in set(map(tuple, rows.tolist()))]
            expected = expected_answers(source, resident)
            for name, rows in expected.items():
                snapshot = engine.query(name).rows
                assert set(map(tuple, snapshot.tolist())) == rows, (name, epoch)
                assert len(snapshot) == len(rows), (name, epoch)
    finally:
        engine.close()


#: every index kind over one ternary relation: all columns, a prefix, two
#: non-prefix sets and a permuted one
RELATION_INDEXES = [(0,), (1,), (2,), (1, 2), (2, 0)]


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.tuples(domain, domain, domain), min_size=0, max_size=12), min_size=1, max_size=6
    ),
    eager=st.booleans(),
)
def test_every_index_over_one_store_answers_like_the_rows(batches, eager):
    """A relation fed iteration by iteration: its store holds each distinct
    row once, in derivation order, and every index over it — permuted
    ``(2, 0)`` included — finds exactly the rows that carry a key."""
    device = Device("h100", oom_enabled=False)
    relation = Relation(device, "r", 3, eager_buffers=eager)
    for columns in RELATION_INDEXES:
        relation.require_index(columns)
    relation.initialize(np.asarray(batches[0], dtype=np.int64).reshape(-1, 3))
    derived = sorted(set(batches[0]))
    for batch in batches[1:]:
        relation.add_new(np.asarray(batch, dtype=np.int64).reshape(-1, 3))
        relation.end_iteration()
        derived += sorted(set(batch) - set(derived))
    assert [tuple(row) for row in relation.full_rows_host().tolist()] == derived
    rows = np.asarray(derived, dtype=np.int64).reshape(-1, 3)
    for columns in RELATION_INDEXES:
        index = relation.index_for(columns)
        keys = np.unique(np.concatenate([rows[:, list(columns)], np.zeros((1, len(columns)), dtype=np.int64)]), axis=0)
        runs, lengths = index.lookup_columns(key_columns(keys), charge=False)
        probe, positions = index.expand_matches(runs, lengths)
        for position, key in enumerate(keys.tolist()):
            found = rows[positions[probe == position]]
            expected = rows[(rows[:, list(columns)] == key).all(axis=1)]
            assert sorted(map(tuple, found.tolist())) == sorted(map(tuple, expected.tolist())), (columns, key)
    relation.free()
    assert device.pool.in_use_bytes == 0
