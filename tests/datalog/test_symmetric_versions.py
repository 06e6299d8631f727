"""Mirrored rule versions: the analysis, the pairs it finds, and the answers.

``symmetric_relations`` proves binary relations symmetric as a greatest
fixpoint and ``pair_mirrors`` pairs the rule versions that compute each
other's output with the two columns swapped; the fixpoint driver runs one
version of each pair and appends the swap of its output as the other's.  The
named shapes pin what the analysis finds; a generated corpus of small
recursive programs over binary relations — mirrored bodies, near-symmetric
ones that must not pair, and asymmetric controls — holds the answers to the
naive oracle on every shard count, host route and planner.  Facts stay under
ten nodes, so no example can grow past a few hundred rows.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import GPULogEngine
from repro.datalog import planner as planner_module
from repro.datalog.analysis import analyze_program, swap_closed, symmetric_relations
from repro.datalog.ast import Program
from repro.datalog.planner import plan_program
from repro.queries import CSPA_SOURCE, SG_SOURCE
from repro.serving import ServingEngine

from tests.helpers import CollidingBackend, naive_datalog

#: tier-1 draws a tenth of the active hypothesis profile's examples per
#: configuration; the nightly profile (``HYPOTHESIS_PROFILE=nightly``) 10x that
EXAMPLES = max(1, settings.default.max_examples // 10)

#: CSPA's shape over two EDB relations ``e`` (assign) and ``d`` (dereference)
CSPA_SHAPE = """
f(y, x) :- e(y, x).
f(x, y) :- e(x, z), m(z, y).
f(x, y) :- f(x, z), f(z, y).
a(x, y) :- f(z, x), f(z, y).
a(x, y) :- f(z, x), m(z, w), f(w, y).
m(x, w) :- d(y, x), a(y, z), d(z, w).
"""

#: name -> (source, relations proved symmetric, {(head, mirrored delta atom): partner's delta atom})
SHAPES = {
    # mirrored bodies
    "self-join": (
        "t(x, y) :- e(x, y).\nt(x, y) :- t(z, x), t(z, y).",
        set(),
        {("t", 1): 0},
    ),
    "self-join-guarded": (
        "t(x, y) :- e(x, y), e(y, x).\nt(x, y) :- t(z, x), t(z, y), x != y.",
        {"t"},
        {("t", 1): 0},
    ),
    "cspa-shaped": (CSPA_SHAPE, {"a", "m"}, {("a", 1): 0, ("a", 2): 0}),
    "chain-through-mutual": (
        "s(x, y) :- e(x, y), e(y, x).\n"
        "s(x, y) :- p(z, x), s(z, w), p(w, y).\n"
        "p(x, y) :- e(x, y).\n"
        "p(x, y) :- p(x, z), s(z, y).",
        {"s"},
        {("s", 2): 0},
    ),
    "chain-self-join": (
        "s(x, y) :- e(x, y), e(y, x).\n"
        "s(x, y) :- s(z, x), s(z, w), s(w, y).",
        {"s"},
        {("s", 2): 0},
    ),
    # near-symmetric bodies: one change and the mirror is gone
    "less-than-guard": (
        "t(x, y) :- e(x, y).\nt(x, y) :- t(z, x), t(z, y), x < y.",
        set(),
        {},
    ),
    "constant-in-one-position": (
        "t(x, y) :- e(x, y).\nt(x, y) :- t(z, x), t(z, y), e(x, 0).",
        set(),
        {},
    ),
    "repeated-variable": (
        "t(x, y) :- e(x, y).\nt(x, y) :- t(z, x), t(z, y), t(x, x).",
        set(),
        {},
    ),
    "chain-through-asymmetric": (
        CSPA_SHAPE.replace("m(x, w) :- d(y, x), a(y, z), d(z, w).", "m(x, w) :- d(y, x), a(y, z), d(w, z)."),
        set(),
        {("a", 1): 0},
    ),
    # asymmetric controls
    "transitive-closure": ("t(x, y) :- e(x, y).\nt(x, y) :- t(x, z), t(z, y).", set(), {}),
    "same-generation": (SG_SOURCE.replace("edge", "e"), {"sg"}, {}),
}

def pairs_of(source, idb_facts=None):
    program = Program.parse(source)
    analysis = analyze_program(program)
    asymmetric = [name for name, rows in (idb_facts or {}).items() if not swap_closed(rows)]
    symmetric = symmetric_relations(analysis, asymmetric)
    plan = plan_program(analysis, symmetric=symmetric)
    pairs = {
        (version.head_relation, version.delta_atom_index): version.mirror_of
        for rule_plan in plan.rule_plans.values()
        for version in rule_plan.versions
        if version.mirror_of is not None
    }
    return set(symmetric), pairs


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_the_analysis_finds_exactly_the_expected_pairs(shape):
    source, symmetric, pairs = SHAPES[shape]
    assert pairs_of(source) == (symmetric, pairs)


def test_cspa_proves_its_alias_relations_and_pairs_two_versions():
    assert pairs_of(CSPA_SOURCE) == ({"memalias", "valuealias"}, {("valuealias", 1): 0, ("valuealias", 2): 0})


def test_one_asymmetric_idb_fact_turns_off_the_pairs_that_relied_on_it():
    # The first valuealias rule's pair is purely syntactic; the second needs
    # memalias symmetric, which needs valuealias symmetric.
    assert pairs_of(CSPA_SOURCE, {"valuealias": np.array([[1, 2]])}) == (set(), {("valuealias", 1): 0})
    assert pairs_of(CSPA_SOURCE, {"valuealias": np.array([[1, 2], [2, 1]])})[0] == {"memalias", "valuealias"}
    facts = {"assign": [(0, 1), (1, 2), (2, 3)], "dereference": [(0, 1), (2, 1)]}
    for source, idb in ((CSPA_SOURCE + "valuealias(1, 2).", {}), (CSPA_SOURCE, {"valuealias": [(1, 2)]})):
        relations, result = run_engine(source, {**facts, **idb})
        assert result.symmetric == ()
        assert mirrored(result) == {("valuealias", 1)}
        expected = naive_datalog(source, {**facts, **idb})
        assert all(relations[name] == expected[name] for name in ("valueflow", "valuealias", "memalias"))
    _, result = run_engine(CSPA_SOURCE, {**facts, "valuealias": [(1, 2), (2, 1)]})
    assert result.symmetric == ("memalias", "valuealias")
    assert mirrored(result) == {("valuealias", 1), ("valuealias", 2)}


def mirrored(result):
    return {(entry["head"], entry["delta_atom"]) for entry in result.plan_report if entry["mirror_of"] is not None}


def test_long_bodies_are_not_searched():
    body = ", ".join(f"t(z{index}, x), t(z{index}, y)" for index in range(4))
    assert pairs_of(f"t(x, y) :- e(x, y).\nt(x, y) :- {body}.") == (set(), {})


#: (engine options, name) — every configuration the generated corpus runs under
CONFIGS = [
    ({"num_shards": 1}, "1-shard"),
    ({"num_shards": 2}, "2-shards"),
    ({"num_shards": 4}, "4-shards"),
    ({"backend": CollidingBackend()}, "colliding"),
    ({"backend": "guard"}, "guard"),
    ({"planner": "greedy"}, "greedy"),
    ({"planner": "cost+wcoj"}, "cost+wcoj"),
]


def run_engine(source, facts, **options):
    options.setdefault("num_shards", 1)
    options.setdefault("planner", "greedy")
    engine = GPULogEngine(device="h100", fault_plan="none", **options)
    try:
        for name, rows in facts.items():
            engine.add_fact_array(name, np.asarray(rows, dtype=np.int64).reshape(-1, 2))
        result = engine.run(source)
        return {name: result.relation_set(name) for name in result.relations}, result
    finally:
        engine.close()


edges = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=14)


@pytest.mark.parametrize("options", [options for options, _ in CONFIGS], ids=[name for _, name in CONFIGS])
@settings(max_examples=EXAMPLES, deadline=None)
@given(
    shape=st.sampled_from(sorted(SHAPES)),
    e=edges,
    d=edges,
    idb_fact=st.none() | st.tuples(st.integers(0, 9), st.integers(0, 9)),
)
# Shrunk counterexamples, pinned: a swap appended on its partner's shards
# instead of its own owners' (the first two, on 2 and 4 shards), and a pair
# made without the symmetry its swapped atom needs (the third).
@example(shape="chain-self-join", e=[(0, 1), (1, 0)], d=[(0, 0)], idb_fact=None)
@example(shape="chain-through-asymmetric", e=[(0, 0)], d=[(0, 0), (1, 0)], idb_fact=None)
@example(shape="chain-through-asymmetric", e=[(0, 0), (0, 1)], d=[(0, 0)], idb_fact=None)
@example(shape="cspa-shaped", e=[(0, 1), (1, 2), (2, 0), (3, 1)], d=[(0, 4), (1, 5), (2, 4)], idb_fact=None)
@example(shape="cspa-shaped", e=[(0, 1), (1, 2), (3, 1)], d=[(0, 4), (1, 5), (2, 4)], idb_fact=(4, 5))
def test_answers_match_the_oracle(options, shape, e, d, idb_fact):
    source, _, _ = SHAPES[shape]
    facts = {"e": e, "d": d}
    if idb_fact is not None:
        # one ground fact of the last rule's head, asymmetric unless a == b
        head = Program.parse(source).proper_rules()[-1].head.relation
        facts[head] = [idb_fact]
    relations, result = run_engine(source, facts, **options)
    expected = naive_datalog(source, facts)
    for name in Program.parse(source).idb_relations():
        assert relations[name] == expected.get(name, set()), name
        # a row held twice (a swap on a shard that does not own it) shows here
        assert result.count(name) == len(expected.get(name, ())), name


@pytest.mark.parametrize("num_shards", [2, 4])
def test_swapped_rows_reach_their_own_owner_shards(num_shards):
    """The swap of a part sits on the shards that own the swapped rows: a
    CSPA-shaped run has the same relation counts on every shard count (a swap
    appended on its partner's shards would hold rows its owner never dedups
    against, and count them twice)."""
    rng = np.random.default_rng(7)
    facts = {
        "assign": rng.integers(0, 24, size=(60, 2)),
        "dereference": rng.integers(0, 24, size=(40, 2)),
    }
    one, result = run_engine(CSPA_SOURCE, facts)
    many, sharded = run_engine(CSPA_SOURCE, facts, num_shards=num_shards)
    assert sharded.relation_counts == result.relation_counts
    assert many == one
    assert sum(entry["mirror_of"] is not None for entry in sharded.plan_report) == 2


def test_a_mirrored_version_reports_its_partner_and_raw_count_skips_it():
    rng = np.random.default_rng(3)
    facts = {"assign": rng.integers(0, 20, size=(50, 2)), "dereference": rng.integers(0, 20, size=(30, 2))}
    _, paired = run_engine(CSPA_SOURCE, facts)
    expected = naive_datalog(CSPA_SOURCE, facts)
    assert {name: paired.relation_set(name) for name in ("valueflow", "valuealias", "memalias")} == {
        name: expected[name] for name in ("valueflow", "valuealias", "memalias")
    }
    raw = sum(item.raw_count for history in paired.iteration_history.values() for item in history)
    by_version = {(entry["rule"], entry["delta_atom"]): entry for entry in paired.plan_report}
    mirrored = [entry for entry in paired.plan_report if entry["mirror_of"] is not None]
    assert len(mirrored) == 2
    for entry in mirrored:
        partner = by_version[entry["rule"], entry["mirror_of"]]
        assert entry["observed_rows"] == partner["observed_rows"] > 0
        assert entry["executions"] == partner["executions"]
    # what the versions that ran produced: the swaps are not counted
    executed = [entry for entry in paired.plan_report if entry["delta_atom"] is not None and entry["mirror_of"] is None]
    assert raw == sum(entry["observed_rows"] for entry in executed)


def test_explain_names_the_symmetric_relations_and_the_mirrored_versions():
    rng = np.random.default_rng(3)
    facts = {"assign": rng.integers(0, 20, size=(50, 2)), "dereference": rng.integers(0, 20, size=(30, 2))}
    engine = GPULogEngine(device="h100", fault_plan="none", num_shards=1, planner="greedy")
    try:
        for name, rows in facts.items():
            engine.add_fact_array(name, rows)
        result = engine.run(CSPA_SOURCE)
        lines = engine.explain().splitlines()
    finally:
        engine.close()
    assert lines[1] == "symmetric: memalias(0,1) valuealias(0,1)"
    by_version = {(entry["rule"], entry["delta_atom"]): entry for entry in result.plan_report}
    for entry in result.plan_report:
        if entry["mirror_of"] is None:
            continue
        partner = by_version[entry["rule"], entry["mirror_of"]]
        line = next(
            line for line in lines if f"version[delta_atom={entry['delta_atom']}] mirror_of=0 " in line
            and f"order={entry['atom_order']}" in line
        )
        # the partner's rows and executions; no arrival dedup of its own
        assert f"observed_rows={partner['observed_rows']:.0f} executions={partner['executions']}" in line
        assert "arrival_dedup=" not in line


def serving_session(num_shards, *, asymmetric_epoch=False):
    """A CSPA session: bootstrap, insert epochs, retract epochs and (maybe) one
    epoch inserting an asymmetric valuealias row; every snapshot, in order."""
    rng = np.random.default_rng(11)
    assign = rng.integers(0, 16, size=(40, 2))
    dereference = rng.integers(0, 16, size=(24, 2))
    held = {"assign": [tuple(row) for row in assign[-6:].tolist()]}
    facts = {"assign": assign[:-6], "dereference": dereference}
    engine = ServingEngine(CSPA_SOURCE, facts, background=False, num_shards=num_shards, fault_plan="none")
    outputs = ("valueflow", "valuealias", "memalias")
    snapshots = []
    state = {"assign": set(map(tuple, assign[:-6].tolist())), "dereference": set(map(tuple, dereference.tolist()))}
    try:
        snapshots.append({name: engine.query(name).rows.tobytes() for name in outputs})
        script = [
            ({"assign": held["assign"][:3]}, None),
            ({"assign": held["assign"][3:]}, None),
            (None, {"assign": held["assign"][:2]}),
            (None, {"dereference": [tuple(row) for row in dereference[:3].tolist()]}),
        ]
        if asymmetric_epoch:
            # two dereferenced pointers: memalias gains rows without their swaps
            pointer, other = dereference[-1, 0], next(row[0] for row in dereference[::-1] if row[0] != dereference[-1, 0])
            script.append(({"valuealias": [(int(pointer), int(other))]}, None))
        for inserts, retracts in script:
            engine.submit(inserts=inserts, retracts=retracts).result()
            for name, rows in (retracts or {}).items():
                state[name] -= set(rows)
            for name, rows in (inserts or {}).items():
                state.setdefault(name, set()).update(rows)
            snapshots.append({name: engine.query(name).rows.tobytes() for name in outputs})
        return snapshots, engine._symmetric, engine._epoch_versions, state
    finally:
        engine.close()


@pytest.mark.parametrize("num_shards", [1, 2])
def test_serving_snapshots_equal_the_session_without_pairs(monkeypatch, num_shards):
    paired, symmetric, versions, _ = serving_session(num_shards)
    assert symmetric == {"memalias", "valuealias"}
    assert sum(version.mirror_of is not None for version in versions) == 2
    monkeypatch.setattr(planner_module, "mirror_renamings", lambda rule, symmetric: iter(()))
    plain, _, plain_versions, _ = serving_session(num_shards)
    assert not any(version.mirror_of is not None for version in plain_versions)
    assert paired == plain


@pytest.mark.parametrize("num_shards", [1, 2])
def test_an_asymmetric_insert_turns_the_pairs_off(num_shards):
    snapshots, symmetric, versions, state = serving_session(num_shards, asymmetric_epoch=True)
    assert symmetric == set()
    # the purely syntactic pair stays, the one that needed memalias goes
    assert {(version.head_relation, version.delta_atom_index) for version in versions if version.mirror_of is not None} == {
        ("valuealias", 1)
    }
    expected = naive_datalog(CSPA_SOURCE, {name: sorted(rows) for name, rows in state.items()})
    final = snapshots[-1]
    for name in ("valueflow", "valuealias", "memalias"):
        rows = np.frombuffer(final[name], dtype=np.int64).reshape(-1, 2)
        assert set(map(tuple, rows.tolist())) == expected[name], name


def test_symmetric_relations_is_a_greatest_fixpoint():
    """Dropping one relation drops the others that needed it: memalias needs
    valuealias and valuealias needs memalias; valueflow needs neither."""
    analysis = analyze_program(Program.parse(CSPA_SOURCE))
    assert symmetric_relations(analysis, ["valuealias"]) == frozenset()
    assert symmetric_relations(analysis, ["memalias"]) == frozenset()
    assert symmetric_relations(analysis, ["valueflow"]) == {"memalias", "valuealias"}
