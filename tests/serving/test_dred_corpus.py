"""DRed held to the oracle over random insert/retract histories.

Each program below exercises one thing DRed must get right when a deletion
cascades: head constants and repeated head variables, body comparisons, two
rules for one head (a row over-deleted through one is re-derived through the
other), an arity-3 relation, a non-recursive chain of strata, and IDB ground
facts (the program's and the client's).  A history is a list of epochs; each
epoch coalesces one to three submissions, and one may retract and insert the
same row.  After the last epoch every relation's snapshot must equal
``tests.helpers.naive_datalog`` over the final facts and, byte for byte, a
fresh engine booted on them.  Histories run on one and two shards under both
planners.  The plan ``REPRO_FAULT_PLAN`` names is installed once the engine
has booted, so its faults land in the epochs (a bootstrap keeps no checkpoint
to roll an exchange fault back to).  Constants stay under six, so retracts
often hit resident rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.ast import Program
from repro.device import resolve_fault_plan
from repro.serving import ServingEngine

from tests.helpers import naive_datalog

#: tier-1 draws a tenth of the active hypothesis profile's examples per
#: configuration; the nightly profile (``HYPOTHESIS_PROFILE=nightly``) 10x that
EXAMPLES = max(1, settings.default.max_examples // 10)

#: the ground facts' first column is below 5, the client's ``p`` rows' at
#: least 5: no history retracts a fact the program text states
PROGRAMS = {
    "head-constants": (
        "t(x, x) :- e(x, y).\n"
        "t(x, 5) :- e(y, x), x != y.\n"
        "t(x, y) :- t(x, z), e(z, y)."
    ),
    "comparisons": "t(x, y) :- e(x, y), x < y.\nt(x, y) :- t(x, z), t(z, y), x != y.",
    "two-rules": "t(x, y) :- e(x, y).\nt(x, y) :- e(y, x).\nt(x, y) :- t(x, z), t(z, y).",
    "ternary": "p(x, y, z) :- r(x, y, z).\np(x, y, z) :- p(x, w, y), e(y, z), z >= w.",
    "strata": (
        "a(x, y) :- e(x, y), x <= y.\n"
        "b(x, z) :- a(x, y), a(y, z).\n"
        "c(x, y, z) :- b(x, y), r(y, z, x)."
    ),
    "ground-facts": (
        "p(1, 2).\np(3, 3).\n"
        "p(x, y) :- e(x, y).\n"
        "p(x, z) :- p(x, y), e(y, z).\n"
        "q(y, x) :- p(x, y), x != y."
    ),
}

ARITIES = {"e": 2, "r": 3, "p": 2}

#: (num_shards, planner) — every configuration a history runs under
CONFIGS = [(1, "greedy"), (2, "greedy"), (1, "cost+wcoj"), (2, "cost+wcoj")]

domain = st.integers(0, 5)
ROWS = {
    "e": st.tuples(domain, domain),
    "r": st.tuples(domain, domain, domain),
    # the client's rows of the IDB relation ``p`` in "ground-facts"
    "p": st.tuples(st.integers(5, 9), domain),
}


def mutable(program: str) -> list[str]:
    """The relations a history mutates: every EDB relation, and ``p`` when
    the program states ground facts of it."""
    names = [name for name in ("e", "r") if f"{name}(" in PROGRAMS[program]]
    return names + (["p"] if program == "ground-facts" else [])


@st.composite
def histories(draw, program):
    names = mutable(program)

    def rows(name, max_size):
        return draw(st.lists(ROWS[name], max_size=max_size))

    facts = {name: rows(name, 10) for name in names}
    epochs = []
    for _ in range(draw(st.integers(1, 4))):
        submissions = [
            (
                {name: rows(name, 3) for name in names},  # inserts
                {name: rows(name, 3) for name in names},  # retracts
            )
            for _ in range(draw(st.integers(1, 3)))
        ]
        if draw(st.booleans()):
            # one row retracted and inserted within the epoch, in either order
            name = draw(st.sampled_from(names))
            row = draw(ROWS[name])
            flip = [({}, {name: [row]}), ({name: [row]}, {})]
            submissions += flip if draw(st.booleans()) else flip[::-1]
        epochs.append(submissions)
    return facts, epochs


def arrays(facts):
    return {name: np.asarray(list(rows), dtype=np.int64).reshape(-1, ARITIES[name]) for name, rows in facts.items()}


def replay(facts, epochs):
    """The facts after ``epochs``: per submission its retracts, then its inserts."""
    final = {name: set(rows) for name, rows in facts.items()}
    for submissions in epochs:
        for inserts, retracts in submissions:
            for name, rows in retracts.items():
                final[name] -= set(rows)
            for name, rows in inserts.items():
                final[name] |= set(rows)
    return {name: sorted(rows) for name, rows in final.items()}


def snapshots(engine, names):
    return {name: engine.query(name).rows for name in names}


@pytest.mark.parametrize("num_shards, planner", CONFIGS, ids=[f"{n}-shard-{p}" for n, p in CONFIGS])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_histories_match_the_oracle_and_a_fresh_engine(program, num_shards, planner, data):
    source = PROGRAMS[program]
    facts, epochs = data.draw(histories(program))
    parsed = Program.parse(source)
    names = sorted(parsed.edb_relations() | parsed.idb_relations())
    options = {"background": False, "num_shards": num_shards, "planner": planner, "fault_plan": "none"}
    engine = ServingEngine(source, arrays(facts), **options)
    try:
        plan = resolve_fault_plan(None)
        for device in engine.devices:
            device.fault_plan = plan
        for submissions in epochs:
            tickets = [
                engine.submit(inserts=arrays(inserts), retracts=arrays(retracts))
                for inserts, retracts in submissions
            ]
            assert tickets[-1].result().coalesced == len(submissions)
        served = snapshots(engine, names)
    finally:
        engine.close()
    final = replay(facts, epochs)
    expected = naive_datalog(source, final)
    for name in names:
        assert set(map(tuple, served[name].tolist())) == expected.get(name, set()), name
    fresh = ServingEngine(source, arrays(final), **options)
    try:
        booted = snapshots(fresh, names)
    finally:
        fresh.close()
    for name in names:
        assert served[name].tobytes() == booted[name].tobytes(), name
