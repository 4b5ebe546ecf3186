"""Property suite: the encoded tier computes the object path's results.

Randomized SPJUA queries over databases annotated in every
machine-representable semiring (``N``, ``B``, ``Z``, tropical, Viterbi)
are evaluated three ways — the interpreter, the planned object tier
(``compile_plan(..., tier="object")``) and the planned encoded tier — and
the *annotated* results compared for equality.  A separate property
injects data that disqualifies the tier (annotations outside the machine
dtype) and checks the runtime fallback is transparent.

Unlike the free-semiring planner suite (one ``N[X]`` run certifies every
homomorphic image), concrete semirings must each be exercised directly:
the encoded tier specialises per dtype and per ``+``/``*`` kernel pair.
"""

import math

import pytest

pytest.importorskip("numpy")  # the encoded tier exists only with NumPy

from hypothesis import given, settings, strategies as st

from repro.core import (
    Aggregate,
    CountAgg,
    GroupBy,
    KDatabase,
    KRelation,
    Project,
)
from repro.monoids import MAX, MIN, SUM
from repro.plan import compile_plan
from repro.semirings import BOOL, FUZZY, INT, NAT, TROPICAL

from strategies import GROUPS, VALUES, WEIGHTS, spju

#: (semiring, annotation sample pool, aggregation monoids usable with it).
#: Z aggregates through no compatibility witness (not positive, no hom to
#: N), so it exercises the SPJU fragment only.
SEMIRINGS = [
    (NAT, [1, 2, 3], [SUM, MIN, MAX]),
    (BOOL, [True], [MIN, MAX]),
    (INT, [-2, -1, 1, 3], []),
    (TROPICAL, [0.0, 1.5, 2.5, math.inf], [MIN, MAX]),
    (FUZZY, [0.25, 0.5, 1.0], [MIN, MAX]),
]

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def concrete_database(draw, semiring, pool):
    """A small database R(g, v), S(g), T(g, w) annotated from ``pool``."""
    annotation = st.sampled_from(pool)

    rows_r = draw(
        st.lists(st.tuples(st.sampled_from(GROUPS), st.sampled_from(VALUES)),
                 min_size=0, max_size=6, unique=True)
    )
    rows_s = draw(st.lists(st.sampled_from(GROUPS), min_size=0, max_size=3,
                           unique=True))
    rows_t = draw(
        st.lists(st.tuples(st.sampled_from(GROUPS), st.sampled_from(WEIGHTS)),
                 min_size=0, max_size=4, unique=True)
    )
    r = KRelation.from_rows(
        semiring, ("g", "v"), [(row, draw(annotation)) for row in rows_r]
    )
    s = KRelation.from_rows(
        semiring, ("g",), [((g,), draw(annotation)) for g in rows_s]
    )
    t = KRelation.from_rows(
        semiring, ("g", "w"), [(row, draw(annotation)) for row in rows_t]
    )
    return KDatabase(semiring, {"R": r, "S": s, "T": t})


@st.composite
def workload(draw):
    """(semiring, annotation pool, query) with a semiring-legal head."""
    semiring, pool, monoids = draw(st.sampled_from(SEMIRINGS))
    query, attrs = draw(spju(draw(st.integers(min_value=0, max_value=2))))
    numeric = sorted(a for a in attrs if a.startswith(("v", "w")))
    choices = ["none"]
    if monoids:
        if "g" in attrs and numeric:
            choices.append("group")
        if numeric:
            choices.append("agg")
        if semiring.has_hom_to_nat:
            choices.append("count")
    top = draw(st.sampled_from(choices))
    if top == "group":
        agg_attr = draw(st.sampled_from(numeric))
        monoid = draw(st.sampled_from(monoids))
        count = semiring.has_hom_to_nat and draw(st.booleans())
        query = GroupBy(query, ["g"], {agg_attr: monoid},
                        count_attr="n" if count else None)
    elif top == "agg":
        agg_attr = draw(st.sampled_from(numeric))
        query = Aggregate(Project(query, (agg_attr,)), agg_attr,
                          draw(st.sampled_from(monoids)))
    elif top == "count":
        query = CountAgg(query, "n")
    return semiring, pool, query


# ---------------------------------------------------------------------------
# the equivalence properties
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_encoded_tier_equals_object_path_and_interpreter(data):
    semiring, pool, query = data.draw(workload())
    db = concrete_database(data.draw, semiring, pool)
    interpreted = query.evaluate(db, engine="interpreted")
    object_plan = compile_plan(query, db, tier="object")
    encoded_plan = compile_plan(query, db)
    assert encoded_plan.tier == "encoded"
    assert object_plan.execute() == interpreted
    assert encoded_plan.execute() == interpreted


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_encoded_plan_is_stable_across_reexecution(data):
    """Cached scan encodings, join build structures and key-row memos must
    not leak state between executions of a prepared plan."""
    semiring, pool, query = data.draw(workload())
    db = concrete_database(data.draw, semiring, pool)
    plan = compile_plan(query, db)
    first = plan.execute()
    second = plan.execute()
    assert first == second == query.evaluate(db)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_disqualifying_annotations_fall_back_transparently(data):
    """Annotations outside the machine dtype (a > 2^31 multiplicity) must
    route the batch through the object path with identical results."""
    _semiring, _pool, query = data.draw(workload())
    db = concrete_database(data.draw, NAT, [1, 2, (1 << 40)])
    plan = compile_plan(query, db)
    assert plan.tier == "encoded"  # compile-time selection stands...
    assert plan.execute() == query.evaluate(db)  # ...runtime falls back
