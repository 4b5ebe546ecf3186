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
from fractions import Fraction

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
    Table,
)
from repro.monoids import MAX, MIN, PROD, SUM
from repro.plan import compile_plan, set_default_workers
from repro.semimodules.tensor import Tensor
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


# ---------------------------------------------------------------------------
# the collapse kernel's value is the definition's value
# ---------------------------------------------------------------------------

#: Value pools of one kind each (no two values of a pool are equal across
#: types, so every tier's dictionary keeps the same representative); each
#: holds 0 and 1, the identities of SUM and PROD.
VALUE_POOLS = {
    "int": [0, 1, 5, -3, 10],
    "float": [0.0, 1.0, 0.1, 0.2, 0.3, -1.5],
    "fraction": [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(5, 2)],
    "mixed": [0, 1, 0.1, 2.5, Fraction(1, 3)],
}


@st.composite
def collapse_workload(draw):
    """(database, query): a GB or AGG head over SUM / MIN / MAX / PROD on an
    ``N`` or ``B`` database whose value columns come from one pool."""
    semiring, annotations = draw(st.sampled_from([(NAT, [1, 2, 3]), (BOOL, [True])]))
    monoid = draw(st.sampled_from([SUM, MIN, MAX, PROD]))
    kind = draw(st.sampled_from(["int", "int", "float", "fraction", "mixed"]))
    pool = list(VALUE_POOLS[kind])
    if monoid.idempotent and kind in ("float", "mixed"):
        pool += [math.inf, -math.inf]  # the identities of MIN and MAX
    annotation = st.sampled_from(annotations)

    def table(columns, row, min_size, max_size):
        rows = draw(st.lists(row, min_size=min_size, max_size=max_size, unique=True))
        return KRelation.from_rows(
            semiring, columns, [(r, draw(annotation)) for r in rows])

    group, value = st.sampled_from(GROUPS), st.sampled_from(pool)
    db = KDatabase(semiring, {
        # R is never empty; selections and joins still empty the input
        "R": table(("g", "v"), st.tuples(group, value), 1, 8),
        "S": table(("g",), st.tuples(group), 0, 3),
        "T": table(("g", "w"), st.tuples(group, value), 0, 5),
    })
    query, attrs = draw(spju(draw(st.integers(min_value=0, max_value=2))))
    numeric = sorted(a for a in attrs if a.startswith(("v", "w")))
    if not numeric:
        query, attrs, numeric = Table("R"), ("g", "v"), ["v"]
    agg_attr = draw(st.sampled_from(numeric))
    if "g" in attrs and draw(st.booleans()):
        count = semiring is NAT and draw(st.booleans())
        query = GroupBy(query, ["g"], {agg_attr: monoid},
                        count_attr="n" if count else None)
    else:
        query = Aggregate(Project(query, (agg_attr,)), agg_attr, monoid)
    return db, query


def _aggregates(rel):
    """``{plain (group) values: (annotation, tensors)}`` of a result."""
    out = {}
    for tup, annotation in rel.rows():
        plain = tuple(v for v in tup._values if not isinstance(v, Tensor))
        out[plain] = annotation, [v for v in tup._values if isinstance(v, Tensor)]
    return out


def same_value(a, b) -> bool:
    """Equal, of the same type, and bit-identical where a float."""
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if type(a) is float else a == b


def assert_tensors_match(got, want):
    """``got`` (an encoded or parallel result) presents exactly the object
    tier's rows and tensors, and every collapse — prefilled or not — is
    what the definition computes from the tensor's own entries.

    The relations themselves are not compared with ``==``: a float SUM
    folds its entries in insertion order, which is row order on the
    object tier and dictionary-code order on the encoded one (so at the
    parent too), and the two folds may differ in the last bit."""
    got, want = _aggregates(got), _aggregates(want)
    assert got.keys() == want.keys()
    for key, (annotation, tensors) in got.items():
        assert annotation == want[key][0]
        for t, u in zip(tensors, want[key][1]):
            assert t.space is u.space
            assert t._entries == u._entries and str(t) == str(u)
            if t.space.collapses:
                fresh = Tensor(t.space, dict(t._entries)).collapse()
                assert same_value(t.collapse(), fresh), (t, t.collapse(), fresh)


@settings(max_examples=250, deadline=None)
@given(workload=collapse_workload())
def test_prefilled_collapse_is_the_definitions_value(workload):
    db, query = workload
    want = compile_plan(query, db, tier="object").execute()
    got = compile_plan(query, db, tier="encoded").execute()
    assert_tensors_match(got, want)


@settings(max_examples=40, deadline=None)
@given(workload=collapse_workload(), workers=st.sampled_from([1, 2]))
def test_merged_collapse_is_the_definitions_value(workload, workers):
    db, query = workload
    want = compile_plan(query, db, tier="object").execute()
    set_default_workers(workers)
    try:
        got = compile_plan(query, db, tier="parallel").execute()
    finally:
        set_default_workers(None)
    assert_tensors_match(got, want)
