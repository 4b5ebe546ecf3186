"""Property suite: the collapse kernel's value is the definition's value.

GB and AGG heads over SUM / MIN / MAX / PROD on ``N`` and ``B``
databases whose value columns come from one pool (ints, floats,
fractions, or a mix) run on the object tier, the encoded tier and the
parallel tier's merge.  Each result presents exactly the object tier's
rows and tensors, and every collapse the kernel prefilled (Prop. 3.9) is
what the definition computes from the tensor's own entries.  The
equivalence of the tiers at large is :mod:`test_oracle`'s.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("numpy")  # the encoded tier exists only with NumPy

from hypothesis import given, settings, strategies as st

from repro.core import Aggregate, GroupBy, KDatabase, KRelation, Project, Table
from repro.monoids import MAX, MIN, PROD, SUM
from repro.plan import compile_plan, parallel
from repro.semimodules.tensor import Tensor
from repro.semirings import BOOL, NAT

from strategies import GROUPS, spju

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
    with mock.patch.object(parallel, "effective_workers", lambda: workers):
        got = compile_plan(query, db, tier="parallel").execute()
    assert_tensors_match(got, want)
