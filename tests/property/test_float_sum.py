"""A float SUM is the same number on every path.

Float ``+`` is not associative, and a tensor's entries reach
``Tensor.collapse`` in row order on the interpreter and the object tier
but in dictionary-code order (first seen in the *column*) on the encoded
and parallel tiers — so a left fold gave ``GB[G; SUM(V)]`` a different
last bit per tier, and relations that must be equal were not.
``SumMonoid.sum`` is order-free (``math.fsum`` once a float is among the
operands); this suite holds every path to ``==``, not to the rendering of
one of them.  ``AVG`` (whose totals add through ``SUM.sum``) and float
``PROD`` (folded in sorted order) are held to the same rule: the collapsed
value depends on the multiset of entries, not on insertion order.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("numpy")  # the encoded and parallel tiers need it

from repro.core import Aggregate, AvgAgg, GroupBy, KDatabase, KRelation, Table
from repro.ivm import MaterializedView
from repro.monoids import AVG, PROD, SUM, AvgPair
from repro.plan import compile_plan, set_default_workers
from repro.semimodules import tensor_space
from repro.semirings import NAT

QUERY = GroupBy(Table("R"), ["g"], {"v": SUM})

#: sums of these re-associate visibly: 0.1 + 0.2 + 0.3, absorption at 1e16
POOL = [0.1, 0.2, 0.3, 0.7, 1.1, 1e16, -1e16, 1.0, 2.5, 1e-9]


def every_path(rows):
    db = KDatabase(NAT, {"R": KRelation.from_rows(NAT, ("id", "g", "v"), rows)})
    results = {"interpreter": QUERY.evaluate(db, engine="interpreted")}
    for tier in ("object", "encoded", "parallel"):
        plan = compile_plan(QUERY, db, tier=tier)
        results[tier] = plan.execute()
        assert plan._last_tier.startswith(tier), plan._last_tier
    return results


@pytest.fixture(autouse=True)
def _two_workers():
    set_default_workers(2)
    yield
    set_default_workers(None)


def test_the_case_that_differed():
    # column order of v is 0.3, 0.2, 0.1; group g's row order is 0.1, 0.2, 0.3
    rows = [((1, "h", 0.3), 1), ((2, "h", 0.2), 1), ((3, "g", 0.1), 1),
            ((4, "g", 0.2), 1), ((5, "g", 0.3), 1)]
    results = every_path(rows)
    want = results.pop("interpreter")
    for tier, got in results.items():
        assert got == want, tier
        assert got.pretty() == want.pretty(), tier
    totals = {t["g"]: t["v"].collapse() for t, _k in want.rows()}
    assert totals == {"g": math.fsum([0.1, 0.2, 0.3]), "h": 0.5}
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1  # what a fold depends on


@settings(max_examples=60, deadline=None)
@given(
    cells=st.lists(
        st.tuples(st.sampled_from(["g", "h", "k"]), st.sampled_from(POOL),
                  st.integers(min_value=1, max_value=3)),
        min_size=1, max_size=14,
    )
)
def test_float_sums_agree_on_every_path(cells):
    rows = [((i, g, v), k) for i, (g, v, k) in enumerate(cells)]
    results = every_path(rows)
    want = results.pop("interpreter")
    for tier, got in results.items():
        assert got == want, tier


@settings(max_examples=200, deadline=None)
@given(
    items=st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False, width=64,
                      min_value=-1e300, max_value=1e300),
            st.integers(min_value=-10**6, max_value=10**6),
            st.fractions(min_value=-100, max_value=100, max_denominator=12),
        ),
        max_size=8,
    ),
    seed=st.randoms(use_true_random=False),
)
def test_sum_is_permutation_invariant_and_exact_without_floats(items, seed):
    shuffled = list(items)
    seed.shuffle(shuffled)
    total = SUM.sum(items)
    assert SUM.sum(shuffled) == total and type(SUM.sum(shuffled)) is type(total)
    assert SUM.sum(iter(items)) == total
    if not any(isinstance(x, float) for x in items):
        assert total == sum(items, 0) and not isinstance(total, float)
        assert isinstance(total, (int, Fraction))
    else:
        assert total == math.fsum(items)


def test_sum_past_the_float_range_is_the_folds_infinity():
    assert SUM.sum([1e308, 1e308]) == math.inf
    assert SUM.sum([]) == 0 and type(SUM.sum([])) is int


#: a product of these re-associates visibly: 0.21645750000000002 vs 0.2164575
PROD_VALUES = [1.55, 0.1, 0.95, 1.47]
AVG_VALUES = [0.1, 0.2, 0.3]


@pytest.mark.parametrize(
    "monoid, values",
    [(AVG, [AvgPair(v, 1) for v in AVG_VALUES]), (PROD, PROD_VALUES)],
    ids=["AVG", "PROD"],
)
def test_collapse_is_independent_of_insertion_order(monoid, values):
    space = tensor_space(NAT, monoid)
    forward = space.set_agg((m, 1) for m in values)
    backward = space.set_agg((m, 1) for m in reversed(values))
    assert forward.collapse() == backward.collapse()
    assert forward == backward and hash(forward) == hash(backward)


@pytest.mark.parametrize(
    "query, values",
    [(AvgAgg(Table("R"), "V"), AVG_VALUES),
     (Aggregate(Table("R"), "V", PROD), PROD_VALUES)],
    ids=["AVG", "PROD"],
)
def test_equal_databases_inserted_in_different_orders_agree(query, values):
    def db(order):
        rows = [((v,), 1) for v in order]
        return KDatabase(NAT, {"R": KRelation.from_rows(NAT, ("V",), rows)})

    want = query.evaluate(db(values), engine="interpreted")
    backward = db(list(reversed(values)))
    assert query.evaluate(backward, engine="interpreted") == want
    assert query.evaluate(backward, engine="planned") == want
    assert MaterializedView.create(backward, query).result() == want


@settings(max_examples=200, deadline=None)
@given(
    items=st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False, width=64,
                      min_value=-1e3, max_value=1e3),
            st.integers(min_value=-100, max_value=100),
        ),
        max_size=8,
    ),
    seed=st.randoms(use_true_random=False),
)
def test_avg_and_prod_are_permutation_invariant(items, seed):
    shuffled = list(items)
    seed.shuffle(shuffled)
    pairs = [AvgPair(x, 1) for x in items]
    assert AVG.sum(AvgPair(x, 1) for x in shuffled) == AVG.sum(pairs)
    assert AVG.sum(pairs) == AvgPair(SUM.sum(items), len(items))
    assert PROD.sum(shuffled) == PROD.sum(items)
    if not any(isinstance(x, float) for x in items):
        assert PROD.sum(items) == math.prod(items)
