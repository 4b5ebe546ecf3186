"""A collapsing tensor is its value: equal tensors are indistinguishable.

Where ``iota: M -> K (x) M`` is an isomorphism (Prop. 3.9: ``K = N``, and
``K = B`` with an idempotent ``M``) and the fold of the values is exact,
every constructor ends in the normal form ``iota(c)`` — the one entry
``{c: 1_K}``, or none when ``c = 0_M``.  So ``a == b`` implies that ``a``
and ``b`` print, iterate, count, test and hash alike, and that every
homomorphic image of ``a`` equals that of ``b`` (a homomorphism sees the
entries, not only the value).  Float SUM, AVG and PROD folds are not exact
and keep their entries (``tests/property/test_float_sum.py``).
"""

from hypothesis import given, settings, strategies as st

from repro.core import GroupBy, KDatabase, KRelation, Table
from repro.io.serialize import relation_to_jsonable
from repro.monoids import AVG, BHAT, MAX, MIN, PROD, SUM
from repro.semimodules import tensor_space
from repro.semirings import BOOL, INT, NAT, support_hom
from repro.semirings.homomorphism import semiring_hom

#: the spaces whose tensors are their values, with a strategy for values
SPACES = [
    (NAT, SUM, st.integers(-20, 20)),
    (NAT, PROD, st.integers(-4, 4)),
    (NAT, AVG, st.integers(-20, 20).map(AVG.lift)),
    (NAT, MIN, st.integers(-20, 20)),
    (NAT, MAX, st.integers(-20, 20)),
    (BOOL, MIN, st.integers(-20, 20)),
    (BOOL, MAX, st.integers(-20, 20)),
    (BOOL, BHAT, st.booleans()),
]


def homs(semiring):
    """The support map and the embedding into ``Z`` (for ``B``, the
    indicator: all ``apply_hom`` needs is the scalar map)."""
    return support_hom(semiring), semiring_hom(semiring, INT, int)


def presentation(t):
    return (str(t), t.items(), len(t), bool(t), hash(t),
            [(str(u), u.items()) for u in map(t.apply_hom, homs(t.space.semiring))])


@st.composite
def equal_pairs(draw):
    """Two tensors of one space built from unrelated presentations of
    values that may, or may not, fold to the same value."""
    semiring, monoid, values = draw(st.sampled_from(SPACES))
    space = tensor_space(semiring, monoid)
    scalars = st.integers(0, 3) if semiring is NAT else st.booleans()
    cells = st.lists(st.tuples(values, scalars), max_size=5)
    a, b = draw(cells), draw(cells)
    built = [
        space.set_agg(a),
        space.sum(space.simple(k, m) for m, k in reversed(a)),
        space.set_agg(b),
    ]
    if a:  # the value itself, reached by iota and the action
        m, k = a[0]
        built.append(space.scalar(k, space.iota(m)))
    return space, built


@settings(max_examples=300, deadline=None)
@given(pair=equal_pairs())
def test_equal_tensors_are_indistinguishable(pair):
    space, built = pair
    for a in built:
        # the normal form: iota of the collapsed value, no more entries
        assert a._entries == ({a.collapse(): space.semiring.one} if a else {})
        for b in built:
            if a == b:
                assert presentation(a) == presentation(b)
            else:
                assert str(a) != str(b)


def test_scaled_and_summed_presentations_are_one_tensor():
    space = tensor_space(NAT, SUM)
    a = space.simple(2, 30)
    b = space.simple(1, 60)
    assert a == b and str(a) == str(b) == "1⊗60"
    nat_to_b = support_hom(NAT)
    assert a.apply_hom(nat_to_b) == b.apply_hom(nat_to_b)
    assert str(a.apply_hom(nat_to_b)) == "⊤⊗60"
    nat_to_z = semiring_hom(NAT, INT, int)
    assert str(a.apply_hom(nat_to_z)) == str(b.apply_hom(nat_to_z)) == "1⊗60"
    assert str(space.add(space.simple(2, 10), space.simple(1, 5))) == "1⊗25"


def test_a_sum_that_cancels_is_the_zero_tensor():
    space = tensor_space(NAT, SUM)
    t = space.set_agg([(5, 1), (-5, 1)])
    assert t == space.zero
    assert not t and len(t) == 0 and str(t) == "0" and t.items() == ()


def test_equal_databases_store_alike(typed_contents):
    space = tensor_space(NAT, SUM)

    def database(tensor):
        rel = KRelation.from_rows(NAT, ("g", "s"), [(("a", tensor), 1)])
        return KDatabase(NAT, {"T": rel})

    twice, once = database(space.simple(2, 30)), database(space.simple(1, 60))
    assert twice.relation("T") == once.relation("T")
    assert typed_contents(twice) == typed_contents(once)
    assert relation_to_jsonable(twice.relation("T")) == relation_to_jsonable(once.relation("T"))


def test_an_aggregate_renders_its_value():
    rows = [(("d1", 10), 1), (("d1", 20), 2), (("d2", 10), 1), (("d2", 15), 1)]
    db = KDatabase(NAT, {"R": KRelation.from_rows(NAT, ("g", "v"), rows)})
    result = GroupBy(Table("R"), ["g"], {"v": SUM}).evaluate(db)
    assert {t["g"]: str(t["v"]) for t, _k in result.rows()} == {"d1": "1⊗50", "d2": "1⊗25"}


def test_float_and_nan_values_keep_their_entries():
    space = tensor_space(NAT, SUM)
    t = space.set_agg([(0.1, 1), (0.2, 1), (0.3, 1)])
    assert len(t) == 3 and t.collapse() == 0.6
    nan = float("nan")
    t = tensor_space(NAT, MIN).set_agg([(nan, 1), (1.5, 1)])
    assert len(t) == 2
    # floats a MIN only selects among are exact
    assert tensor_space(NAT, MIN).set_agg([(0.5, 1), (1.5, 3)])._entries == {0.5: 1}
