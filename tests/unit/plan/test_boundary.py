"""The batch ⇄ relation boundary is one trusted constructor.

``ColumnarKRelation.to_krelation`` and ``KRelation.from_rows`` build their
tuples through ``Tup._from_sorted`` and adopt the merged row map unchecked
— a batch's columns *are* its schema.  What they produce must be exactly
what the checking public constructors produce from the same rows.
"""

import pytest

from repro.core import KRelation, Tup
from repro.core.schema import Schema
from repro.exceptions import SchemaError
from repro.monoids import MAX, SUM
from repro.plan import ColumnarKRelation
from repro.semimodules.tensor import tensor_space
from repro.semirings import INT, NAT, NX


def the_old_way(batch):
    """``to_krelation`` as it was: a dict per row, the checking constructor."""
    attrs = batch.schema.attributes
    pairs = [
        (Tup(dict(zip(attrs, values))), annotation)
        for values, annotation in zip(batch.key_rows(attrs), batch.annotations)
    ]
    return KRelation(batch.semiring, batch.schema, pairs)


def batch_of(semiring, attrs, rows):
    columns = {a: [values[i] for values, _k in rows] for i, a in enumerate(attrs)}
    return ColumnarKRelation(semiring, attrs, columns, [k for _values, k in rows])


def assert_same_relation(batch):
    got, want = batch.to_krelation(), the_old_way(batch)
    assert got == want and hash(got) == hash(want)
    assert len(got) == len(want)
    assert got.pretty() == want.pretty()
    assert got.schema == want.schema and got.semiring is want.semiring
    for tup, annotation in want.rows():
        assert got.annotation(tup) == annotation
    return got


def test_duplicate_rows_merge_with_plus():
    rows = [(("z1", "a", 3), 2), (("z2", "b", 4), 1), (("z1", "a", 3), 5),
            (("z1", "a", 3), 1)]
    got = assert_same_relation(batch_of(NAT, ("z", "a", "m"), rows))
    assert len(got) == 2
    assert got.annotation(Tup({"z": "z1", "a": "a", "m": 3})) == 8


def test_rows_that_cancel_over_z_leave_the_support():
    rows = [((1, "x"), 2), ((2, "y"), 3), ((1, "x"), -2), ((2, "y"), -1), ((3, "w"), 0)]
    got = assert_same_relation(batch_of(INT, ("k", "v"), rows))
    assert [t["k"] for t in got] == [2]


def test_tensor_valued_columns():
    space, other = tensor_space(NAT, SUM), tensor_space(NAT, MAX)
    rows = [(("g1", space.set_agg([(10, 2), (5, 1)]), other.iota(7)), 1),
            (("g2", space.iota(25), other.iota(7)), 1),
            (("g1", space.set_agg([(5, 1), (10, 2)]), other.iota(7)), 1)]
    got = assert_same_relation(batch_of(NAT, ("g", "total", "top"), rows))
    assert len(got) == 2  # equal tensors are one tuple


def test_a_zero_arity_schema():
    batch = batch_of(NAT, (), [((), 2), ((), 3)])
    assert batch.key_rows(()) == [(), ()]
    got = assert_same_relation(batch)
    assert got.annotation(Tup({})) == 5
    assert len(assert_same_relation(batch_of(INT, (), [((), 2), ((), -2)]))) == 0


def test_polynomial_annotations():
    p, q, r = NX.variables("p", "q", "r")
    rows = [(("d1", 20), p), (("d2", 10), q * r), (("d1", 20), q), (("d2", 10), q * r)]
    got = assert_same_relation(batch_of(NX, ("Dept", "Sal"), rows))
    assert got.annotation(Tup({"Dept": "d1", "Sal": 20})) == p + q


def test_an_empty_batch():
    assert len(assert_same_relation(ColumnarKRelation.empty(NAT, ("x", "y")))) == 0


# -- Tup._from_sorted ---------------------------------------------------------


@pytest.mark.parametrize("mapping", [
    {}, {"a": 1}, {"z": 1, "a": "x", "m": (2, 3)}, {"b": None, "a": 2.5},
])
def test_from_sorted_is_the_public_constructor(mapping):
    attrs = tuple(sorted(mapping))
    trusted = Tup._from_sorted(attrs, tuple(mapping[a] for a in attrs))
    public = Tup(mapping)
    assert trusted == public and public == trusted
    assert hash(trusted) == hash(public)
    assert dict(trusted) == mapping and str(trusted) == str(public)
    assert {public: 1}[trusted] == 1


# -- KRelation.from_rows --------------------------------------------------------


def test_from_rows_is_the_public_constructor_for_any_column_order():
    rows = [((i, f"a{i % 3}", -i), 1 + i) for i in range(7)] + [((0, "a0", 0), 4)]
    for attrs in [("z", "a", "m"), ("a", "m", "z"), ("m",), ()]:
        width = len(attrs)
        cut = [(values[:width], k) for values, k in rows]
        got = KRelation.from_rows(NAT, attrs, cut)
        schema = Schema(attrs)
        want = KRelation(NAT, schema, [(Tup(dict(zip(attrs, v))), k) for v, k in cut])
        assert got == want and got.pretty() == want.pretty()
        assert all(t == Tup.from_values(schema, t.values_by(schema)) for t in got)


def test_from_rows_takes_lists_and_merges_a_repeated_row_with_plus():
    x, y = NX.variables("x", "y")
    rel = KRelation.from_rows(NX, ("b", "a"), [([1, "u"], x), ((1, "u"), y), ([2, "v"], x)])
    assert len(rel) == 2
    assert rel.annotation(Tup({"a": "u", "b": 1})) == x + y
    assert len(KRelation.from_rows(INT, ("a",), [((1,), 2), ((1,), -2)])) == 0


@pytest.mark.parametrize("row,count", [((1,), 1), ((1, 2, 3), 3), ((), 0)])
def test_from_rows_still_names_a_short_or_long_row(row, count):
    schema = Schema(("b", "a"))
    with pytest.raises(SchemaError) as raised:
        KRelation.from_rows(NAT, ("b", "a"), [((1, 2), 1), (row, 1)])
    assert str(raised.value) == (
        f"{count} values supplied for schema {schema} of arity 2")
    with pytest.raises(SchemaError) as public:
        Tup.from_values(schema, row)
    assert str(public.value) == str(raised.value)


def test_the_public_constructor_still_checks_every_tuple():
    with pytest.raises(SchemaError, match="does not match schema"):
        KRelation(NAT, ("a", "b"), [(Tup({"a": 1}), 1)])
