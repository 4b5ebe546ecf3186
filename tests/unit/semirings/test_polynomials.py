"""Unit tests for the generic polynomial engine and N[X] / Z[X]."""

import copy
import pickle
import sys
import threading

import pytest

from repro.exceptions import SemiringError
from repro.semirings import (
    BOOL,
    INT,
    NAT,
    NX,
    ZX,
    Monomial,
    check_semiring_axioms,
    polynomials_over,
)
from repro.semirings.polynomials import _MUL_CACHE_LIMIT


class TestMonomial:
    def test_empty_is_unit(self):
        m = Monomial()
        assert not m
        assert m.degree == 0
        assert str(m) == "1"

    def test_zero_exponents_dropped(self):
        assert Monomial({"x": 0}) == Monomial()

    def test_negative_exponent_rejected(self):
        with pytest.raises(SemiringError):
            Monomial({"x": -1})

    def test_mul_adds_exponents(self):
        m = Monomial({"x": 1, "y": 2}).mul(Monomial({"x": 2}))
        assert m.exponent("x") == 3
        assert m.exponent("y") == 2
        assert m.degree == 5

    def test_equality_and_hash_order_independent(self):
        a = Monomial({"x": 1, "y": 2})
        b = Monomial({"y": 2, "x": 1})
        assert a == b
        assert hash(a) == hash(b)

    def test_drop_exponents(self):
        assert Monomial({"x": 3, "y": 1}).drop_exponents() == Monomial({"x": 1, "y": 1})

    def test_str_with_exponent(self):
        assert str(Monomial({"x": 2})) == "x^2"


class TestPolynomialArithmetic:
    def test_zero_and_one(self):
        assert not NX.zero
        assert NX.one.is_constant()
        assert NX.one.constant_value() == 1

    def test_variable_construction(self):
        x = NX.variable("x")
        assert x.degree == 1
        assert x.variables() == frozenset(["x"])

    def test_addition_merges_coefficients(self):
        x = NX.variable("x")
        assert str(x + x) == "2*x"

    def test_multiplication_distributes(self):
        x, y = NX.variables("x", "y")
        p = (x + y) * (x + y)
        assert p.coefficient(Monomial({"x": 1, "y": 1})) == 2
        assert p.coefficient(Monomial({"x": 2})) == 1

    def test_power(self):
        x = NX.variable("x")
        assert (x + NX.one) ** 2 == x * x + 2 * x + NX.one

    def test_coerce_int(self):
        assert NX.coerce(5).constant_value() == 5

    def test_coerce_foreign_polynomial_rejected(self):
        with pytest.raises(SemiringError):
            NX.coerce(ZX.variable("x"))

    def test_semiring_axioms_on_sample(self):
        x, y = NX.variables("x", "y")
        check_semiring_axioms(NX, [NX.zero, NX.one, x, y, x + y, x * y])

    def test_zx_allows_negative_coefficients(self):
        p = ZX.constant(-1) * ZX.variable("x") + ZX.variable("x")
        assert not p  # x - x = 0

    def test_zx_not_positive(self):
        assert not ZX.positive
        assert NX.positive

    def test_constant_value_raises_on_nonconstant(self):
        with pytest.raises(SemiringError):
            NX.variable("x").constant_value()

    def test_size_metric(self):
        x, y = NX.variables("x", "y")
        p = x * x * y + 2 * x
        # two terms, degrees 3 and 1
        assert p.size() == 2 + 3 + 1

    def test_str_rendering(self):
        x, y = NX.variables("x", "y")
        assert str(2 * x + y * x) == "x*y + 2*x"
        assert str(NX.zero) == "0"

    def test_hashable_and_dict_key(self):
        x = NX.variable("x")
        d = {x + x: "two"}
        assert d[2 * x] == "two"


class TestPolynomialSemiringFactory:
    def test_cached_instances(self):
        assert polynomials_over(NAT) is NX
        assert polynomials_over(INT) is ZX

    def test_bool_coefficients_idempotent(self):
        bx = polynomials_over(BOOL)
        x = bx.variable("x")
        assert x + x == x  # coefficients saturate

    def test_hom_to_nat_evaluates_vars_at_one(self):
        x, y = NX.variables("x", "y")
        assert NX.hom_to_nat(2 * x * y + 3 * x) == 5

    def test_properties_inherited_from_coefficients(self):
        bx = polynomials_over(BOOL)
        assert bx.idempotent_plus
        assert not bx.has_hom_to_nat
        assert NX.has_hom_to_nat


class TestProductMemo:
    """``times`` memoizes a single-term product on its left operand, capped
    like ``Monomial.mul``: the same base annotations meet on every join."""

    def test_a_repeated_product_is_the_same_object(self):
        x, y = NX.variable("x"), NX.variable("y")
        first = NX.times(x, y)
        assert NX.times(x, y) is first
        assert first == NX.monomial({"x": 1, "y": 1})

    def test_the_memo_stops_at_the_cap(self):
        x = NX.variable("x")
        partners = [NX.variable(f"y{i}") for i in range(_MUL_CACHE_LIMIT + 40)]
        products = [NX.times(x, y) for y in partners]
        assert len(x._mul_cache) == _MUL_CACHE_LIMIT
        # past the cap a product is recomputed, and equal
        late = partners[-1]
        again = NX.times(x, late)
        assert again is not products[-1] and again == products[-1]
        assert again == NX.monomial({"x": 1, f"y{_MUL_CACHE_LIMIT + 39}": 1})
        assert NX.times(x, partners[0]) is products[0]

    def test_threads_joining_the_same_tables_agree(self):
        from repro.core import KDatabase, KRelation, NaturalJoin, Table

        emp = KRelation.from_rows(
            NX, ("e", "d"), [((i, i % 7), NX.variable(f"e{i}")) for i in range(400)])
        dept = KRelation.from_rows(
            NX, ("d",), [((j,), NX.variable(f"d{j}")) for j in range(7)])
        db = KDatabase(NX, {"Emp": emp, "Dept": dept})
        query = NaturalJoin(Table("Emp"), Table("Dept"))
        want = NaturalJoin(Table("Emp"), Table("Dept")).evaluate(db)
        results, errors = [], []

        def work(engine):
            try:
                for _ in range(5):
                    results.append(query.evaluate(db, engine=engine))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(engine,))
                       for engine in ("interpreted", "planned") * 3]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) == 30 and all(result == want for result in results)
        for _tup, annotation in emp.rows():
            assert len(annotation._mul_cache or ()) <= _MUL_CACHE_LIMIT


class TestMemoSlotsAreNotState:
    """Pickles and copies carry a value, never the product memos on it."""

    @staticmethod
    def _multiply(x, n=500):
        for i in range(n):
            NX.times(x, NX.variable(f"p{i}"))
            Monomial({"x": 1}).mul(Monomial({f"p{i}": 1}))

    def _values(self):
        from repro.core import KRelation
        from repro.monoids import SUM
        from repro.semimodules.tensor import tensor_space

        x = NX.variable("x")
        tensor = tensor_space(NX, SUM).simple(x, 10)
        relation = KRelation.from_rows(NX, ("a", "s"), [((1, tensor), x)])
        return x, {"polynomial": x, "tensor": tensor, "relation": relation}

    @pytest.mark.parametrize("kind", ["polynomial", "tensor", "relation"])
    def test_pickle_size_does_not_grow_with_products(self, kind):
        x, values = self._values()
        before = pickle.dumps(values[kind])
        self._multiply(x)
        assert x._mul_cache and next(iter(x._terms))._mul_cache
        after = pickle.dumps(values[kind])
        assert len(after) == len(before)
        assert pickle.loads(after) == values[kind]

    @pytest.mark.parametrize("kind", ["polynomial", "tensor", "relation"])
    @pytest.mark.parametrize("early", [True, False], ids=["before", "after"])
    def test_a_deep_copy_is_equal_and_independent(self, kind, early):
        x, values = self._values()
        if not early:
            self._multiply(x)
        clone = copy.deepcopy(values[kind])
        assert clone == values[kind] and hash(clone) == hash(values[kind])
        copied = next(_polynomials(clone))
        assert copied == x and copied is not x
        assert copied._mul_cache is None
        assert all(m._mul_cache is None for m in copied._terms)
        # products on the copy fill the copy's memo only
        size = len(x._mul_cache or ())
        NX.times(copied, NX.variable("q"))
        assert len(x._mul_cache or ()) == size
        assert NX.times(copied, NX.variable("q")) == NX.times(x, NX.variable("q"))

    def test_the_unit_monomial_round_trips(self):
        unit = Monomial()
        for clone in (pickle.loads(pickle.dumps(unit)), copy.copy(unit), copy.deepcopy(unit)):
            assert clone == unit and hash(clone) == hash(unit) and not clone


def _polynomials(value):
    """The polynomials inside a polynomial, tensor or relation."""
    from repro.core import KRelation
    from repro.semimodules.tensor import Tensor
    from repro.semirings.polynomials import Polynomial

    if isinstance(value, KRelation):
        for tup, annotation in value.rows():
            yield annotation
            for v in tup.values():
                yield from _polynomials(v)
    elif isinstance(value, Tensor):
        yield from value._entries.values()
    elif isinstance(value, Polynomial):
        yield value
