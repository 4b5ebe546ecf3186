"""Unit tests for homomorphism machinery (free extension, composition)."""

import pytest

from repro.core import GroupBy, KDatabase, KRelation, Table
from repro.exceptions import HomomorphismError
from repro.monoids import SUM
from repro.semirings import (
    BOOL,
    NAT,
    NX,
    SEC,
    SECRET,
    deletion_hom,
    identity_hom,
    nat_hom,
    semiring_hom,
    support_hom,
    valuation_hom,
)
from repro.semirings.integers import INT


class TestValuationHom:
    def test_mapping_valuation(self):
        x, y = NX.variables("x", "y")
        h = valuation_hom(NX, NAT, {"x": 2, "y": 3})
        assert h(x * y + x) == 8

    def test_callable_valuation(self):
        x = NX.variable("x")
        h = valuation_hom(NX, NAT, lambda v: 7)
        assert h(x * x) == 49

    def test_missing_token_raises(self):
        h = valuation_hom(NX, NAT, {"x": 1})
        with pytest.raises(HomomorphismError):
            h(NX.variable("unknown"))

    def test_preserves_constants(self):
        h = valuation_hom(NX, NAT, {})
        assert h(NX.zero) == 0
        assert h(NX.one) == 1
        assert h(NX.from_int(9)) == 9

    def test_into_boolean(self):
        x, y = NX.variables("x", "y")
        h = valuation_hom(NX, BOOL, {"x": True, "y": False})
        assert h(x + y) is True
        assert h(x * y) is False

    def test_into_security(self):
        x = NX.variable("x")
        h = valuation_hom(NX, SEC, {"x": SECRET})
        assert h(2 * x) is SECRET  # 2 * S = S + S = min = S

    def test_hom_laws_on_random_pairs(self):
        x, y = NX.variables("x", "y")
        h = valuation_hom(NX, NAT, {"x": 3, "y": 5})
        samples = [NX.zero, NX.one, x, y, x * y + 2 * x, (x + y) ** 2]
        for a in samples:
            for b in samples:
                assert h(NX.plus(a, b)) == NAT.plus(h(a), h(b))
                assert h(NX.times(a, b)) == NAT.times(h(a), h(b))

    def test_rejects_foreign_elements(self):
        h = valuation_hom(NX, NAT, {})
        with pytest.raises(HomomorphismError):
            h(42)


class TestDeletionHom:
    def test_zeroes_selected_tokens(self):
        x, y = NX.variables("x", "y")
        h = deletion_hom(NX, ["x"])
        assert h(x + y) == y
        assert h(x * y) == NX.zero

    def test_figure1_deletion(self):
        p1, p2, p3 = NX.variables("p1", "p2", "p3")
        h = deletion_hom(NX, ["p3"])
        assert h(p1 + p2 + p3) == p1 + p2

    def test_is_endomorphism(self):
        h = deletion_hom(NX, ["x"])
        assert h.source is NX and h.target is NX


class TestCompositionAndHelpers:
    def test_identity(self):
        h = identity_hom(NAT)
        assert h(5) == 5

    def test_then_composes(self):
        x = NX.variable("x")
        to_nat = valuation_hom(NX, NAT, {"x": 3})
        to_bool = semiring_hom(NAT, BOOL, lambda n: n > 0)
        both = to_nat.then(to_bool)
        assert both(x) is True
        assert both(NX.zero) is False

    @pytest.mark.parametrize("engine", ["interpreted", "planned"])
    def test_a_composed_arrow_maps_a_relation_as_one_batch(self, engine):
        # 12 rows in 3 groups: each token reaches a δ argument and an entry
        rows = [((f"g{i % 3}", i + 1), NX.variable(f"t{i}")) for i in range(12)]
        db = KDatabase(NX, {"R": KRelation.from_rows(NX, ("g", "v"), rows)})
        result = GroupBy(Table("R"), ["g"], {"v": SUM}).evaluate(db, engine=engine)
        calls = []

        def count(token):
            calls.append(token)
            return 1

        direct = valuation_hom(NX, NAT, count)
        to_bool = semiring_hom(NAT, BOOL, lambda n: n > 0)
        # one element at a time: a pass per scalar maps each token twice
        want = result.apply_hom(semiring_hom(NX, BOOL, lambda a: to_bool(direct(a))))
        assert len(calls) == 24
        calls.clear()
        result.apply_hom(direct)
        assert len(calls) == 12
        calls.clear()
        assert result.apply_hom(direct.then(to_bool)) == want
        assert sorted(calls) == sorted(f"t{i}" for i in range(12))  # once each

    def test_then_rejects_mismatched_chain(self):
        to_nat = valuation_hom(NX, NAT, {})
        with pytest.raises(HomomorphismError):
            to_nat.then(valuation_hom(NX, NAT, {}))

    def test_support_hom_concrete(self):
        s = support_hom(NAT)
        assert s(0) is False
        assert s(3) is True

    def test_support_hom_rejects_nonpositive(self):
        with pytest.raises(HomomorphismError):
            support_hom(INT)

    def test_support_hom_on_polynomials(self):
        s = support_hom(NX)
        assert s(NX.variable("x") + NX.variable("y")) is True
        assert s(NX.zero) is False

    def test_nat_hom(self):
        h = nat_hom(NX)
        assert h(2 * NX.variable("x")) == 2
        with pytest.raises(HomomorphismError):
            nat_hom(BOOL)

    def test_factorization_through_provenance(self):
        # The headline property: evaluating the polynomial then valuating
        # equals valuating then computing, for any target semiring.
        x, y = NX.variables("x", "y")
        p = (x + y) * x
        h = valuation_hom(NX, NAT, {"x": 4, "y": 1})
        assert h(p) == (4 + 1) * 4
