"""Unit tests for delta-terms and the free delta-semiring N[X, d]."""

from repro.semirings import NAT, NX, DeltaTerm, valuation_hom


class TestDeltaOnPolynomials:
    def test_delta_of_zero(self):
        assert NX.delta(NX.zero) == NX.zero

    def test_delta_of_positive_constants(self):
        assert NX.delta(NX.one) == NX.one
        assert NX.delta(NX.from_int(5)) == NX.one

    def test_delta_of_variable_is_symbolic(self):
        x = NX.variable("x")
        d = NX.delta(x)
        (term,) = d.variables()
        assert isinstance(term, DeltaTerm)
        assert term.argument == x

    def test_delta_term_structural_equality(self):
        x, y = NX.variables("x", "y")
        assert DeltaTerm(x + y) == DeltaTerm(y + x)
        assert DeltaTerm(x) != DeltaTerm(y)
        assert hash(DeltaTerm(x + y)) == hash(DeltaTerm(y + x))

    def test_nested_delta_not_collapsed(self):
        # d(d(e)) = d(e) is NOT a consequence of the delta-laws; the free
        # structure must keep them distinct.
        x = NX.variable("x")
        once = NX.delta(x)
        twice = NX.delta(once)
        assert once != twice

    def test_str(self):
        x = NX.variable("x")
        assert str(NX.delta(x)) == "δ(x)"


class TestDeltaHomomorphism:
    def test_hom_pushes_delta_inward(self):
        # h(d(x + y)) = d_N(h(x) + h(y))
        x, y = NX.variables("x", "y")
        d = NX.delta(x + y)
        assert valuation_hom(NX, NAT, {"x": 0, "y": 0})(d) == 0
        assert valuation_hom(NX, NAT, {"x": 2, "y": 1})(d) == 1

    def test_delta_products_evaluate(self):
        x, y = NX.variables("x", "y")
        p = NX.delta(x) * y + NX.from_int(3)
        h = valuation_hom(NX, NAT, {"x": 4, "y": 5})
        assert h(p) == 1 * 5 + 3

    def test_nested_delta_is_evaluated(self):
        x = NX.variable("x")
        dd = NX.delta(NX.delta(x) + NX.variable("y"))
        h = valuation_hom(NX, NAT, {"x": 0, "y": 0})
        assert h(dd) == 0
        h2 = valuation_hom(NX, NAT, {"x": 9, "y": 0})
        assert h2(dd) == 1

    def test_hom_into_polynomials_keeps_symbolic_delta(self):
        # endomorphism renaming x -> z keeps d symbolic with mapped argument
        x = NX.variable("x")
        d = NX.delta(x)
        h = valuation_hom(NX, NX, lambda v: NX.variable("z"))
        image = h(d)
        (term,) = image.variables()
        assert isinstance(term, DeltaTerm)
        assert term.argument == NX.variable("z")

    def test_delta_laws_check_via_axiom_helper(self):
        from repro.semirings import check_semiring_axioms

        x = NX.variable("x")
        check_semiring_axioms(NX, [NX.zero, NX.one, x, NX.delta(x)])
