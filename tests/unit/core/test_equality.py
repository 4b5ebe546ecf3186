"""Unit tests for equality atoms and the K^M machinery (Section 4.2)."""

import pytest

from repro.core import KRelation, Tup, compare_tensors, km_semiring
from repro.core.equality import (
    EqualityAtom,
    coerce_annotation,
    collapse_constant,
    equality_annotation,
)
from repro.exceptions import UnresolvableEqualityError
from repro.monoids import BHAT, MAX, SUM
from repro.semimodules import tensor_space
from repro.semirings import BOOL, NAT, NX, SEC, SECRET, valuation_hom


class TestKMSemiring:
    def test_polynomial_semirings_are_their_own_km(self):
        assert km_semiring(NX) is NX

    def test_concrete_semirings_get_polynomials(self):
        km = km_semiring(NAT)
        assert km.coefficients is NAT
        assert km_semiring(NAT) is km  # cached

    def test_collapse_constant_prop_44(self):
        km = km_semiring(NAT)
        assert collapse_constant(km, km.from_int(5)) == 5
        sym = km.variable("tok")
        assert collapse_constant(km, sym) is sym

    def test_coerce_annotation(self):
        km = km_semiring(NAT)
        assert coerce_annotation(km, 4) == km.from_int(4)
        p = km.variable("t")
        assert coerce_annotation(km, p) is p


class TestCompareTensors:
    def test_identical_forms_equal(self):
        sp = tensor_space(NX, SUM)
        x = NX.variable("x")
        assert compare_tensors(sp.simple(x, 20), sp.simple(x, 20)) is True

    def test_collapsing_space_decides(self):
        sp = tensor_space(NAT, SUM)
        assert compare_tensors(sp.simple(2, 10), sp.simple(1, 20)) is True
        assert compare_tensors(sp.simple(2, 10), sp.simple(1, 30)) is False

    def test_symbolic_scalars_undetermined(self):
        sp = tensor_space(NX, SUM)
        x, y = NX.variables("x", "y")
        assert compare_tensors(sp.simple(x, 20), sp.simple(y, 20)) is None

    def test_constant_polynomial_scalars_demote_and_decide(self):
        km = km_semiring(NAT)  # N^M: polynomials over N
        sp = tensor_space(km, SUM)
        a = sp.simple(km.from_int(2), 10)
        b = sp.simple(km.from_int(1), 20)
        assert compare_tensors(a, b) is True

    def test_constant_demotion_non_collapsing_stays_open(self):
        km = km_semiring(SEC)
        sp = tensor_space(km, BHAT)
        a = sp.simple(km.constant(SECRET), True)
        assert compare_tensors(a, sp.zero) is None

    def test_different_spaces_undetermined(self):
        a = tensor_space(NX, SUM).iota(1)
        b = tensor_space(NX, MAX).iota(1)
        assert compare_tensors(a, b) is None


class TestEqualityAtom:
    def test_symmetric_normalisation(self):
        sp = tensor_space(NX, SUM)
        x, y = NX.variables("x", "y")
        a, b = sp.simple(x, 20), sp.simple(y, 10)
        assert EqualityAtom(a, b) == EqualityAtom(b, a)
        assert hash(EqualityAtom(a, b)) == hash(EqualityAtom(b, a))

    def test_symmetry_does_not_depend_on_rendering(self, monkeypatch):
        # two distinct tensors whose renderings tie: the atom's identity is
        # the unordered pair of sides, not the order their text sorts in
        sp = tensor_space(NX, SUM)
        x, y = NX.variables("x", "y")
        a, b = sp.simple(x, 20), sp.simple(y, 10)
        monkeypatch.setattr(type(a), "__str__", lambda self: "same")
        assert a != b and str(a) == str(b)
        ab, ba = EqualityAtom(a, b), EqualityAtom(b, a)
        assert ab == ba and hash(ab) == hash(ba)
        assert ab != EqualityAtom(a, a)
        # so their monomials merge
        assert NX.variable(ab) * NX.variable(ba) == NX.variable(ab, 2)

    def test_construction_renders_nothing(self, monkeypatch):
        sp = tensor_space(NX, SUM)
        x, y = NX.variables("x", "y")
        a, b = sp.simple(x, 20), sp.simple(y, 10)
        want = str(EqualityAtom(a, b))

        def boom(self):
            raise AssertionError("rendered a side")

        with monkeypatch.context() as patched:
            patched.setattr(type(a), "__str__", boom)
            atom = EqualityAtom(b, a)
            assert atom == EqualityAtom(a, b)
        assert str(atom) == want == "[x⊗20 = y⊗10]"

    def test_annotation_eager_resolution(self):
        km = km_semiring(NAT)
        sp = tensor_space(km, SUM)
        assert equality_annotation(km, sp.iota(5), sp.iota(5)) == km.one
        assert equality_annotation(
            km, sp.simple(km.from_int(2), 10), sp.iota(5)
        ) == km.zero

    def test_annotation_symbolic_when_open(self):
        sp = tensor_space(NX, SUM)
        x, y = NX.variables("x", "y")
        ann = equality_annotation(NX, sp.simple(x, 20), sp.simple(y, 10))
        (atom,) = ann.variables()
        assert isinstance(atom, EqualityAtom)

    def test_apply_hom_resolves(self):
        sp = tensor_space(NX, SUM)
        x, y = NX.variables("x", "y")
        ann = equality_annotation(NX, sp.simple(x, 20), sp.simple(y, 10))
        h_eq = valuation_hom(NX, NAT, {"x": 1, "y": 2})  # 20 = 20
        assert h_eq(ann) == 1
        h_ne = valuation_hom(NX, NAT, {"x": 1, "y": 1})  # 20 != 10
        assert h_ne(ann) == 0

    def test_apply_hom_keeps_symbolic_into_polynomials(self):
        sp = tensor_space(NX, SUM)
        x, y = NX.variables("x", "y")
        ann = equality_annotation(NX, sp.simple(x, 20), sp.simple(y, 10))
        h = valuation_hom(NX, NX, lambda v: NX.variable(v + "'"))
        image = h(ann)
        (atom,) = image.variables()
        assert isinstance(atom, EqualityAtom)
        assert str(atom) == "[x'⊗20 = y'⊗10]"

    def test_apply_hom_unresolvable_into_concrete(self):
        # S (x) B-hat does not collapse; mapping into SEC cannot interpret it
        km = km_semiring(SEC)
        sp = tensor_space(km, BHAT)
        a = sp.simple(km.constant(SECRET), True)
        ann = equality_annotation(km, a, sp.zero)
        h = valuation_hom(km, SEC, {})
        with pytest.raises(UnresolvableEqualityError):
            h(ann)

    def test_str(self):
        sp = tensor_space(NX, SUM)
        x = NX.variable("x")
        atom = EqualityAtom(sp.simple(x, 20), sp.zero)
        assert str(atom) == "[0 = x⊗20]" or str(atom) == "[x⊗20 = 0]"
