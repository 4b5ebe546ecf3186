"""Unit tests for the tensor product K (x) M (Section 2.3)."""

import copy
import pickle

import pytest

from repro.exceptions import SemimoduleError
from repro.monoids import BHAT, MAX, MIN, SUM
from repro.semimodules import check_semimodule_axioms, tensor_space
from repro.semirings import BOOL, INT, NAT, NX, SEC, SECRET, PUBLIC


class TestNormalForm:
    def test_zero_scalar_drops(self):
        sp = tensor_space(NX, SUM)
        assert sp.simple(NX.zero, 20) == sp.zero

    def test_identity_value_drops(self):
        # k (x) 0_M ~ 0
        sp = tensor_space(NX, SUM)
        assert sp.simple(NX.variable("x"), 0) == sp.zero

    def test_scalars_merge_over_shared_value(self):
        # (k + k')(x)m ~ k(x)m + k'(x)m
        sp = tensor_space(NX, SUM)
        x, y = NX.variables("x", "y")
        combined = sp.add(sp.simple(x, 20), sp.simple(y, 20))
        assert combined == sp.simple(x + y, 20)

    def test_add_cancels_to_zero_in_cancellative_cases(self):
        sp = tensor_space(NX, SUM)
        x = NX.variable("x")
        t = sp.simple(x, 20)
        assert sp.add(t, sp.zero) == t

    def test_scalar_action(self):
        sp = tensor_space(NX, SUM)
        x, y = NX.variables("x", "y")
        t = sp.add(sp.simple(x, 20), sp.simple(y, 10))
        scaled = sp.scalar(x, t)
        assert scaled == sp.add(sp.simple(x * x, 20), sp.simple(x * y, 10))

    def test_scalar_zero_annihilates(self):
        sp = tensor_space(NX, SUM)
        t = sp.simple(NX.variable("x"), 20)
        assert sp.scalar(NX.zero, t) == sp.zero

    def test_iota(self):
        sp = tensor_space(NX, SUM)
        assert sp.iota(20) == sp.simple(NX.one, 20)
        assert sp.iota(0) == sp.zero  # iota(0_M) = 0

    def test_cross_space_operations_rejected(self):
        sp1 = tensor_space(NX, SUM)
        sp2 = tensor_space(NX, MAX)
        with pytest.raises(SemimoduleError):
            sp1.add(sp1.zero, sp2.zero)

    def test_space_cache(self):
        assert tensor_space(NX, SUM) is tensor_space(NX, SUM)
        assert tensor_space(NX, SUM) is not tensor_space(NX, MIN)


class TestSemimoduleLaws:
    def test_nx_sum_semimodule(self):
        sp = tensor_space(NX, SUM)
        x, y = NX.variables("x", "y")
        scalars = [NX.zero, NX.one, x, x + y]
        vectors = [sp.zero, sp.simple(x, 20), sp.iota(10),
                   sp.add(sp.simple(x, 20), sp.simple(y, 10))]
        check_semimodule_axioms(
            NX, scalars, vectors, add=sp.add, zero=sp.zero, action=sp.scalar
        )

    def test_bool_max_semimodule(self):
        sp = tensor_space(BOOL, MAX)
        scalars = [False, True]
        vectors = [sp.zero, sp.iota(5), sp.add(sp.iota(5), sp.iota(9))]
        check_semimodule_axioms(
            BOOL, scalars, vectors, add=sp.add, zero=sp.zero, action=sp.scalar
        )

    def test_sec_min_semimodule(self):
        sp = tensor_space(SEC, MIN)
        scalars = [SEC.zero, SEC.one, SECRET]
        vectors = [sp.zero, sp.simple(SECRET, 4.0), sp.iota(2.0)]
        check_semimodule_axioms(
            SEC, scalars, vectors, add=sp.add, zero=sp.zero, action=sp.scalar
        )


class TestCollapse:
    def test_nat_sum_collapses(self):
        # N (x) M ~ M for every M: Prop 3.9 for bags
        sp = tensor_space(NAT, SUM)
        assert sp.collapses
        t = sp.add(sp.simple(2, 10), sp.simple(1, 30))
        assert t.collapse() == 50

    def test_nat_collapse_equality(self):
        # 2 (x) 30 = 1 (x) 60 in N (x) SUM
        sp = tensor_space(NAT, SUM)
        assert sp.simple(2, 30) == sp.simple(1, 60)
        assert hash(sp.simple(2, 30)) == hash(sp.simple(1, 60))

    def test_bool_max_collapses(self):
        sp = tensor_space(BOOL, MAX)
        assert sp.collapses
        t = sp.add(sp.iota(10), sp.iota(30))
        assert t.collapse() == 30

    def test_bool_sum_does_not_collapse(self):
        # iota not injective: B and SUM incompatible
        sp = tensor_space(BOOL, SUM)
        assert not sp.collapses
        with pytest.raises(SemimoduleError):
            sp.iota(4).collapse()

    def test_nx_never_collapses(self):
        sp = tensor_space(NX, SUM)
        assert not sp.collapses

    def test_empty_collapse_is_monoid_identity(self):
        assert tensor_space(NAT, SUM).zero.collapse() == 0
        assert tensor_space(BOOL, MAX).zero.collapse() == float("-inf")


class TestHomLifting:
    def test_example_34_bag_specialisation(self):
        from repro.semirings import valuation_hom

        sp = tensor_space(NX, SUM)
        r1, r2, r3 = NX.variables("r1", "r2", "r3")
        agg = sp.sum([sp.simple(r1, 20), sp.simple(r2, 10), sp.simple(r3, 30)])
        h = valuation_hom(NX, NAT, {"r1": 1, "r2": 0, "r3": 2})
        assert agg.apply_hom(h).collapse() == 80

    def test_example_34_deletion(self):
        from repro.semirings import deletion_hom, valuation_hom

        sp = tensor_space(NX, SUM)
        r1, r2, r3 = NX.variables("r1", "r2", "r3")
        agg = sp.sum([sp.simple(r1, 20), sp.simple(r2, 10), sp.simple(r3, 30)])
        deleted = agg.apply_hom(deletion_hom(NX, ["r1"]))
        assert deleted == tensor_space(NX, SUM).sum(
            [sp.simple(r2, 10), sp.simple(r3, 30)]
        )
        final = deleted.apply_hom(valuation_hom(NX, NAT, {"r2": 1, "r3": 2}))
        assert final.collapse() == 70

    def test_lift_is_semimodule_hom(self):
        from repro.semirings import valuation_hom

        sp = tensor_space(NX, SUM)
        x, y = NX.variables("x", "y")
        h = valuation_hom(NX, NAT, {"x": 2, "y": 3})
        a = sp.simple(x, 20)
        b = sp.simple(y, 10)
        assert sp.add(a, b).apply_hom(h) == (a.apply_hom(h) + b.apply_hom(h))
        assert sp.scalar(x, b).apply_hom(h) == b.apply_hom(h).scaled_by(2)

    def test_set_agg_empty(self):
        sp = tensor_space(NX, SUM)
        assert sp.set_agg([]) == sp.zero


class TestDisplay:
    def test_str_simple(self):
        sp = tensor_space(NX, SUM)
        x = NX.variable("x")
        assert str(sp.simple(x, 20)) == "x⊗20"
        assert str(sp.zero) == "0"

    def test_str_parenthesizes_sums(self):
        sp = tensor_space(NX, SUM)
        x, y = NX.variables("x", "y")
        assert str(sp.add(sp.simple(x, 20), sp.simple(y, 20))) == "(x + y)⊗20"

    def test_security_tensor_example_35(self):
        sp = tensor_space(SEC, MAX)
        t = sp.sum([sp.simple(SECRET, 20), sp.simple(PUBLIC, 10), sp.simple(SECRET, 30)])
        assert len(t) == 3
        assert str(t) == "1s⊗10 + S⊗20 + S⊗30"


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


class TestCopies:
    """A tensor survives ``pickle``, ``copy.copy`` and ``copy.deepcopy``:
    the copy lives in the *cached* space (the singleton structures pickle
    by name), so it is equal to, and hashes like, the original."""

    @pytest.mark.parametrize("structure", [NAT, BOOL, INT, NX, SUM, MAX, MIN, BHAT])
    @pytest.mark.parametrize("clone", [_pickled, copy.copy, copy.deepcopy])
    def test_singleton_structures_come_back_as_themselves(self, structure, clone):
        assert clone(structure) is structure

    def test_a_structure_that_is_no_global_pickles_as_before(self):
        other = type(SUM)()
        clone = _pickled(other)
        assert type(clone) is type(SUM) and clone is not other and clone is not SUM

    @pytest.mark.parametrize(
        "semiring,monoid",
        [(NAT, SUM), (BOOL, MAX), (BOOL, SUM), (NX, SUM)],
        ids=lambda s: s.name,
    )
    @pytest.mark.parametrize("filled", [False, True], ids=["fresh", "cached"])
    @pytest.mark.parametrize("clone", [_pickled, copy.copy, copy.deepcopy])
    def test_round_trip(self, semiring, monoid, filled, clone):
        space = tensor_space(semiring, monoid)
        scalars = NX.variables("x", "y") if semiring is NX else (semiring.one,) * 2
        t = space.set_agg(zip((10, 20), scalars))
        if filled:
            hash(t)  # fills the hash and, where the space collapses, the value
            str(t)
        assert clone(space) is space
        u = clone(t)
        assert u is not t and u.space is space
        assert u == t and hash(u) == hash(t) and str(u) == str(t)
        assert u._entries == t._entries
        if space.collapses:
            assert u.collapse() == t.collapse() == (30 if monoid is SUM else 20)
            assert type(u.collapse()) is int
        else:
            with pytest.raises(SemimoduleError):
                u.collapse()

    def test_unset_cache_stays_unset_through_pickle(self):
        # an object() sentinel would come back a stranger and be returned
        # as the collapsed value
        t = _pickled(tensor_space(NAT, SUM).set_agg([(10, 2), (20, 3)]))
        assert t.collapse() == 80

    def test_a_pickle_carries_no_per_process_hash(self):
        t = tensor_space(NAT, SUM).set_agg([(10, 2)])
        hash(t)
        assert pickle.dumps(t) == pickle.dumps(_pickled(t))
        assert _pickled(t)._hash is None

    def test_collapse_is_computed_once(self):
        calls = []

        class Counting(type(SUM)):
            def sum(self, items):
                calls.append(1)
                return super().sum(items)

        t = tensor_space(NAT, Counting()).set_agg([(10, 2), (20, 3)])
        assert t.collapse() == 80 and hash(t) == hash(t) and t == t
        assert t.collapse() == 80 and len(calls) == 1
