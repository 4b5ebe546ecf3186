"""Unit tests for the tensor product K (x) M (Section 2.3)."""

import copy
import pickle
from fractions import Fraction

import pytest

from repro.exceptions import MonoidError, SemimoduleError
from repro.monoids import BHAT, MAX, MIN, SUM
from repro.semimodules import check_semimodule_axioms, tensor_space
from repro.semimodules.tensor import Tensor, _Unset
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

    @pytest.mark.parametrize("monoid, values, images", [
        (SUM, [20, 10, 30], [1, 0, 2]),
        (SUM, [Fraction(1, 2), 3, 5], [0, 1, 2]),  # a zero image drops its value
        (SUM, [2.5, 10, 20], [1, 1, 0]),  # an inexact value keeps its entry
        (SUM, [20, 10], [True, 2]),  # a bool is not N's int
        (MIN, [20, 10, 30], [1, 0, 2]),
        (MAX, [20, 10, 30], [0, 0, 0]),
    ])
    def test_an_image_into_n_is_its_normal_form(self, monoid, values, images):
        sp = tensor_space(NX, monoid)
        tokens = NX.variables(*(f"t{i}" for i in range(len(values))))
        source = sp.sum([sp.simple(t, v) for t, v in zip(tokens, values)])
        image_of = dict(zip(values, images))
        got = source._mapped(NAT, [image_of[m] for m in source._entries])
        want = tensor_space(NAT, monoid).set_agg((m, image_of[m]) for m in values)
        assert got == want
        assert [(type(m), type(k)) for m, k in got.items()] == [
            (type(m), type(k)) for m, k in want.items()]

    def test_a_negative_image_into_n_is_refused(self):
        sp = tensor_space(NX, SUM)
        source = sp.simple(NX.variable("x"), 20)
        with pytest.raises(MonoidError):
            source._mapped(NAT, [-1])

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
        # as the collapsed value (a float SUM is folded on first use only)
        t = _pickled(tensor_space(NAT, SUM).set_agg([(0.5, 2), (0.25, 3)]))
        assert t._collapsed is _Unset
        assert t.collapse() == 1.75

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


#: ``(semiring, monoid, values)``: every group ``a`` aggregates ``values``,
#: group ``b`` only the monoid's identity (an empty tensor), group ``c`` one
KERNEL_CASES = [
    (NAT, SUM, (3, 7, 5)),
    (NAT, SUM, (0.5, 0.25, 0.1)),  # float SUM: inexact, the entries stay
    (NAT, MAX, (3.0, 7.0, 5.0)),
    (NAT, MIN, (3.0, 7.0, 5.0)),
    (BOOL, SUM, (3, 7, 5)),  # B (x) SUM: iota is no isomorphism
    (BOOL, MAX, (3.0, 7.0, 5.0)),
    (BOOL, MIN, (3.0, 7.0, 5.0)),
]


def _kernel_case_id(case):
    semiring, monoid, values = case
    return f"{semiring.name}-{monoid.name}-{type(values[0]).__name__}"


def _grouped_db(semiring, monoid, values):
    from repro.core import KDatabase, KRelation

    ann = (lambda i: 1 + i) if semiring is NAT else (lambda i: True)
    identity = type(values[0])(monoid.identity)
    rows = [(("a", v), ann(i)) for i, v in enumerate(values)]
    rows += [(("b", identity), ann(1)), (("c", values[0]), ann(2))]
    return KDatabase(semiring, {"R": KRelation.from_rows(semiring, ("g", "v"), rows)})


def _by_group(db, monoid, tier):
    """``{group: tensor}`` of ``GB[g; monoid(v)]`` on ``tier``, off the raw
    batch (building a relation would hash, and so collapse, every tensor)."""
    from repro.core import GroupBy, Table
    from repro.plan import compile_plan

    plan = compile_plan(GroupBy(Table("R"), ["g"], {"v": monoid}), db, tier=tier)
    batch = plan.execute_batch()
    assert plan._last_tier == tier
    return dict(zip(batch.column("g"), batch.column("v")))


def _pairs(semiring, monoid, values):
    """``[(kernel, eager)]`` per group: the encoded tier's tensor and the
    object tier's, built from the same rows."""
    pytest.importorskip("numpy")  # the encoded tier exists only with NumPy
    db = _grouped_db(semiring, monoid, values)
    kernel, eager = _by_group(db, monoid, "encoded"), _by_group(db, monoid, "object")
    assert sorted(kernel) == sorted(eager) == ["a", "b", "c"]
    return [(kernel[g], eager[g]) for g in sorted(kernel)]


@pytest.mark.parametrize("case", KERNEL_CASES, ids=_kernel_case_id)
class TestKernelTensor:
    """A tensor built by the encoded tier's aggregation kernel is the
    tensor the object tier builds, to every reader: where the space
    collapses and the values are exact both are the one normal form
    ``iota(c)``, otherwise both carry the same entries."""

    def test_identity_reads_agree(self, case):
        _semiring, monoid, values = case
        exact = not (monoid is SUM and type(values[0]) is float)
        for d, e in _pairs(*case):
            if d.space.collapses:
                # the normal form knows its value from construction
                assert (d._collapsed is not _Unset) == (exact or not d)
                assert len(d) <= 1 or not exact
                assert d.collapse() == e.collapse()
            assert d == e and hash(d) == hash(e)

    @pytest.mark.parametrize("read", [
        str, Tensor.items, Tensor.size, len, bool, lambda t: t._entries,
    ], ids=["str", "items", "size", "len", "bool", "entries"])
    def test_presentation_reads_agree(self, case, read):
        for d, e in _pairs(*case):
            assert read(d) == read(e)
            assert d._entries == e._entries and str(d) == str(e)

    def test_apply_hom_into_b_and_z_agrees(self, case):
        from repro.semirings import support_hom
        from repro.semirings.homomorphism import semiring_hom

        semiring = case[0]
        # apply_hom lifts the scalar map it is given; for B the map into Z
        # is the indicator (no semiring hom exists), which is all it needs
        for hom in (support_hom(semiring), semiring_hom(semiring, INT, int)):
            for d, e in _pairs(*case):
                got, want = d.apply_hom(hom), e.apply_hom(hom)
                assert got == want and str(got) == str(want)
                assert got._entries == want._entries

    @pytest.mark.parametrize("clone", [_pickled, copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_copies_carry_the_entries(self, case, clone):
        for d, e in _pairs(*case):
            u = clone(d)
            assert u._entries == e._entries
            assert u == e and hash(u) == hash(e) and str(u) == str(e)

    def test_a_read_after_a_carried_write_presents_the_same_entries(self, case):
        from repro.core import KRelation
        from repro.obs.metrics import ENCODED_CACHE_EVENTS

        semiring, monoid, values = case
        pytest.importorskip("numpy")
        db = _grouped_db(*case)
        before = _by_group(db, monoid, "encoded")
        want = {g: (str(t), dict(t._entries)) for g, t in _by_group(db, monoid, "object").items()}
        extends = ENCODED_CACHE_EVENTS.values().get(("extend",), 0)
        fresh = [type(values[0])(100 + i) for i in range(3)]  # new to v's dictionary
        db.update({"R": KRelation.from_rows(
            semiring, ("g", "v"), [(("a", v), semiring.one) for v in fresh])})
        after = _by_group(db, monoid, "encoded")  # extends the carried column
        assert ENCODED_CACHE_EVENTS.values()[("extend",)] == extends + 1
        eager = _by_group(db, monoid, "object")
        assert {g: (str(t), t._entries) for g, t in after.items()} == {
            g: (str(t), t._entries) for g, t in eager.items()}
        assert {g: (str(t), t._entries) for g, t in before.items()} == want
