"""Unit tests for the Section 4.3 extended operators."""

import pytest

from repro.core import (
    AttrEq,
    Difference,
    KDatabase,
    KRelation,
    Select,
    Table,
    Tup,
    km_semiring,
)
from repro.core.nested import (
    collapse_km_relation,
    ext_aggregate,
    ext_cartesian,
    ext_group_by,
    ext_natural_join,
    ext_projection,
    ext_selection_const,
    ext_union,
    ext_value_join,
    lift_to_km,
    value_match,
)
from repro.exceptions import QueryError
from repro.monoids import MAX, SUM
from repro.semimodules import tensor_space
from repro.semirings import BOOL, NAT, NX, valuation_hom

KM_NAT = km_semiring(NAT)


class TestLiftAndCollapse:
    def test_lift_embeds_annotations(self):
        r = KRelation.from_rows(NAT, ("a",), [((1,), 3)])
        lifted = lift_to_km(r, KM_NAT)
        assert lifted.semiring is KM_NAT
        assert lifted.annotation(Tup({"a": 1})) == KM_NAT.from_int(3)

    def test_collapse_inverts_lift(self):
        r = KRelation.from_rows(NAT, ("a",), [((1,), 3)])
        assert collapse_km_relation(lift_to_km(r, KM_NAT), NAT) == r

    def test_collapse_refuses_symbolic(self):
        rel = KRelation(KM_NAT, ("a",), [(Tup({"a": 1}), KM_NAT.variable("tok"))])
        assert collapse_km_relation(rel, NAT) is rel


class TestValueMatch:
    def test_plain_values(self):
        assert value_match(KM_NAT, 1, 1) == KM_NAT.one
        assert value_match(KM_NAT, 1, 2) == KM_NAT.zero

    def test_tensor_vs_plain_embeds_iota(self):
        sp = tensor_space(KM_NAT, SUM)
        t = sp.simple(KM_NAT.from_int(2), 10)
        assert value_match(KM_NAT, t, 20) == KM_NAT.one
        assert value_match(KM_NAT, t, 10) == KM_NAT.zero

    def test_tensor_vs_non_monoid_plain_is_false(self):
        sp = tensor_space(KM_NAT, SUM)
        t = sp.iota(10)
        assert value_match(KM_NAT, t, "a-string") == KM_NAT.zero

    def test_mismatched_monoids_false(self):
        a = tensor_space(KM_NAT, SUM).iota(1)
        b = tensor_space(KM_NAT, MAX).iota(1)
        assert value_match(KM_NAT, a, b) == KM_NAT.zero

    def test_symbolic_tensors_make_atoms(self):
        sp = tensor_space(NX, SUM)
        x, y = NX.variables("x", "y")
        ann = value_match(NX, sp.simple(x, 20), sp.simple(y, 10))
        assert len(ann.variables()) == 1


class TestExtOperators:
    def test_union_reduces_to_standard_on_plain(self):
        a = KRelation.from_rows(NAT, ("x",), [((1,), 2)])
        b = KRelation.from_rows(NAT, ("x",), [((1,), 3), ((2,), 1)])
        u = collapse_km_relation(
            ext_union(lift_to_km(a, KM_NAT), lift_to_km(b, KM_NAT), KM_NAT), NAT
        )
        assert u.annotation(Tup({"x": 1})) == 5
        assert u.annotation(Tup({"x": 2})) == 1

    def test_projection_reduces_to_standard_on_plain(self):
        r = KRelation.from_rows(NAT, ("a", "b"), [((1, "x"), 2), ((1, "y"), 3)])
        p = collapse_km_relation(
            ext_projection(lift_to_km(r, KM_NAT), ["a"], KM_NAT), NAT
        )
        assert p.annotation(Tup({"a": 1})) == 5

    def test_selection_on_symbolic_aggregate_keeps_both(self):
        # Example 4.1/4.3 core behaviour
        r1, r2, r3 = NX.variables("r1", "r2", "r3")
        sp = tensor_space(NX, SUM)
        d1 = Tup({"Dept": "d1", "Sal": sp.add(sp.simple(r1, 20), sp.simple(r2, 10))})
        d2 = Tup({"Dept": "d2", "Sal": sp.simple(r3, 10)})
        rel = KRelation(NX, ("Dept", "Sal"),
                        [(d1, NX.delta(r1 + r2)), (d2, NX.delta(r3))])
        sel = ext_selection_const(rel, "Sal", 20, NX)
        assert len(sel) == 2  # both kept, conditionally

    def test_selection_non_monotone_resolution(self):
        # Example 4.1's non-monotonicity: r2: 0 -> 1 removes the d1 tuple
        r1, r2 = NX.variables("r1", "r2")
        sp = tensor_space(NX, SUM)
        d1 = Tup({"Sal": sp.add(sp.simple(r1, 20), sp.simple(r2, 10))})
        rel = KRelation(NX, ("Sal",), [(d1, NX.delta(r1 + r2))])
        sel = ext_selection_const(rel, "Sal", 20, NX)
        present = sel.apply_hom(valuation_hom(NX, NAT, {"r1": 1, "r2": 0}))
        absent = sel.apply_hom(valuation_hom(NX, NAT, {"r1": 1, "r2": 1}))
        assert len(present) == 1
        assert len(absent) == 0

    def test_value_join_keeps_both_columns(self):
        a = KRelation.from_rows(NAT, ("u",), [((1,), 1)])
        b = KRelation.from_rows(NAT, ("v",), [((1,), 1), ((2,), 1)])
        j = collapse_km_relation(
            ext_value_join(
                lift_to_km(a, KM_NAT), lift_to_km(b, KM_NAT), [("u", "v")], KM_NAT
            ),
            NAT,
        )
        assert len(j) == 1
        (t,) = j.support()
        assert t["u"] == 1 and t["v"] == 1

    def test_natural_join_plain(self):
        a = KRelation.from_rows(NAT, ("k", "u"), [((1, "a"), 2)])
        b = KRelation.from_rows(NAT, ("k", "v"), [((1, "b"), 3)])
        j = collapse_km_relation(
            ext_natural_join(lift_to_km(a, KM_NAT), lift_to_km(b, KM_NAT), KM_NAT),
            NAT,
        )
        assert j.annotation(Tup({"k": 1, "u": "a", "v": "b"})) == 6

    def test_cartesian_requires_disjoint(self):
        a = lift_to_km(KRelation.from_rows(NAT, ("u",), [((1,), 1)]), KM_NAT)
        with pytest.raises(Exception):
            ext_cartesian(a, a, KM_NAT)

    def test_aggregate_over_tensor_values(self):
        # Example 4.5 shape: aggregating already-aggregated values
        r1, r2 = NX.variables("r1", "r2")
        sp = tensor_space(NX, SUM)
        rel = KRelation(
            NX, ("Sal",),
            [
                (Tup({"Sal": sp.simple(r1, 20)}), NX.variable("a1")),
                (Tup({"Sal": sp.simple(r2, 10)}), NX.variable("a2")),
            ],
        )
        agg = ext_aggregate(rel, "Sal", SUM, NX)
        (t,) = agg.support()
        a1, a2 = NX.variables("a1", "a2")
        expected = sp.add(sp.simple(a1 * r1, 20), sp.simple(a2 * r2, 10))
        assert t["Sal"] == expected

    def test_aggregate_mixed_monoid_rejected(self):
        sp = tensor_space(NX, MAX)
        rel = KRelation(NX, ("v",), [(Tup({"v": sp.iota(3)}), NX.one)])
        with pytest.raises(QueryError):
            ext_aggregate(rel, "v", SUM, NX)

    def test_group_by_reduces_to_standard_on_plain(self):
        r = KRelation.from_rows(
            NAT, ("g", "v"), [(("a", 5), 2), (("a", 7), 1), (("b", 1), 4)]
        )
        gb = collapse_km_relation(
            ext_group_by(lift_to_km(r, KM_NAT), ["g"], {"v": SUM}, KM_NAT), NAT
        )
        by_g = {}
        for t in gb.support():
            value = t["v"]
            by_g[t["g"]] = value.collapse() if hasattr(value, "collapse") else value
        assert by_g == {"a": 17, "b": 4}

    def test_group_by_empty_group_key_set(self):
        r = KRelation.empty(NAT, ("g", "v"))
        gb = ext_group_by(lift_to_km(r, KM_NAT), ["g"], {"v": SUM}, KM_NAT)
        assert not gb


# ---------------------------------------------------------------------------
# differential test: the partitioned matcher against the brute-force sums
# ---------------------------------------------------------------------------


def _brute_matches(km, key, rows, key_attrs, row_attrs=None):
    """Section 4.3 read literally: the candidate against *every* row."""
    for t, k in rows:
        match = km.one
        for a, b in zip(key_attrs, row_attrs or key_attrs):
            match = km.times(match, value_match(km, t[b], key[a]))
        if not km.is_zero(match):
            yield t, km.times(k, match)


def _brute_sum(km, key, rows, attrs):
    return km.sum_many(w for _t, w in _brute_matches(km, key, rows, attrs))


def brute_union(r1, r2, km):
    rows, attrs = list(r1.rows()) + list(r2.rows()), r1.schema.attributes
    pairs = [(t, _brute_sum(km, t, rows, attrs)) for t in dict(rows)]
    return KRelation(km, r1.schema, pairs)


def brute_projection(r, attrs, km):
    keys = {t.restrict(attrs) for t in r.support()}
    pairs = [(key, _brute_sum(km, key, r.rows(), attrs)) for key in keys]
    return KRelation(km, attrs, pairs)


def brute_group_by(r, group_attrs, attr, monoid, km):
    space, pairs = tensor_space(km, monoid), []
    for key in {t.restrict(group_attrs) for t in r.support()}:
        matched = list(_brute_matches(km, key, r.rows(), group_attrs))
        value = space.sum(space.simple(w, t[attr]) for t, w in matched)
        total = km.sum_many(w for _t, w in matched)
        pairs.append((Tup({**key, attr: value}), km.delta(total)))
    return KRelation(km, tuple(group_attrs) + (attr,), pairs)


def brute_join(r1, r2, on, km):
    """Both join variants: ``on`` pairs left/right attributes; left values win."""
    out = [
        (Tup({**t2, **t1}), km.times(k1, w))
        for t1, k1 in r1.rows()
        for t2, w in _brute_matches(
            km, t1, r2.rows(), [a for a, _b in on], [b for _a, b in on])
    ]
    return KRelation(km, r1.schema.union(r2.schema), out)


def _mixed(monoid, prefix, picks):
    """``(id, g, h, v)`` rows whose keys ``(g, h)`` mix every kind of value.

    ``id`` is plain and unique, so the relation itself is unambiguous under
    every valuation; ``v`` is plain (it gets aggregated).
    """
    sp = tensor_space(NX, monoid)
    x, y, z = NX.variables("x", "y", "z")
    keys = [
        (20, "a"), (20, "b"), (10, "a"),                          # plain, plain
        (sp.simple(x, 20), "a"),                                  # symbolic, plain
        (sp.add(sp.simple(y, 10), sp.simple(z, 20)), "a"),
        (sp.iota(20), "a"),             # a tensor that *is* the plain 20 via iota
        ("n/a", "a"),                   # no monoid element: equals no tensor
        (20, sp.simple(x, 1)),                                    # plain, symbolic
        (sp.simple(x, 20), sp.simple(y, 1)),                      # both symbolic
        (sp.simple(x, 20), "b"),
    ]
    return KRelation.from_rows(
        NX, ("id", "g", "h", "v"),
        [((i, *keys[i], 1 + i % 3), NX.variable(f"{prefix}{i}")) for i in picks],
    )


def _valuations(target, values):
    """Token valuations ``(x, y, z, every row token)``; two rows always drop."""
    tokens = [f"{p}{i}" for p in "rs" for i in range(10)]
    for x, y, z, rest in values:
        image = dict.fromkeys(tokens, rest) | {"x": x, "y": y, "z": z}
        image["s2"] = image["r4"] = target.zero
        yield valuation_hom(NX, target, image)


@pytest.mark.parametrize("monoid", [SUM, MAX], ids=["SUM", "MAX"])
class TestPartitionedMatcherAgainstBruteForce:
    """Mixed signatures are the path the hash index could get wrong."""

    def cases(self, monoid):
        r = _mixed(monoid, "r", range(10))
        s = _mixed(monoid, "s", [0, 2, 3, 5, 6, 7, 8])
        keys = ("g", "h")
        left = ext_projection(r, ("id",) + keys, NX)
        right = ext_projection(s, ("id",) + keys, NX)
        renamed = KRelation(
            NX, ("id2", "g2", "h2"),
            [(t.rename({"id": "id2", "g": "g2", "h": "h2"}), k) for t, k in right.rows()],
        )
        on = [("g", "g2"), ("h", "h2")]
        by_id2 = KRelation(
            NX, ("id2", "g", "h"), [(t.rename({"id": "id2"}), k) for t, k in right.rows()]
        )
        return [
            (ext_union(r, s, NX), brute_union(r, s, NX)),
            (ext_projection(r, keys, NX), brute_projection(r, keys, NX)),
            (ext_projection(r, ("g",), NX), brute_projection(r, ("g",), NX)),
            (ext_group_by(r, keys, {"v": SUM}, NX), brute_group_by(r, keys, "v", SUM, NX)),
            (ext_natural_join(left, by_id2, NX),
             brute_join(left, by_id2, [(a, a) for a in keys], NX)),
            (ext_value_join(left, renamed, on, NX), brute_join(left, renamed, on, NX)),
        ]

    def homs(self, monoid):
        yield from _valuations(NAT, [(1, 1, 1, 1), (1, 2, 0, 1), (0, 1, 1, 2)])
        if monoid.idempotent:  # B (x) M collapses only then: atoms must resolve
            yield from _valuations(
                BOOL, [(True, True, True, True), (True, False, True, True),
                       (False, True, False, True)])

    def test_equal_as_km_relations_and_under_valuations(self, monoid):
        for got, want in self.cases(monoid):
            assert len(got) and got == want
            # symbolic keys really left atoms behind
            assert any(not k.is_constant() for _t, k in got.rows())
            for hom in self.homs(monoid):
                assert got.apply_hom(hom) == want.apply_hom(hom)

    def test_section5_encoding_equals_direct_under_valuations(self, monoid):
        emp = KRelation.from_rows(
            NX, ("id", "dept"),
            [((i, f"d{i % 3}"), NX.variable(f"r{i}")) for i in range(10)])
        db = KDatabase(NX, {"Emp": emp})
        gone = Select(Table("Emp"), [AttrEq("dept", "d1")])
        direct, encoding = (
            Difference(Table("Emp"), gone, method=m).evaluate(db, mode="extended")
            for m in ("direct", "encoding"))
        for hom in self.homs(monoid):
            assert direct.apply_hom(hom) == encoding.apply_hom(hom)
