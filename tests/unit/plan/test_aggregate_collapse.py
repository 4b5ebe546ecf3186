"""Aggregation collapses in the kernel (Prop. 3.9 on the encoded tier).

The property suite (``tests/property/test_collapse_kernel.py``) holds the
kernel's value to the definition's over random workloads; this file pins
each exactness guard at its edge, the cross-morsel merge on hand-built
payloads, the "work is done once" accounting, and the observability of
the kernel-or-fold decision.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("numpy")  # the encoded tier exists only with NumPy

from repro.core import (Aggregate, AttrEq, AvgAgg, CountAgg, GroupBy, KDatabase,
                        KRelation, NaturalJoin, Project, Select, Table, Union)
from repro.exceptions import SemimoduleError
from repro.monoids import MAX, MIN, PROD, SUM, SumMonoid
from repro.obs import explain_analyze
from repro.obs.metrics import AGGREGATE_COLLAPSE, REGISTRY
from repro.plan import compile_plan, parallel
from repro.plan.encoded import _INT64_MAX
from repro.plan.physical import _as_columnar
from repro.semimodules.tensor import Tensor, _Unset, tensor_space
from repro.semirings import BOOL, INT, NAT, TROPICAL
from repro.semirings.integers import IntegerRing
from repro.serve.schema import relation_to_json

TIERS = ("object", "encoded", "parallel")


def database(semiring, rows, **more):
    tables = {"R": KRelation.from_rows(semiring, ("g", "v"), rows)}
    for name, extra in more.items():
        tables[name] = KRelation.from_rows(semiring, ("g", "v"), extra)
    return KDatabase(semiring, tables)


def tensors(query, db, tier, attr="v"):
    """``{group: tensor}`` of the grouping ``query`` run on ``tier``, read
    off the raw batch: building the result relation hashes every row,
    which collapses every tensor and fills the caches under test."""
    plan = compile_plan(query, db, tier=tier)
    assert plan.execute() == query.evaluate(db, engine="interpreted")
    batch = _as_columnar(plan.execute_batch())
    assert plan._last_tier.startswith(tier), plan._last_tier
    rows = zip(batch.column("g"), batch.column(attr), batch.annotations)
    return {g: t for g, t, annotation in rows if not db.semiring.is_zero(annotation)}


def grouped(db, monoid, tier, source=Table("R")):
    """The tensors of ``GB[g; monoid(v)]`` over ``source``."""
    return tensors(GroupBy(source, ["g"], {"v": monoid}), db, tier)


def recomputed(tensor):
    """``collapse()`` from the entries alone, with the cache cleared."""
    return Tensor(tensor.space, dict(tensor._entries)).collapse()


# ---------------------------------------------------------------------------
# the exactness guards, each at its edge
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tier", ["encoded", "parallel"])
def test_int_sum_just_inside_int64_is_prefilled(tier):
    big = _INT64_MAX // 2  # rows(2) * ann_bound(1) * max|v| == 2**63 - 2
    db = database(NAT, [(("a", big), 1), (("a", 1), 1)])
    t = grouped(db, SUM, tier)["a"]
    assert t._collapsed == big + 1 and type(t._collapsed) is int
    assert t._collapsed == recomputed(t)


@pytest.mark.parametrize("tier", ["encoded", "parallel"])
def test_int_sum_just_outside_int64_is_folded_exactly(tier):
    big = 1 << 62  # rows(2) * ann_bound(1) * max|v| == 2**63
    db = database(NAT, [(("a", big), 1), (("a", 1), 1)])
    before = collapse_counts()
    t = grouped(db, SUM, tier)["a"]
    assert ("fold", "bound") in delta(before)
    # the normal form's fold is arbitrary-precision: the same iota(c)
    assert t._entries == {big + 1: 1} and type(t._collapsed) is int


def test_annotations_count_toward_the_bound():
    big = _INT64_MAX // 6
    rows = [(("a", big), 3), (("a", 1), 1)]  # 2 rows * ann_bound 3 * big
    before = collapse_counts()
    assert grouped(database(NAT, rows), SUM, "encoded")["a"]._collapsed == 3 * big + 1
    assert ("kernel", "") in delta(before)
    rows = [(("a", big + 1), 3), (("a", 1), 1)]
    before = collapse_counts()
    t = grouped(database(NAT, rows), SUM, "encoded")["a"]
    assert ("fold", "bound") in delta(before)
    assert t._entries == {3 * (big + 1) + 1: 1}


def test_float_sum_is_left_to_the_fold_and_bit_identical_on_every_tier():
    # (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3) != fsum: a kernel's own fold shows
    db = database(NAT, [(("a", 0.1), 1), (("a", 0.2), 1), (("a", 0.3), 1)])
    values = []
    for tier in TIERS:
        t = grouped(db, SUM, tier)["a"]
        assert t._collapsed is _Unset
        values.append(t.collapse().hex())
    assert set(values) == {math.fsum([0.1, 0.2, 0.3]).hex()}  # SumMonoid.sum


@pytest.mark.parametrize("values,expected", [
    ([3, 7, 5], (3, 7)),
    ([0.5, 2.5, 1.0], (0.5, 2.5)),
    ([0.5, math.inf, -math.inf], (-math.inf, math.inf)),
])
def test_min_max_select_without_arithmetic(values, expected):
    db = database(NAT, [(("a", v), 2) for v in values])
    for monoid, want in zip((MIN, MAX), expected):
        for tier in ("encoded", "parallel"):
            t = grouped(db, monoid, tier)["a"]
            assert t._collapsed == want and type(t._collapsed) is type(want)
            assert t._collapsed == recomputed(t)


@pytest.mark.parametrize("values,monoid", [
    ([1, 2.5], SUM),                 # mixed dictionary, and inexact
    ([1, 2.5], MIN),
    ([Fraction(1, 3), Fraction(1, 2)], SUM),
    ([Fraction(1, 3), Fraction(1, 2)], MAX),
    ([2, 3], PROD),                  # no kernel declared
])
def test_other_dictionaries_are_left_to_the_normal_form(values, monoid):
    db = database(NAT, [(("a", v), 2) for v in values])
    t = grouped(db, monoid, "encoded")["a"]
    u = grouped(db, monoid, "object")["a"]
    exact = all(map(monoid.exact, values))
    assert (t._collapsed is not _Unset) == exact and len(t) == (1 if exact else 2)
    assert str(t) == str(u) and t._entries == u._entries
    assert t.collapse() == u.collapse() and type(t.collapse()) is type(u.collapse())


def test_nan_is_unordered_so_min_stays_with_the_fold():
    # the fold keeps 1.5 here (nan <= 1.5 is False); np.minimum would say nan
    db = database(NAT, [(("a", math.nan), 1), (("a", 1.5), 1)])
    plan = compile_plan(GroupBy(Table("R"), ["g"], {"v": MIN}), db, tier="encoded")
    (t,) = _as_columnar(plan.execute_batch()).column("v")
    assert t._collapsed is _Unset and t.collapse() == recomputed(t) == 1.5


@pytest.mark.parametrize("tier", ["encoded", "parallel"])
def test_a_group_the_masks_empty_collapses_to_the_identity(tier):
    rows = [(("a", 0), 2), (("b", 5), 1), (("b", 0), 3)]
    got = grouped(database(NAT, rows), SUM, tier)
    assert got["a"]._entries == {} and got["a"]._collapsed == 0
    assert type(got["a"]._collapsed) is int
    assert got["b"]._entries == {5: 1} and got["b"]._collapsed == 5

    rows = [(("a", math.inf), 2), (("b", 5.0), 1), (("b", math.inf), 3)]
    got = grouped(database(NAT, rows), MIN, tier)
    assert got["a"]._entries == {} and got["a"]._collapsed == math.inf
    assert got["b"]._entries == {5.0: 1} and got["b"]._collapsed == 5.0


@pytest.mark.parametrize("tier", ["encoded", "parallel"])
def test_sets_collapse_only_under_idempotent_monoids(tier):
    db = database(BOOL, [(("a", 3), True), (("a", 7), True)])
    assert grouped(db, MAX, tier)["a"]._collapsed == 7
    t = grouped(db, SUM, tier)["a"]  # B (x) SUM: iota is no isomorphism
    assert t._collapsed is _Unset
    with pytest.raises(SemimoduleError):
        t.collapse()


@pytest.mark.parametrize("tier", TIERS)
def test_cancellation_over_z_drops_the_entry_and_attempts_no_collapse(tier):
    db = database(
        INT,
        [(("a", 5), 2), (("a", 7), 1), (("b", 5), 1)],
        S=[(("a", 5), -2), (("b", 5), -1)],
    )
    got = grouped(db, SUM, tier, source=Union(Table("R"), Table("S")))
    assert set(got) == {"a"}  # b's total cancelled: the row is gone
    assert got["a"]._entries == {7: 1} and got["a"]._collapsed is _Unset


#: The aggregate shapes over a source with columns ``g, v``: AGG,
#: COUNT(*) and AVG are GB's one group over the empty key, a GROUP BY
#: with an empty key is that group at ``δ(total)``, and a keyed GROUP BY
#: with COUNT(*) the general case.
AGGREGATES = {
    "agg-sum": lambda src: Aggregate(Project(src, ("v",)), "v", SUM),
    "agg-max": lambda src: Aggregate(Project(src, ("v",)), "v", MAX),
    "count": lambda src: CountAgg(src, "n"),
    "avg": lambda src: AvgAgg(Project(src, ("v",)), "v"),
    "gb-empty-key": lambda src: GroupBy(src, [], {"v": SUM}, count_attr="n"),
    "gb-count": lambda src: GroupBy(src, ["g"], {"v": SUM}, count_attr="n"),
}

#: ``rows`` is the table itself, ``empty`` a selection of no row, and
#: ``cancel`` a union with the table's negation: rows whose ``Z``
#: annotations all cancel inside the fold.
SOURCES = {
    "rows": Table("R"),
    "empty": Select(Table("R"), [AttrEq("v", -1)]),
    "cancel": Union(Table("R"), Table("S")),
}


@pytest.mark.parametrize("shape", sorted(AGGREGATES))
@pytest.mark.parametrize("semiring,source", [
    (INT, "rows"), (INT, "empty"), (INT, "cancel"),
    (TROPICAL, "rows"), (TROPICAL, "empty"),
], ids=lambda p: getattr(p, "name", p))
def test_aggregates_over_z_and_tropical_equal_the_interpreter(semiring, source, shape):
    weight = float if semiring is TROPICAL else int
    rows = [((f"g{i % 2}", 5 * i), weight(1 + i % 3)) for i in range(6)]
    db = database(semiring, rows, S=[(row, -k) for row, k in rows] if semiring is INT else [])
    query = AGGREGATES[shape](SOURCES[source])
    want = query.evaluate(db, engine="interpreted")
    if source != "rows":  # AGG's one row at 1_K; a GROUP BY has none
        assert len(want) == (0 if shape.startswith("gb") else 1)
    for tier in ("object", "encoded"):
        plan = compile_plan(query, db, tier=tier)
        got = plan.execute()
        assert got == want and got.pretty() == want.pretty(), tier
        assert plan._last_tier == tier  # the encoded run never fell back


def test_count_over_bags_collapses_to_the_raw_total():
    db = database(NAT, [(("a", 1), 2), (("a", 2), 3), (("b", 0), 1)])
    query = GroupBy(Table("R"), ["g"], {}, count_attr="n")
    for tier in ("encoded", "parallel"):
        counts = tensors(query, db, tier, attr="n")
        assert {g: t._collapsed for g, t in counts.items()} == {"a": 5, "b": 1}
        assert all(t._collapsed == recomputed(t) for t in counts.values())


# ---------------------------------------------------------------------------
# the cross-morsel merge, directly
# ---------------------------------------------------------------------------


def group_op(semiring):
    """The ``GB[g; SUM(v)]`` operator of a compiled plan."""
    db = database(semiring, [(("a", 1), semiring.one)])
    return compile_plan(GroupBy(Table("R"), ["g"], {"v": SUM}), db, tier="encoded").root


def payload(semiring, groups):
    """A morsel payload for ``{group: {value: scalar}}``."""
    space = tensor_space(semiring, SUM)
    return {
        "rows": sum(map(len, groups.values())),
        "bound": 8,
        "group_rows": [(g,) for g in groups],
        "totals": [sum(e.values()) for e in groups.values()],
        "tensors": {"v": [space.set_agg(e.items()) for e in groups.values()]},
        "why": {"v": None},
    }


def merged(semiring, payloads, op=None):
    op = op or group_op(semiring)
    batch = parallel._merge_group_payloads(op, semiring, payloads)
    return dict(zip(batch.column("g"), batch.column("v")))


def test_partials_of_a_group_met_in_three_morsels_combine():
    # a contiguous-chunk partition (or a salvaged morsel) splits group a
    morsels = [{"a": {5: 2, 7: 1}, "b": {1: 1}}, {"a": {5: 1}}, {"c": {2: 2}, "a": {9: 4}}]
    got = merged(NAT, [payload(NAT, m) for m in morsels])
    assert got["a"]._entries == {58: 1}  # normal forms add by +_M
    assert {g: t._collapsed for g, t in got.items()} == {"a": 58, "b": 1, "c": 4}
    assert all(t._collapsed == recomputed(t) for t in got.values())


def test_first_seen_payload_tensors_are_taken_over_not_copied():
    first = payload(NAT, {"a": {5: 2}, "b": {1: 1}})
    got = merged(NAT, [first, payload(NAT, {"b": {1: 2}})])
    assert got["a"] is first["tensors"]["v"][0]
    assert got["b"]._entries == {3: 1}


def test_only_groups_that_merged_are_rescanned_for_zero_scalars():
    calls = []

    class CountingZ(IntegerRing):
        def is_zero(self, a):
            calls.append(a)
            return super().is_zero(a)

    ring = CountingZ()
    siblings = {f"s{i}": {i + 1: 1, i + 2: 2} for i in range(20)}
    morsels = [{"a": {5: 2, 7: 1}, **siblings}, {"a": {5: -1}}, {"a": {5: -1, 9: 3}}]
    payloads = [payload(ring, m) for m in morsels]
    op = group_op(ring)
    calls.clear()
    got = merged(ring, payloads, op)
    assert got["a"]._entries == {7: 1, 9: 3}  # 5's scalar cancelled across morsels
    assert all(got[g]._entries == e for g, e in siblings.items())
    assert sorted(calls) == [0, 1]  # group a's two merges of 5, nobody else's
    assert all(t._collapsed is _Unset for t in got.values())


def test_a_float_partial_merges_to_the_form_one_morsel_builds():
    morsels = [payload(NAT, {"a": {5: 2}}), payload(NAT, {"a": {0.5: 1}, "b": {1: 1}})]
    whole = tensor_space(NAT, SUM).set_agg([(5, 2), (0.5, 1)])
    for payloads in (morsels, morsels[::-1]):
        got = merged(NAT, payloads)
        assert got["a"]._entries == whole._entries == {10: 1, 0.5: 1}
        assert str(got["a"]) == str(whole) == "1⊗0.5 + 1⊗10"
        assert got["a"].collapse() == 10.5 and got["b"]._entries == {1: 1}


@pytest.mark.parametrize("monoid, ints, floats", [
    (PROD, [3, 5], [0.1]),                 # 0.1 * 15 != 0.1 * 3 * 5
    (SUM, [2 ** 53, 1], [0.5]),            # fsum rounds each int it is given
    (SUM, [2, 1, -4], [0.5, 0.25]),
])
def test_mixed_partials_merge_to_re_evaluation(monoid, ints, floats):
    space = tensor_space(NAT, monoid)
    op = compile_plan(GroupBy(Table("R"), ["g"], {"v": monoid}),
                      database(NAT, [(("a", 1), 1)]), tier="encoded").root

    def part(values):
        return {"rows": len(values), "bound": 1, "group_rows": [("a",)],
                "totals": [len(values)], "why": {"v": "mixed values"},
                "tensors": {"v": [space.set_agg((v, 1) for v in values)]}}

    whole = space.set_agg((v, 1) for v in ints + floats)
    for cut in range(1, len(ints + floats)):
        for values in (ints + floats, floats + ints):
            got = merged(NAT, [part(values[:cut]), part(values[cut:])], op)["a"]
            assert got._entries == whole._entries and str(got) == str(whole)
            assert got.collapse() == whole.collapse()
            assert type(got.collapse()) is type(whole.collapse())


# ---------------------------------------------------------------------------
# work is done once
# ---------------------------------------------------------------------------


class CountingSum(SumMonoid):
    """SUM that counts the folds ``Tensor.collapse`` would make."""

    def __init__(self):
        self.sums = self.actions = 0

    def sum(self, items):
        self.sums += 1
        return super().sum(items)

    def nat_action(self, n, a):
        self.actions += 1
        return super().nat_action(n, a)


def a1_shape(values):
    """``GB[g; SUM(v), COUNT](R ⋈ D)`` — the benchmark's A1 — over ``values``."""
    rows = [((f"g{i % 4}", values[i % len(values)]), 1 + i % 3) for i in range(40)]
    rows = list(dict(rows).items())
    db = KDatabase(NAT, {
        "R": KRelation.from_rows(NAT, ("g", "v"), rows),
        "D": KRelation.from_rows(NAT, ("g", "r"), [((f"g{j}", "EU"), 1) for j in range(4)]),
    })
    monoid = CountingSum()
    query = GroupBy(NaturalJoin(Table("R"), Table("D")), ["g"], {"v": monoid},
                    count_attr="n")
    return db, query, monoid


def test_kernel_result_is_never_folded_again():
    db, query, monoid = a1_shape([3, 5, 8, 13, 21])
    result = compile_plan(query, db, tier="encoded").execute()
    assert hash(result) == hash(result) and result == result
    wire = relation_to_json(result)
    assert (monoid.sums, monoid.actions) == (0, 0)
    reference = query.evaluate(db, engine="interpreted")
    assert wire == relation_to_json(reference) and result == reference


def test_lazy_result_is_folded_exactly_once_per_tensor():
    db, query, monoid = a1_shape([0.5, 1.25, 2.0, 3.5])
    result = compile_plan(query, db, tier="encoded").execute()
    assert monoid.sums == len(result) == 4  # building the relation hashed each row
    assert hash(result) == hash(result) and result == result
    relation_to_json(result)
    relation_to_json(result)
    assert monoid.sums == 4


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


def collapse_counts():
    return dict(AGGREGATE_COLLAPSE.values())


def delta(before):
    after = collapse_counts()
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


@pytest.mark.parametrize("tier", ["encoded", "parallel"])
@pytest.mark.parametrize("values,monoid,shown,labels", [
    ([1, 2, 3], SUM, "collapse=kernel", ("kernel", "")),
    ([0.5, 1.5], SUM, "collapse=fold (inexact values)", ("fold", "inexact values")),
    ([1, 2.5], MAX, "collapse=fold (mixed values)", ("fold", "mixed values")),
    ([2, 3], PROD, "collapse=fold (no kernel for PROD)", ("fold", "no kernel for PROD")),
    ([1 << 62, 1 << 61], SUM, "collapse=fold (bound)", ("fold", "bound")),
])
def test_span_and_counter_name_the_path_and_the_cause(tier, values, monoid, shown, labels):
    db = database(NAT, [(("a", v), 1) for v in values] + [(("b", values[0]), 1)])
    query = GroupBy(Table("R"), ["g"], {"v": monoid})
    before = collapse_counts()
    text = explain_analyze(query, db, tier=tier)
    assert shown in text, text  # on the aggregate's span, or on a morsel's
    assert delta(before) == {labels: 1}  # once, in this process, on both tiers
    path, reason = labels
    assert (f'repro_aggregate_collapse_total{{path="{path}",reason="{reason}"}}'
            in REGISTRY.render())


def test_non_collapsing_space_is_a_cause_too():
    db = database(INT, [(("a", 1), 1), (("a", 2), -1)])
    before = collapse_counts()
    text = explain_analyze(GroupBy(Table("R"), ["g"], {"v": SUM}), db, tier="encoded")
    assert "collapse=fold (non-collapsing space)" in text
    assert delta(before) == {("fold", "non-collapsing space"): 1}


def test_whole_aggregate_reports_its_collapse():
    db = database(NAT, [(("a", 4), 2), (("b", 6), 1)])
    query = Aggregate(Project(Table("R"), ("v",)), "v", SUM)
    before = collapse_counts()
    text = explain_analyze(query, db, tier="encoded")
    assert "collapse=kernel" in text
    assert delta(before) == {("kernel", ""): 1}
    (tup, _annotation), = compile_plan(query, db, tier="encoded").execute().rows()
    assert tup["v"]._collapsed == 14 == recomputed(tup["v"])
