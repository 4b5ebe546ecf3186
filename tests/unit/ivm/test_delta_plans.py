"""Unit tests for the delta-rule rewriter and compiled delta plans."""

import pytest

from repro.core import (
    Cartesian,
    Distinct,
    GroupBy,
    KDatabase,
    KRelation,
    NaturalJoin,
    Project,
    Rename,
    Select,
    Table,
    Union,
    ValueJoin,
    AttrEq,
)
from repro.exceptions import QueryError
from repro.ivm import compile_delta_plan, delta_prefix, delta_rewrite, new_rewrite, table_refs
from repro.monoids import SUM
from repro.semirings import NAT, NX


def make_db():
    r = KRelation.from_rows(NX, ("k", "v"), [((1, "a"), NX.variable("r1"))])
    s = KRelation.from_rows(NX, ("k", "w"), [((1, "b"), NX.variable("s1"))])
    return KDatabase(NX, {"R": r, "S": s})


def dname(name):
    return "Δ" + name


class TestRewriting:
    def test_table_refs_collects_and_validates(self):
        q = NaturalJoin(Select(Table("R"), [AttrEq("k", 1)]), Table("S"))
        assert table_refs(q) == frozenset({"R", "S"})
        with pytest.raises(QueryError):
            table_refs(GroupBy(Table("R"), ["k"], {"v": SUM}))
        with pytest.raises(QueryError):
            table_refs(Distinct(Table("R")))

    def test_unchanged_branch_prunes_statically(self):
        q = Union(Project(Table("R"), ("k",)), Project(Table("S"), ("k",)))
        d = delta_rewrite(q, frozenset({"R"}), dname)
        # the S branch's delta is empty, so it must not appear at all
        assert "S" not in str(d)
        assert "ΔR" in str(d)
        assert delta_rewrite(q, frozenset(), dname) is None

    def test_join_rule_uses_post_update_right_operand(self):
        q = NaturalJoin(Table("R"), Table("S"))
        d = str(delta_rewrite(q, frozenset({"R", "S"}), dname))
        # dR ⋈ (S ∪ ΔS)  ∪  R ⋈ ΔS: the two-term form folds the cross term
        assert "ΔR" in d and "ΔS" in d
        assert "(S ∪ ΔS)" in d

    def test_new_rewrite_replaces_changed_tables_only(self):
        q = Cartesian(Rename(Table("R"), {"k": "k2", "v": "v2"}), Table("S"))
        n = str(new_rewrite(q, frozenset({"S"}), dname))
        assert "(S ∪ ΔS)" in n and "ΔR" not in n

    def test_delta_prefix_avoids_collisions(self):
        assert delta_prefix(["R", "S"]) == "Δ"
        assert delta_prefix(["R", "ΔR"]) == "ΔΔ"


class TestDeltaPlans:
    def test_matches_brute_force_on_join(self):
        db = make_db()
        q = NaturalJoin(Table("R"), Table("S"))
        deltas = {
            "R": KRelation.from_rows(NX, ("k", "v"), [((1, "c"), NX.variable("r2"))]),
            "S": KRelation.from_rows(NX, ("k", "w"), [((1, "d"), NX.variable("s2"))]),
        }
        plan = compile_delta_plan(q, db, deltas.keys())
        got = plan.execute(db, deltas)
        before = q.evaluate(db)
        db.update(deltas)
        after = q.evaluate(db)
        # Q(D + dD) = Q(D) ∪ dQ — annotations included
        from repro.core import union

        assert union(before, got) == after

    def test_value_join_supported(self):
        db = make_db()
        q = ValueJoin(Table("R"), Rename(Table("S"), {"k": "k2", "w": "w2"}),
                      [("k", "k2")])
        deltas = {"R": KRelation.from_rows(NX, ("k", "v"), [((1, "e"), NX.variable("r3"))])}
        plan = compile_delta_plan(q, db, deltas.keys())
        got = plan.execute(db, deltas)
        before = q.evaluate(db)
        db.update(deltas)
        from repro.core import union

        assert union(before, got) == q.evaluate(db)

    def test_unreferenced_delta_is_statically_empty(self):
        db = make_db()
        plan = compile_delta_plan(Table("R"), db, ["S"])
        assert plan.delta_query is None
        got = plan.execute(db, {"S": KRelation.empty(NX, ("k", "w"))})
        assert len(got) == 0
        assert got.schema == db["R"].schema
        assert "statically empty" in plan.explain()

    def test_join_builds_on_the_unchanged_base_scan(self):
        db = KDatabase(
            NAT,
            {
                "R": KRelation.from_rows(NAT, ("k", "v"), [((i, i), 1) for i in range(50)]),
                "S": KRelation.from_rows(NAT, ("k", "w"), [((i, -i), 1) for i in range(50)]),
            },
        )
        # ΔR ⋈ S: the unchanged S scan must be the build side so its bucket
        # table is cacheable across applies (probing with the tiny delta),
        # not the estimate-driven choice of building on the 0-row ΔR
        plan = compile_delta_plan(NaturalJoin(Table("R"), Table("S")), db, ["R"])
        text = plan.explain()
        assert "ΔR" in text and "HashJoin natural on (k) build=right" in text

    def test_join_bucket_table_is_reused_across_applies(self):
        from repro.plan.physical import HashJoin

        db = KDatabase(
            NAT,
            {
                "R": KRelation.from_rows(NAT, ("k", "v"), [((i, i), 1) for i in range(50)]),
                "S": KRelation.from_rows(NAT, ("k", "w"), [((i, -i), 1) for i in range(50)]),
            },
        )
        plan = compile_delta_plan(NaturalJoin(Table("R"), Table("S")), db, ["R"])

        def joins(op):
            found = [op] if isinstance(op, HashJoin) else []
            for child in op.children:
                found.extend(joins(child))
            return found

        delta = {"R": KRelation.from_rows(NAT, ("k", "v"), [((1, 99), 1)])}
        plan.execute(db, delta)
        (join,) = joins(plan.plan.root)
        entries_after_first = dict(join._build_cache)
        assert entries_after_first  # at least one representation built
        plan.execute(db, delta)
        for kind, entry in entries_after_first.items():
            assert join._build_cache[kind] is entry  # built once, reused

    def test_a_pipeline_over_an_unchanged_base_is_the_kept_build(self):
        from repro.plan.physical import FusedPipeline, HashJoin

        db = KDatabase(
            NAT,
            {
                "R": KRelation.from_rows(NAT, ("k", "v"), [((i, i), 1) for i in range(50)]),
                "S": KRelation.from_rows(NAT, ("k", "w"), [((i, -i), 1) for i in range(50)]),
            },
        )
        core = NaturalJoin(Select(Table("R"), [AttrEq("v", 3)]), Rename(Table("S"), {"w": "x"}))
        plan = compile_delta_plan(core, db, ["R"])
        # ρ(S) lasts across applies (its output is kept), so it is the build
        assert "HashJoin natural on (k) build=right" in plan.explain()
        join = plan.plan.root
        delta_side, base_side = join.children
        assert isinstance(join, HashJoin) and isinstance(base_side, FusedPipeline)
        for k in (3, 4):
            delta = {"R": KRelation.from_rows(NAT, ("k", "v"), [((k, 3), 1)])}
            want = plan.delta_query.evaluate(plan.combined(db, delta))
            assert plan.execute(db, delta) == want
            if k == 3:
                entries = dict(join._build_cache)
                kept = dict(base_side._kept)
        assert entries and join._build_cache == entries
        assert kept and base_side._kept == kept
        # the ΔR side is new on every apply: nothing derived from it is kept
        assert delta_side._kept == {}

    def test_nothing_is_kept_over_a_changed_base(self):
        from repro.plan.physical import FusedPipeline, Scan

        db = KDatabase(
            NAT, {"R": KRelation.from_rows(NAT, ("k", "v"), [((i, i), 1) for i in range(50)])}
        )
        core = Rename(Table("R"), {"v": "x"})
        plan = compile_delta_plan(NaturalJoin(core, core), db, ["R"])

        def ops(op):
            yield op
            for child in op.children:
                yield from ops(child)

        scans = [op for op in ops(plan.plan.root) if isinstance(op, Scan)]
        assert {op.name for op in scans} == {"R", "ΔR"}
        assert all(op.fresh and not op.lasts() for op in scans)
        for k in (100, 101):
            delta = {"R": KRelation.from_rows(NAT, ("k", "v"), [((k, k), 1)])}
            want = plan.delta_query.evaluate(plan.combined(db, delta))
            assert plan.execute(db, delta) == want
            db.update(delta)
        pipelines = [op for op in ops(plan.plan.root) if isinstance(op, FusedPipeline)]
        assert pipelines and all(op._kept == {} for op in pipelines)

    def test_missing_table_raises_at_compile(self):
        db = make_db()
        with pytest.raises(QueryError):
            compile_delta_plan(Table("Nope"), db, ["Nope"])
