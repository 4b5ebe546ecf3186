"""Unit tests for provenance-preserving query rewrites."""

import pytest

from repro.core import (
    AttrEq,
    Cartesian,
    GroupBy,
    KDatabase,
    KRelation,
    NaturalJoin,
    Project,
    Schema,
    Select,
    Table,
    Union,
)
from repro.core.rewrites import infer_schema, optimize, rewrite_once
from repro.exceptions import QueryError
from repro.monoids import SUM
from repro.semirings import NX

CATALOG = {
    "R": Schema(("g", "v")),
    "S": Schema(("g",)),
    "T": Schema(("w",)),
}


def make_db():
    r = KRelation.from_rows(
        NX, ("g", "v"),
        [(("a", 1), NX.variable("r1")), (("a", 2), NX.variable("r2")),
         (("b", 1), NX.variable("r3"))],
    )
    s = KRelation.from_rows(
        NX, ("g",), [(("a",), NX.variable("s1")), (("c",), NX.variable("s2"))]
    )
    t = KRelation.from_rows(NX, ("w",), [((9,), NX.variable("t1"))])
    return KDatabase(NX, {"R": r, "S": s, "T": t})


class TestInferSchema:
    def test_base_and_operators(self):
        assert infer_schema(Table("R"), CATALOG) == Schema(("g", "v"))
        assert infer_schema(Project(Table("R"), ["g"]), CATALOG) == Schema(("g",))
        assert infer_schema(
            NaturalJoin(Table("R"), Table("S")), CATALOG
        ) == Schema(("g", "v"))
        assert infer_schema(
            Cartesian(Table("R"), Table("T")), CATALOG
        ) == Schema(("g", "v", "w"))
        assert infer_schema(
            GroupBy(Table("R"), ["g"], {"v": SUM}, count_attr="n"), CATALOG
        ) == Schema(("g", "v", "n"))

    def test_unknown_table(self):
        with pytest.raises(QueryError):
            infer_schema(Table("nope"), CATALOG)


class TestRules:
    def test_select_over_union(self):
        q = Select(Union(Table("S"), Table("S")), [AttrEq("g", "a")])
        rewritten = optimize(q, CATALOG)
        assert isinstance(rewritten, Union)
        assert isinstance(rewritten.left, Select)

    def test_select_merge(self):
        q = Select(Select(Table("R"), [AttrEq("g", "a")]), [AttrEq("v", 1)])
        rewritten = optimize(q, CATALOG)
        assert isinstance(rewritten, Select)
        assert isinstance(rewritten.child, Table)
        assert len(rewritten.conditions) == 2

    def test_select_pushdown_through_join(self):
        q = Select(NaturalJoin(Table("R"), Table("T")), [AttrEq("w", 9)])
        rewritten = optimize(q, CATALOG)
        assert isinstance(rewritten, NaturalJoin)
        assert isinstance(rewritten.right, Select)
        assert isinstance(rewritten.left, Table)

    def test_select_pushdown_through_project(self):
        q = Select(Project(Table("R"), ["g"]), [AttrEq("g", "a")])
        rewritten = optimize(q, CATALOG)
        assert isinstance(rewritten, Project)
        assert isinstance(rewritten.child, Select)

    def test_project_collapse(self):
        q = Project(Project(Table("R"), ["g", "v"]), ["g"])
        rewritten = optimize(q, CATALOG)
        assert isinstance(rewritten, Project)
        assert isinstance(rewritten.child, Table)

    def test_identity_projection_removed(self):
        q = Project(Table("R"), ["v", "g"])
        rewritten = optimize(q, CATALOG)
        assert isinstance(rewritten, Table)

    def test_rewrite_once_reports_change(self):
        q = Select(Union(Table("S"), Table("S")), [AttrEq("g", "a")])
        _, changed = rewrite_once(q, CATALOG)
        assert changed
        stable, changed2 = rewrite_once(Table("S"), CATALOG)
        assert not changed2


WIDE = dict(CATALOG, U=Schema(("g", "u", "x")))


class TestProjectBelowJoin:
    """Π_A(R ⋈ S) = Π_A(Π_A'(R) ⋈ Π_A''(S)), A' and A'' each side's
    attributes in A or the join key (distributivity of * over +)."""

    def test_each_side_keeps_what_the_projection_or_the_join_reads(self):
        q = Project(NaturalJoin(Table("R"), Table("U")), ["v", "x"])
        rewritten = optimize(q, WIDE)
        assert str(rewritten) == "Π[v, x]((R ⋈ Π[g, x](U)))"

    def test_the_outer_projection_goes_when_the_sides_keep_exactly_a(self):
        q = Project(NaturalJoin(Table("R"), Table("U")), ["g"])
        assert str(optimize(q, WIDE)) == "(Π[g](R) ⋈ Π[g](U))"

    def test_under_a_cartesian_product_nothing_is_a_join_key(self):
        q = Project(Cartesian(Table("R"), Table("T")), ["g", "w"])
        assert str(optimize(q, CATALOG)) == "(Π[g](R) × T)"

    @pytest.mark.parametrize("query", [
        Project(Cartesian(Table("R"), Table("T")), ["v"]),
        Project(NaturalJoin(Table("R"), Table("T")), ["g"]),
    ], ids=["cartesian", "natural join without a shared attribute"])
    def test_a_side_that_would_project_to_nothing_stays_whole(self, query):
        rewritten = optimize(query, CATALOG)
        assert isinstance(rewritten, Project)
        join = rewritten.child
        assert isinstance(join.left, Project) and str(join.right) == "T"

    def test_a_second_pass_reports_no_change(self):
        q = Project(Select(NaturalJoin(Table("R"), Table("U")), [AttrEq("x", 1)]),
                    ["g"])
        once, changed = rewrite_once(q, WIDE)
        assert changed
        again, changed_again = rewrite_once(once, WIDE)
        assert not changed_again and str(again) == str(once)
        assert str(once) == "(Π[g](R) ⋈ Π[g](σ[x = 1](U)))"

    def test_the_analytic_projection_runs_below_its_join(self):
        from repro.plan import compile_plan

        fact = KRelation.from_rows(NX, ("Id", "G", "V"), [
            ((i, f"g{i % 3}", i), NX.variable(f"f{i}")) for i in range(9)])
        dim = KRelation.from_rows(NX, ("G", "Region"), [
            ((f"g{j}", "EU" if j % 2 else "US"), NX.variable(f"d{j}")) for j in range(3)])
        db = KDatabase(NX, {"Fact": fact, "Dim": dim})
        q = Project(Select(NaturalJoin(Table("Fact"), Table("Dim")),
                           [AttrEq("Region", "EU")]), ["G"])
        text = compile_plan(q, db).explain()
        assert text.splitlines()[3:] == [
            "HashJoin natural on (G) build=right  [est_rows=1]",
            "├─ Fused[Π[G]]  [est_rows=9]",
            "│  └─ Scan Fact  [est_rows=9]",
            "└─ Fused[σ[Region = EU] → Π[G]]  [est_rows=1]",
            "   └─ Scan Dim  [est_rows=3]",
        ]
        assert q.evaluate(db, engine="planned") == q.evaluate(db)


class TestAnnotationPreservation:
    QUERIES = [
        Select(Union(Table("S"), Table("S")), [AttrEq("g", "a")]),
        Select(Select(Table("R"), [AttrEq("g", "a")]), [AttrEq("v", 1)]),
        Select(NaturalJoin(Table("R"), Table("T")), [AttrEq("w", 9)]),
        Select(NaturalJoin(Table("R"), Table("S")), [AttrEq("v", 1)]),
        Select(Project(Table("R"), ["g"]), [AttrEq("g", "a")]),
        Project(Project(Table("R"), ["g", "v"]), ["g"]),
        Project(Union(Table("S"), Table("S")), ["g"]),
        Select(Cartesian(Table("S"), Table("T")), [AttrEq("w", 9), AttrEq("g", "a")]),
        Project(
            Select(NaturalJoin(Table("R"), Table("S")), [AttrEq("g", "a")]), ["v"]
        ),
        Project(NaturalJoin(Table("R"), Table("T")), ["v"]),
        Project(Select(Cartesian(Table("R"), Table("T")), [AttrEq("g", "a")]), ["w"]),
        GroupBy(Select(Project(Table("R"), ["g", "v"]), [AttrEq("g", "a")]),
                ["g"], {"v": SUM}),
    ]

    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: str(q)[:50])
    def test_rewrite_preserves_annotations(self, query):
        # equality over N[X] implies equality under EVERY specialisation
        db = make_db()
        original = query.evaluate(db)
        rewritten = optimize(query, CATALOG).evaluate(db)
        assert original == rewritten
