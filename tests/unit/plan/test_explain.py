"""Golden tests for the EXPLAIN surface and the planner's plan shapes."""

import pytest

from repro.core import (
    AttrEq,
    GroupBy,
    KDatabase,
    KRelation,
    NaturalJoin,
    Project,
    Select,
    Table,
)
from repro.exceptions import QueryError
from repro.monoids import SUM
from repro.plan import compile_plan, explain
from repro.plan.physical import (
    FusedPipeline,
    GroupedAggregate,
    HashJoin,
    Scan,
    SelectStage,
)
from repro.semirings import NAT
from repro.sql.compiler import compile_sql


def make_db(n_emp: int = 12, n_dept: int = 3) -> KDatabase:
    emp = KRelation.from_rows(
        NAT,
        ("EmpId", "Dept", "Sal"),
        [((i, f"d{i % n_dept}", 10 * (1 + i % 4)), 1) for i in range(n_emp)],
    )
    dept = KRelation.from_rows(
        NAT,
        ("Dept", "Region"),
        [((f"d{j}", "EU" if j % 2 else "US"), 1) for j in range(n_dept)],
    )
    return KDatabase(NAT, {"Emp": emp, "Dept": dept})


class TestPlanShapes:
    def test_selection_commutes_below_the_join(self):
        """σ over the join's right side must end up under the join."""
        db = make_db()
        query = Select(
            NaturalJoin(Table("Emp"), Table("Dept")), [AttrEq("Region", "EU")]
        )
        plan = compile_plan(query, db)
        root = plan.root
        assert isinstance(root, HashJoin)  # no Select above the join remains
        right = root.children[1]
        assert isinstance(right, FusedPipeline)
        assert any(isinstance(s, SelectStage) for s in right.stages)
        assert isinstance(right.children[0], Scan)
        assert right.children[0].name == "Dept"

    def test_pushdown_splits_conditions_between_both_sides(self):
        db = make_db()
        query = Select(
            NaturalJoin(Table("Emp"), Table("Dept")),
            [AttrEq("Region", "EU"), AttrEq("Sal", 20)],
        )
        root = compile_plan(query, db).root
        assert isinstance(root, HashJoin)
        assert all(isinstance(c, FusedPipeline) for c in root.children)

    def test_small_side_becomes_the_hash_build_side(self):
        db = make_db(n_emp=20, n_dept=3)
        join = NaturalJoin(Table("Emp"), Table("Dept"))
        root = compile_plan(join, db).root
        assert isinstance(root, HashJoin)
        assert root.build_side == "right"  # Dept (3) smaller than Emp (20)

        flipped = NaturalJoin(Table("Dept"), Table("Emp"))
        root = compile_plan(flipped, db).root
        assert root.build_side == "left"

    def test_pushed_selection_changes_the_build_side(self):
        """The side estimates account for pushed-down selections."""
        db = make_db(n_emp=4, n_dept=3)
        # unfiltered: Emp (4) vs Dept (3) -> build right; a selective filter
        # on Emp (4 -> est 1) must flip the build to the left side
        query = Select(
            NaturalJoin(Table("Emp"), Table("Dept")), [AttrEq("EmpId", 1)]
        )
        root = compile_plan(query, db).root
        assert isinstance(root, HashJoin)
        assert root.build_side == "left"

    def test_select_project_chains_fuse_into_one_pipeline(self):
        db = make_db()
        query = Project(
            Select(Table("Emp"), [AttrEq("Dept", "d1")]), ["EmpId"]
        )
        root = compile_plan(query, db).root
        assert isinstance(root, FusedPipeline)
        assert len(root.stages) == 2  # σ then Π over a single Scan
        assert isinstance(root.children[0], Scan)


class TestExplainRendering:
    def test_explain_shows_operators_estimates_and_build_side(self):
        db = make_db(n_emp=12, n_dept=3)
        query = GroupBy(
            Select(
                NaturalJoin(Table("Emp"), Table("Dept")), [AttrEq("Region", "EU")]
            ),
            ["Dept"],
            {"Sal": SUM},
        )
        text = explain(query, db)
        assert text.splitlines()[0].startswith("plan for: ")
        assert "GroupedAggregate[Dept; SUM(Sal)]" in text
        assert "build=right" in text
        assert "Scan Emp  [est_rows=12]" in text
        assert "Scan Dept  [est_rows=3]" in text
        # selection sits under the join: the σ line is rendered after it
        lines = text.splitlines()
        join_line = next(i for i, l in enumerate(lines) if "HashJoin" in l)
        select_line = next(
            i for i, l in enumerate(lines) if "Fused[σ[Region = EU]]" in l
        )
        assert select_line > join_line

    def test_explain_estimates_shrink_through_selections(self):
        db = make_db(n_emp=12)
        text = explain(Select(Table("Emp"), [AttrEq("Dept", "d1")]), db)
        assert "[est_rows=4]" in text  # 12 // 3 for one equality
        assert "Scan Emp  [est_rows=12]" in text

    def test_unoptimized_plan_keeps_selection_above_join(self):
        db = make_db()
        query = Select(
            NaturalJoin(Table("Emp"), Table("Dept")), [AttrEq("Region", "EU")]
        )
        root = compile_plan(query, db, rewrite=False).root
        assert isinstance(root, FusedPipeline)
        assert isinstance(root.children[0], HashJoin)

    def test_explain_of_missing_table_renders_fallback(self):
        db = make_db()
        text = explain(Table("Nope"), db)
        assert "Interpret[" in text

    def test_count_star_is_one_grouped_aggregate_and_says_encoded_truthfully(self):
        """COUNT(*) is GB's one group over the empty key: the static tier
        line and the last run agree, and the label names the aggregate."""
        pytest.importorskip("numpy")  # the encoded tier exists only with NumPy
        plan = compile_plan(compile_sql("SELECT COUNT(*) AS n FROM Emp"), make_db())
        assert isinstance(plan.root, GroupedAggregate)
        assert "tier: encoded" in plan.explain()
        assert "GroupedAggregate[COUNT→n]  [est_rows=1]" in plan.explain()
        (tup, _annotation), = plan.execute().rows()
        assert tup["n"]._collapsed == 12
        assert plan._last_tier == "encoded"
        assert "[last run: encoded]" in plan.explain()


class TestAnnotationsLine:
    def test_the_plan_states_the_mode_it_was_compiled_for(self):
        plan = compile_plan(Table("Emp"), make_db())
        assert plan.annotations == "expanded"
        assert "annotations: expanded" in plan.explain()
        assert "annotations: circuit" not in plan.explain()

    def test_an_unknown_representation_is_rejected(self):
        with pytest.raises(QueryError, match="banana"):
            explain(Table("Emp"), make_db(), annotations="banana")
