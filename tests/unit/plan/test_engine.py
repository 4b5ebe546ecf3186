"""Engine wiring: evaluate(engine=...), caches, error parity, routing."""

import pytest

from repro.core import (
    Aggregate,
    AttrCompare,
    AttrEq,
    CountAgg,
    Distinct,
    GroupBy,
    KDatabase,
    KRelation,
    NaturalJoin,
    Project,
    Select,
    Table,
    Tup,
    Union,
)
from repro.exceptions import QueryError, SchemaError
from repro.monoids import SUM
from repro.plan import compile_plan
from repro.plan.physical import HashJoin, Scan
from repro.semirings import NAT, NX
from repro.sql import execute_sql, explain_sql


def bag_db() -> KDatabase:
    r = KRelation.from_rows(
        NAT,
        ("Dept", "Sal"),
        [(("d1", 20), 2), (("d1", 10), 1), (("d2", 10), 3)],
    )
    s = KRelation.from_rows(NAT, ("Dept",), [(("d1",), 1), (("d2",), 2)])
    return KDatabase(NAT, {"R": r, "S": s})


class TestEngineSelection:
    def test_unknown_engine_raises(self):
        with pytest.raises(QueryError):
            Table("R").evaluate(bag_db(), engine="warp-drive")

    def test_planned_standard_matches_interpreted(self):
        db = bag_db()
        q = GroupBy(NaturalJoin(Table("R"), Table("S")), ["Dept"], {"Sal": SUM})
        assert q.evaluate(db, engine="planned") == q.evaluate(db)

    def test_extended_mode_falls_back_to_interpreter(self):
        db = bag_db()
        q = Select(
            GroupBy(Table("R"), ["Dept"], {"Sal": SUM}), [AttrCompare("Sal", ">", 25)]
        )
        assert q.evaluate(db, mode="extended", engine="planned") == q.evaluate(
            db, mode="extended"
        )

    def test_union_and_distinct_through_planner(self):
        db = bag_db()
        q = Distinct(Union(Project(Table("R"), ["Dept"]), Table("S")))
        assert q.evaluate(db, engine="planned") == q.evaluate(db)

    def test_count_through_planner(self):
        db = bag_db()
        q = CountAgg(Table("R"), "n")
        assert q.evaluate(db, engine="planned") == q.evaluate(db)

    def test_count_extended_mode_runs(self):
        """Regression: CountAgg in extended mode raised NameError (the
        ``tensor_space`` helper was never imported into core.query)."""
        db = bag_db()
        q = CountAgg(Table("R"), "n")
        out = q.evaluate(db, mode="extended")
        assert len(out) == 1
        assert out == q.evaluate(db, mode="extended", engine="planned")


class TestPlannerEdgeCases:
    def test_cartesian_through_planner(self):
        db = bag_db()
        left = Project(Table("R"), ["Sal"])
        from repro.core import Cartesian, Rename

        q = Cartesian(left, Rename(Table("S"), {"Dept": "D2"}))
        assert q.evaluate(db, engine="planned") == q.evaluate(db)

    def test_avg_through_planner(self):
        from repro.core import AvgAgg

        db = bag_db()
        q = AvgAgg(Project(Table("R"), ["Sal"]), "Sal")
        assert q.evaluate(db, engine="planned") == q.evaluate(db)

    def test_aggregate_over_empty_input_yields_zero_tensor_singleton(self):
        db = KDatabase(NAT, {"E": KRelation.empty(NAT, ("v",))})
        q = Aggregate(Table("E"), "v", SUM)
        planned = q.evaluate(db, engine="planned")
        assert planned == q.evaluate(db)
        assert len(planned) == 1  # AGG of the empty bag is iota(0_M)

    def test_group_by_with_empty_group_key_is_one_group(self):
        db = bag_db()
        q = GroupBy(Table("R"), [], {"Sal": SUM})
        planned = q.evaluate(db, engine="planned")
        assert planned == q.evaluate(db)
        assert len(planned) == 1

    def test_group_by_over_empty_input_is_empty(self):
        db = KDatabase(NAT, {"E": KRelation.empty(NAT, ("g", "v"))})
        q = GroupBy(Table("E"), ["g"], {"v": SUM})
        planned = q.evaluate(db, engine="planned")
        assert planned == q.evaluate(db)
        assert len(planned) == 0


class TestPlanCaching:
    def test_plan_is_reused_for_the_same_database(self):
        db = bag_db()
        q = NaturalJoin(Table("R"), Table("S"))
        q.evaluate(db, engine="planned")
        first = q._plan_cache[(id(db), db.version)][1]
        q.evaluate(db, engine="planned")
        assert q._plan_cache[(id(db), db.version)][1] is first

    def test_plan_recompiles_when_catalog_changes(self):
        db = bag_db()
        q = NaturalJoin(Table("R"), Table("S"))
        q.evaluate(db, engine="planned")
        first = q._plan_cache[(id(db), db.version)][1]
        db.add("T", KRelation.from_rows(NAT, ("Z",), [((1,), 1)]))
        q.evaluate(db, engine="planned")
        assert q._plan_cache[(id(db), db.version)][1] is not first

    def test_snapshots_share_the_prepared_plan(self):
        db = bag_db()
        q = NaturalJoin(Table("R"), Table("S"))
        snap1 = db.snapshot()
        snap2 = db.snapshot()
        expected = q.evaluate(db, engine="planned")
        plan = q._plan_cache[(id(db), db.version)][1]
        assert q.evaluate(snap1, engine="planned") == expected
        assert q.evaluate(snap2, engine="planned") == expected
        # one compiled plan serves the database and every same-version snapshot
        assert q._plan_cache[(id(db), db.version)][1] is plan
        assert len(q._plan_cache) == 1

    def test_hash_join_build_cache_reused_across_executions(self):
        db = bag_db()
        plan = compile_plan(NaturalJoin(Table("R"), Table("S")), db)
        join = plan.root
        assert isinstance(join, HashJoin)
        first = plan.execute()
        cache_after_first = join._build_cache
        assert cache_after_first is not None
        second = plan.execute()
        assert join._build_cache is cache_after_first  # same buckets object
        assert first == second

    def test_data_refresh_invalidates_scan_and_build_caches(self):
        db = bag_db()
        q = NaturalJoin(Table("R"), Table("S"))
        before = q.evaluate(db, engine="planned")
        db.add("S", KRelation.from_rows(NAT, ("Dept",), [(("d2",), 5)]))
        after = q.evaluate(db, engine="planned")
        assert after == q.evaluate(db)
        assert after != before


class TestErrorParity:
    def test_missing_table_raises_query_error(self):
        with pytest.raises(QueryError):
            Table("Nope").evaluate(bag_db(), engine="planned")

    def test_symbolic_selection_guard_matches_interpreter(self):
        db = bag_db()
        q = Select(
            GroupBy(Table("R"), ["Dept"], {"Sal": SUM}), [AttrEq("Sal", 30)]
        )
        with pytest.raises(QueryError):
            q.evaluate(db)
        with pytest.raises(QueryError):
            q.evaluate(db, engine="planned")

    def test_symbolic_join_guard_matches_interpreter(self):
        db = bag_db()
        q = NaturalJoin(GroupBy(Table("R"), ["Dept"], {"Sal": SUM}), Table("R"))
        with pytest.raises(QueryError):
            q.evaluate(db)
        with pytest.raises(QueryError):
            q.evaluate(db, engine="planned")

    def test_group_by_count_attr_collision_matches_interpreter(self):
        db = bag_db()
        q = GroupBy(Table("R"), ["Dept"], {"Sal": SUM}, count_attr="Sal")
        with pytest.raises(QueryError):
            q.evaluate(db)
        with pytest.raises(QueryError):
            q.evaluate(db, engine="planned")

    def test_selection_on_missing_attribute_matches_interpreter(self):
        """σ on an attribute outside the schema is ill-formed, decided on
        schemas alone: SchemaError on both engines, for empty input too
        (the interpreter used to succeed on an empty relation)."""
        q = Select(Table("E"), [AttrEq("Z", 1)])
        empty_db = KDatabase(NAT, {"E": KRelation.empty(NAT, ("A", "B"))})
        full_db = KDatabase(
            NAT, {"E": KRelation.from_rows(NAT, ("A", "B"), [((1, 2), 1)])}
        )
        for db in (empty_db, full_db):
            with pytest.raises(SchemaError):
                q.evaluate(db)
            with pytest.raises(SchemaError):
                q.evaluate(db, engine="planned")

    def test_union_schema_mismatch_matches_interpreter(self):
        db = bag_db()
        q = Union(Table("R"), Table("S"))
        with pytest.raises(SchemaError):
            q.evaluate(db)
        with pytest.raises(SchemaError):
            q.evaluate(db, engine="planned")

    def test_whole_aggregate_schema_guard_matches_interpreter(self):
        db = bag_db()
        q = Aggregate(Table("R"), "Sal", SUM)
        with pytest.raises(QueryError):
            q.evaluate(db)
        with pytest.raises(QueryError):
            q.evaluate(db, engine="planned")


class TestSqlRouting:
    def test_execute_sql_defaults_to_planned_engine(self):
        db = bag_db()
        out = execute_sql(
            "SELECT Dept, SUM(Sal) AS Total FROM R GROUP BY Dept", db
        )
        ref = execute_sql(
            "SELECT Dept, SUM(Sal) AS Total FROM R GROUP BY Dept",
            db,
            engine="interpreted",
        )
        assert out == ref
        assert len(out) == 2

    def test_execute_sql_where_clause(self):
        db = bag_db()
        out = execute_sql("SELECT Dept FROM R WHERE Sal > 15", db)
        assert out.annotation(Tup({"Dept": "d1"})) == 2

    def test_explain_sql_renders_a_plan(self):
        text = explain_sql("SELECT Dept FROM R WHERE Sal > 15", db := bag_db())
        assert "Scan R" in text
        assert "est_rows" in text

