"""Unit tests for MaterializedView: heads, deltas, deletions, staleness."""

import pytest

from repro.core import (
    Aggregate,
    AttrEq,
    AvgAgg,
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
)
from repro.exceptions import QueryError, SchemaError, SemiringError
from repro.ivm import MaterializedView
from repro.monoids import MAX, SUM
from repro.semirings import INT, NAT, NX


def emp_db(semiring=NX):
    def tag(i):
        return NX.variable(f"p{i}") if semiring is NX else 1

    emp = KRelation.from_rows(
        semiring,
        ("EmpId", "Dept", "Sal"),
        [((1, "d1", 20), tag(1)), ((2, "d1", 10), tag(2)), ((3, "d2", 15), tag(3))],
    )
    return KDatabase(semiring, {"Emp": emp})


def emp_delta(semiring, rows, start=100):
    def tag(i):
        return NX.variable(f"q{i}") if semiring is NX else 1

    return KRelation.from_rows(
        semiring,
        ("EmpId", "Dept", "Sal"),
        [(row, tag(start + i)) for i, row in enumerate(rows)],
    )


GROUPED = GroupBy(Table("Emp"), ["Dept"], {"Sal": SUM}, count_attr="n")


class TestGroupedHead:
    def test_initial_materialisation_equals_evaluation(self):
        db = emp_db()
        view = MaterializedView.create(db, GROUPED)
        assert view.result() == GROUPED.evaluate(db)

    def test_apply_patches_dirty_groups(self):
        db = emp_db()
        view = MaterializedView.create(db, GROUPED)
        view.apply({"Emp": emp_delta(NX, [(4, "d1", 30)])})
        assert view.result() == GROUPED.evaluate(db)
        view.apply({"Emp": emp_delta(NX, [(5, "d3", 7), (6, "d3", 8)], start=200)})
        assert view.result() == GROUPED.evaluate(db)

    def test_untouched_groups_are_not_visited(self, monkeypatch):
        db = emp_db()
        view = MaterializedView.create(db, GROUPED)
        touched = []
        original = type(view._head)._reemit

        def spying(self, key, group, _orig=original):
            touched.append(key)
            return _orig(self, key, group)

        monkeypatch.setattr(type(view._head), "_reemit", spying)
        view.apply({"Emp": emp_delta(NX, [(4, "d1", 30)])})
        assert touched == [("d1",)]  # keys are value tuples

    def test_apply_folds_delta_into_the_database(self):
        db = emp_db()
        view = MaterializedView.create(db, GROUPED)
        view.apply({"Emp": emp_delta(NX, [(4, "d9", 1)])})
        assert Tup({"EmpId": 4, "Dept": "d9", "Sal": 1}) in db["Emp"]
        assert not view.is_stale()

    def test_group_vanishes_under_z_cancellation(self):
        db = KDatabase(
            INT,
            {"R": KRelation.from_rows(INT, ("g", "x"), [(("a", 5), 2), (("b", 6), 1)])},
        )
        q = GroupBy(Table("R"), ["g"], {"x": SUM})
        view = MaterializedView.create(db, q)
        view.apply({"R": KRelation.from_rows(INT, ("g", "x"), [(("b", 6), 1)]).negated()})
        assert view.result() == q.evaluate(db)
        assert len(view.result()) == 1

    def test_bulk_nx_delta_runs_the_object_tier_exactly(self):
        """A bulk delta runs the delta plan's object tier, like any other,
        and still equals re-evaluation."""
        dept = KRelation.from_rows(
            NX, ("Dept", "Region"),
            [(("d1", "EU"), NX.variable("r1")), (("d2", "US"), 2 * NX.variable("r2"))],
        )
        db = emp_db()
        db.add("Dept", dept)
        query = GroupBy(NaturalJoin(Table("Emp"), Table("Dept")), ["Region"],
                        {"Sal": SUM}, count_attr="n")
        view = MaterializedView.create(db, query)
        rows = [(100 + i, f"d{1 + i % 2}", 10 * (1 + i % 4)) for i in range(300)]
        view.apply({"Emp": emp_delta(NX, rows, start=1000)})
        assert view.result() == query.evaluate(db)
        delta_plan = view._delta_plans[frozenset({"Emp"})]
        assert delta_plan.plan._last_tier == "object"

    def test_empty_delta_is_a_noop(self):
        db = emp_db()
        view = MaterializedView.create(db, GROUPED)
        before = view.result()
        view.apply({"Emp": KRelation.empty(NX, ("EmpId", "Dept", "Sal"))})
        assert view.result() == before


class TestOtherHeads:
    def test_join_view(self):
        r = KRelation.from_rows(NAT, ("k", "v"), [((1, "a"), 1)])
        s = KRelation.from_rows(NAT, ("k", "w"), [((1, "b"), 2)])
        db = KDatabase(NAT, {"R": r, "S": s})
        q = NaturalJoin(Table("R"), Table("S"))
        view = MaterializedView.create(db, q)
        view.apply({"R": KRelation.from_rows(NAT, ("k", "v"), [((1, "c"), 3)])})
        view.apply({"S": KRelation.from_rows(NAT, ("k", "w"), [((1, "d"), 1)])})
        assert view.result() == q.evaluate(db)

    @pytest.mark.parametrize(
        "query",
        [
            Aggregate(Project(Table("Emp"), ("Sal",)), "Sal", MAX),
            CountAgg(Table("Emp"), "n"),
            AvgAgg(Project(Table("Emp"), ("Sal",)), "Sal"),
        ],
        ids=["agg-max", "count", "avg"],
    )
    def test_whole_relation_heads(self, query):
        db = emp_db()
        view = MaterializedView.create(db, query)
        view.apply({"Emp": emp_delta(NX, [(7, "d1", 99), (8, "d2", 3)])})
        assert view.result() == query.evaluate(db)
        assert view.check()

    def test_distinct_head(self):
        db = emp_db()
        q = Distinct(Project(Table("Emp"), ("Dept",)))
        view = MaterializedView.create(db, q)
        view.apply({"Emp": emp_delta(NX, [(9, "d1", 5), (10, "d4", 6)])})
        assert view.result() == q.evaluate(db)

    def test_selection_pushdown_core(self):
        db = emp_db()
        q = GroupBy(
            Select(Table("Emp"), [AttrEq("Dept", "d1")]), ["Dept"], {"Sal": SUM}
        )
        view = MaterializedView.create(db, q)
        view.apply({"Emp": emp_delta(NX, [(11, "d1", 4), (12, "d2", 5)])})
        assert view.result() == q.evaluate(db)


class TestGuards:
    def test_unsupported_core_raises(self):
        db = emp_db()
        nested = GroupBy(
            Distinct(Table("Emp")), ["Dept"], {"Sal": SUM}
        )  # Distinct below the head: not linear
        with pytest.raises(QueryError):
            MaterializedView.create(db, nested)

    def test_unknown_delta_table(self):
        view = MaterializedView.create(emp_db(), GROUPED)
        with pytest.raises(QueryError):
            view.apply({"Nope": KRelation.empty(NX, ("EmpId", "Dept", "Sal"))})

    def test_delta_schema_mismatch(self):
        view = MaterializedView.create(emp_db(), GROUPED)
        with pytest.raises(SchemaError):
            view.apply({"Emp": KRelation.empty(NX, ("EmpId", "Dept"))})

    def test_delta_semiring_mismatch(self):
        view = MaterializedView.create(emp_db(), GROUPED)
        with pytest.raises(SemiringError):
            view.apply({"Emp": KRelation.empty(NAT, ("EmpId", "Dept", "Sal"))})

    def test_out_of_band_mutation_detected(self):
        db = emp_db()
        view = MaterializedView.create(db, GROUPED)
        db.add("Emp", db["Emp"])  # version bump outside the view
        assert view.is_stale()
        with pytest.raises(QueryError):
            view.apply({"Emp": emp_delta(NX, [(14, "d1", 1)])})
        view.refresh()
        view.apply({"Emp": emp_delta(NX, [(14, "d1", 1)])})
        assert view.result() == GROUPED.evaluate(db)

    def test_replace_rematerialises_a_read_table_only(self):
        db = emp_db(NAT)
        view = MaterializedView.create(db, GROUPED)
        state = view.result()
        view.replace("Other", KRelation.from_rows(NAT, ("x",), [((1,), 1)]))
        assert not view.is_stale() and view.result() is state  # untouched
        view.apply({"Other": KRelation.from_rows(NAT, ("x",), [((2,), 1)])})
        view.replace("Emp", emp_delta(NAT, [(7, "d3", 5)]))
        assert not view.is_stale()
        assert view.result() == GROUPED.evaluate(db)
        assert len(view.result()) == 1
        view.apply({"Emp": emp_delta(NAT, [(8, "d3", 4)])})
        assert view.result() == GROUPED.evaluate(db)

    def test_a_replace_that_cannot_rematerialise_keeps_the_old_state(self):
        db = emp_db(NAT)
        view = MaterializedView.create(db, GROUPED)
        before, version = view.result(), view.version
        assert len(before) == 2
        with pytest.raises(QueryError):  # Sal dropped: the core no longer compiles
            view.replace("Emp", KRelation.from_rows(NAT, ("EmpId", "Dept"), [((1, "d1"), 1)]))
        assert view.result() == before and view.version == version
        with pytest.raises(QueryError):
            view.refresh()
        assert view.result() == before and view.version == version

    def test_stale_is_cheap_to_query(self):
        db = emp_db()
        view = MaterializedView.create(db, GROUPED)
        assert not view.is_stale()
        assert view.version == db.version


class TestDeletions:
    def test_zero_tokens_patches_state_and_base(self):
        db = emp_db()
        view = MaterializedView.create(db, GROUPED)
        view.apply({"Emp": emp_delta(NX, [(4, "d1", 30)])})
        view.zero_tokens("p1")
        assert view.result() == GROUPED.evaluate(db)
        # p1's tuple left the base relation's support
        assert Tup({"EmpId": 1, "Dept": "d1", "Sal": 20}) not in db["Emp"]

    def test_zero_tokens_can_empty_a_group(self):
        db = emp_db()
        view = MaterializedView.create(db, GROUPED)
        view.zero_tokens("p3")  # the only d2 member
        assert view.result() == GROUPED.evaluate(db)
        assert len(view.result()) == 1

    def test_zero_tokens_requires_tokens(self):
        db = emp_db(NAT)
        view = MaterializedView.create(db, GROUPED)
        with pytest.raises(QueryError):
            view.zero_tokens("p1")


class TestCircuitMode:
    def test_circuit_view_matches_reference(self):
        db = emp_db()
        view = MaterializedView.create(db, GROUPED, annotations="circuit")
        view.apply({"Emp": emp_delta(NX, [(4, "d1", 30)])})
        assert view.result() == GROUPED.evaluate(db)

    def test_apply_interns_only_the_delta_gates(self):
        from repro.circuits import NX_CIRCUITS
        from repro.obs.metrics import ENCODED_CACHE_EVENTS

        db = emp_db()
        view = MaterializedView.create(db, GROUPED, annotations="circuit")
        builder = NX_CIRCUITS.builder
        first = builder._counter
        rebuilds = ENCODED_CACHE_EVENTS.values()[("rebuild",)]
        # a token no other test uses: its gates are new to the builder
        view.apply({"Emp": emp_delta(NX, [(4, "d1", 30)], start=7001)})
        assert ENCODED_CACHE_EVENTS.values()[("rebuild",)] == rebuilds
        new = set(range(first + 1, builder._counter + 1))
        assert new
        # every gate the apply interned is one the maintained result uses
        reachable = set()
        for root in view.result().circuit_relation._scalars()[0]:
            reachable |= {gate._id for gate in root.iter_nodes()}
        assert new <= reachable
        assert view.result() == GROUPED.evaluate(db)

    def test_specialisation_of_circuit_view(self):
        from repro.semirings import valuation_hom

        db = emp_db()
        view = MaterializedView.create(db, GROUPED, annotations="circuit")
        view.apply({"Emp": emp_delta(NX, [(4, "d1", 30)])})
        weights = {f"p{i}": 1 for i in range(1, 4)} | {"q100": 2}
        got = view.result().specialise(weights, NAT)
        expected = GROUPED.evaluate(db).apply_hom(
            valuation_hom(NX, NAT, weights)
        )
        assert got == expected


class TestExplainDelta:
    def test_mentions_head_protocol_and_plan(self):
        view = MaterializedView.create(emp_db(), GROUPED)
        text = view.explain_delta()
        assert "dirty groups" in text
        assert "ΔEmp" in text
        assert "Scan" in text

    def test_unreferenced_change_is_a_noop_plan(self):
        db = emp_db()
        db.add("Other", KRelation.from_rows(NX, ("a",), [((1,), NX.variable("z"))]))
        view = MaterializedView.create(db, GROUPED)
        assert "statically empty" in view.explain_delta(["Other"])
