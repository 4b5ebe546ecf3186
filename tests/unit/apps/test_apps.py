"""Unit tests for the application layer (deletion, security, probability,
view maintenance)."""

import pytest

from repro.apps import (
    DeletionTracker,
    aggregate_expectation,
    credential_hom,
    credential_hom_bag,
    probability,
    propagate_deletions,
    tuple_probabilities,
    view_for,
)
from repro.core import (
    GroupBy,
    KDatabase,
    KRelation,
    NaturalJoin,
    Project,
    Table,
    Tup,
    aggregate,
)
from repro.exceptions import QueryError
from repro.ivm import MaterializedView, compile_delta_plan
from repro.monoids import MAX, SUM
from repro.semirings import (
    CONFIDENTIAL,
    NAT,
    NX,
    PUBLIC,
    SEC,
    SECBAG,
    SECRET,
    TOP_SECRET,
)
from repro.semirings.boolexpr import BVar, band, bnot, bor


class TestDeletion:
    def test_propagate_on_relation(self):
        p1, p2 = NX.variables("p1", "p2")
        r = KRelation.from_rows(NX, ("a",), [((1,), p1 + p2)])
        out = propagate_deletions(r, ["p1"])
        assert out.annotation(Tup({"a": 1})) == p2

    def test_propagate_on_database(self):
        p = NX.variable("p")
        db = KDatabase(NX, {"R": KRelation.from_rows(NX, ("a",), [((1,), p)])})
        out = propagate_deletions(db, ["p"])
        assert len(out["R"]) == 0

    def test_requires_tokens(self):
        r = KRelation.from_rows(NAT, ("a",), [((1,), 1)])
        with pytest.raises(QueryError):
            propagate_deletions(r, ["p"])

    def test_tracker_matches_reevaluation(self):
        tokens = [NX.variable(f"t{i}") for i in range(4)]
        r = KRelation.from_rows(
            NX, ("g", "v"), [(("a", i), tokens[i]) for i in range(4)]
        )
        db = KDatabase(NX, {"R": r})
        q = Project(Table("R"), ["g"])
        tracker = DeletionTracker(q, db)
        tracker.delete("t0", "t2")
        expected = q.evaluate(KDatabase(NX, {"R": propagate_deletions(r, ["t0", "t2"])}))
        assert tracker.result() == expected
        tracker.restore("t0")
        assert tracker.deleted_tokens() == frozenset(["t2"])


class TestSecurityViews:
    def test_example_35_views(self):
        r = KRelation.from_rows(
            SEC, ("Sal",), [((20,), SECRET), ((10,), PUBLIC), ((30,), SECRET)]
        )
        agg = aggregate(r, "Sal", MAX)
        for cred, expected in ((CONFIDENTIAL, 10), (SECRET, 30), (TOP_SECRET, 30)):
            visible = view_for(cred, agg)
            (t,) = visible.support()
            assert t["Sal"].collapse() == expected

    def test_plain_relation_view(self):
        r = KRelation.from_rows(
            SEC, ("doc",), [(("memo",), PUBLIC), (("launch-codes",), TOP_SECRET)]
        )
        visible = view_for(CONFIDENTIAL, r)
        assert len(visible) == 1
        (t,) = visible.support()
        assert t["doc"] == "memo"

    def test_bag_credential_hom(self):
        h = credential_hom_bag(SECRET)
        v = SECBAG.plus(SECBAG.level(SECRET), SECBAG.level(TOP_SECRET))
        assert h(v) == 1

    def test_wrong_semiring_rejected(self):
        r = KRelation.from_rows(NAT, ("a",), [((1,), 1)])
        with pytest.raises(QueryError):
            view_for(SECRET, r)

    def test_credential_hom_is_hom(self):
        h = credential_hom(SECRET)
        levels = [PUBLIC, CONFIDENTIAL, SECRET, TOP_SECRET, SEC.zero]
        for a in levels:
            for b in levels:
                assert h(SEC.plus(a, b)) == (h(a) or h(b))
                assert h(SEC.times(a, b)) == (h(a) and h(b))


class TestProbabilistic:
    def test_probability_basic(self):
        x, y = BVar("x"), BVar("y")
        probs = {"x": 0.5, "y": 0.5}
        assert probability(bor(x, y), probs) == pytest.approx(0.75)
        assert probability(band(x, bnot(y)), probs) == pytest.approx(0.25)

    def test_probability_missing_token(self):
        with pytest.raises(QueryError):
            probability(BVar("x"), {})

    def test_tuple_probabilities(self):
        x, y = NX.variables("x", "y")
        r = KRelation.from_rows(NX, ("a",), [((1,), x + y), ((2,), x * y)])
        probs = tuple_probabilities(r, {"x": 0.5, "y": 0.5})
        assert probs[Tup({"a": 1})] == pytest.approx(0.75)
        assert probs[Tup({"a": 2})] == pytest.approx(0.25)

    def test_aggregate_expectation_linearity(self):
        r = KRelation.from_rows(
            NX, ("Sal",), [((20,), NX.variable("x")), ((10,), NX.variable("y"))]
        )
        agg = aggregate(r, "Sal", SUM)
        (t,) = agg.support()
        assert aggregate_expectation(
            t["Sal"], {"x": 0.5, "y": 1.0}
        ) == pytest.approx(0.5 * 20 + 1.0 * 10)

    def test_aggregate_expectation_requires_nx_sum(self):
        r = KRelation.from_rows(NX, ("Sal",), [((20,), NX.variable("x"))])
        agg = aggregate(r, "Sal", MAX)
        (t,) = agg.support()
        with pytest.raises(QueryError):
            aggregate_expectation(t["Sal"], {"x": 1.0})


class TestViewMaintenance:
    def make_db(self):
        r = KRelation.from_rows(NX, ("k", "v"), [((1, "a"), NX.variable("r1"))])
        s = KRelation.from_rows(NX, ("k", "w"), [((1, "b"), NX.variable("s1"))])
        return KDatabase(NX, {"R": r, "S": s})

    def test_delta_of_join(self):
        db = self.make_db()
        q = NaturalJoin(Table("R"), Table("S"))
        delta = KRelation.from_rows(NX, ("k", "v"), [((1, "c"), NX.variable("r2"))])
        plan = compile_delta_plan(q, db, ["R"], engine="interpreted")
        d = plan.execute(db, {"R": delta})
        assert len(d) == 1
        (t,) = d.support()
        assert t["v"] == "c"

    def test_incremental_view_equals_reevaluation(self):
        db = self.make_db()
        view = MaterializedView.create(db, NaturalJoin(Table("R"), Table("S")))
        view.apply(
            {"R": KRelation.from_rows(NX, ("k", "v"), [((1, "c"), NX.variable("r2"))])}
        )
        assert view.check()
        view.apply(
            {"S": KRelation.from_rows(NX, ("k", "w"), [((1, "d"), NX.variable("s2"))])}
        )
        assert view.check()
        assert len(view.result()) == 4  # 2 x 2 combinations on k=1

    def test_delta_rejects_aggregates(self):
        db = self.make_db()
        q = GroupBy(Table("R"), ["k"], {"v": SUM})
        with pytest.raises(QueryError):
            compile_delta_plan(q, db, ["R"], engine="interpreted").execute(
                db, {"R": KRelation.empty(NX, ("k", "v"))})
