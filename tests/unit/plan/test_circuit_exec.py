"""Unit tests for circuit-backed planned execution: a circuit plan's
answer is the gate form of :class:`~repro.plan.term_result.TermResult`."""

import copy
import http.client
import itertools
import json
import pickle

import pytest

from repro.core import (
    AttrEq,
    GroupBy,
    KDatabase,
    KRelation,
    NaturalJoin,
    Select,
    Table,
)
from repro.exceptions import QueryError
from repro.monoids import SUM
from repro.circuits import NX_CIRCUITS
from repro.plan import explain
from repro.plan.kernels import HAVE_NUMPY
from repro.plan.term_result import TermResult
from repro.ivm import MaterializedView
from repro.obs.metrics import ENCODED_KERNEL
from repro.semirings import BOOL, NAT, NX, TROPICAL
from repro.semirings.homomorphism import deletion_hom, valuation_hom
from repro.serve import start_in_thread
from repro.serve.schema import relation_to_json
from repro.sql.compiler import compile_sql


def nx_db():
    p1, p2, p3, q1 = NX.variables("p1", "p2", "p3", "q1")
    emp = KRelation.from_rows(
        NX,
        ("EmpId", "Dept", "Sal"),
        [((1, "d1", 10), p1), ((2, "d1", 20), p2), ((3, "d2", 10), p3)],
    )
    dept = KRelation.from_rows(NX, ("Dept", "Region"), [(("d1", "EU"), q1)])
    return KDatabase(NX, {"Emp": emp, "Dept": dept})


def join_group():
    return GroupBy(
        Select(NaturalJoin(Table("Emp"), Table("Dept")), [AttrEq("Region", "EU")]),
        ["Dept"],
        {"Sal": SUM},
    )


class TestCircuitMode:
    def test_circuit_result_lowers_to_both_engines(self):
        db = nx_db()
        q = join_group()
        result = q.evaluate(db, engine="planned", annotations="circuit")
        assert isinstance(result, TermResult) and result.circuit_relation is not None
        assert result == q.evaluate(db)  # interpreted
        assert result == q.evaluate(db, engine="planned")  # expanded planned
        assert result.lower() is result.lower()  # memoized

    def test_specialise_to_bag_multiplicities(self):
        db = nx_db()
        q = join_group()
        result = q.evaluate(db, engine="planned", annotations="circuit")
        bags = result.specialise(lambda token: 1, NAT)
        assert bags.semiring is NAT
        # one EU group (d1) with multiplicity delta(2 derivations) = 1
        assert len(bags) == 1

    def test_gate_count_is_positive_and_result_shares_gates(self):
        db = nx_db()
        result = join_group().evaluate(db, engine="planned", annotations="circuit")
        assert result.gate_count() > 0

    def test_a_repeated_circuit_query_interns_nothing_and_encodes_nothing(self):
        from repro.obs.metrics import ENCODED_CACHE_EVENTS
        from repro.plan import compile_plan

        db = nx_db()
        first = join_group().evaluate(db, engine="planned", annotations="circuit")
        gates = NX_CIRCUITS.builder.interned_count()
        rebuilds = ENCODED_CACHE_EVENTS.values().get(("rebuild",), 0)
        again = compile_plan(join_group(), db, annotations="circuit").execute().circuit_relation
        assert NX_CIRCUITS.builder.interned_count() == gates
        assert ENCODED_CACHE_EVENTS.values().get(("rebuild",), 0) == rebuilds
        for tup, gate in first.circuit_relation.rows():
            assert again.annotation(tup) is gate

    def test_requires_nx_database(self):
        db = KDatabase(NAT, {"R": KRelation.from_rows(NAT, ("a",), [((1,), 2)])})
        with pytest.raises(QueryError):
            Table("R").evaluate(db, engine="planned", annotations="circuit")

    def test_requires_planned_engine_and_standard_mode(self):
        db = nx_db()
        with pytest.raises(QueryError):
            Table("Emp").evaluate(db, annotations="circuit")
        with pytest.raises(QueryError):
            Table("Emp").evaluate(
                db, mode="extended", engine="planned", annotations="circuit"
            )
        with pytest.raises(QueryError):
            Table("Emp").evaluate(db, annotations="banana")


class TestExplainAnnotationMode:
    def test_explain_reports_expanded_by_default(self):
        text = explain(join_group(), nx_db())
        assert "annotations: expanded" in text

    def test_explain_reports_circuit_mode(self):
        text = explain(join_group(), nx_db(), annotations="circuit")
        assert "annotations: circuit" in text
        # same operator tree either way
        assert "GroupedAggregate" in text and "HashJoin" in text


def bigger_nx_db(n=40, tag=""):
    emp = KRelation.from_rows(
        NX,
        ("EmpId", "Dept", "Sal"),
        [((i, f"d{i % 4}", 10 * (1 + i % 3)), NX.variable(f"{tag}e{i}"))
         for i in range(n)],
    )
    dept = KRelation.from_rows(
        NX,
        ("Dept", "Region"),
        [((f"d{j}", "EU" if j % 2 else "US"), NX.variable(f"{tag}r{j}"))
         for j in range(4)],
    )
    return KDatabase(NX, {"Emp": emp, "Dept": dept})


_fresh_tokens = itertools.count()


def roll_over():
    """Start a new gate generation, as another thread filling the gate
    store up would."""
    builder = NX_CIRCUITS.builder
    cap, builder._max_gates = builder._max_gates, builder.interned_count()
    try:
        builder.var(f"rollover-{next(_fresh_tokens)}")
    finally:
        builder._max_gates = cap


@pytest.mark.skipif(not HAVE_NUMPY, reason="gate ids live on the encoded tier")
class TestGateIdsOnTheEncodedTier:
    def test_gate_count_is_the_union_of_dag_walks_and_sorts_nothing(self, monkeypatch):
        from repro.semimodules.tensor import Tensor

        result = join_group().evaluate(bigger_nx_db(), engine="planned", annotations="circuit")
        walked = set()
        for root in result.circuit_relation._scalars()[0]:
            walked |= {gate._id for gate in root.iter_nodes()}

        def no_sorting(self):
            raise AssertionError("gate_count rendered and sorted tensor entries")

        monkeypatch.setattr(Tensor, "items", no_sorting)
        assert result.gate_count() == len(walked)

    def test_the_parallel_tier_refuses_gate_ids(self):
        from repro.plan import compile_plan

        with pytest.raises(QueryError, match="gate ids"):
            compile_plan(
                join_group(), bigger_nx_db(), annotations="circuit", tier="parallel"
            )

    def test_explain_reports_the_encoded_tier_for_circuit_plans(self):
        text = explain(join_group(), bigger_nx_db(), annotations="circuit")
        assert "tier: encoded" in text

    def test_circuit_queries_count_as_encoded_executions(self):
        from repro.obs.metrics import tier_executions

        db = bigger_nx_db()
        before = tier_executions()
        result = join_group().evaluate(db, engine="planned", annotations="circuit")
        after = tier_executions()
        assert after["encoded"] == before["encoded"] + 1
        assert after["object"] == before["object"]
        assert result == join_group().evaluate(db)

    def test_a_generation_rollover_mid_query_falls_back_with_its_cause(
        self, monkeypatch
    ):
        from repro.obs.metrics import ENCODED_KERNEL

        # tokens no other query has multiplied, so the join interns its gates
        db = bigger_nx_db(tag="rollover")
        for name in db.names():  # the scans lift the tables
            Table(name).evaluate(db, engine="planned", annotations="circuit")
        builder = NX_CIRCUITS.builder
        # room for a few more gates only: the join's batch of x gates
        # starts a new generation half way
        monkeypatch.setattr(builder, "_max_gates", builder.interned_count() + 3)
        label = ("gates", "fallback: gate store rolled over")
        before = ENCODED_KERNEL.values().get(label, 0)
        result = join_group().evaluate(db, engine="planned", annotations="circuit")
        assert ENCODED_KERNEL.values().get(label, 0) > before
        expanded = join_group().evaluate(db)
        assert result == expanded
        twice = valuation_hom(NX, NAT, lambda token: 2)
        assert result.specialise(lambda token: 2, NAT) == expanded.apply_hom(twice)

    def test_a_rollover_between_lift_and_encode_is_not_kept_as_boxed(
        self, monkeypatch
    ):
        from repro.plan import compile_plan
        from repro.plan import encoded as enc

        db = bigger_nx_db(tag="race")
        plan = compile_plan(join_group(), db, annotations="circuit")
        encode = enc.encode_batch

        def rolled_over_first(*args):
            roll_over()  # the generation the scan lifted into is replaced
            return encode(*args)

        monkeypatch.setattr(enc, "encode_batch", rolled_over_first)
        raced = plan.execute()
        assert "boxed: table Emp (gate store rolled over)" in plan.explain()
        monkeypatch.setattr(enc, "encode_batch", encode)
        again = plan.execute()
        assert "boxed" not in plan.explain()
        assert enc.encoded_scan(db, "Emp", db.relation("Emp"), "circuit") is not None
        assert raced == again == join_group().evaluate(db)

    def test_a_rollover_during_a_carried_insert_leaves_the_entry_to_rebuild(
        self, monkeypatch
    ):
        from repro.obs.metrics import ENCODED_CACHE_EVENTS
        from repro.plan import encoded as enc

        db = bigger_nx_db(tag="carry-race")
        join_group().evaluate(db, engine="planned", annotations="circuit")
        scan = enc._scan_annotations

        def rolled_over_first(*args):
            roll_over()  # another thread fills the store after the delta's lift
            return scan(*args)

        disqualified = ENCODED_CACHE_EVENTS.values().get(("disqualify",), 0)
        delta = KRelation.from_rows(
            NX, ("EmpId", "Dept", "Sal"), [((99, "d1", 10), NX.variable("carry-race"))]
        )
        monkeypatch.setattr(enc, "_scan_annotations", rolled_over_first)
        db.update({"Emp": delta})
        monkeypatch.setattr(enc, "_scan_annotations", scan)
        assert ENCODED_CACHE_EVENTS.values().get(("disqualify",), 0) == disqualified
        batch = enc.encoded_scan(db, "Emp", db.relation("Emp"), "circuit")
        assert batch is not None and not enc._stale(batch, "circuit")
        assert len(batch) == len(db.relation("Emp"))


def gate_lowerings():
    return ENCODED_KERNEL.values().get(("lower", "gates"), 0)


def weight(token):
    return 1 + len(token) % 3


class TestACircuitAnswerIsTheLazyRelation:
    """A circuit plan's answer is a ``KRelation`` over ``N[X]`` that holds
    the gates and expands them only for a read that needs the polynomials."""

    def evaluate(self, db):
        return join_group().evaluate(db, engine="planned", annotations="circuit")

    def test_it_is_a_krelation_over_nx_holding_the_gates(self):
        result = self.evaluate(bigger_nx_db())
        assert isinstance(result, KRelation)
        assert result.semiring is NX
        assert result.circuit_relation.semiring is NX_CIRCUITS

    def test_len_counts_the_gate_rows_without_lowering(self):
        db = bigger_nx_db()
        result = self.evaluate(db)
        before = gate_lowerings()
        size = len(result)
        assert gate_lowerings() == before and result._lowered is None
        assert size == len(result.lower()) == len(join_group().evaluate(db))
        assert gate_lowerings() == before + 1
        assert result.lower() is result.lower()
        assert gate_lowerings() == before + 1

    def test_two_evaluations_of_one_plan_compare_equal_without_lowering(self):
        db = bigger_nx_db()
        first, second = self.evaluate(db), self.evaluate(db)
        before = gate_lowerings()
        assert first == second and second == first
        assert gate_lowerings() == before
        assert first._lowered is None and second._lowered is None
        # against any other relation the row maps are compared
        assert first == join_group().evaluate(db)
        assert gate_lowerings() == before + 1

    def test_a_valuation_evaluates_the_gates_and_any_other_hom_lowers(self):
        db = bigger_nx_db()
        result, want = self.evaluate(db), join_group().evaluate(db)
        before = gate_lowerings()
        for target, image in ((NAT, weight), (BOOL, lambda t: len(t) % 2 == 0),
                              (TROPICAL, lambda t: float(len(t)))):
            hom = valuation_hom(NX, target, image)
            assert result.apply_hom(hom) == want.apply_hom(hom)
        assert gate_lowerings() == before and result._lowered is None
        custom = valuation_hom(NX, NAT, weight, coeff_hom=lambda c: c)
        composite = deletion_hom(NX, {"e1", "r1"}).then(valuation_hom(NX, NAT, weight))
        for hom in (custom, composite):
            assert result.apply_hom(hom) == want.apply_hom(hom)
        assert gate_lowerings() == before + 1

    def test_specialise_is_apply_hom_of_the_valuation_on_either_form(self):
        db = bigger_nx_db()
        want = join_group().evaluate(db).apply_hom(valuation_hom(NX, NAT, weight))
        assert self.evaluate(db).specialise(weight, NAT) == want
        if HAVE_NUMPY:  # the expanded answer is the same class there
            assert join_group().evaluate(db, engine="planned").specialise(weight, NAT) == want

    def test_a_pickle_or_copy_is_the_lowered_nx_relation(self):
        db = bigger_nx_db()
        result = self.evaluate(db)
        for twin in (pickle.loads(pickle.dumps(result)), copy.copy(result)):
            assert type(twin) is KRelation and twin.semiring is NX
            assert twin == result.lower() == join_group().evaluate(db)
            assert hash(twin) == hash(result)

    def test_a_circuit_view_result_is_a_krelation_equal_to_evaluation(self):
        db = bigger_nx_db(tag="view")
        view = MaterializedView.create(db, join_group(), annotations="circuit")
        delta = KRelation.from_rows(
            NX, ("EmpId", "Dept", "Sal"), [((99, "d1", 30), NX.variable("view-new"))]
        )
        view.apply({"Emp": delta})
        got = view.result()
        assert isinstance(got, KRelation) and got.semiring is NX
        assert got == self.evaluate(db) == join_group().evaluate(db)

    def test_a_served_circuit_answer_is_the_lowered_results_bytes(self):
        sql = "SELECT Dept, SUM(Sal) FROM Emp GROUP BY Dept"
        db = bigger_nx_db()
        query = compile_sql(sql)
        lowered = query.evaluate(db, engine="planned", annotations="circuit").lower()
        want = json.dumps(relation_to_json(lowered), default=str).encode()
        assert relation_to_json(lowered) == relation_to_json(query.evaluate(db))
        handle = start_in_thread(db)
        conn = http.client.HTTPConnection(*handle.address, timeout=30)
        try:
            payload = {"sql": sql, "annotations": "circuit", "engine": "planned"}
            conn.request("POST", "/query", json.dumps(payload))
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200, body
        finally:
            conn.close()
            handle.close()
        assert body.startswith(want[:-1] + b', "elapsed_ms": ')
