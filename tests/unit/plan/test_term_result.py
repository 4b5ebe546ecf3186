"""A planned ``N[X]`` result stays in the term store until it is read.

A plan whose root folds ``N[X]`` term rows — a grouped aggregation, or the
merge of a non-distinct result — returns a
:class:`~repro.plan.term_result.TermResult`: the fold's sorted term ids
and their offsets, no polynomial.  A homomorphism into ``N``, ``Z`` or
``B`` maps those runs as arrays; every other reader lowers the result to
the canonical relation once, counted on ``repro_encoded_kernel_total
{op="lower"}``.  These cases pin that nothing is built before a read,
that both readings equal the interpreter's, the rollover fallback, and
the served bytes.

The module also runs with NumPy blocked (a CI step): there every plan
runs the object tier and returns a plain ``KRelation``.
"""

import http.client
import json

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
)
from repro.monoids import SUM
from repro.obs.metrics import ENCODED_KERNEL
from repro.plan.kernels import HAVE_NUMPY
from repro.plan.term_result import TermResult
from repro.semirings import BOOL, INT, NAT, NX, valuation_hom
from repro.semirings.polynomials import Polynomial
from repro.semirings.terms import TermStore
from repro.serve import start_in_thread
from repro.serve.schema import relation_to_json
from repro.sql.compiler import compile_sql

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the term store's folds need NumPy"
)

EMP = ("EmpId", "Dept", "Sal")


def emp_db(n=40):
    """Emp rows annotated by tokens, scaled tokens and constants; Dept rows
    by tokens.  Salaries repeat within a department, and some are 0 (SUM's
    identity: in a group's total, in no entry)."""
    def tag(i):
        return (NX.variable(f"e{i}"), 2 * NX.variable(f"e{i}"), NX.from_int(3))[i % 3]

    emp = KRelation.from_rows(
        NX, EMP, [((i, f"d{i % 4}", 10 * (i % 4)), tag(i)) for i in range(n)]
    )
    dept = KRelation.from_rows(
        NX, ("Dept", "Region"),
        [((f"d{j}", "EU" if j % 2 else "US"), NX.variable(f"r{j}")) for j in range(4)],
    )
    return KDatabase(NX, {"Emp": emp, "Dept": dept})


#: the shape of the benchmark's P1: GB[Dept; SUM(Sal)](σ(Emp ⋈ Dept))
P1 = GroupBy(
    Select(NaturalJoin(Table("Emp"), Table("Dept")), [AttrEq("Region", "EU")]),
    ["Dept"], {"Sal": SUM},
)

QUERIES = {
    "group-by δ": P1,
    "group-by with COUNT": GroupBy(Table("Emp"), ["Dept"], {"Sal": SUM}, count_attr="n"),
    "COUNT": CountAgg(NaturalJoin(Table("Emp"), Table("Dept"))),
    "AVG": AvgAgg(Project(Table("Emp"), ("Sal",)), "Sal"),
    "whole-relation SUM": Aggregate(Project(Table("Emp"), ("Sal",)), "Sal", SUM),
    "merged rows": Project(NaturalJoin(Table("Emp"), Table("Dept")), ("Region",)),
}

TARGETS = {
    "N": (NAT, lambda t: int(t[1:]) % 3),
    "Z": (INT, lambda t: int(t[1:]) % 3 - 1),
    "B": (BOOL, lambda t: int(t[1:]) % 3 != 1),
}


def counted(op, kernel):
    return ENCODED_KERNEL.values().get((op, kernel), 0)


def test_a_planned_result_is_a_term_result_exactly_where_numpy_is():
    db = emp_db()
    result = P1.evaluate(db, engine="planned")
    if HAVE_NUMPY:
        assert type(result) is TermResult
    else:  # the object tier: a plain relation, as before
        assert type(result) is KRelation
    assert result == P1.evaluate(db)


@pytest.mark.parametrize("case", sorted(QUERIES))
def test_a_term_result_equals_the_interpreters(case):
    query = QUERIES[case]
    db = emp_db()
    result = query.evaluate(db, engine="planned")
    assert result == query.evaluate(db)
    assert result.pretty() == query.evaluate(db).pretty()


@needs_numpy
class TestNothingIsBuiltUntilRead:
    def test_evaluating_and_specialising_p1_builds_no_polynomial(self, monkeypatch):
        db = emp_db()
        hom = valuation_hom(NX, NAT, TARGETS["N"][1])
        interpreted = P1.evaluate(db)
        made = []
        real = Polynomial._from_clean.__func__

        def from_clean(cls, semiring, terms):
            made.append(terms)
            return real(cls, semiring, terms)

        monkeypatch.setattr(Polynomial, "_from_clean", classmethod(from_clean))
        # a fresh store binds the counting constructor
        monkeypatch.setattr(NX, "machine_repr", TermStore(NX))
        lowers = counted("lower", "terms")
        result = P1.evaluate(db, engine="planned")
        assert type(result) is TermResult and len(result) == 2
        assert made == []
        arrays = counted("hom", "array")
        image = result.apply_hom(hom)
        assert counted("hom", "array") == arrays + 1
        assert made == [] and counted("lower", "terms") == lowers
        # the first read builds the polynomials, once
        assert result == interpreted
        assert made and counted("lower", "terms") == lowers + 1
        assert image == interpreted.apply_hom(hom)
        built = len(made)
        assert result.pretty() and result.lower() is result.lower()
        assert len(made) == built and counted("lower", "terms") == lowers + 1

    def test_the_materialise_span_says_merge_runs_and_lower_counts_on_metrics(self):
        from repro.obs import explain_analyze
        from repro.obs.metrics import REGISTRY

        text = explain_analyze(P1, emp_db())
        line = next(l for l in text.splitlines() if "plan.materialise" in l)
        assert "merge=runs" in line and "rows_out=2" in line
        P1.evaluate(emp_db(), engine="planned").lower()
        assert 'repro_encoded_kernel_total{op="lower",kernel="terms"}' in REGISTRY.render()


@needs_numpy
@pytest.mark.parametrize("target", sorted(TARGETS))
@pytest.mark.parametrize("case", sorted(QUERIES))
def test_apply_hom_of_the_runs_equals_apply_hom_of_the_lowered(case, target):
    query = QUERIES[case]
    semiring, valuation = TARGETS[target]
    hom = valuation_hom(NX, semiring, valuation)
    result = query.evaluate(emp_db(), engine="planned")
    assert type(result) is TermResult
    arrays = counted("hom", "array")
    got = result.apply_hom(hom)
    assert counted("hom", "array") == arrays + 1
    assert result._lowered is None  # mapped without building the polynomials
    want = result.lower().apply_hom(hom)  # the walk
    assert got == want
    assert got.pretty() == want.pretty()
    for tup, annotation in got.rows():
        assert type(annotation) is type(want.annotation(tup))


@needs_numpy
def test_a_rollover_mid_result_falls_back_to_the_walk_and_is_counted(monkeypatch):
    db = emp_db(12)
    want = P1.evaluate(db)
    # the scans intern 14 terms beside the 2 pinned: the join's products
    # fill the generation mid-query
    monkeypatch.setattr(NX, "machine_repr", TermStore(NX, max_terms=18))
    label = ("terms", "fallback: term store rolled over")
    before = ENCODED_KERNEL.values().get(label, 0)
    from repro.plan import compile_plan

    plan = compile_plan(P1, db)
    result = plan.execute()
    assert plan._last_tier == "encoded+object fallback"
    assert ENCODED_KERNEL.values().get(label, 0) == before + 1
    assert type(result) is KRelation and result == want
    hom = valuation_hom(NX, NAT, TARGETS["N"][1])
    expected = want.apply_hom(hom)
    walks = counted("hom", "fallback: no term runs")
    assert result.apply_hom(hom) == expected
    assert counted("hom", "fallback: no term runs") == walks + 1


def test_a_distinct_root_keeps_the_object_merge():
    db = emp_db()
    query = Distinct(Project(Table("Emp"), ("Dept",)))
    result = query.evaluate(db, engine="planned")
    assert type(result) is KRelation and result == query.evaluate(db)


def test_a_served_expanded_answer_is_the_interpreters_bytes():
    sql = "SELECT Dept, SUM(Sal) FROM Emp GROUP BY Dept"
    db = emp_db()
    want = json.dumps(relation_to_json(compile_sql(sql).evaluate(db)), default=str).encode()
    handle = start_in_thread(db)
    conn = http.client.HTTPConnection(*handle.address, timeout=30)
    try:
        payload = {"sql": sql, "annotations": "expanded", "engine": "planned"}
        conn.request("POST", "/query", json.dumps(payload))
        response = conn.getresponse()
        body = response.read()
        assert response.status == 200, body
    finally:
        conn.close()
        handle.close()
    assert body.startswith(want[:-1] + b', "elapsed_ms": ')
