"""A planned result stays the root's arrays until it is read.

A plan whose root batch is encoded returns a
:class:`~repro.plan.term_result.TermResult`.  Over ``N[X]`` it holds the
term store's folds (sorted term ids and their offsets, no polynomial): a
homomorphism into ``N``, ``Z`` or ``B`` maps those runs as arrays.  Over a
machine semiring (``N``, ``Z``, ``B``, tropical) it holds the groups' key
codes, collapsed values and totals (no ``Tup``, no tensor): ``len`` reads
the arrays, and ``==`` compares them where the key dictionaries are equal
lists.  Every other reader lowers the result to the canonical relation
once, counted on ``repro_encoded_kernel_total{op="lower"}``.  These cases
pin that nothing is built before a read, that both readings equal the
interpreter's, that ``==`` and ``hash`` answer as the lowered relations
do, the rollover fallback, and the served bytes.

The module also runs with NumPy blocked (a CI step): there every plan
runs the object tier and returns a plain ``KRelation``.
"""

import http.client
import json

import pytest

import math
import pickle

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
    Union,
)
from repro.core.tuples import Tup
from repro.monoids import MAX, SUM
from repro.obs import explain_analyze
from repro.obs.metrics import ENCODED_KERNEL
from repro.plan.kernels import HAVE_NUMPY
from repro.plan.term_result import TermResult
from repro.semimodules.tensor import Tensor
from repro.semirings import BOOL, INT, NAT, NX, TROPICAL, valuation_hom
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


# ---------------------------------------------------------------------------
# machine semirings: the root's arrays
# ---------------------------------------------------------------------------

FACT = ("Id", "G", "V")


def analytic_db(semiring=NAT, fact=None, groups=8):
    """``scan_analytic``'s shape: a fact table dealt over a dimension's
    keys (one ``Dim`` row per ``G``), annotated ``1 + i % 3``."""
    if fact is None:
        fact = [((i, f"g{i % groups}", i % 7), 1 + i % 3) for i in range(60)]
    dim = [((f"g{j}", "EU" if j % 2 else "US"), semiring.one) for j in range(groups)]
    return KDatabase(semiring, {
        "Fact": KRelation.from_rows(semiring, FACT, fact),
        "Dim": KRelation.from_rows(semiring, ("G", "Region"), dim),
    })


JOINED = NaturalJoin(Table("Fact"), Table("Dim"))
ANALYTIC = {
    "A1": GroupBy(JOINED, ["G"], {"V": SUM}, count_attr="N"),
    "A2": Project(Select(JOINED, [AttrEq("Region", "EU")]), ["G"]),
    "A3": Union(Project(Select(Table("Fact"), [AttrEq("V", 3)]), ["G"]),
                Project(Table("Dim"), ["G"])),
}


def test_a_planned_result_over_n_is_lazy_exactly_where_numpy_is():
    db = analytic_db()
    for query in ANALYTIC.values():
        result = query.evaluate(db, engine="planned")
        if HAVE_NUMPY:
            assert type(result) is TermResult and not result.terms
        else:  # the object tier: a plain relation, as before
            assert type(result) is KRelation
        assert result == query.evaluate(db)


@needs_numpy
@pytest.mark.parametrize("name", sorted(ANALYTIC))
def test_nothing_is_built_until_a_read(name, monkeypatch):
    db = analytic_db()
    query = ANALYTIC[name]
    want = query.evaluate(db)
    query.evaluate(db, engine="planned")  # scans encoded and kept
    tups, tensors = [], []
    real_tup = Tup._from_sorted.__func__
    real_tensor = Tensor.__init__

    def from_sorted(cls, attrs, values):
        tups.append(values)
        return real_tup(cls, attrs, values)

    def tensor(self, space, items):
        tensors.append(items)
        real_tensor(self, space, items)

    monkeypatch.setattr(Tup, "_from_sorted", classmethod(from_sorted))
    monkeypatch.setattr(Tensor, "__init__", tensor)
    lowers = counted("lower", "arrays")
    result = query.evaluate(db, engine="planned")
    assert len(result) == len(want) and bool(result)
    assert tups == [] and tensors == []
    assert result._lowered is None and counted("lower", "arrays") == lowers
    # the first read builds the rows, once
    assert result.pretty() == want.pretty()
    assert len(tups) >= len(want) and counted("lower", "arrays") == lowers + 1
    assert bool(tensors) == (name == "A1")
    assert result == want and result.lower() is result.lower()
    assert counted("lower", "arrays") == lowers + 1


def agrees(a, b):
    """``a == b`` answers as the lowered relations do, both ways; returns
    the answer and whether it lowered either side."""
    got, back = a == b, b == a
    lowered = any(getattr(r, "_lowered", None) is not None for r in (a, b))
    a, b = (getattr(r, "lower", lambda r=r: r)() for r in (a, b))  # a plain KRelation is its rows
    assert got == back == (a == b) == (b == a)
    return got, lowered


@needs_numpy
@pytest.mark.parametrize("name", sorted(ANALYTIC))
def test_two_results_of_one_version_compare_as_arrays(name):
    db = analytic_db()
    query = ANALYTIC[name]
    a, b = (query.evaluate(db, engine="planned") for _ in range(2))
    # A3's union merges a fresh dictionary per run: equal as lists
    assert agrees(a, b) == (True, False)
    assert a == query.evaluate(db)


@needs_numpy
@pytest.mark.parametrize("name", sorted(ANALYTIC))
def test_two_versions_with_other_dictionaries_compare_their_rows(name):
    rows = [((i, f"g{i % 8}", i % 7), 1 + i % 3) for i in range(60)]
    query = ANALYTIC[name]
    a = query.evaluate(analytic_db(fact=rows), engine="planned")
    # the same rows in another order: other dictionaries, the same relation
    b = query.evaluate(analytic_db(fact=rows[::-1]), engine="planned")
    assert agrees(a, b) == (True, True)


@needs_numpy
@pytest.mark.parametrize("name", sorted(ANALYTIC))
def test_a_one_value_write_is_seen(name):
    db = analytic_db()
    query = ANALYTIC[name]
    before = query.evaluate(db, engine="planned")
    # a row in g1 (an EU group) with V = 3: every shape reads it
    db.update({"Fact": KRelation.from_rows(NAT, FACT, [((99, "g1", 3), 1)])})
    after = query.evaluate(db, engine="planned")
    assert after == query.evaluate(db)
    assert agrees(before, after) == (False, True)
    assert agrees(*(query.evaluate(db, engine="planned") for _ in range(2))) == (True, False)


@needs_numpy
def test_a_total_that_cancels_to_zero_over_z_drops_its_group():
    fact = [((0, "g0", 5), 2), ((1, "g0", 6), -2), ((2, "g1", 5), 3)]
    db = analytic_db(INT, fact, groups=2)
    for query in (GroupBy(Table("Fact"), ["G"], {}, count_attr="n"), Project(Table("Fact"), ["G"])):
        a, b = (query.evaluate(db, engine="planned") for _ in range(2))
        want = query.evaluate(db)
        assert type(a) is TermResult and len(a) == len(want) == 1
        assert agrees(a, b) == (True, False)
        assert a == want and a.pretty() == want.pretty()


@needs_numpy
def test_a_float_sum_keeps_its_entries_and_still_agrees():
    fact = [((i, f"g{i % 2}", 0.1 * i), 1) for i in range(6)]
    db = analytic_db(fact=fact, groups=2)
    for query in (GroupBy(Table("Fact"), ["G"], {"V": SUM}), Project(Table("Fact"), ["V"])):
        a, b = (query.evaluate(db, engine="planned") for _ in range(2))
        assert agrees(a, b)[0] and a == query.evaluate(db)


@needs_numpy
def test_nan_values_compare_as_the_row_maps_do():
    nan = float("nan")
    fact = [((0, nan, 1.5), 1), ((1, "g1", nan), 2), ((2, "g1", 2.5), 1)]
    db = analytic_db(fact=fact, groups=2)
    for query in (GroupBy(Table("Fact"), ["G"], {"V": MAX}),
                  GroupBy(Table("Fact"), ["G"], {}, count_attr="n"),
                  Project(Table("Fact"), ["G", "V"])):
        a, b = (query.evaluate(db, engine="planned") for _ in range(2))
        agrees(a, b)
        other = analytic_db(fact=[((0, math.nan, 1.5), 1)] + fact[1:], groups=2)
        agrees(a, query.evaluate(other, engine="planned"))


@needs_numpy
def test_keys_three_and_three_point_zero():
    ints = analytic_db(fact=[((0, 3, 1), 1), ((1, 4, 2), 1)])
    floats = analytic_db(fact=[((0, 3.0, 1), 1), ((1, 4, 2), 1)])
    for query in (GroupBy(Table("Fact"), ["G"], {"V": SUM}), Project(Table("Fact"), ["G"])):
        a = query.evaluate(ints, engine="planned")
        b = query.evaluate(floats, engine="planned")
        assert agrees(a, b)[0]


@needs_numpy
@pytest.mark.parametrize("semiring", [NAT, INT, BOOL, TROPICAL], ids=lambda s: s.name)
@pytest.mark.parametrize("name", sorted(ANALYTIC))
def test_hash_and_pickle_read_the_lowered_relation(name, semiring):
    one = {NAT: 2, INT: -1, BOOL: True, TROPICAL: 1.5}[semiring]
    fact = [((i, f"g{i % 4}", i % 5), one) for i in range(20)]
    db = analytic_db(semiring, fact, groups=4)
    query = ANALYTIC[name]
    if name == "A1" and semiring is BOOL:  # B collapses MAX; Z and tropical none
        query = GroupBy(JOINED, ["G"], {"V": MAX})
    elif name == "A1" and semiring is not NAT:
        query = Distinct(Project(JOINED, ["G"]))
    result = query.evaluate(db, engine="planned")
    assert type(result) is TermResult
    assert hash(result) == hash(result.lower())
    fresh = query.evaluate(db, engine="planned")
    copy = pickle.loads(pickle.dumps(fresh))
    assert type(copy) is KRelation and copy == result == query.evaluate(db)


@needs_numpy
def test_the_materialise_span_counts_rows_without_lowering():
    text = explain_analyze(ANALYTIC["A1"], analytic_db())
    line = next(l for l in text.splitlines() if "plan.materialise" in l)
    assert "rows_out=8" in line and "lazy=True" in line and "merge=distinct" in line
    lowers = counted("lower", "arrays")
    from repro.obs.metrics import REGISTRY

    ANALYTIC["A3"].evaluate(analytic_db(), engine="planned").lower()
    assert counted("lower", "arrays") == lowers + 1
    assert 'repro_encoded_kernel_total{op="lower",kernel="arrays"}' in REGISTRY.render()


def test_a_served_answer_over_n_is_the_interpreters_bytes():
    sql = "SELECT G, SUM(V) FROM Fact GROUP BY G"
    db = analytic_db()
    want = json.dumps(relation_to_json(compile_sql(sql).evaluate(db)), default=str).encode()
    handle = start_in_thread(db)
    conn = http.client.HTTPConnection(*handle.address, timeout=30)
    try:
        conn.request("POST", "/query", json.dumps({"sql": sql, "engine": "planned"}))
        response = conn.getresponse()
        body = response.read()
        assert response.status == 200, body
    finally:
        conn.close()
        handle.close()
    assert body.startswith(want[:-1] + b', "elapsed_ms": ')
