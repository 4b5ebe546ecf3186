"""What the encoded tier decides once, and when it decides again.

A dictionary is never grown in place, so work that depends only on a
version's dictionaries is kept: a join's probe translation, a union's
merged dictionary and a self-join selection's translation are built once
per pair of dictionaries (``op="translate"``, ``memo`` or ``built``), an
aggregated column is decoded to numbers once per column, and the collapse
kernel checks a dictionary once per monoid.  A ``GROUP BY`` reduces its
totals once, and reads the groups present off the sums where they show
them (``presence=totals``).  Every memo must give way to new dictionaries
after a write.

A stored version is immutable, so work derived from its batches alone is
kept on the plan's operators: a pipeline over a scan keeps its output,
and a join of two such sides its probe buckets (``op="pipeline"`` /
``"probe"``, ``kept`` or ``built``, and ``kept=output|probe`` on the
span).  Each must miss after a write or a term- or gate-store rollover,
keep reporting a fallback, and never keep a parallel morsel's slice.

The answers are checked against the interpreter in every case, so the
object-tier cases run without NumPy; the array cases skip there.
"""

import threading

import pytest

from repro.core import (AttrEq, AttrEqAttr, AvgAgg, GroupBy, KDatabase, KRelation,
                        NaturalJoin, Project, Select, Table, Union)
from repro.monoids import SUM
from repro.monoids.counting import AVG
from repro.obs.analyze import analyze_query
from repro.obs.metrics import ENCODED_KERNEL
from repro.plan import compile_plan, parallel
from repro.plan.encoded import encoded_scan
from repro.plan.kernels import HAVE_NUMPY
from repro.plan.physical import FusedPipeline, HashJoin
from repro.semirings import INT, NAT, NX

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="the memos are the encoded tier's")

FACT = ("Id", "G", "V")
DIM = ("G", "Region")
JOINED = NaturalJoin(Table("Fact"), Table("Dim"))
A1 = GroupBy(JOINED, ["G"], {"V": SUM}, count_attr="N")
A2 = Project(Select(JOINED, [AttrEq("Region", "EU")]), ["G"])
A3 = Union(Project(Select(Table("Fact"), [AttrEq("V", 13)]), ["G"]),
           Project(Table("Dim"), ["G"]))


def analytic_db(semiring=NAT, rows=600, groups=12):
    """``scan_analytic``'s shape, small: Dim in key order, Fact dealt over
    its keys with annotations 1..3 (``-1..1`` over ``Z``, where groups
    may cancel)."""
    ann = (lambda i: 1 + i % 3) if semiring is NAT else (lambda i: i % 3 - 1 or 2)
    fact = [((i, f"g{i * 7 % groups}", i % 17), ann(i)) for i in range(rows)]
    dim = [((f"g{j}", "EU" if j % 2 else "US"), 1) for j in range(groups)]
    return KDatabase(semiring, {
        "Fact": KRelation.from_rows(semiring, FACT, fact),
        "Dim": KRelation.from_rows(semiring, DIM, dim),
    })


def translations(before):
    after = ENCODED_KERNEL.values()
    return {kernel: after.get(("translate", kernel), 0) - before.get(("translate", kernel), 0)
            for kernel in ("memo", "built")}


def kept(before):
    """The reuses and makings of kept results since ``before``."""
    after = ENCODED_KERNEL.values()
    counts = {(op, kernel): after.get((op, kernel), 0) - before.get((op, kernel), 0)
              for op in ("pipeline", "probe") for kernel in ("kept", "built")}
    return {key: n for key, n in counts.items() if n}


#: per warm run of A1, A2 and A3 together: the pipelines over a scan
#: (A2's two, A3's two) and the probes of two lasting sides (A1's, A2's)
WARM = {("pipeline", "kept"): 4, **({("probe", "kept"): 2} if HAVE_NUMPY else {})}


def scan_column(db, table, attr):
    return encoded_scan(db, table, db.relation(table)).col(attr)


@needs_numpy
def test_a_second_evaluation_translates_by_memo_and_decodes_once():
    db = analytic_db()
    first = A1.evaluate(db, engine="planned")
    numbers = scan_column(db, "Fact", "V").numbers
    assert numbers is not None  # the join handed over the scan's very column
    before = ENCODED_KERNEL.values()
    second = A1.evaluate(db, engine="planned")
    # the join's probe of the two unchanged scans is kept: no translation
    assert translations(before) == {"memo": 0, "built": 0}
    assert kept(before) == {("probe", "kept"): 1}
    assert scan_column(db, "Fact", "V").numbers is numbers
    assert first == second == A1.evaluate(db, engine="interpreted")


@needs_numpy
def test_union_and_self_join_selection_translate_once_per_pair():
    db = analytic_db()
    same = Select(Table("Fact"), [AttrEqAttr("Id", "V")])
    # the union merges its kept sides by memo; the selection's whole
    # output is kept, so its translation is not even looked up
    for query, memo, pipelines in ((A3, 1, 2), (same, 0, 1)):
        query.evaluate(db, engine="planned")
        before = ENCODED_KERNEL.values()
        assert query.evaluate(db, engine="planned") == query.evaluate(db, engine="interpreted")
        assert translations(before) == {"memo": memo, "built": 0}
        assert kept(before) == {("pipeline", "kept"): pipelines}


@needs_numpy
@pytest.mark.parametrize("semiring,presence", [(NAT, "totals"), (INT, "scatter")])
def test_the_spans_say_how_the_groups_present_were_found(semiring, presence):
    db = analytic_db(semiring)
    for query, span in ((A1, "GroupedAggregate"), (Project(Table("Fact"), ["G"]), "Fused")):
        result, root, _plan = analyze_query(query, db, tier="encoded")
        assert result == query.evaluate(db, engine="interpreted")
        found = [s for s in _walk(root) if s.name.startswith(span)]
        assert [s.attrs["presence"] for s in found] == [presence]


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


@pytest.mark.parametrize("table,row,grows", [
    ("Dim", (("g99", "EU"), 1), True),
    ("Fact", ((10_000, "g99", 5), 2), True),
    ("Fact", ((10_000, "g3", 5), 2), False),
], ids=["dim", "fact", "fact-known-key"])
def test_a_write_gives_new_dictionaries_only_with_a_new_value(table, row, grows):
    db = analytic_db()
    for query in (A1, A2, A3):
        query.evaluate(db, engine="planned")
        query.evaluate(db, engine="planned")  # every memo filled and hit
    old = scan_column(db, table, "G") if HAVE_NUMPY else None
    db.update({table: KRelation.from_rows(NAT, FACT if table == "Fact" else DIM, [row])})
    if HAVE_NUMPY:
        before = ENCODED_KERNEL.values()
        new = scan_column(db, table, "G")
        # the carried-forward column copies its dictionary before a new
        # value, and shares the old one's facts only while it does not
        assert (new.values is not old.values) is grows
        assert (new.facts is not old.facts) is grows
    for query in (A1, A2, A3):
        assert query.evaluate(db, engine="planned") == query.evaluate(db, engine="interpreted")
    if HAVE_NUMPY:  # the new version's plans start with empty memos
        assert translations(before) == {"memo": 0, "built": 3}


def test_avg_lifts_a_fresh_dictionary_every_run():
    db = analytic_db()
    avg = AvgAgg(Project(Table("Fact"), ("V",)), "V")
    for rows in ([((20_000, "g1", 4), 3)], [((20_001, "g2", 40), 1)]):
        assert avg.evaluate(db, engine="planned") == avg.evaluate(db, engine="interpreted")
        db.update({"Fact": KRelation.from_rows(NAT, FACT, rows)})
    assert avg.evaluate(db, engine="planned") == avg.evaluate(db, engine="interpreted")
    if HAVE_NUMPY:  # the lifted pairs' checks stay with the lifted column
        assert ("collapse", AVG) not in scan_column(db, "Fact", "V").facts


def test_threads_making_the_first_reads_of_one_version_agree():
    db = analytic_db()
    want = [query.evaluate(db, engine="interpreted") for query in (A1, A2, A3)]
    threads, barrier, got, errors = 4, threading.Barrier(4), [], []

    def body():
        try:
            barrier.wait()
            got.append([query.evaluate(db, engine="planned") for query in (A1, A2, A3)])
        except Exception as exc:  # pragma: no cover - the failure path
            errors.append(exc)

    workers = [threading.Thread(target=body) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert not errors, errors
    assert got == [want] * threads
    # whichever racer's entries stand, the next run reuses every one
    before = ENCODED_KERNEL.values()
    assert [query.evaluate(db, engine="planned") for query in (A1, A2, A3)] == want
    assert kept(before) == WARM


# ---------------------------------------------------------------------------
# results kept on the plan's operators
# ---------------------------------------------------------------------------


def operators(op):
    yield op
    for child in op.children:
        yield from operators(child)


def test_a_warm_run_reuses_the_kept_outputs_and_probe():
    db = analytic_db()
    A2.evaluate(db, engine="planned")
    before = ENCODED_KERNEL.values()
    result, root, _plan = analyze_query(A2, db)
    assert result == A2.evaluate(db, engine="interpreted")
    probe = {("probe", "kept"): 1} if HAVE_NUMPY else {}
    assert kept(before) == {("pipeline", "kept"): 2, **probe}
    spans = [s for s in _walk(root) if s.name.startswith(("HashJoin", "Fused"))]
    assert [s.attrs.get("kept") for s in spans] == [
        "probe" if HAVE_NUMPY else None, "output", "output"]
    # a reuse runs no kernel of its own
    assert all("kernel" not in s.attrs for s in spans[1:])


@pytest.mark.parametrize("table,row", [
    ("Dim", (("g99", "EU"), 1)),
    ("Fact", ((10_000, "g3", 5), 2)),
], ids=["dim", "fact"])
def test_a_write_misses_the_results_kept_over_the_written_table(table, row):
    db = analytic_db()
    plans = [compile_plan(query, db) for query in (A1, A2, A3)]
    for plan in plans:
        plan.execute()
        plan.execute()
    db.update({table: KRelation.from_rows(NAT, FACT if table == "Fact" else DIM, [row])})
    before = ENCODED_KERNEL.values()
    for plan, query in zip(plans, (A1, A2, A3)):
        assert plan.execute() == query.evaluate(db, engine="interpreted")
    # one pipeline of A2 and one of A3 read the written table, the other
    # two the unchanged one; both probes read the written table
    probes = {("probe", "built"): 2} if HAVE_NUMPY else {}
    assert kept(before) == {("pipeline", "built"): 2, ("pipeline", "kept"): 2, **probes}
    before = ENCODED_KERNEL.values()
    for plan in plans:
        plan.execute()
    assert kept(before) == WARM


NX_PROJECT_JOIN = NaturalJoin(Project(Table("Emp"), ("Dept",)), Table("Dept"))


def nx_db(tag):
    """Emp over its own tokens (fresh gates for a circuit plan) and a
    smaller Dept, which the join builds on."""
    emp = KRelation.from_rows(NX, ("EmpId", "Dept"), [
        ((i, f"d{i % 4}"), NX.variable(f"{tag}e{i}")) for i in range(12)])
    dept = KRelation.from_rows(NX, ("Dept", "Region"), [
        ((f"d{j}", "EU" if j % 2 else "US"), NX.variable(f"{tag}r{j}")) for j in range(3)])
    return KDatabase(NX, {"Emp": emp, "Dept": dept})


@needs_numpy
def test_a_term_store_rollover_between_runs_misses(monkeypatch):
    from repro.semirings.terms import TermStore

    db = nx_db("terms")
    monkeypatch.setattr(NX, "machine_repr", TermStore(NX))
    plan = compile_plan(NX_PROJECT_JOIN, db)
    want = plan.execute()
    before = ENCODED_KERNEL.values()
    assert plan.execute() == want
    assert kept(before) == {("pipeline", "kept"): 1, ("probe", "kept"): 1}
    monkeypatch.setattr(NX, "machine_repr", TermStore(NX))  # a new generation
    before = ENCODED_KERNEL.values()
    assert plan.execute() == want == NX_PROJECT_JOIN.evaluate(db)
    assert plan._last_tier == "encoded"
    # the scans re-encode into the new generation: new batches miss
    assert kept(before) == {("pipeline", "built"): 1, ("probe", "built"): 1}


@needs_numpy
def test_a_gate_store_rollover_between_runs_misses():
    from repro.circuits import NX_CIRCUITS

    db = nx_db("gates-kept")
    plan = compile_plan(NX_PROJECT_JOIN, db, annotations="circuit")
    want = plan.execute()
    before = ENCODED_KERNEL.values()
    assert plan.execute() == want
    assert kept(before) == {("pipeline", "kept"): 1, ("probe", "kept"): 1}
    builder = NX_CIRCUITS.builder
    cap, builder._max_gates = builder._max_gates, builder.interned_count()
    try:  # a new gate generation, as another query filling the store would start
        builder.var("gates-kept-rollover")
    finally:
        builder._max_gates = cap
    before = ENCODED_KERNEL.values()
    assert plan.execute() == want == NX_PROJECT_JOIN.evaluate(db)
    assert plan._last_tier == "encoded"
    assert kept(before) == {("pipeline", "built"): 1, ("probe", "built"): 1}


@needs_numpy
def test_a_kept_output_that_fell_back_still_reports_the_fallback():
    r = KRelation.from_rows(NAT, ("g", "a"), [(("x", 1), 2), (("x", 2), 3)])
    db = KDatabase(NAT, {"R": r})
    query = Project(Table("R"), ())  # the empty projection merges boxed
    plan = compile_plan(query, db)
    want = plan.execute()
    assert "[last run: encoded+object fallback]" in plan.explain()
    compile_plan(Table("R"), db).execute()  # a clean run in between
    before = ENCODED_KERNEL.values()
    assert plan.execute() == want == query.evaluate(db)
    assert kept(before) == {("pipeline", "kept"): 1}
    assert "[last run: encoded+object fallback]" in plan.explain()


@needs_numpy
def test_a_join_keeps_no_buckets_over_a_side_it_decoded():
    """An encoded side that meets a boxed one is decoded afresh on every
    run, so the object join keeps no bucket table over it."""
    big = [((i, f"g{i % 10}"), 2 ** 70 if i == 0 else 1) for i in range(201)]
    small = [((f"g{j}", j), 1) for j in range(10)]
    db = KDatabase(NAT, {"B": KRelation.from_rows(NAT, ("Id", "G"), big),
                         "S": KRelation.from_rows(NAT, ("G", "W"), small)})
    query = NaturalJoin(Table("B"), Table("S"))
    plan = compile_plan(query, db)
    (join,) = [op for op in operators(plan.root) if isinstance(op, HashJoin)]
    for _run in range(2):
        assert plan.execute() == query.evaluate(db, engine="interpreted")
        assert plan._last_tier == "encoded+object fallback", plan._last_tier
        assert "object" not in join._build_cache


@needs_numpy
@pytest.mark.parametrize("query", [A2, A3], ids=["A2", "A3"])
def test_a_parallel_run_keeps_no_slice(query, monkeypatch):
    monkeypatch.setattr(parallel, "effective_workers", lambda: 2)
    db = analytic_db(rows=4000)
    plan = compile_plan(query, db, tier="parallel")
    try:
        for _run in range(2):
            assert plan.execute() == query.evaluate(db, engine="interpreted")
            assert plan._last_tier.startswith("parallel"), plan._last_tier
    finally:
        parallel.cleanup()
    images = {id(encoded_scan(db, name, db.relation(name))) for name in ("Fact", "Dim")}
    pipelines = [op for op in operators(plan.root) if isinstance(op, FusedPipeline)]
    # an entry is ((input batch, ...), result); a pipeline's result is
    # (output, whether it fell back)
    outputs = {id(entry[1][0]) for op in pipelines for entry in op._kept.values()}
    kept_inputs = [entry[0][0] for op in pipelines for entry in op._kept.values()]
    for join in (op for op in operators(plan.root) if isinstance(op, HashJoin)):
        kept_inputs += [entry[0][0] for key, entry in join._build_cache.items()
                        if key in ("encoded", "buckets")]
    # the Dim side ran whole in some morsel and is kept; the Fact side,
    # the table the morsels split, only ever saw slices
    assert kept_inputs
    assert all(id(batch) in images | outputs for batch in kept_inputs)
    fact_side = [op for op in pipelines if op.children[0].name == "Fact"]
    assert [op._kept for op in fact_side] == [{}]

