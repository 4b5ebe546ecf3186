"""EXPLAIN ANALYZE agreement tests: the measured span tree must tell the
same story as the static ``explain()`` text — same tier, same morsel
fan-out, honest fallback causes — on every engine the repo has."""

import re

import pytest

from repro.core import (
    AttrEq,
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
from repro.monoids import SUM
from repro.obs import trace
from repro.obs.analyze import analyze_query, explain_analyze
from repro.plan import compile_plan
from repro.semirings import NAT


@pytest.fixture(autouse=True)
def _no_trace_left_open():
    yield
    assert not trace.tracing_active()


def sales_db(rows: int = 24) -> KDatabase:
    groups = ["g0", "g1", "g2", "g3"]
    r = KRelation.from_rows(
        NAT,
        ("g", "v"),
        [((groups[i % 4], i % 7), 1 + i % 3) for i in range(rows)],
    )
    s = KRelation.from_rows(NAT, ("g",), [((g,), 2) for g in groups[:3]])
    return KDatabase(NAT, {"R": r, "S": s})


GROUP_QUERY = GroupBy(
    NaturalJoin(Table("R"), Table("S")), ["g"], {"v": SUM}, count_attr="n"
)


def all_spans(root):
    spans = [root]
    for child in root.children:
        spans.extend(all_spans(child))
    return spans


def span_names(root):
    return [s.name for s in all_spans(root)]


def find_span(root, name):
    if root.name == name:
        return root
    for child in root.children:
        found = find_span(child, name)
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# per-engine agreement
# ---------------------------------------------------------------------------


def test_interpreted_engine_traces_without_a_plan():
    db = sales_db()
    result, root, plan = analyze_query(GROUP_QUERY, db, engine="interpreted")
    assert plan is None
    assert result == GROUP_QUERY.evaluate(db)
    assert root.attrs["engine"] == "interpreted"
    assert root.attrs["rows_out"] == len(result)
    assert "interpret" in span_names(root)
    text = explain_analyze(GROUP_QUERY, db, engine="interpreted")
    assert "engine: interpreted (no physical plan)" in text
    assert "analyze (trace " in text


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        analyze_query(GROUP_QUERY, sales_db(), engine="quantum")


@pytest.mark.parametrize("tier", ["object", "encoded"])
def test_serial_tiers_span_tree_agrees_with_explain(tier):
    db = sales_db()
    result, root, plan = analyze_query(GROUP_QUERY, db, tier=tier)
    assert result == GROUP_QUERY.evaluate(db)
    # the root's tier attribute is exactly what explain() reports ran
    assert root.attrs["tier"] == plan._last_tier == tier
    assert f"[last run: {tier}]" in plan.explain()
    execute = find_span(root, "plan.execute")
    assert execute is not None
    assert execute.attrs["tier"] == tier
    # every operator in the plan text shows up as a measured span
    names = span_names(root)
    assert any(n.startswith("GroupedAggregate") for n in names)
    assert any(n.startswith("Scan R") for n in names)
    agg = next(s for s in all_spans(root)
               if s.name.startswith("GroupedAggregate"))
    assert agg.attrs["rows_out"] == len(result)


def test_encoded_tier_records_annotation_array_bytes():
    db = sales_db()
    _result, root, plan = analyze_query(GROUP_QUERY, db, tier="encoded")
    assert plan._last_tier == "encoded"
    sized = [s for s in all_spans(root) if "ann_bytes" in s.attrs]
    assert sized, "no span recorded annotation-array bytes"
    assert all(s.attrs["ann_bytes"] > 0 for s in sized)


def test_parallel_tier_morsel_count_agrees_with_explain():
    db = sales_db(64)
    result, root, plan = analyze_query(GROUP_QUERY, db, tier="parallel")
    assert result == GROUP_QUERY.evaluate(db)
    assert plan._last_tier.startswith("parallel (")
    assert root.attrs["tier"] == plan._last_tier

    # explain's parallel line and the span attrs name the same fan-out
    match = re.search(r"parallel: (\d+) workers × (\d+) morsels",
                      plan.explain())
    assert match, plan.explain()
    workers, morsels = int(match.group(1)), int(match.group(2))
    execute = find_span(root, "plan.execute")
    assert execute.attrs["workers"] == workers
    assert execute.attrs["morsels"] == morsels

    # one grafted worker span tree per morsel, keyed by morsel id
    morsel_spans = [c for c in execute.children
                    if re.fullmatch(r"morsel \d+", c.name)]
    assert len(morsel_spans) == morsels
    assert sorted(c.attrs["morsel"] for c in morsel_spans) == list(
        range(morsels)
    )
    # worker spans carry real measurements, not placeholders
    assert all(c.wall_s > 0 for c in morsel_spans)


def test_forced_parallel_fallback_names_the_cause():
    db = sales_db()
    query = Distinct(Table("R"))  # δ on the driver path is non-linear
    result, root, plan = analyze_query(query, db, tier="parallel")
    assert result == query.evaluate(db)
    assert "parallel fallback" in plan._last_tier
    assert root.attrs["tier"] == plan._last_tier
    execute = find_span(root, "plan.execute")
    assert "fallback" in execute.attrs, execute.attrs
    # the span's cause is the same reason explain() gives
    assert "δ on the driver path" in execute.attrs["fallback"]
    assert "parallel: unavailable" in plan.explain()


# ---------------------------------------------------------------------------
# the rendered text
# ---------------------------------------------------------------------------


def test_explain_analyze_renders_plan_then_trace():
    db = sales_db()
    text = explain_analyze(GROUP_QUERY, db, tier="encoded")
    plan = compile_plan(GROUP_QUERY, db, tier="encoded")
    explain_head = plan.explain().splitlines()[0]
    assert text.splitlines()[0] == explain_head
    assert "analyze (trace " in text
    assert "plan.execute" in text
    assert "rows_out=" in text
    assert "ms wall" in text


def test_explicit_trace_id_lands_in_the_rendered_header():
    db = sales_db()
    text = explain_analyze(GROUP_QUERY, db, tier="object",
                           trace_id="cafecafecafecafe")
    assert "analyze (trace cafecafecafecafe):" in text


# ---------------------------------------------------------------------------
# the batch -> relation boundary: plan.materialise
# ---------------------------------------------------------------------------


def analytic_db():
    """``scan_analytic``'s shape: a fact table dealt over a dimension's
    keys (one ``Dim`` row per ``G``)."""
    fact = [((i, f"g{i % 5}", i % 7), 1 + i % 3) for i in range(60)]
    dim = [((f"g{j}", "EU" if j % 2 else "US"), 1) for j in range(5)]
    return KDatabase(NAT, {
        "Fact": KRelation.from_rows(NAT, ("Id", "G", "V"), fact),
        "Dim": KRelation.from_rows(NAT, ("G", "Region"), dim),
    })


JOINED = NaturalJoin(Table("Fact"), Table("Dim"))
BOUNDARY = [
    ("A1", GroupBy(JOINED, ["G"], {"V": SUM}, count_attr="N"), "encoded", "distinct"),
    ("A2", Project(Select(JOINED, [AttrEq("Region", "EU")]), ["G"]), "encoded",
     "distinct"),
    ("A3", Union(Project(Select(Table("Fact"), [AttrEq("V", 3)]), ["G"]),
                 Project(Table("Dim"), ["G"])), "encoded", "kernel"),
    ("object union", Union(Project(Table("Fact"), ["G"]), Project(Table("Dim"), ["G"])),
     "object", "python"),
]


@pytest.mark.parametrize("name,query,tier,merge", BOUNDARY,
                         ids=[b[0] for b in BOUNDARY])
def test_the_boundary_is_a_span_that_names_its_merge(name, query, tier, merge):
    db = analytic_db()
    result, root, plan = analyze_query(query, db, tier=tier)
    assert result == query.evaluate(db)
    assert plan._last_tier == tier
    # a sibling of plan.execute: the time between the root operator and
    # the returned relation is attributed
    assert [c.name for c in root.children] == ["plan.execute", "plan.materialise"]
    span = root.children[1]
    assert span.attrs["merge"] == merge
    assert span.attrs["rows_out"] == len(result)
    rows_in = plan.execute_batch()
    assert span.attrs["rows_in"] == len(rows_in) >= len(result)
    assert ("kernel" in span.attrs) == (merge == "kernel")
    assert "plan.materialise" in explain_analyze(query, db, tier=tier)


def test_an_untraced_boundary_opens_no_span(monkeypatch):
    db = analytic_db()
    plan = compile_plan(BOUNDARY[2][1], db)
    want = plan.execute()
    opened = []
    monkeypatch.setattr(trace, "span", lambda *a, **k: opened.append(a))
    assert plan.execute() == want
    assert opened == []


def test_circuit_mode_runs_the_circuit_plan_it_reports():
    from repro.circuits import CircuitSemiring
    from repro.semirings import NX

    nat = sales_db()
    db = KDatabase(NX, {
        name: KRelation(NX, rel.schema, [
            (tup, NX.variable(f"{name}{i}")) for i, (tup, _k) in enumerate(rel.rows())
        ])
        for name, rel in nat
    })
    result, _root, plan = analyze_query(GROUP_QUERY, db, annotations="circuit")
    assert plan.annotations == "circuit"
    assert isinstance(result.circuit_relation.semiring, CircuitSemiring)
    assert result.lower() == GROUP_QUERY.evaluate(db)
    assert "annotations: circuit" in explain_analyze(GROUP_QUERY, db, annotations="circuit")


def test_analyzing_a_query_twice_runs_its_one_cached_plan(monkeypatch):
    from repro.plan import compiler

    db = sales_db()
    compiled = []
    compile_once = compiler.compile_plan

    def counting(*args, **kwargs):
        compiled.append(args)
        return compile_once(*args, **kwargs)

    monkeypatch.setattr(compiler, "compile_plan", counting)
    _result, _root, first = analyze_query(GROUP_QUERY, db)
    result, root, again = analyze_query(GROUP_QUERY, db)
    assert len(compiled) == 1
    assert again is first is GROUP_QUERY._cached_plan(db)
    assert root.attrs["tier"] == first._last_tier
    assert result == GROUP_QUERY.evaluate(db)
    # a pinned tier compiles a plan of its own
    _result, _root, pinned = analyze_query(GROUP_QUERY, db, tier="object")
    assert len(compiled) == 2 and pinned is not first
