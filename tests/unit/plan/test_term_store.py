"""``N[X]`` on the encoded tier: annotations as ids of single terms.

The term store (:mod:`repro.semirings.terms`) interns each ``c·m`` once;
a join multiplies ids by a pair lookup and every sum is one fold per
output.  These cases pin what the planner-equivalence property does not
single out: interning is idempotent across executions, repeated
monomials fold exactly, empty inputs, a generation rollover, the
operators that leave the tier, and how the fold shows in traces and on
the kernel counter.

The module also runs with NumPy blocked (a CI step): there the store is
inert, as :class:`~repro.semirings.base.MachineRepr` promises — ``N[X]``
plans compile to the object tier and answer identically.
"""

import pytest

from repro.core import (
    Aggregate,
    AttrEq,
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
from repro.plan import compile_plan
from repro.plan.encoded import encode_relation
from repro.plan.kernels import HAVE_NUMPY
from repro.semimodules.tensor import tensor_space
from repro.semirings import NX
from repro.semirings.terms import TermStore

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the encoded tier exists only with NumPy"
)

EMP = ("EmpId", "Dept", "Sal")


def emp_db(n=12):
    """Emp rows annotated by tokens, scaled tokens and constants (the
    three single-term shapes); Dept rows by tokens."""
    def tag(i):
        return (NX.variable(f"e{i}"), 2 * NX.variable(f"e{i}"), NX.from_int(3))[i % 3]

    emp = KRelation.from_rows(
        NX, EMP, [((i, f"d{i % 4}", 10 * (1 + i % 3)), tag(i)) for i in range(n)]
    )
    dept = KRelation.from_rows(
        NX, ("Dept", "Region"),
        [((f"d{j}", "EU" if j % 2 else "US"), NX.variable(f"r{j}")) for j in range(4)],
    )
    return KDatabase(NX, {"Emp": emp, "Dept": dept})


JOIN_GROUP = GroupBy(
    Select(NaturalJoin(Table("Emp"), Table("Dept")), [AttrEq("Region", "EU")]),
    ["Dept"], {"Sal": SUM}, count_attr="n",
)

#: Π below ⋈: the projected rows keep their terms, so monomials repeat
PROJECT_JOIN = NaturalJoin(Project(Table("Emp"), ("Dept",)), Table("Dept"))


def test_nx_plans_take_the_tier_numpy_buys():
    db = emp_db()
    plan = compile_plan(JOIN_GROUP, db)
    assert plan.tier == ("encoded" if HAVE_NUMPY else "object")
    assert plan.execute() == JOIN_GROUP.evaluate(db)
    assert f"[last run: {plan.tier}]" in plan.explain()
    if not HAVE_NUMPY:  # the store is inert
        assert encode_relation(db.relation("Emp")) is None
        assert compile_plan(PROJECT_JOIN, db).execute() == PROJECT_JOIN.evaluate(db)


@needs_numpy
class TestTermTier:
    def test_a_second_execution_interns_no_terms(self):
        db = emp_db()
        plan = compile_plan(JOIN_GROUP, db)
        first = plan.execute()
        store = NX.machine_repr
        interned = len(store)
        assert plan.execute() == first
        # a fresh plan re-probes the same products: all hits
        assert compile_plan(JOIN_GROUP, db).execute() == first
        assert NX.machine_repr is store and len(store) == interned
        assert plan._last_tier == "encoded"

    def test_repeated_monomials_fold_exactly(self):
        x, y, z = NX.variables("x", "y", "z")
        r = KRelation.from_rows(
            NX, ("g", "v"),
            [(("a", 1), 2 * x), (("a", 2), 3 * x), (("a", 3), NX.from_int(2)),
             (("a", 4), NX.from_int(3)), (("a", 0), z), (("b", 1), y)],
        )
        s = KRelation.from_rows(NX, ("g",), [(("a",), x), (("b",), NX.one)])
        db = KDatabase(NX, {"R": r, "S": s})
        # Π → ⋈: one tuple's rows repeat monomials, coefficients add up
        query = NaturalJoin(Project(Table("R"), ("g",)), Table("S"))
        plan = compile_plan(query, db)
        result = plan.execute()
        assert result == KRelation.from_rows(
            NX, ("g",), [(("a",), 5 * x * x + 5 * x + x * z), (("b",), y)]
        )
        assert result == query.evaluate(db)
        assert plan._last_tier == "encoded"
        # a group's entries share monomials: its total (COUNT, δ) adds
        # them; SUM's identity 0 is in the total but no entry
        grouped = GroupBy(Table("R"), ["g"], {"v": SUM}, count_attr="n")
        plan = compile_plan(grouped, db)
        result = plan.execute()
        assert result == grouped.evaluate(db)
        assert plan._last_tier == "encoded"
        (row,) = [t for t, _k in result.rows() if t["g"] == "a"]
        assert row["n"] == tensor_space(NX, SUM).simple(5 * x + 5 + z, 1)
        assert 0 not in dict(row["v"].items())

    @pytest.mark.parametrize("query", [
        JOIN_GROUP,
        PROJECT_JOIN,
        Aggregate(Project(Table("Emp"), ("Sal",)), "Sal", SUM),
    ], ids=["group", "project-join", "whole"])
    def test_empty_inputs(self, query):
        db = emp_db()
        db.add("Emp", KRelation.empty(NX, EMP))
        plan = compile_plan(query, db)
        assert plan.execute() == query.evaluate(db)
        assert plan._last_tier == "encoded"

    def test_a_generation_rollover_falls_back_then_reencodes(self, monkeypatch):
        from repro.obs.metrics import ENCODED_KERNEL

        db = emp_db()
        # the scans intern 13 terms beside the 2 pinned, the join 6: a
        # generation of 21 holds one run, not one after two stray terms
        store = TermStore(NX, max_terms=21)
        monkeypatch.setattr(NX, "machine_repr", store)
        store.encode([NX.variable("stray1"), NX.variable("stray2")])
        label = ("terms", "fallback: term store rolled over")
        before = ENCODED_KERNEL.values().get(label, 0)
        want = JOIN_GROUP.evaluate(db)

        plan = compile_plan(JOIN_GROUP, db)
        assert plan.execute() == want
        assert plan._last_tier == "encoded+object fallback"
        assert ENCODED_KERNEL.values().get(label, 0) == before + 1
        assert NX.machine_repr is not store  # the next generation

        # the scans' batches are of the retired generation: they
        # re-encode, and the fresh store holds the whole run
        assert plan.execute() == want
        assert plan._last_tier == "encoded"
        assert len(NX.machine_repr) == 21

    def test_ids_of_a_retired_generation_never_meet_current_ones(self, monkeypatch):
        from repro.plan.encoded import EncodedFallback, encoded_scan
        from repro.plan.physical import _same_machine

        db = emp_db()
        monkeypatch.setattr(NX, "machine_repr", TermStore(NX))
        plan = compile_plan(JOIN_GROUP, db)
        want = plan.execute()
        old = encoded_scan(db, "Emp", db.relation("Emp"))
        monkeypatch.setattr(NX, "machine_repr", TermStore(NX))
        new = encoded_scan(db, "Emp", db.relation("Emp"))
        assert new is not old and new.machine is NX.machine_repr  # re-encoded
        with pytest.raises(EncodedFallback):
            _same_machine(old, new)
        # the plan's own scan cache holds the retired batches: re-encoded too
        assert plan.execute() == want
        assert plan._last_tier == "encoded"

    def test_distinct_over_term_rows_falls_back(self):
        db = emp_db()
        query = Distinct(Project(NaturalJoin(Table("Emp"), Table("Dept")), ("Region",)))
        plan = compile_plan(query, db)
        assert plan.execute() == query.evaluate(db)
        assert "[last run: encoded+object fallback]" in plan.explain()


@needs_numpy
class TestTheFoldIsObservable:
    def test_the_aggregate_span_says_fold_terms_with_rows_in(self):
        from repro.obs import explain_analyze

        text = explain_analyze(JOIN_GROUP, emp_db())
        line = next(l for l in text.splitlines() if "GroupedAggregate[" in l and "ms" in l)
        assert "collapse=fold (terms)" in line
        assert "rows_in=6" in line  # the 6 Emp rows of the EU departments

    def test_the_materialise_span_says_merge_terms(self):
        from repro.obs import explain_analyze

        text = explain_analyze(PROJECT_JOIN, emp_db())
        line = next(l for l in text.splitlines() if "plan.materialise" in l)
        assert "merge=terms" in line

    def test_the_kernel_counter_counts_each_fold(self):
        from repro.obs.metrics import ENCODED_KERNEL

        db = emp_db()
        before = ENCODED_KERNEL.values()
        compile_plan(JOIN_GROUP, db).execute()
        compile_plan(PROJECT_JOIN, db).execute()
        after = ENCODED_KERNEL.values()
        for op in ("aggregate", "consolidate"):
            assert after.get((op, "fold"), 0) == before.get((op, "fold"), 0) + 1
