"""``N[X]`` on the encoded tier: annotations as ids of single terms.

The term store (:mod:`repro.semirings.terms`) interns each ``c·m`` once;
a join multiplies ids by a pair lookup and every sum is one fold per
output.  These cases pin what the planner-equivalence property does not
single out: interning is idempotent across executions, repeated
monomials fold exactly, empty inputs, a generation rollover, the
operators that leave the tier, and how the fold shows in traces and on
the kernel counter.  They also pin the array pass of a homomorphism into
``N``, ``Z`` or ``B`` over a planned result's runs (a
:class:`~repro.plan.term_result.TermResult`): which results it maps, each
fallback and its count, its int64 guard, and that the runs are a
derivation, never part of a value.

The module also runs with NumPy blocked (a CI step): there the store is
inert, as :class:`~repro.semirings.base.MachineRepr` promises — ``N[X]``
plans compile to the object tier and answer identically, and every
homomorphism maps by the walk.
"""

import copy
import pickle

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
from repro.exceptions import HomomorphismError
from repro.io.serialize import relation_to_jsonable
from repro.obs.metrics import ENCODED_KERNEL
from repro.plan import compile_plan, kernels
from repro.plan.encoded import encode_relation
from repro.plan.kernels import HAVE_NUMPY
from repro.plan.term_result import TermResult
from repro.semimodules.tensor import Tensor, tensor_space
from repro.semirings import BOOL, INT, NAT, NX, TROPICAL, valuation_hom
from repro.semirings.delta import DeltaTerm
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

    @pytest.mark.parametrize("query", [PROJECT_JOIN, JOIN_GROUP], ids=["consolidate", "group"])
    def test_the_materialise_span_says_merge_runs(self, query):
        from repro.obs import explain_analyze

        text = explain_analyze(query, emp_db())
        line = next(l for l in text.splitlines() if "plan.materialise" in l)
        assert "merge=runs" in line

    def test_the_kernel_counter_counts_each_fold(self):
        from repro.obs.metrics import ENCODED_KERNEL

        db = emp_db()
        before = ENCODED_KERNEL.values()
        compile_plan(JOIN_GROUP, db).execute()
        compile_plan(PROJECT_JOIN, db).execute()
        after = ENCODED_KERNEL.values()
        for op in ("aggregate", "consolidate"):
            assert after.get((op, "fold"), 0) == before.get((op, "fold"), 0) + 1


# ---------------------------------------------------------------------------
# homomorphisms over a planned result: the array pass and its fallbacks
# ---------------------------------------------------------------------------


def hom_count(kernel):
    return ENCODED_KERNEL.values().get(("hom", kernel), 0)


def image(token):
    """A valuation into N: ``e<i>`` to ``i % 3``, ``r<j>`` to ``j``."""
    return int(token[1:]) % 3 if token[0] == "e" else int(token[1:])


def folds(rel):
    """The term-store folds a planned result keeps its sums in."""
    assert isinstance(rel, TermResult)
    return [rel._totals] + [fold for fold, _space in rel._aggs.values()]


def generations(rel):
    """The term stores the runs of ``rel`` point into."""
    return {fold.store for fold in folds(rel)}


def scalars(rel):
    """Every annotation and tensor scalar of ``rel``, and the arguments of
    its ``δ`` annotations."""
    out = []
    for tup, annotation in rel.rows():
        out.append(annotation)
        out.extend(var.argument for mono in annotation._terms for var in mono._powers
                   if isinstance(var, DeltaTerm))
        out.extend(k for v in tup.values() if isinstance(v, Tensor) for _m, k in v.items())
    return out


@needs_numpy
class TestAPlannedResultMapsAsArrays:
    @pytest.mark.parametrize("target, valuation", [
        (NAT, image),
        (INT, lambda t: image(t) - 1),
        (BOOL, lambda t: image(t) != 1),
    ], ids=["N", "Z", "B"])
    def test_the_join_group_by_maps_as_one_array_pass(self, target, valuation):
        db = emp_db()
        hom = valuation_hom(NX, target, valuation)
        want = JOIN_GROUP.evaluate(db).apply_hom(hom)  # the walk
        result = JOIN_GROUP.evaluate(db, engine="planned")
        before = hom_count("array")
        got = result.apply_hom(hom)
        assert got == want
        assert hom_count("array") == before + 1
        for tup, annotation in got.rows():
            assert type(annotation) is type(want.annotation(tup))

    def test_an_interpreter_result_takes_the_walk(self):
        result = JOIN_GROUP.evaluate(emp_db())
        before = hom_count("fallback: no term runs")
        result.apply_hom(valuation_hom(NX, NAT, image))
        assert hom_count("fallback: no term runs") == before + 1

    @pytest.mark.parametrize("target, valuation, cause", [
        (TROPICAL, lambda t: 1.0, "target has no native type"),
        (NAT, lambda t: True, "non-native image"),
        (NAT, lambda t: 2 ** 70, "int64 bound"),
    ], ids=["tropical", "bool-into-N", "past-int64"])
    def test_each_fallback_is_counted_with_its_cause(self, target, valuation, cause):
        db = emp_db()
        hom = valuation_hom(NX, target, valuation)
        want = JOIN_GROUP.evaluate(db).apply_hom(hom)
        result = JOIN_GROUP.evaluate(db, engine="planned")
        before = hom_count(f"fallback: {cause}")
        assert result.apply_hom(hom) == want
        assert hom_count(f"fallback: {cause}") == before + 1

    def test_a_structured_variable_takes_the_walk(self):
        x, y = NX.variables("x", "y")
        r = KRelation.from_rows(NX, ("g", "v"), [
            (("a", 1), NX.delta(x + y)), (("a", 2), x), (("b", 1), y),
        ])
        db = KDatabase(NX, {"R": r})
        query = GroupBy(Table("R"), ["g"], {"v": SUM})
        hom = valuation_hom(NX, NAT, {"x": 2, "y": 0})
        want = query.evaluate(db).apply_hom(hom)
        before = hom_count("fallback: structured variable")
        assert query.evaluate(db, engine="planned").apply_hom(hom) == want
        assert hom_count("fallback: structured variable") == before + 1

    def test_the_int64_guard_hands_a_large_image_to_the_walk_exactly(self):
        x, y = NX.variables("x", "y")
        r = KRelation.from_rows(NX, ("g", "v"), [(("a", 1), 3 * x)])
        s = KRelation.from_rows(NX, ("g",), [(("a",), y)])
        db = KDatabase(NX, {"R": r, "S": s})
        query = Project(NaturalJoin(Table("R"), Table("S")), ("g",))
        result = query.evaluate(db, engine="planned")
        assert type(result) is TermResult
        (annotation,) = [k for _t, k in result.rows()]  # lowers; the runs stay
        assert annotation == 3 * x * y
        before = hom_count("fallback: int64 bound")
        calls = []

        def huge(token):
            calls.append(token)
            return 2 ** 40

        got = result.apply_hom(valuation_hom(NX, NAT, huge))
        (value,) = [k for _t, k in got.rows()]
        assert value == 3 * 2 ** 80 and type(value) is int
        assert hom_count("fallback: int64 bound") == before + 1
        assert sorted(calls) == ["x", "y"]  # the walk reuses the array pass's images

    def test_a_mapping_missing_a_reached_token_names_it(self):
        result = JOIN_GROUP.evaluate(emp_db(), engine="planned")
        valuation = {f"e{i}": 1 for i in range(12)}  # no r<j>: d1's r1 is reached
        with pytest.raises(HomomorphismError, match="'r1'"):
            result.apply_hom(valuation_hom(NX, NAT, valuation))

    def test_runs_of_a_retired_generation_still_map_exactly(self, monkeypatch):
        from repro.plan.encoded import EncodedFallback

        db = emp_db()
        hom = valuation_hom(NX, NAT, image)
        interpreted = JOIN_GROUP.evaluate(db)
        want = interpreted.apply_hom(hom)
        # one run of the plan fills a generation of 21 (see the rollover
        # case above): the next miss starts the next generation
        store = TermStore(NX, max_terms=21)
        monkeypatch.setattr(NX, "machine_repr", store)
        old = JOIN_GROUP.evaluate(db, engine="planned")
        with pytest.raises(EncodedFallback):
            store.encode([NX.variable("stray")])
        assert NX.machine_repr is not store
        new = JOIN_GROUP.evaluate(db, engine="planned")
        live = NX.machine_repr
        assert generations(old) == {store} and generations(new) == {live}
        before = hom_count("array")
        assert old.apply_hom(hom) == want
        assert hom_count("array") == before + 1
        # runs of both generations in one pass: refused, the walk maps
        before = hom_count("fallback: two generations")
        images, walk = hom.map_folds(folds(old) + folds(new))
        assert images is None and walk.source is NX
        assert hom_count("fallback: two generations") == before + 1
        (d1,) = [(t, k) for t, k in old.rows() if t["Dept"] == "d1"]
        (d3,) = [(t, k) for t, k in new.rows() if t["Dept"] == "d3"]
        mixed = KRelation(NX, old.schema, dict([d1, d3]))
        assert mixed == interpreted and mixed.apply_hom(walk) == want

    def test_a_run_is_never_compared_hashed_pickled_or_serialised(self):
        db = emp_db()
        planned = JOIN_GROUP.evaluate(db, engine="planned")
        interpreted = JOIN_GROUP.evaluate(db)
        assert folds(planned)
        for twin in (pickle.loads(pickle.dumps(planned)), copy.copy(planned),
                     copy.deepcopy(planned)):
            assert type(twin) is KRelation  # the plain relation, no runs
            assert twin == planned and hash(twin) == hash(planned)
        for poly in scalars(planned):
            assert not hasattr(poly, "_run")
        assert planned == interpreted and hash(planned) == hash(interpreted)
        assert relation_to_jsonable(planned) == relation_to_jsonable(interpreted)
        assert pickle.loads(pickle.dumps(planned)) == interpreted


def test_without_numpy_the_walk_maps_a_planned_result_alike(monkeypatch):
    db = emp_db()
    hom = valuation_hom(NX, NAT, image)
    result = JOIN_GROUP.evaluate(db, engine="planned")
    want = result.apply_hom(hom)
    assert want == JOIN_GROUP.evaluate(db).apply_hom(hom)
    monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
    before = hom_count("fallback: no NumPy")
    assert result.apply_hom(hom) == want
    assert hom_count("fallback: no NumPy") == before + 1
