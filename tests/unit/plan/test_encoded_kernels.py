"""Codes are addresses: the scatter is the sort, the slot table is the search.

``kernels.reduce_by_key`` and the encoded ``HashJoin`` probe each have a
direct-address path (taken while the key space is within
``kernels.direct`` of the row count) and a sort-based one.  This file
holds the two to identical output, pins the bound at its edge, and guards
— without a clock — that the benchmark's query shapes actually run the
direct path: the span attribute ``kernel=`` and the counter
``repro_encoded_kernel_total{op,kernel}`` say which one ran.
"""

import random

import pytest

np = pytest.importorskip("numpy")  # the encoded tier exists only with NumPy

from repro.core import (AttrEq, GroupBy, KDatabase, KRelation, NaturalJoin,
                        Project, Select, Table, Union)
from repro.monoids import SUM
from repro.obs.analyze import analyze_query
from repro.obs.metrics import ENCODED_KERNEL, REGISTRY
from repro.plan import compile_plan, kernels, parallel, set_default_workers
from repro.plan.kernels import direct, reduce_by_key
from repro.semirings import BOOL, FUZZY, INT, NAT, TROPICAL

MACHINE_SEMIRINGS = [NAT, INT, BOOL, TROPICAL, FUZZY]


# ---------------------------------------------------------------------------
# reduce_by_key: direct == sorted == the definition
# ---------------------------------------------------------------------------


def plus_of(semiring):
    return getattr(np, semiring.machine_repr.np_plus)


def annotations(semiring, rng, n):
    """``n`` machine annotations; the int64 ones carry one ``2**62`` so an
    accumulator that is not int64 (or a sum that wraps) would show."""
    dtype = np.dtype(semiring.machine_repr.dtype)
    if dtype.kind == "i":
        values = [rng.randrange(-3 if semiring is INT else 0, 4) for _ in range(n)]
        if n:
            values[rng.randrange(n)] = 2 ** 62
    elif dtype.kind == "b":
        values = [rng.random() < 0.3 for _ in range(n)]
    else:
        values = [rng.random() for _ in range(n)]
    return np.asarray(values, dtype=dtype)


def by_definition(semiring, keys, values):
    """``(ascending keys, first row of each, +_K fold)`` in plain Python."""
    first, total = {}, {}
    for i, (k, v) in enumerate(zip(keys.tolist(), values.tolist())):
        first.setdefault(k, i)
        total[k] = semiring.plus(total[k], v) if k in total else v
    order = sorted(first)
    return order, [first[k] for k in order], [total[k] for k in order]


def both_paths(semiring, keys, values, space, monkeypatch):
    ufunc, zero = plus_of(semiring), semiring.zero
    taken = reduce_by_key(keys, values, ufunc, space, zero)
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "direct", lambda space, rows: False)
        by_sort = reduce_by_key(keys, values, ufunc, space, zero)
    return taken, by_sort


def assert_same_triple(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def key_space_cases(n):
    bound = 4 * n + 1024
    return [("one", 1), ("rows", max(1, n)), ("at the bound", bound),
            ("past the bound", bound + 1)]


@pytest.mark.parametrize("semiring", MACHINE_SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("n", [0, 1, 7, 300])
def test_the_scatter_is_the_sort(semiring, n, monkeypatch):
    rng = random.Random(f"{semiring.name}:{n}")
    for label, space in key_space_cases(n):
        for shape in ("random", "one key", "all distinct"):
            if shape == "random":
                keys = [rng.randrange(space) for _ in range(n)]
            elif shape == "one key":
                keys = [space - 1] * n
            elif space >= n:
                keys = rng.sample(range(space), n)
            else:
                continue
            keys = np.asarray(keys, dtype=np.int64)
            values = annotations(semiring, rng, n)
            taken, by_sort = both_paths(semiring, keys, values, space, monkeypatch)
            assert_same_triple(taken, by_sort)
            unique, rep, sums = taken
            assert unique.dtype == rep.dtype == np.int64
            assert sums.dtype == values.dtype
            want = by_definition(semiring, keys, values)
            assert (unique.tolist(), rep.tolist(), sums.tolist()) == (
                want[0], want[1], want[2]), (label, shape)


def test_the_bound_is_exact_and_the_paths_are_the_ones_named(monkeypatch):
    n = 50
    assert direct(4 * n + 1024, n) and not direct(4 * n + 1025, n)
    sorts = []
    real = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(1) or real(*a, **k))
    keys = np.arange(n, dtype=np.int64)
    values = np.ones(n, dtype=np.int64)
    reduce_by_key(keys, values, np.add, 4 * n + 1024, 0)
    assert sorts == []  # at the bound: no sort
    reduce_by_key(keys, values, np.add, 4 * n + 1025, 0)
    assert sorts == [1]  # one past it: the sort, and no space-sized array


def test_a_huge_sparse_key_space_allocates_nothing_of_its_size():
    keys = np.asarray([5, (1 << 61) + 1, 5], dtype=np.int64)
    values = np.asarray([1, 2, 3], dtype=np.int64)
    unique, rep, sums = reduce_by_key(keys, values, np.add, 1 << 62, 0)
    assert (unique.tolist(), rep.tolist(), sums.tolist()) == (
        [5, (1 << 61) + 1], [0, 1], [4, 2])


@pytest.mark.parametrize("space", [4, 4 * 6 + 1025])
def test_read_only_inputs_are_not_written(space):
    # what a pool worker holds: views of a shared-memory segment
    keys = np.asarray([3, 1, 3, 0, 1, 3], dtype=np.int64)
    values = np.asarray([1, 2, 3, 4, 5, 2 ** 62], dtype=np.int64)
    keys.setflags(write=False)
    values.setflags(write=False)
    unique, rep, sums = reduce_by_key(keys, values, np.add, space, 0)
    assert (unique.tolist(), rep.tolist(), sums.tolist()) == (
        [0, 1, 3], [3, 1, 0], [4, 7, 2 ** 62 + 4])


# ---------------------------------------------------------------------------
# which kernel ran: the counter and the spans
# ---------------------------------------------------------------------------


def kernel_counts():
    return dict(ENCODED_KERNEL.values())


def counted(before):
    after = kernel_counts()
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def span_kernels(span, found=None):
    """``[(span name, kernel attribute)]`` over a span tree."""
    found = [] if found is None else found
    if "kernel" in span.attrs:
        found.append((span.name, span.attrs["kernel"]))
    for child in span.children:
        span_kernels(child, found)
    return found


# ---------------------------------------------------------------------------
# the join probe: slot table == searchsorted == the object tier
# ---------------------------------------------------------------------------


def join_db(left, right, semiring=NAT):
    return KDatabase(semiring, {
        "L": KRelation.from_rows(semiring, ("id", "a", "b"), left),
        "R": KRelation.from_rows(semiring, ("a", "b", "w"), right),
    })


def run_join(db, expect_kernel):
    query = NaturalJoin(Table("L"), Table("R"))  # the smaller side, R, builds
    want = compile_plan(query, db, tier="object").execute()
    assert want == query.evaluate(db, engine="interpreted")
    plan = compile_plan(query, db, tier="encoded")
    before = kernel_counts()
    got = plan.execute()
    assert plan._last_tier == "encoded", plan._last_tier
    assert counted(before) == {("join", expect_kernel): 1}
    assert got == want and got.pretty() == want.pretty()
    return got


def test_probe_values_absent_from_the_build_dictionary_match_nothing():
    left = [((i, f"a{i % 7}", i % 3), 1 + i % 2) for i in range(40)]
    right = [((f"a{j}", j % 3, j), 2) for j in range(0, 7, 2)]  # a1, a3, a5 absent
    got = run_join(join_db(left, right), "direct")
    assert 0 < len(got) < 40
    assert {t["a"] for t, _k in got.rows()} <= {"a0", "a2", "a4", "a6"}


def test_an_empty_build_side_joins_to_nothing():
    left = [((i, "a", i), 1) for i in range(5)]
    assert len(run_join(join_db(left, []), "direct")) == 0


def test_duplicate_build_keys_fan_out_n_to_m():
    left = [((i, "a", 0), 1 + i) for i in range(6)] + [((9, "z", 0), 1)]
    right = [(("a", 0, j), 2 + j) for j in range(4)] + [(("q", 0, 0), 1)]
    got = run_join(join_db(left, right, INT), "direct")
    assert len(got) == 6 * 4
    assert sum(k for _t, k in got.rows()) == sum(range(1, 7)) * sum(range(2, 6))


@pytest.mark.parametrize("distinct,kernel", [(6, "direct"), (40, "sorted")])
def test_a_two_column_key_under_and_over_the_bound(distinct, kernel):
    # the build code space is distinct**2: 36 <= 4*40 + 1024 < 1600
    right = [((f"a{j % distinct}", (7 * j) % distinct, j), 1 + j % 3) for j in range(40)]
    left = [((i, f"a{i % (distinct + 2)}", (3 * i) % (distinct + 1)), 1 + i % 2)
            for i in range(90)]
    got = run_join(join_db(left, right), kernel)
    assert len(got) > 0


# ---------------------------------------------------------------------------
# the guard: the benchmark's shapes run direct, and a slide would show
# ---------------------------------------------------------------------------


def analytic_db(rows=4096, groups=20):
    """``scan_analytic``'s tables at 1/50 scale (same shape: a fact table
    dealt over ``groups`` keys and 97 values, annotations 1..3)."""
    rng = random.Random(7)
    fact = [((i, f"g{rng.randrange(groups)}", rng.randrange(97)), 1 + i % 3)
            for i in range(rows)]
    dim = [((f"g{j}", "EU" if j % 2 else "US"), 1) for j in range(groups)]
    return KDatabase(NAT, {
        "Fact": KRelation.from_rows(NAT, ("Id", "G", "V"), fact),
        "Dim": KRelation.from_rows(NAT, ("G", "Region"), dim),
    })


JOINED = NaturalJoin(Table("Fact"), Table("Dim"))
ANALYTIC = {
    "A1": GroupBy(JOINED, ["G"], {"V": SUM}, count_attr="N"),
    "A2": Project(Select(JOINED, [AttrEq("Region", "EU")]), ["G"]),
    "A3": Union(Project(Select(Table("Fact"), [AttrEq("V", 13)]), ["G"]),
                Project(Table("Dim"), ["G"])),
}
#: per query: how many joins, duplicate merges and grouped aggregations.
#: A2's projection runs below its join, on each side (Π below ⋈), and the
#: join of those two merged sides is its result; A3's union may repeat a
#: row, so the plan's boundary merges it once more (``plan.materialise``).
KERNEL_OPS = {
    "A1": {"join": 1, "aggregate": 1},
    "A2": {"join": 1, "consolidate": 2},
    "A3": {"consolidate": 3},
}
#: of which the boundary merge, which runs in the parent alone
BOUNDARY_MERGES = {"A1": 0, "A2": 0, "A3": 1}


def kernels_of(name, db, tier):
    """``(counter delta, [(span, kernel)])`` of one traced run on ``tier``."""
    before = kernel_counts()
    result, root, plan = analyze_query(ANALYTIC[name], db, tier=tier)
    assert plan._last_tier.startswith(tier), plan._last_tier
    assert result == compile_plan(ANALYTIC[name], db, tier="object").execute()
    return counted(before), span_kernels(root)


@pytest.mark.parametrize("name", sorted(ANALYTIC))
def test_the_analytic_shapes_run_direct_on_every_join_and_reduction(name):
    counts, spans = kernels_of(name, analytic_db(), "encoded")
    assert counts == {(op, "direct"): n for op, n in KERNEL_OPS[name].items()}
    assert len(spans) == sum(KERNEL_OPS[name].values())
    assert {kernel for _span, kernel in spans} == {"direct"}
    text = REGISTRY.render()
    for op in KERNEL_OPS[name]:
        assert f'repro_encoded_kernel_total{{op="{op}",kernel="direct"}}' in text


@pytest.mark.parametrize("name", sorted(ANALYTIC))
def test_morsel_spans_bring_the_workers_kernels_home(name):
    set_default_workers(2)
    try:
        _counts, spans = kernels_of(name, analytic_db(), "parallel")
    finally:
        set_default_workers(None)
        parallel.cleanup()
    # every morsel ran every operator of the shape (an aggregate's
    # attribute sits on its morsel span: workers call the kernel directly);
    # the merged morsels reach the boundary as boxed rows
    per_morsel = sum(KERNEL_OPS[name].values()) - BOUNDARY_MERGES[name]
    assert len(spans) % per_morsel == 0 and spans
    assert {kernel for _span, kernel in spans} == {"direct"}


@pytest.mark.parametrize("name", sorted(ANALYTIC))
def test_the_guard_fails_when_the_direct_branch_is_disabled(name, monkeypatch):
    monkeypatch.setattr(kernels, "direct", lambda space, rows: False)
    counts, spans = kernels_of(name, analytic_db(), "encoded")  # same answer
    assert counts == {(op, "sorted"): n for op, n in KERNEL_OPS[name].items()}
    assert {kernel for _span, kernel in spans} == {"sorted"}


def test_a_sparse_two_column_key_reports_sorted_on_join_and_reductions():
    # 60 rows over 60 x 60 codes: 3600 > 4*60 + 1024
    left = [((i, f"a{i}", i), 1) for i in range(60)]
    right = [((f"a{j}", j, j % 5), 1) for j in range(59)]
    db, db_z = join_db(left, right), join_db(left, right, INT)
    joined = NaturalJoin(Table("L"), Table("R"))
    for db, query, ops in [
        (db, joined, {"join"}),
        (db, Project(Table("L"), ["a", "b"]), {"consolidate"}),
        (db, GroupBy(Table("L"), ["a", "b"], {}, count_attr="n"), {"aggregate"}),
        # a collapsing SUM reduces on the group key alone: sparse here ...
        (db, GroupBy(Table("L"), ["a", "b"], {"id": SUM}), {"aggregate"}),
        # ... and a space that keeps its entries on the (group, value) pair
        (db_z, GroupBy(Table("L"), ["a"], {"b": SUM}), {"aggregate"}),
    ]:
        before = kernel_counts()
        result, root, plan = analyze_query(query, db, tier="encoded")
        assert plan._last_tier == "encoded"
        assert result == query.evaluate(db, engine="interpreted")
        assert set(counted(before)) == {(op, "sorted") for op in ops}
        assert {kernel for _span, kernel in span_kernels(root)} == {"sorted"}


@pytest.mark.parametrize("query,ops", [
    (NaturalJoin(Table("Fact"), Table("Dim")), {"join": 1}),
    (GroupBy(Table("Fact"), ["G"], {"V": SUM}, count_attr="N"), {"aggregate": 1}),
    (Project(Table("Fact"), ["G"]), {"consolidate": 1}),
], ids=["join", "aggregate", "projection"])
def test_a_distinct_root_runs_no_boundary_merge(query, ops):
    db = analytic_db()
    before = kernel_counts()
    result, root, _plan = analyze_query(query, db, tier="encoded")
    assert result == query.evaluate(db, engine="interpreted")
    assert counted(before) == {(op, "direct"): n for op, n in ops.items()}
    boundary = [s for s in root.children if s.name == "plan.materialise"]
    assert [s.attrs["merge"] for s in boundary] == ["distinct"]
    assert "kernel" not in boundary[0].attrs
