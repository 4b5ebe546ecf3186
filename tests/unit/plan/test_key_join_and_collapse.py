"""Rows the aggregation folds are not materialised: encoded == object ==
interpreter across the key join and the row-direct collapse.

The encoded ``HashJoin`` takes a key-join path when its build side holds
one row per key (a probe row's match is ``order[slot[key]]``, and a probe
side that matched in full is handed over in place); the grouped
aggregate of a collapsing space (``N`` ⊗ SUM/MIN/MAX, ``B`` ⊗ MIN/MAX)
reduces straight from the rows on the group key.  Every shape here is
checked against the object tier and the interpreter, and the sharing the
key join introduces is pinned: a column handed over in place is the
scan's cached column itself, and nothing downstream writes into it.
"""

import math

import pytest

np = pytest.importorskip("numpy")  # the encoded tier exists only with NumPy

from repro.core import Aggregate, GroupBy, KDatabase, KRelation, NaturalJoin, Project, Table
from repro.monoids import MAX, MIN, SUM
from repro.obs.analyze import explain_analyze
from repro.obs.metrics import AGGREGATE_COLLAPSE
from repro.plan import compile_plan
from repro.plan.encoded import encoded_scan
from repro.plan.physical import ExecutionContext, HashJoin
from repro.semirings import BOOL, INT, NAT, TROPICAL

SEMIRINGS = [NAT, BOOL, INT, TROPICAL]
INF = math.inf


def annotation(semiring, i):
    """A non-zero annotation of ``semiring``, varying with ``i``."""
    if semiring is BOOL:
        return True
    if semiring is TROPICAL:
        return float(i % 4)
    if semiring is INT:
        return (1 + i % 3) * (-1 if i % 4 == 3 else 1)
    return 1 + i % 3


def database(semiring, probe_keys, build_keys, values, build_one=False):
    """``L(id, k, v)``, one row per probe key, and ``R(k, w)``, one row
    per build key; ``R`` is the smaller side unless there are fewer
    probe keys."""
    left = [((i, k, values[i % len(values)]), annotation(semiring, i))
            for i, k in enumerate(probe_keys)]
    right = [((k, j), semiring.one if build_one else annotation(semiring, j + 1))
             for j, k in enumerate(build_keys)]
    return KDatabase(semiring, {
        "L": KRelation.from_rows(semiring, ("id", "k", "v"), left),
        "R": KRelation.from_rows(semiring, ("k", "w"), right),
    })


KEYS = [f"k{j}" for j in range(6)]
#: (probe keys, build keys): unique or duplicate build keys, matching every,
#: some or no probe row, the build on either side, an empty build side
SHAPES = {
    "unique, every probe row": ([KEYS[i % 6] for i in range(30)], KEYS),
    "unique, some probe rows": ([f"k{i % 9}" for i in range(30)], KEYS),
    "unique, no probe row": ([f"x{i % 4}" for i in range(30)], KEYS),
    "duplicate build keys": ([KEYS[i % 6] for i in range(30)], KEYS + KEYS[:3]),
    "build on the left": (KEYS[:4], [KEYS[i % 6] for i in range(30)]),
    "duplicate keys on the left": (KEYS[:4] + KEYS[:2], [KEYS[i % 6] for i in range(30)]),
    "empty build side": ([KEYS[i % 6] for i in range(30)], []),
}
JOIN = NaturalJoin(Table("L"), Table("R"))
#: SUM over data containing 0; MIN/MAX over data containing their identities
VALUES = {SUM: [0, 3, -2, 5, 0, 7], MIN: [2.5, INF, -1.0, INF, -INF, 4.0],
          MAX: [2.5, -INF, -1.0, INF, 0.0, -INF]}


def queries():
    yield "join", JOIN
    for monoid in (SUM, MIN, MAX):
        yield f"GB {monoid.name}", GroupBy(JOIN, ["k"], {"v": monoid}, count_attr="n")
        yield f"AGG {monoid.name}", Aggregate(Project(JOIN, ["v"]), "v", monoid)


def values_for(name):
    return VALUES[{"SUM": SUM, "MIN": MIN, "MAX": MAX}.get(name.split()[-1], SUM)]


def run_everywhere(query, db):
    """The encoded result, after checking it against the object tier and
    the interpreter (annotations and rendering both)."""
    want = query.evaluate(db, engine="interpreted")
    assert compile_plan(query, db, tier="object").execute() == want
    plan = compile_plan(query, db, tier="encoded")
    got = plan.execute()
    assert got == want and got.pretty() == want.pretty()
    return plan, got


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("name,query", list(queries()), ids=[n for n, _q in queries()])
def test_encoded_equals_object_equals_interpreter(semiring, shape, name, query):
    probe_keys, build_keys = SHAPES[shape]
    db = database(semiring, probe_keys, build_keys, values_for(name))
    plan, _got = run_everywhere(query, db)
    assert plan._last_tier == "encoded", plan._last_tier
    joins = [n for n in _walk(plan.root) if isinstance(n, HashJoin)]
    expected_build = "left" if shape.endswith("on the left") else "right"
    assert [j.build_side for j in joins] == [expected_build]


@pytest.mark.parametrize("semiring,monoid", [(NAT, SUM), (NAT, MIN), (NAT, MAX),
                                             (BOOL, MIN), (BOOL, MAX)],
                         ids=lambda x: x.name)
def test_collapsing_spaces_reduce_straight_from_rows(semiring, monoid):
    db = database(semiring, [KEYS[i % 6] for i in range(30)], KEYS, VALUES[monoid])
    query = GroupBy(JOIN, ["k"], {"v": monoid})
    before = dict(AGGREGATE_COLLAPSE.values())
    run_everywhere(query, db)
    after = dict(AGGREGATE_COLLAPSE.values())
    assert after.get(("kernel", ""), 0) == before.get(("kernel", ""), 0) + 1


def test_a_value_past_the_int64_bound_folds_instead():
    big = 2 ** 62
    db = database(NAT, [KEYS[i % 6] for i in range(30)], KEYS, [big, 1, 0])
    query = GroupBy(JOIN, ["k"], {"v": SUM})
    plan, _got = run_everywhere(query, db)
    assert plan._last_tier == "encoded"
    assert "collapse=fold (bound)" in explain_analyze(query, db, tier="encoded")


def test_a_reduction_past_the_int64_bound_falls_back_to_the_object_tier():
    # the largest annotation a scan takes, on both sides: the key join's
    # products reach 2**62 and stay encoded, their sum over 12 rows cannot
    top = 2 ** 31
    left = [((i, KEYS[i % 6], i), top) for i in range(12)]
    right = [((k, j), top) for j, k in enumerate(KEYS)]
    db = KDatabase(NAT, {
        "L": KRelation.from_rows(NAT, ("id", "k", "v"), left),
        "R": KRelation.from_rows(NAT, ("k", "w"), right),
    })
    plan, _got = run_everywhere(JOIN, db)
    assert plan._last_tier == "encoded"
    for query in (GroupBy(JOIN, ["k"], {"v": SUM}), Project(JOIN, ["k"])):
        plan, _got = run_everywhere(query, db)
        assert plan._last_tier == "encoded+object fallback"


# ---------------------------------------------------------------------------
# sharing: a probe side kept in place is the scan's, and stays unwritten
# ---------------------------------------------------------------------------


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


def test_a_probe_side_kept_in_place_is_the_scans_own():
    db = database(NAT, [KEYS[i % 6] for i in range(30)], KEYS, [1, 2, 3], build_one=True)
    plan = compile_plan(JOIN, db, tier="encoded")
    out = plan.root.execute(ExecutionContext(db, plan._scan_cache, encoded=True))
    scan = encoded_scan(db, "L", db.relation("L"))
    for attr in ("id", "k", "v"):
        assert out.col(attr) is scan.col(attr)
    assert out.anns is scan.anns  # the build side's annotations are all 1
    assert out.distinct  # a join of two stored relations


def test_no_later_operator_writes_into_a_shared_column():
    db = database(NAT, [KEYS[i % 6] for i in range(30)], KEYS, [0, 4, 9], build_one=True)
    tables = [encoded_scan(db, name, db.relation(name)) for name in ("L", "R")]
    arrays = [t.anns for t in tables] + [t.col(a).codes for t in tables
                                          for a in t.schema.attributes]
    before = [a.copy() for a in arrays]
    for array in arrays:
        array.setflags(write=False)  # any in-place write now raises
    try:
        for _name, query in queries():
            plan, _got = run_everywhere(query, db)
            assert plan._last_tier == "encoded"
    finally:
        for array in arrays:
            array.setflags(write=True)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
