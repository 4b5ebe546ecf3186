"""Every path renders a result byte for byte alike.

The interpreter, the object tier, the encoded tier and a materialised
view fed the rows in two batches build their aggregate tensors in
different ways — a fold per group, code-indexed array kernels, and
``+`` of the state with each batch's contribution — and over ``N`` (and
``B`` with an idempotent monoid) every one of them ends in the same normal
form, so ``pretty()`` and the served wire form must not differ.  The
shapes are the end-to-end benchmark's: its served SQL ``S1``-``S3`` and
small copies of the analytic queries ``A1``-``A3``, and ``M1``/``M2``, a
SUM and a PROD over a column whose first half holds only ints and whose
second half mixes in floats: the view's state has folded its ints before
a float arrives, yet holds the form the other paths build at once.
``W1``-``W4`` are the whole-relation aggregates (AGG, COUNT(*), AVG: one
group over the empty key), and ``E1``-``E3`` the same over a ``WHERE``
that selects no row, whose one row is ``ι(0_M)`` at ``1_K``.
"""

import pytest

pytest.importorskip("numpy")  # the encoded tier exists only with NumPy

from repro.core import (AttrEq, GroupBy, KDatabase, KRelation, NaturalJoin,
                        Project, Select, Table, Union)
from repro.ivm import MaterializedView
from repro.monoids import PROD, SUM
from repro.plan import compile_plan
from repro.semirings import BOOL, NAT
from repro.serve.schema import relation_to_json
from repro.sql.compiler import compile_sql

S1 = "SELECT Dept, SUM(Sal) FROM Emp GROUP BY Dept"
S2 = "SELECT Region, SUM(Sal) FROM Emp, Dept GROUP BY Region"
S3 = "SELECT Dept, MAX(Sal) FROM Emp WHERE Sal = 50 GROUP BY Dept"

_fact_dim = NaturalJoin(Table("Fact"), Table("Dim"))
QUERIES = {
    "S1": compile_sql(S1),
    "S2": compile_sql(S2),
    "S3": compile_sql(S3),
    "A1": GroupBy(_fact_dim, ["G"], {"V": SUM}, count_attr="N"),
    "A2": Project(Select(_fact_dim, [AttrEq("Region", "EU")]), ["G"]),
    "A3": Union(Project(Select(Table("Fact"), [AttrEq("V", 13)]), ["G"]),
                Project(Select(Table("Fact"), [AttrEq("V", 42)]), ["G"])),
    "M1": GroupBy(Table("Mix"), ["G"], {"V": SUM}),
    "M2": GroupBy(Table("Mix"), ["G"], {"V": PROD}),
    "W1": compile_sql("SELECT SUM(Sal) FROM Emp"),
    "W2": compile_sql("SELECT MAX(Sal) FROM Emp"),
    "W3": compile_sql("SELECT COUNT(*) FROM Emp"),
    "W4": compile_sql("SELECT AVG(Sal) FROM Emp"),
    "E1": compile_sql("SELECT COUNT(*) FROM Emp WHERE Sal = 7"),
    "E2": compile_sql("SELECT SUM(Sal) FROM Emp WHERE Sal = 7"),
    "E3": compile_sql("SELECT AVG(Sal) FROM Emp WHERE Sal = 7"),
}


def tables(semiring):
    """``{name: (columns, rows)}``, the rows in insertion order."""
    ann = (lambda i: 1 + i % 3) if semiring is NAT else (lambda i: True)
    emp = [((i, f"d{i % 5}", 10 * (1 + (7 * i) % 9)), ann(i)) for i in range(60)]
    dept = [((f"d{j}", "EU" if j % 2 else "US"), 1 if semiring is NAT else True)
            for j in range(5)]
    fact = [((i, f"g{i % 6}", (11 * i) % 97 if i % 4 else 13 + 29 * (i % 8 == 0)),
             ann(i)) for i in range(80)]
    dim = [((f"g{j}", "EU" if j % 3 else "US"), 1 if semiring is NAT else True)
           for j in range(6)]
    floats = [0.1, 0.25, 1.5, 0.3, 2, 3]
    mix = [((i, f"m{i % 3}", 1 + i % 4 if i < 12 else floats[i % 6]), ann(i))
           for i in range(24)]
    return {"Emp": (("EmpId", "Dept", "Sal"), emp), "Dept": (("Dept", "Region"), dept),
            "Fact": (("Id", "G", "V"), fact), "Dim": (("G", "Region"), dim),
            "Mix": (("Id", "G", "V"), mix)}


def database(semiring, halves=(0, 1)):
    """The database holding the given halves of every table's rows."""
    out = {}
    for name, (columns, rows) in tables(semiring).items():
        cut = len(rows) // 2
        picked = [r for h in halves for r in (rows[:cut], rows[cut:])[h]]
        out[name] = KRelation.from_rows(semiring, columns, picked)
    return KDatabase(semiring, out)


def rendered(rel):
    return rel.pretty(), relation_to_json(rel)


@pytest.mark.parametrize("semiring", [NAT, BOOL], ids=lambda s: s.name)
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_every_path_renders_the_same_bytes(semiring, name):
    query = QUERIES[name]
    db = database(semiring)
    want = rendered(query.evaluate(db, engine="interpreted"))
    for tier in ("object", "encoded"):
        plan = compile_plan(query, db, tier=tier)
        assert rendered(plan.execute()) == want, tier
        assert plan._last_tier == tier

    first = database(semiring, halves=(0,))
    view = MaterializedView.create(first, query)
    second = database(semiring, halves=(1,))
    view.apply({name: rel for name, rel in second})
    assert rendered(view.result()) == want, "view"


@pytest.mark.parametrize("name", ["M1", "M2"])
def test_the_parallel_merge_of_a_mixed_column_renders_the_same_bytes(name):
    query = QUERIES[name]
    db = database(NAT)
    plan = compile_plan(query, db, tier="parallel")
    got = rendered(plan.execute())
    assert plan._last_tier.startswith("parallel"), plan._last_tier
    assert got == rendered(query.evaluate(db, engine="interpreted"))


def equal_values_db(left_rows):
    """``L`` and ``R`` share the column ``g`` and the value 3, stored as
    the int ``3`` on the left and the float ``3.0`` on the right."""
    right = [((3.0, "x"), 1), ((4, "y"), 2)]
    return KDatabase(NAT, {
        "L": KRelation.from_rows(NAT, ("g", "v"), left_rows),
        "R": KRelation.from_rows(NAT, ("g", "v"), right),
        "W": KRelation.from_rows(NAT, ("g", "w"), right),
    })


def renderings(query, db):
    """The interpreter's rendering, and each planner tier's."""
    want = rendered(query.evaluate(db, engine="interpreted"))
    got = {tier: rendered(compile_plan(query, db, tier=tier).execute())
           for tier in ("object", "encoded", "parallel")}
    return want, got


LEFT_ROWS = pytest.mark.parametrize("left_rows", [
    [((3, "x"), 1)],  # L is the smaller operand
    [((3, "x"), 1), ((5, "z"), 1), ((6, "z"), 1)],  # ... and the larger one
], ids=["small-left", "large-left"])


@LEFT_ROWS
@pytest.mark.parametrize("query", [Union(Table("L"), Table("R")),
                                   NaturalJoin(Table("L"), Table("W"))],
                         ids=["union", "join"])
def test_equal_values_of_two_types_render_the_left_operands_value(query, left_rows):
    """``3 == 3.0``, so both operands hold the same tuple: every path keeps
    the left operand's value, as SQL's NATURAL JOIN coalesces."""
    want, got = renderings(query, equal_values_db(left_rows))
    assert "3.0" not in want[0], want[0]
    for tier, rendering in got.items():
        assert rendering == want, tier


@LEFT_ROWS
@pytest.mark.parametrize("query", [Union(Table("R"), Table("L")),
                                   NaturalJoin(Table("W"), Table("L"))],
                         ids=["union", "join"])
def test_swapped_operands_render_the_float_on_the_left(query, left_rows):
    """The mirror case: the float ``3.0`` is now on the left, so a path
    that preferred the int (or the larger operand) would differ."""
    want, got = renderings(query, equal_values_db(left_rows))
    assert "3.0" in want[0], want[0]
    for tier, rendering in got.items():
        assert rendering == want, tier
