"""Structural gate: evaluation never renders.

Order is presentation (``docs/architecture.md``): the sorted accessors
(``KRelation.items/support``, ``Monomial.__iter__``, ``Polynomial.terms``)
render tuples and annotations to text to order them, so nothing that
*computes* may call them.  Every ``__str__`` a sort key could reach is made
to raise, the benchmark's ``symbolic_provenance`` script is run, and the
answers must equal the ones computed beforehand.  Error-message f-strings on
failure paths may still render; success paths may not.
"""

import pytest

from repro.circuits.nodes import CircuitNode
from repro.core import (
    AttrEq,
    Difference,
    GroupBy,
    KDatabase,
    KRelation,
    NaturalJoin,
    Project,
    Select,
    Table,
    Tup,
)
from repro.core.equality import EqualityAtom
from repro.monoids import SUM
from repro.plan import compile_plan
from repro.semimodules.tensor import Tensor
from repro.semirings import NAT, NX, valuation_hom
from repro.semirings.delta import DeltaTerm
from repro.semirings.polynomials import Monomial, Polynomial

DEPTS = 6


def deleted(token):
    name = str(token)
    return 0 if name[0] == "e" and name[-1] == "7" else 1


def database():
    emp = [(1000 + i, f"d{i % DEPTS}", 10 * (1 + i % 7)) for i in range(60)]
    dept = [(f"d{j}", "EU" if j % 2 else "US") for j in range(DEPTS)]
    return KDatabase(NX, {
        "Emp": KRelation.from_rows(
            NX, ("EmpId", "Dept", "Sal"), [(r, NX.variable(f"e{r[0]}")) for r in emp]),
        "Dept": KRelation.from_rows(
            NX, ("Dept", "Region"), [(r, NX.variable(f"r{r[0]}")) for r in dept]),
    })


def script(db, hom):
    """The benchmark op's calls, each answer followed by its image under ``hom``."""
    q = GroupBy(
        Select(NaturalJoin(Table("Emp"), Table("Dept")), [AttrEq("Region", "EU")]),
        ["Dept"], {"Sal": SUM})
    out = [q.evaluate(db)]
    expanded = q.evaluate(db, engine="planned", annotations="expanded")
    circuit = q.evaluate(db, engine="planned", annotations="circuit")
    out += [expanded, expanded.apply_hom(hom), circuit.specialise(deleted, NAT)]
    eu = Project(Select(Table("Dept"), [AttrEq("Region", "EU")]), ["Dept"])
    extended = [
        Difference(Project(Table("Emp"), ["Dept"]), eu, method="direct"),
        Difference(Project(Table("Emp"), ["Dept"]), eu, method="encoding"),
        Difference(Table("Emp"), Select(Table("Emp"), [AttrEq("Dept", "d3")]),
                   method="encoding"),
        Select(GroupBy(Table("Emp"), ["Dept"], {"Sal": SUM}), [AttrEq("Sal", 280)]),
    ]
    for query in extended:
        result = query.evaluate(db, mode="extended")
        out += [result, result.apply_hom(hom)]
    return out


def test_evaluation_never_renders(monkeypatch):
    db = database()
    hom = valuation_hom(NX, NAT, deleted)
    want = script(db, hom)
    assert all(len(rel) for rel in want)
    # some group really sums to 280 once the 7-keyed employees are deleted,
    # so the nested selection's atoms resolve both ways
    assert 0 < len(want[-1]) < DEPTS
    # the lift interns gates in canonical order by design (child order is
    # gate identity); it runs once per table version, not per query
    for name in db.names():
        compile_plan(Table(name), db, annotations="circuit").execute()

    def render(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} rendered during evaluation")

    for cls in (Tup, Monomial, Polynomial, Tensor, DeltaTerm, EqualityAtom, CircuitNode):
        monkeypatch.setattr(cls, "__str__", render)
    monkeypatch.setattr(CircuitNode, "render", render)
    with pytest.raises(AssertionError):
        str(Tup({"a": 1}))

    got = script(db, hom)
    monkeypatch.undo()
    assert got == want
