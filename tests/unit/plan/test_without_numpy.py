"""The engine without NumPy: every plan runs the object tier, exactly.

NumPy is the optional accelerator that buys the encoded and parallel
tiers.  A subprocess blocks the import (``sys.modules["numpy"] = None``)
before ``repro`` loads and checks the contract end to end: the package
imports, tier selection observes the missing module instead of reading a
knob, ``explain()`` reports the tier that ran, answers equal the
interpreter's across a write (and render alike: every bag aggregate is
the normal form ``1⊗c``), insisting on an array tier fails with
an error that names NumPy, and circuit provenance runs the object tier
and the evaluator's id-order loop to the expanded route's answers.
"""

import os
import subprocess
import sys

SCRIPT = r"""
import sys
sys.modules["numpy"] = None  # any `import numpy` now raises ImportError

import repro.plan
from repro.core import GroupBy, KDatabase, KRelation, NaturalJoin, Table
from repro.exceptions import QueryError
from repro.monoids import SUM
from repro.plan import active_backend, compile_plan
from repro.plan.kernels import HAVE_NUMPY
from repro.semirings import NAT

assert not HAVE_NUMPY
assert active_backend() == "none"

emp = KRelation.from_rows(
    NAT, ("EmpId", "Dept", "Sal"),
    [((i, f"d{i % 4}", 10 * (1 + i % 5)), 1 + i % 3) for i in range(60)],
)
dept = KRelation.from_rows(
    NAT, ("Dept", "Region"), [((f"d{j}", "EU" if j % 2 else "US"), 1) for j in range(4)]
)
db = KDatabase(NAT, {"Emp": emp, "Dept": dept})
query = GroupBy(NaturalJoin(Table("Emp"), Table("Dept")), ["Region"], {"Sal": SUM})

plan = compile_plan(query, db)
assert plan.tier == "object", plan.tier
assert "tier: object" in plan.explain()
result, want = plan.execute(), query.evaluate(db, engine="interpreted")
assert result == want and result.pretty() == want.pretty()
assert "[last run: object]" in plan.explain()
# every bag SUM is its value: the one normal form iota(c) = {c: 1}
for tup, _k in result.rows():
    t = tup["Sal"]
    assert t._entries == ({t.collapse(): 1} if t else {}), t

db.update({"Emp": KRelation.from_rows(
    NAT, ("EmpId", "Dept", "Sal"), [((1000, "d1", 70), 2)])})
assert query.evaluate(db, engine="planned") == query.evaluate(db, engine="interpreted")
assert plan.execute() == query.evaluate(db, engine="interpreted")

for tier in ("encoded", "parallel"):
    try:
        compile_plan(query, db, tier=tier)
    except QueryError as exc:
        assert "NumPy" in str(exc), exc
    else:
        raise AssertionError(f"tier={tier!r} compiled without NumPy")

# circuit provenance: the object tier interns the gates and the evaluator
# runs its id-order loop; both equal the expanded route
from repro.semirings import NX
from repro.semirings.homomorphism import valuation_hom

tagged = KDatabase(NX, {
    name: KRelation(NX, rel.schema, [
        (tup, NX.variable(f"{name}{i}")) for i, (tup, _k) in enumerate(rel.rows())
    ])
    for name, rel in db
})
circuit = query.evaluate(tagged, engine="planned", annotations="circuit")
assert compile_plan(query, tagged, annotations="circuit").tier == "object"
expanded = query.evaluate(tagged, engine="planned")
assert circuit.lower() == expanded == query.evaluate(tagged, engine="interpreted")
weight = lambda token: 1 + len(token) % 3
assert circuit.specialise(weight, NAT) == expanded.apply_hom(valuation_hom(NX, NAT, weight))
assert circuit.gate_count() > 0

print("ok")
"""


def test_without_numpy_every_plan_runs_the_object_tier():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
