"""Regression tests: a mutated database never serves stale cached results.

Compiled plans held on Query objects are keyed on the database's
monotonic version stamp (and the annotation representation); the
encodings held on the database — circuit mode's gate ids among them —
revalidate per table by relation identity.  Any ``db.add``/``db.update``
must invalidate the plan entry and re-validate the encodings, while
*unmutated* runs keep hitting the caches.
"""

import pytest

from repro.core import (
    AttrEq,
    GroupBy,
    KDatabase,
    KRelation,
    NaturalJoin,
    Select,
    Table,
)
from repro.monoids import SUM
from repro.obs.metrics import ENCODED_CACHE_EVENTS
from repro.plan import encoded_scan
from repro.plan.kernels import HAVE_NUMPY
from repro.semirings import NAT, NX


def make_db(semiring=NX, n=6):
    def tag(prefix, i):
        return NX.variable(f"{prefix}{i}") if semiring is NX else 1 + i % 2

    emp = KRelation.from_rows(
        semiring,
        ("EmpId", "Dept", "Sal"),
        [((i, f"d{i % 2}", 10 * (1 + i % 3)), tag("t", i)) for i in range(n)],
    )
    dept = KRelation.from_rows(
        semiring,
        ("Dept", "Region"),
        [((f"d{j}", "EU" if j else "US"), tag("d", j)) for j in range(2)],
    )
    return KDatabase(semiring, {"Emp": emp, "Dept": dept})


def the_query():
    return GroupBy(
        Select(NaturalJoin(Table("Emp"), Table("Dept")), [AttrEq("Region", "EU")]),
        ["Dept"],
        {"Sal": SUM},
    )


class TestPlanCacheVersioning:
    def test_unmutated_db_reuses_the_plan(self):
        db = make_db(NAT)
        q = the_query()
        q.evaluate(db, engine="planned")
        plan = q._cached_plan(db)
        q.evaluate(db, engine="planned")
        assert q._cached_plan(db) is plan

    def test_mutation_recompiles_the_plan(self):
        db = make_db(NAT)
        q = the_query()
        q.evaluate(db, engine="planned")
        plan = q._cached_plan(db)
        db.update(
            {"Emp": KRelation.from_rows(NAT, ("EmpId", "Dept", "Sal"), [((99, "d1", 40), 1)])}
        )
        assert q._cached_plan(db) is not plan

    def test_mutated_db_serves_fresh_planned_results(self):
        db = make_db(NAT)
        q = the_query()
        stale = q.evaluate(db, engine="planned")
        db.update(
            {"Emp": KRelation.from_rows(NAT, ("EmpId", "Dept", "Sal"), [((99, "d1", 40), 3)])}
        )
        fresh = q.evaluate(db, engine="planned")
        assert fresh == q.evaluate(db, engine="interpreted")
        assert fresh != stale


class TestCircuitImageVersioning:
    def test_mutated_db_serves_fresh_circuit_results(self):
        db = make_db(NX)
        q = the_query()
        stale = q.evaluate(db, engine="planned", annotations="circuit").lower()
        db.update(
            {
                "Emp": KRelation.from_rows(
                    NX, ("EmpId", "Dept", "Sal"), [((99, "d1", 40), NX.variable("new"))]
                )
            }
        )
        fresh = q.evaluate(db, engine="planned", annotations="circuit")
        assert fresh.lower() == q.evaluate(db, engine="interpreted")
        assert fresh.lower() != stale

    @pytest.mark.skipif(not HAVE_NUMPY, reason="gate batches are encoded")
    def test_gate_batches_are_carried_not_rebuilt(self):
        db = make_db(NX)
        q = the_query()
        q.evaluate(db, engine="planned", annotations="circuit")
        dept = encoded_scan(db, "Dept", db["Dept"], "circuit")
        emp = encoded_scan(db, "Emp", db["Emp"], "circuit")
        before = ENCODED_CACHE_EVENTS.values()
        db.update(
            {
                "Emp": KRelation.from_rows(
                    NX, ("EmpId", "Dept", "Sal"), [((99, "d1", 40), NX.variable("new"))]
                )
            }
        )
        after = ENCODED_CACHE_EVENTS.values()
        assert after[("extend",)] == before[("extend",)] + 1
        # the untouched table keeps its batch; the updated one is carried
        assert encoded_scan(db, "Dept", db["Dept"], "circuit") is dept
        carried = encoded_scan(db, "Emp", db["Emp"], "circuit")
        assert carried is not emp and len(carried) == len(db["Emp"])
        assert ENCODED_CACHE_EVENTS.values()[("rebuild",)] == before[("rebuild",)]
        fresh = q.evaluate(db, engine="planned", annotations="circuit")
        assert fresh.lower() == q.evaluate(db, engine="interpreted")

    def test_unmutated_db_reuses_the_circuit_plan_and_its_scans(self):
        db = make_db(NX)
        q = the_query()
        q.evaluate(db, engine="planned", annotations="circuit")
        plan = q._cached_plan(db, "circuit")
        assert plan.annotations == "circuit"
        assert q._cached_plan(db, "circuit") is plan
        assert q._cached_plan(db) is not plan  # one entry per representation
        rebuilds = ENCODED_CACHE_EVENTS.values()[("rebuild",)]
        q.evaluate(db, engine="planned", annotations="circuit")
        assert q._cached_plan(db, "circuit") is plan
        assert ENCODED_CACHE_EVENTS.values()[("rebuild",)] == rebuilds
