"""A relation version owns its scan images.

A K-relation is an immutable value, so the batch a scan of it reads — the
object batch, and on the encoded tier its dictionary encoding — depends on
the version alone and is kept on it (:mod:`repro.plan.encoded`).  Every
catalog holding the version reads the same batch: the root database, a
snapshot, a clone over a snapshot's relations (a served view's catalog),
and a delta plan's execution catalog.  The object cases run without NumPy;
the encoded ones skip there.
"""

import http.client
import json
import pathlib
import pickle
import re

import pytest

from repro.core import KDatabase, KRelation
from repro.ivm import MaterializedView
from repro.obs.metrics import ENCODED_CACHE_EVENTS
from repro.plan import compile_plan
from repro.plan.encoded import encoded_scan, object_scan
from repro.plan.kernels import HAVE_NUMPY
from repro.semirings import NAT
from repro.serve import start_in_thread
from repro.sql.compiler import compile_sql

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="encodings need NumPy")

GROUPED = compile_sql("SELECT Dept, SUM(Sal) FROM Emp GROUP BY Dept")


def emp_db(n=60):
    emp = KRelation.from_rows(
        NAT, ("EmpId", "Dept", "Sal"),
        [((i, f"d{i % 7}", 10 * (1 + i % 5)), 1 + i % 3) for i in range(n)],
    )
    return KDatabase(NAT, {"Emp": emp})


def rebuilds():
    return ENCODED_CACHE_EVENTS.values().get(("rebuild",), 0)


# ---------------------------------------------------------------------------
# object images (no NumPy needed)
# ---------------------------------------------------------------------------


def test_every_object_plan_over_a_version_reads_its_one_batch():
    db = emp_db()
    rel = db.relation("Emp")
    first = compile_plan(GROUPED, db, tier="object")
    first.execute()
    batch = object_scan(rel)
    clone = KDatabase(NAT, dict(iter(db.snapshot())))
    second = compile_plan(GROUPED, clone, tier="object")
    assert second.execute() == GROUPED.evaluate(db, engine="interpreted")
    assert object_scan(clone.relation("Emp")) is batch


def test_a_new_version_is_scanned_afresh():
    db = emp_db()
    batch = object_scan(db.relation("Emp"))
    db.update({"Emp": KRelation.from_rows(
        NAT, ("EmpId", "Dept", "Sal"), [((1000, "d1", 10), 1)])})
    fresh = object_scan(db.relation("Emp"))
    assert fresh is not batch and len(fresh) == len(batch) + 1
    assert compile_plan(GROUPED, db, tier="object").execute() == \
        GROUPED.evaluate(db, engine="interpreted")


def test_images_are_no_part_of_the_value():
    rel = emp_db().relation("Emp")
    twin = KRelation.from_rows(NAT, rel.schema.attributes,
                               [(t.values_by(rel.schema), k) for t, k in rel.rows()])
    before = hash(rel)
    object_scan(rel)
    assert rel == twin and hash(rel) == before == hash(twin)
    copy = pickle.loads(pickle.dumps(rel))
    assert copy == rel
    with pytest.raises(AttributeError):
        copy._scan_images  # the copy starts without images


def test_only_the_encoded_module_touches_the_image_slot():
    src = pathlib.Path(__file__).resolve().parents[3] / "src" / "repro"
    touch = re.compile(r"\._scan_images\b|attr\([^)]*[\"']_scan_images[\"']")
    offenders = [
        f"{path.relative_to(src)}:{number}"
        for path in sorted(src.rglob("*.py"))
        if path != src / "plan" / "encoded.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if touch.search(line)
    ]
    assert not offenders


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------


@needs_numpy
def test_a_clone_reads_the_batch_the_root_scanned():
    """A catalog over a snapshot's relations reads the very encoding the
    root built, with no sharing step; from there each catalog's update
    carries the encoding onto its own new version."""
    db = emp_db()
    GROUPED.evaluate(db, engine="planned")  # the root encodes Emp
    emp = encoded_scan(db, "Emp", db.relation("Emp"))
    clone = KDatabase(NAT, dict(iter(db.snapshot())))
    before = ENCODED_CACHE_EVENTS.values()
    assert encoded_scan(clone, "Emp", clone.relation("Emp")) is emp
    assert GROUPED.evaluate(clone, engine="planned") == \
        GROUPED.evaluate(clone, engine="interpreted")
    assert ENCODED_CACHE_EVENTS.values() == before
    delta = KRelation.from_rows(NAT, ("EmpId", "Dept", "Sal"), [((1000, "d1", 10), 1)])
    for target in (db, clone):
        target.update({"Emp": delta})
    after = ENCODED_CACHE_EVENTS.values()
    assert after[("extend",)] == before[("extend",)] + 2
    carried = encoded_scan(clone, "Emp", clone.relation("Emp"))
    assert carried is not emp and len(carried) == len(emp) + 1
    assert rebuilds() == before[("rebuild",)]


@needs_numpy
@pytest.mark.parametrize("changed", [("R",), ("R", "S")], ids=["R", "R+S"])
def test_bulk_view_applies_encode_nothing(changed):
    """A delta plan runs the object tier, so a 300-row apply encodes no Δ
    table, and the write carries each changed table's encoding forward."""
    r = KRelation.from_rows(NAT, ("A", "B"), [((i, i % 50), 1) for i in range(2000)])
    s = KRelation.from_rows(NAT, ("B", "C"), [((i % 50, i), 1) for i in range(1000)])
    db = KDatabase(NAT, {"R": r, "S": s})
    view = MaterializedView.create(db, compile_sql("SELECT C, SUM(A) FROM R, S GROUP BY C"))
    for step in range(3):
        base = 10_000 * (step + 1)
        deltas = {
            "R": KRelation.from_rows(
                NAT, ("A", "B"), [((base + i, i % 50), 1) for i in range(300)]),
            "S": KRelation.from_rows(
                NAT, ("B", "C"), [((i % 50, base + i), 1) for i in range(300)]),
        }
        before = rebuilds()
        extends = ENCODED_CACHE_EVENTS.values().get(("extend",), 0)
        view.apply({name: deltas[name] for name in changed})
        assert rebuilds() == before
        assert ENCODED_CACHE_EVENTS.values().get(("extend",), 0) - extends == len(changed)
    assert view.check()


@needs_numpy
def test_a_bulk_view_apply_scans_each_delta_once(monkeypatch):
    """The Δ tables' object batches, which the delta plan scans, are what
    the write carries the base tables' encodings forward by: each delta
    is decomposed once per apply.  So is each changed base: the delta
    plan's fresh scan of its new version finds no object batch."""
    from repro.plan import encoded

    r = KRelation.from_rows(NAT, ("A", "B"), [((i, i % 50), 1) for i in range(2000)])
    s = KRelation.from_rows(NAT, ("B", "C"), [((i % 50, i), 1) for i in range(1000)])
    db = KDatabase(NAT, {"R": r, "S": s})
    view = MaterializedView.create(db, compile_sql("SELECT C, SUM(A) FROM R, S GROUP BY C"))
    scanned = []
    real = encoded.scan_rows

    def counted(rel, annotations="expanded"):
        scanned.append(rel)
        return real(rel, annotations)

    monkeypatch.setattr(encoded, "scan_rows", counted)
    for step in range(3):
        base = 10_000 * (step + 1)
        deltas = {
            "R": KRelation.from_rows(
                NAT, ("A", "B"), [((base + i, i % 50), 2) for i in range(300)]),
            "S": KRelation.from_rows(
                NAT, ("B", "C"), [((i % 50, base + i), 1) for i in range(300)]),
        }
        extends = ENCODED_CACHE_EVENTS.values().get(("extend",), 0)
        scanned.clear()
        view.apply(deltas)
        names = {id(rel): name for name, rel in deltas.items()}
        assert sorted(names.get(id(rel), "a base table") for rel in scanned) == \
            ["R", "S", "a base table", "a base table"]
        assert ENCODED_CACHE_EVENTS.values().get(("extend",), 0) - extends == 2
    assert view.check()
    for name in ("R", "S"):  # the carried encodings are the from-scratch ones
        rel = db.relation(name)
        carried = encoded_scan(db, name, rel)
        fresh = encoded.encode_relation(rel)
        assert carried.anns.tolist() == fresh.anns.tolist()
        assert (carried.anns_one, carried.ann_bound) == (fresh.anns_one, fresh.ann_bound)
        for attr in rel.schema.attributes:
            assert carried.col(attr).decode() == fresh.col(attr).decode()


@needs_numpy
def test_a_served_view_and_the_roots_query_encode_the_table_once():
    emp = KRelation.from_rows(
        NAT, ("EmpId", "Dept", "Sal"),
        [((i, f"d{i % 16}", 100 + i % 37), 1) for i in range(5000)],
    )
    handle = start_in_thread(KDatabase(NAT, {"Emp": emp}))
    conn = http.client.HTTPConnection(*handle.address, timeout=30)

    def post(path, payload):
        conn.request("POST", path, json.dumps(payload))
        response = conn.getresponse()
        return response.status, json.loads(response.read())

    try:
        before = rebuilds()
        status, _ = post("/views", {
            "name": "by_dept", "sql": "SELECT Dept, SUM(Sal) FROM Emp GROUP BY Dept"})
        assert status == 201
        status, body = post("/query", {"sql": "SELECT Dept, MAX(Sal) FROM Emp GROUP BY Dept"})
        assert status == 200 and len(body["rows"]) == 16
        assert rebuilds() - before == 1
    finally:
        conn.close()
        handle.close()
