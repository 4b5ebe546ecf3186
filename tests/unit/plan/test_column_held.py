"""A bulk-loaded relation is its columns until a row is read.

``KRelation.from_rows`` keeps a batch of distinct, zero-free rows as one
list per attribute and the annotations; a scan (object batch or
encoding) and the relation record codec read those lists, and only a
reader that needs rows lowers the version, counted once on
``repro_relation_flatten_total{cause="columns"}``.  These tests hold who
lowers: a scan-only workload shaped like the ``scan_analytic`` benchmark
(a fact table joined to a dimension, grouped, selected, unioned) lowers
nothing on either planner tier, the interpreter lowers what it reads,
and a checkpoint or WAL record of a fresh load lowers nothing.  None of
them needs NumPy: the object tier reads the columns as well.
"""

from repro.core import (AttrEq, GroupBy, KDatabase, KRelation, NaturalJoin, Project,
                        Select, Table, Tup, Union)
from repro.io.serialize import relation_from_jsonable, relation_to_jsonable
from repro.monoids import SUM
from repro.obs.metrics import RELATION_FLATTENS
from repro.plan import compile_plan
from repro.semirings import NAT
from repro.wal import DurabilityManager

GROUPS = 64


def lowered():
    return RELATION_FLATTENS.values()[("columns",)]


def analytic_db(n=4_096):
    fact = KRelation.from_rows(
        NAT, ("Id", "G", "V"),
        [((10_000 + i, f"g{i % GROUPS}", i % 97), 1 + i % 3) for i in range(n)])
    dim = KRelation.from_rows(
        NAT, ("G", "Region"),
        [((f"g{j}", "EU" if j % 3 else "US"), 1) for j in range(GROUPS)])
    return KDatabase(NAT, {"Fact": fact, "Dim": dim})


JOINED = NaturalJoin(Table("Fact"), Table("Dim"))
FACT_ONLY = Project(Select(Table("Fact"), [AttrEq("V", 13)]), ["G"])
QUERIES = [
    GroupBy(JOINED, ["G"], {"V": SUM}, count_attr="N"),
    Project(Select(JOINED, [AttrEq("Region", "EU")]), ["G"]),
    Union(FACT_ONLY, Project(Table("Dim"), ["G"])),
]


def test_planned_scans_read_the_columns_and_the_interpreter_lowers():
    db = analytic_db()
    before = lowered()
    planned = [q.evaluate(db, engine="planned") for q in QUERIES]
    for _ in range(2):
        assert [q.evaluate(db, engine="planned") for q in QUERIES] == planned
    objects = [compile_plan(q, db, tier="object").execute() for q in QUERIES]
    assert lowered() == before
    assert all(db.relation(name)._held is not None for name in ("Fact", "Dim"))
    # the interpreter reads rows: Fact lowers once, Dim stays its columns
    interpreted = FACT_ONLY.evaluate(db, engine="interpreted")
    assert lowered() == before + 1
    assert db.relation("Fact")._held is None and db.relation("Dim")._held is not None
    FACT_ONLY.evaluate(db, engine="interpreted")
    assert lowered() == before + 1
    assert interpreted == FACT_ONLY.evaluate(db, engine="planned")
    assert objects == planned == [q.evaluate(db, engine="interpreted") for q in QUERIES]


def test_a_record_of_a_fresh_load_reads_its_columns():
    rows = [((i, f"g{i % 5}", i * 0.5), 1 + i % 2) for i in range(50)]
    held = KRelation.from_rows(NAT, ("k", "g", "v"), rows)
    eager = KRelation(NAT, ("k", "g", "v"),
                      [(Tup(dict(zip(("k", "g", "v"), v))), a) for v, a in rows])
    before = lowered()
    record = relation_to_jsonable(held)
    assert lowered() == before and held._held is not None
    assert record == relation_to_jsonable(eager)
    assert relation_from_jsonable(record) == eager


def test_a_checkpoint_and_a_wal_add_of_fresh_loads_lower_nothing(tmp_path):
    db = analytic_db(256)
    before = lowered()
    manager = DurabilityManager.open(tmp_path, initial_db=db, fsync="always")
    try:
        extra = KRelation.from_rows(NAT, ("G", "W"), [((f"g{j}", j), 1) for j in range(9)])
        manager.add("Extra", extra)
        manager.checkpoint(force=True)
        assert lowered() == before
        assert extra._held is not None and db.relation("Fact")._held is not None
    finally:
        manager.close()
    recovered = DurabilityManager.open(tmp_path)
    try:
        assert recovered.db.relation("Fact") == db.relation("Fact")
        assert recovered.db.relation("Extra") == extra
    finally:
        recovered.close()
