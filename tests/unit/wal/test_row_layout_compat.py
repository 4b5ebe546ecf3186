"""Data written in the row layout recovers after the upgrade to columns.

Relations were once stored one JSON object per row::

    {"semiring": "Z", "schema": ["g", "v"],
     "rows": [{"values": ["a", 10], "annotation": 2}, ...]}

in WAL ``add`` and ``update`` records, in checkpoints and in ``dumps``
payloads; they are now stored one list per attribute.  The reference
writer below is that row encoder.  A data directory it wrote — a row
checkpoint, row records, then column records appended by the upgraded
manager in the same tail — must recover to the database the writes
describe, and a view registered in it must boot equal to evaluation.
"""

import hashlib
import json

from repro.core import KDatabase, KRelation
from repro.io.serialize import (
    SNAPSHOT_MAGIC,
    annotation_to_jsonable,
    loads,
    tensor_to_jsonable,
)
from repro.semimodules.tensor import Tensor
from repro.semirings import INT, NX
from repro.serve.server import ProvenanceServer
from repro.sql.compiler import compile_sql
from repro.wal import DurabilityManager
from repro.wal.log import WriteAheadLog
from repro.wal.manager import checkpoint_path

SQL = "SELECT g, SUM(v) FROM R GROUP BY g"


# -- the reference writer: the row layout -------------------------------------


def row_record(rel, *, sort_rows=False):
    """A relation in the row layout (storage order, or support order)."""
    attrs = rel.schema.attributes
    rows = []
    for t, k in (rel.items() if sort_rows else rel.rows()):
        values = [tensor_to_jsonable(t[a]) if isinstance(t[a], Tensor) else t[a]
                  for a in attrs]
        rows.append({"values": values,
                     "annotation": annotation_to_jsonable(rel.semiring, k)})
    return {"semiring": rel.semiring.name, "schema": list(attrs), "rows": rows}


def row_database(db):
    return {"semiring": db.semiring.name,
            "relations": {name: row_record(rel, sort_rows=True) for name, rel in db}}


def wal_record(op, **fields):
    return json.dumps({"op": op, **fields}, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")


def snapshot_file(path, payload):
    """``payload`` in the checksummed snapshot-file format."""
    body = json.dumps(payload).encode("utf-8")
    header = json.dumps({"magic": SNAPSHOT_MAGIC, "length": len(body),
                         "sha256": hashlib.sha256(body).hexdigest()}, sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n" + body)


# -- the data ------------------------------------------------------------------


def z(rows, schema=("g", "v")):
    return KRelation.from_rows(INT, schema, rows)


BASE = {"R": z([(("a", 10), 2), (("b", 7), 1), (("c", 1), 1)]),
        "S": z([(("a",), 1)], ("g",))}
ADDED = z([(("x", 1), 3)])
ROW_UPDATES = [  # the Z way to delete: an additive inverse
    {"R": z([(("a", 5), 1), (("c", 1), -1)]), "T": z([(("y", 2), 1)])},
    {"R": z([(("a", 5), 2), (("d", 4), 1)])},
]
COLUMN_UPDATES = [
    {"R": z([(("b", 7), -1), (("e", 3), 4)]), "T": z([(("x", 1), -3)])},
    {"R": z([(("a", 10), 1)])},
]


def expected_db():
    db = KDatabase(INT, dict(BASE))
    db.add("T", ADDED)
    for deltas in ROW_UPDATES + COLUMN_UPDATES:
        db.update(deltas)
    return db


def write_row_directory(directory):
    """What the row-layout build left: checkpoint 0 holding ``BASE``, then
    an ``add``, two ``update`` records and a ``create_view``."""
    snapshot_file(checkpoint_path(directory, 0),
                  {"kind": "database", "data": row_database(KDatabase(INT, dict(BASE)))})
    wal = WriteAheadLog(directory, next_lsn=1, fsync="always")
    wal.append(wal_record("add", name="T", relation=row_record(ADDED)))
    for deltas in ROW_UPDATES:
        wal.append(wal_record("update", relations={
            name: row_record(delta) for name, delta in deltas.items()}))
    wal.append(wal_record("create_view", name="by_g", sql=SQL))
    wal.close()


# -- the tests -----------------------------------------------------------------


def test_a_row_directory_recovers_and_takes_column_records(tmp_path, typed_contents):
    write_row_directory(tmp_path)
    upgraded = DurabilityManager.open(tmp_path, fsync="always")
    assert upgraded.recovery["records_replayed"] == 4
    assert upgraded.view_defs == {"by_g": SQL}
    for deltas in COLUMN_UPDATES:
        upgraded.update(deltas)
    upgraded.close()  # no checkpoint: the tail now mixes both layouts

    log = b"".join(path.read_bytes() for path in tmp_path.glob("wal-*.log"))
    assert b'"rows"' in log and b'"columns"' in log

    recovered = DurabilityManager.open(tmp_path)
    assert recovered.recovery["source"] == "checkpoint+wal"
    assert recovered.recovery["records_replayed"] == 6
    assert typed_contents(recovered.db) == typed_contents(expected_db())
    recovered.close()


def test_a_view_over_a_row_directory_boots_equal_to_evaluation(tmp_path):
    write_row_directory(tmp_path)
    recovered = DurabilityManager.open(tmp_path)
    try:
        server = ProvenanceServer(recovered.db, durability=recovered)
        assert server.restore_views() == {"by_g": "rebuilt"}
        want = compile_sql(SQL).evaluate(recovered.db, engine="interpreted")
        assert server._views["by_g"].view.result() == want
    finally:
        recovered.close()


def test_a_row_layout_dumps_payload_loads():
    db = KDatabase(NX, {"R": KRelation.from_rows(
        NX, ("g", "v"), [(("a", 10), NX.variable("p")), (("b", 7), NX.variable("q"))])})
    grouped = compile_sql(SQL).evaluate(db)
    db.add("G", grouped)
    payload = json.dumps({"kind": "database", "data": row_database(db)})
    loaded = loads(payload)
    assert dict(iter(loaded)) == dict(iter(db))
    relation = json.dumps({"kind": "relation", "data": row_record(grouped)})
    assert loads(relation) == grouped
