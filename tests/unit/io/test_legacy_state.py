"""State written before tensors had one normal form loads into it.

Earlier releases kept every entry of an ``N (x) SUM`` tensor — how the
value was reached, ``2⊗10 + 1⊗5`` — and wrote them all.  The literal
fixtures below are checkpoint databases such a release wrote, byte for
byte.  Recovered through a WAL data directory, a stored tensor is the
normal form ``1⊗25``, and a view registered beside the checkpoint boots
to it, equal to re-evaluation.
"""

import hashlib
import json
from pathlib import Path

from repro.io.serialize import SNAPSHOT_MAGIC, loads
from repro.serve.server import ProvenanceServer
from repro.sql.compiler import compile_sql
from repro.wal import DurabilityManager
from repro.wal.manager import checkpoint_path

SQL = "SELECT g, SUM(v) FROM R GROUP BY g"

DATABASE = (
    '{"data": {"relations": {"R": {"rows": [{"annotation": 2, "values": ["a", 10]}, '
    '{"annotation": 1, "values": ["a", 5]}, {"annotation": 1, "values": ["b", 7]}], '
    '"schema": ["g", "v"], "semiring": "N"}}, "semiring": "N"}, "kind": "database"}'
)

#: the aggregate itself stored as a table: ``T = GB[g; SUM(v)](R)``
TENSOR_TABLE = (
    '{"data": {"relations": {"T": {"rows": [{"annotation": 1, "values": ["a", '
    '{"__tensor__": {"items": [[10, 2], [5, 1]], "monoid": "SUM", "semiring": "N"}}]}, '
    '{"annotation": 1, "values": ["b", {"__tensor__": {"items": [[7, 1]], '
    '"monoid": "SUM", "semiring": "N"}}]}], "schema": ["g", "v"], "semiring": "N"}}, '
    '"semiring": "N"}, "kind": "database"}'
)


def snapshot_file(path: str, body: str) -> None:
    """Write ``body`` in the checksummed snapshot-file format."""
    data = body.encode("utf-8")
    header = json.dumps({"magic": SNAPSHOT_MAGIC, "length": len(data),
                         "sha256": hashlib.sha256(data).hexdigest()}, sort_keys=True)
    Path(path).write_bytes(header.encode("utf-8") + b"\n" + data)


def aggregates(rel):
    return {t["g"]: str(t["v"]) for t, _k in rel.rows()}


def test_a_checkpointed_view_boots_to_the_normal_form(tmp_path):
    snapshot_file(checkpoint_path(str(tmp_path), 0), DATABASE)
    (tmp_path / "checkpoint-00000000000000000000.views.json").write_text(
        json.dumps({"views": {"totals": SQL}}, sort_keys=True))
    manager = DurabilityManager.open(str(tmp_path))
    try:
        assert manager.view_defs == {"totals": SQL}
        server = ProvenanceServer(manager.db, durability=manager)
        assert server.restore_views() == {"totals": "rebuilt"}
        view, query = server._views["totals"].view, compile_sql(SQL)
        assert aggregates(view.result()) == {"a": "1⊗25", "b": "1⊗7"}
        assert view.result().pretty() == query.evaluate(manager.db).pretty()
    finally:
        manager.close()


def test_a_checkpointed_tensor_table_loads_as_the_normal_form(tmp_path):
    snapshot_file(checkpoint_path(str(tmp_path), 0), TENSOR_TABLE)
    manager = DurabilityManager.open(str(tmp_path))
    try:
        table = manager.db.relation("T")
    finally:
        manager.close()
    assert aggregates(table) == {"a": "1⊗25", "b": "1⊗7"}
    assert table == compile_sql(SQL).evaluate(loads(DATABASE))
    (tup, _k), = [(t, k) for t, k in table.rows() if t["g"] == "a"]
    assert tup["v"]._entries == {25: 1}
