"""A stored tensor with several entries loads as its normal form.

Earlier releases kept every entry of an ``N (x) SUM`` tensor — how the
value was reached, ``2⊗10 + 1⊗5`` — and wrote them all.  The literal
checkpoint bodies below hold such values.  Recovered through a WAL data
directory, a stored tensor is the normal form ``1⊗25``, and a view the
checkpoint registers boots to it, equal to re-evaluation.
"""

import json
from pathlib import Path

from repro.io.serialize import loads
from repro.serve.server import ProvenanceServer
from repro.sql.compiler import compile_sql
from repro.wal import DurabilityManager
from repro.wal.log import pack_frame
from repro.wal.manager import checkpoint_path

SQL = "SELECT g, SUM(v) FROM R GROUP BY g"

#: ``R`` with the row ``(a, 10)`` stored twice over
DATABASE = (
    '{"relations": {"R": {"annotations": [2, 1, 1], "columns": [["a", "a", "b"], '
    '[10, 5, 7]], "schema": ["g", "v"], "semiring": "N"}}, "semiring": "N"}'
)

#: the aggregate itself stored as a table: ``T = GB[g; SUM(v)](R)``
TENSOR_TABLE = (
    '{"relations": {"T": {"annotations": [1, 1], "columns": [["a", "b"], ['
    '{"__tensor__": {"items": [[10, 2], [5, 1]], "monoid": "SUM", "semiring": "N"}}, '
    '{"__tensor__": {"items": [[7, 1]], "monoid": "SUM", "semiring": "N"}}]], '
    '"schema": ["g", "v"], "semiring": "N"}}, "semiring": "N"}'
)


def checkpoint_file(directory, database: str, views=None) -> None:
    """Checkpoint 0 of ``directory``, holding ``database`` and ``views``."""
    body = '{"database": %s, "views": %s}' % (database, json.dumps(views or {}))
    Path(checkpoint_path(str(directory), 0)).write_bytes(pack_frame(0, body.encode()))


def aggregates(rel):
    return {t["g"]: str(t["v"]) for t, _k in rel.rows()}


def test_a_checkpointed_view_boots_to_the_normal_form(tmp_path):
    checkpoint_file(tmp_path, DATABASE, {"totals": SQL})
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
    checkpoint_file(tmp_path, TENSOR_TABLE)
    manager = DurabilityManager.open(str(tmp_path))
    try:
        table = manager.db.relation("T")
    finally:
        manager.close()
    assert aggregates(table) == {"a": "1⊗25", "b": "1⊗7"}
    database = loads('{"kind": "database", "data": %s}' % DATABASE)
    assert table == compile_sql(SQL).evaluate(database)
    (tup, _k), = [(t, k) for t, k in table.rows() if t["g"] == "a"]
    assert tup["v"]._entries == {25: 1}
