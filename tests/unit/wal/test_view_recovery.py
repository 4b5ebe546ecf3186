"""A durably registered view boots by evaluation over the recovered database.

A maintained view's state is a function of the database, so recovery
keeps no copy of it: :meth:`ProvenanceServer.restore_views` evaluates
each definition the checkpoint or the WAL tail holds over the recovered
catalog.  For each maintainable view shape below,
the booted view equals a fresh evaluation and keeps maintaining across
later writes.  View-state files an earlier build
wrote beside its checkpoints (``view-<digest>.snap``) are never read,
whatever they hold, and a checkpoint leaves them as they are.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro import faults
from repro.core import KDatabase, KRelation
from repro.obs.metrics import resilience_counters
from repro.semirings import NAT
from repro.serve.server import ProvenanceServer
from repro.sql.compiler import compile_sql
from repro.wal import DurabilityManager
from repro.wal import manager as wal_manager
from repro.wal.log import pack_frame
from repro.wal.manager import checkpoint_path


@pytest.fixture(autouse=True)
def _reset_counters():
    faults.reset_counters()
    yield
    faults.reset_counters()


EMP = ("EmpId", "Dept", "Sal")


def emp(rows):
    return KRelation.from_rows(NAT, EMP, [(row, 1) for row in rows])


def company():
    dept = KRelation.from_rows(
        NAT, ("Dept", "Region"), [(("d1", "east"), 1), (("d2", "west"), 1)])
    return KDatabase(NAT, {
        "Emp": emp([(1, "d1", 20), (2, "d1", 10), (3, "d2", 15)]),
        "Dept": dept,
    })


#: one definition per view shape: grouped, singleton and relation heads
VIEWS = {
    "group-sum": "SELECT Dept, SUM(Sal) FROM Emp GROUP BY Dept",
    "group-sum-count": "SELECT Dept, SUM(Sal), COUNT(*) FROM Emp GROUP BY Dept",
    "group-max": "SELECT Dept, MAX(Sal) FROM Emp GROUP BY Dept",
    "group-where": "SELECT Dept, SUM(Sal) FROM Emp WHERE Sal > 12 GROUP BY Dept",
    "join-group": "SELECT Region, SUM(Sal) FROM Emp, Dept GROUP BY Region",
    "count": "SELECT COUNT(*) FROM Emp",
    "sum": "SELECT SUM(Sal) FROM Emp",
    "avg": "SELECT AVG(Sal) FROM Emp",
    "min": "SELECT MIN(Sal) FROM Emp",
    "distinct": "SELECT DISTINCT Dept FROM Emp",
    "project": "SELECT Dept, Sal FROM Emp",
    "where": "SELECT Sal FROM Emp WHERE Dept = 'd1'",
    "union": "SELECT Dept FROM Emp UNION SELECT Dept FROM Dept",
}


def assert_views_evaluate(server, db, names, sql):
    want = compile_sql(sql).evaluate(db, engine="interpreted")
    for name in names:
        got = server._views[name].view.result()
        assert got == want, name
        assert got.pretty() == want.pretty(), name


@pytest.mark.parametrize("sql", list(VIEWS.values()), ids=list(VIEWS))
def test_a_booted_view_equals_evaluation_and_keeps_maintaining(tmp_path, sql):
    manager = DurabilityManager.open(tmp_path, initial_db=company(), fsync="always")
    manager.create_view("in_checkpoint", sql)
    manager.update({"Emp": emp([(4, "d1", 30)])})
    manager.checkpoint()
    manager.create_view("in_tail", sql)
    manager.update({"Emp": emp([(5, "d2", 7)])})
    manager.close()

    recovered = DurabilityManager.open(tmp_path)
    server = ProvenanceServer(recovered.db, durability=recovered)
    try:
        assert recovered.recovery["source"] == "checkpoint+wal"
        assert server.restore_views() == {"in_checkpoint": "rebuilt", "in_tail": "rebuilt"}
        assert_views_evaluate(server, recovered.db, ("in_checkpoint", "in_tail"), sql)
        status, _ = server._update(
            {"relations": {"Emp": {"rows": [{"values": [6, "d2", 11]}]}}})
        assert status == 200
        assert_views_evaluate(server, recovered.db, ("in_checkpoint", "in_tail"), sql)
    finally:
        server.close()
        recovered.close()


# ---------------------------------------------------------------------------
# an earlier build's view-state files are never read
# ---------------------------------------------------------------------------

DATABASE = (
    '{"relations": {"R": {"annotations": [2, 1, 1], "columns": [["a", "a", "b"], '
    '[10, 5, 7]], "schema": ["g", "v"], "semiring": "N"}}, "semiring": "N"}'
)

BY_G = "SELECT g, SUM(v) FROM R GROUP BY g"

#: a group-head state in the shape earlier builds wrote, holding sums the
#: database does not: a boot that read it would answer ``a = 999``
STALE_GROUP_STATE = (
    '{"kind": "view_state", "data": {"head": "group", "semiring": "N", '
    '"query": "GB[g; SUM(v)](R)", "db_version": 1, "db_fingerprint": '
    '"b0c2201a9421dbb37d8d16c0e4a1717cf5faf62ad7299d311be1e5e5fc18183f", '
    '"out_schema": ["g", "v"], "core_schema": ["g", "v"], "state": ['
    '{"key": ["a"], "tensors": {"v": {"__tensor__": {"semiring": "N", '
    '"monoid": "SUM", "items": [[999, 1]]}}}, "total": 1}]}}'
)

#: the per-head shapes releases before one ``GB`` state wrote
COUNT_STATE = (
    '{"kind": "view_state", "data": {"head": "count", "semiring": "N", '
    '"query": "COUNT(R)", "db_version": 1, "db_fingerprint": '
    '"b0c2201a9421dbb37d8d16c0e4a1717cf5faf62ad7299d311be1e5e5fc18183f", '
    '"out_schema": ["count"], "core_schema": ["g", "v"], "state": {"tensor": '
    '{"__tensor__": {"semiring": "N", "monoid": "SUM", "items": [[4, 1]]}}}}}'
)

DISTINCT_STATE = (
    '{"kind": "view_state", "data": {"head": "distinct", "semiring": "N", '
    '"query": "\\u03b4(\\u03a0[g](R))", "db_version": 1, "db_fingerprint": '
    '"b0c2201a9421dbb37d8d16c0e4a1717cf5faf62ad7299d311be1e5e5fc18183f", '
    '"out_schema": ["g"], "core_schema": ["g"], "state": '
    '[{"values": ["a"], "annotation": 3}, {"values": ["b"], "annotation": 1}]}}'
)


def snapshot_bytes(body: bytes) -> bytes:
    """``body`` in the snapshot-file format earlier builds wrote."""
    header = json.dumps({"magic": "REPRO-SNAPSHOT-V1", "length": len(body),
                         "sha256": hashlib.sha256(body).hexdigest()}, sort_keys=True)
    return header.encode("utf-8") + b"\n" + body


def torn(body: bytes) -> bytes:
    return snapshot_bytes(body)[: -len(body) // 2]


def flipped(body: bytes) -> bytes:
    raw = bytearray(snapshot_bytes(body))
    raw[-len(body) // 2] ^= 0xFF
    return bytes(raw)


#: view SQL and the bytes an earlier build left in its view file
EARLIER_FILES = {
    "stale-group": (BY_G, snapshot_bytes(STALE_GROUP_STATE.encode())),
    "count": ("SELECT COUNT(*) FROM R", snapshot_bytes(COUNT_STATE.encode())),
    "distinct": ("SELECT DISTINCT g FROM R", snapshot_bytes(DISTINCT_STATE.encode())),
    "torn": (BY_G, torn(STALE_GROUP_STATE.encode())),
    "flipped-byte": (BY_G, flipped(STALE_GROUP_STATE.encode())),
    "wrong-object": (BY_G, snapshot_bytes(DATABASE.encode())),
    "not-an-object": (BY_G, snapshot_bytes(b'"x"')),
}


def view_file(directory: Path, name: str) -> Path:
    """Where an earlier build kept ``name``'s state."""
    return directory / f"view-{hashlib.sha256(name.encode()).hexdigest()[:16]}.snap"


@pytest.mark.parametrize("sql, planted", list(EARLIER_FILES.values()),
                         ids=list(EARLIER_FILES))
def test_an_earlier_builds_view_file_is_never_read(tmp_path, monkeypatch, sql, planted):
    body = '{"database": %s, "views": %s}' % (DATABASE, json.dumps({"totals": sql}))
    Path(checkpoint_path(str(tmp_path), 0)).write_bytes(pack_frame(0, body.encode()))
    planted_at = view_file(tmp_path, "totals")
    planted_at.write_bytes(planted)
    read, load = [], wal_manager._load_checkpoint

    def reading(path, lsn):
        read.append(os.path.basename(path))
        return load(path, lsn)

    monkeypatch.setattr(wal_manager, "_load_checkpoint", reading)

    manager = DurabilityManager.open(str(tmp_path))
    server = ProvenanceServer(manager.db, durability=manager)
    try:
        assert server.restore_views() == {"totals": "rebuilt"}
        assert_views_evaluate(server, manager.db, ("totals",), sql)
        assert read and all(name.startswith("checkpoint-") for name in read)
        assert resilience_counters()["snapshot_rebuilds"] == 0
        manager.update({"R": KRelation.from_rows(NAT, ("g", "v"), [(("c", 1), 1)])})
        manager.checkpoint()
        assert planted_at.read_bytes() == planted
        assert sorted(path.name for path in tmp_path.glob("view-*")) == [planted_at.name]
    finally:
        server.close()
        manager.close()
