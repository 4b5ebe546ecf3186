"""Non-group view snapshots of the earlier per-head shapes rebuild.

Every view head now keeps one ``GB`` state and writes one snapshot shape,
``{key, tensors, total}`` per group.  Earlier releases wrote a COUNT,
AGG or AVG head as one ``{"tensor": ...}`` object and a DISTINCT or
plain view as ``{values, annotation}`` rows.  The literal fixtures below
are such files' bodies, byte for byte.  They no longer decode, and the
failure is typed: :func:`repro.ivm.snapshot.load_view` rebuilds the view
by evaluation (counted in ``snapshot_rebuilds``) instead of crashing a
restore at boot.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import faults
from repro.exceptions import SnapshotCorrupt
from repro.io.serialize import SNAPSHOT_MAGIC, SerializationError, loads
from repro.ivm.snapshot import load_view
from repro.obs.metrics import resilience_counters
from repro.sql.compiler import compile_sql

DATABASE = (
    '{"data": {"relations": {"R": {"rows": [{"annotation": 2, "values": ["a", 10]}, '
    '{"annotation": 1, "values": ["a", 5]}, {"annotation": 1, "values": ["b", 7]}], '
    '"schema": ["g", "v"], "semiring": "N"}}, "semiring": "N"}, "kind": "database"}'
)

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

CASES = [
    ("SELECT COUNT(*) FROM R", COUNT_STATE),
    ("SELECT DISTINCT g FROM R", DISTINCT_STATE),
]


@pytest.fixture(autouse=True)
def _reset_counters():
    faults.reset_counters()
    yield
    faults.reset_counters()


def snapshot_file(path: Path, body: str) -> Path:
    """Write ``body`` in the checksummed snapshot-file format."""
    data = body.encode("utf-8")
    header = json.dumps({"magic": SNAPSHOT_MAGIC, "length": len(data),
                         "sha256": hashlib.sha256(data).hexdigest()}, sort_keys=True)
    path.write_bytes(header.encode("utf-8") + b"\n" + data)
    return path


@pytest.mark.parametrize("sql, body", CASES, ids=["count", "distinct"])
def test_an_old_non_group_snapshot_fails_to_decode_typed(sql, body):
    with pytest.raises(SerializationError):
        loads(body)


@pytest.mark.parametrize("sql, body", CASES, ids=["count", "distinct"])
def test_an_old_non_group_snapshot_rebuilds_by_evaluation(tmp_path, sql, body):
    db, query = loads(DATABASE), compile_sql(sql)
    path = snapshot_file(tmp_path / "view.json", body)
    with pytest.raises(SnapshotCorrupt):
        load_view(db, query, path, rebuild_on_corrupt=False)
    view = load_view(db, query, path)
    assert not view.restored_from_snapshot
    assert resilience_counters()["snapshot_rebuilds"] == 1
    assert view.result() == query.evaluate(db)
    assert view.result().pretty() == query.evaluate(db).pretty()
