"""Checkpoint files: one frame, and every way its bytes can lie is detected.

A checkpoint ``checkpoint-<lsn>.snap`` is exactly one frame of the
write-ahead log's format (:func:`repro.wal.log.pack_frame`): its LSN is
the one the checkpoint covers and its body is ``{"database": ...,
"views": {name: sql}}``, installed atomically.  Loading must turn *any*
damage — a short or long file, a flipped byte, a stale checksum, a file
that was never a checkpoint, an LSN other than the filename's, a body
that is not that object, a torn write installed by a crash between
write and rename — into the typed
:class:`~repro.exceptions.SnapshotCorrupt`, never a bare JSON or
``KeyError`` escaping mid-restore.  Recovery then skips a damaged
checkpoint for the previous one (counted in the resilience ledger), so
damage costs a longer replay, never a wrong answer."""

import json
import os

import pytest

from repro import faults
from repro.core import KDatabase, KRelation
from repro.exceptions import SnapshotCorrupt
from repro.io.serialize import database_to_jsonable, dumps
from repro.obs.metrics import resilience_counters
from repro.semirings import NAT
from repro.wal import DurabilityManager, list_checkpoints
from repro.wal.log import _FRAME, pack_frame, unpack_frame
from repro.wal.manager import _load_checkpoint, checkpoint_path

SQL = "SELECT g, SUM(v) FROM R GROUP BY g"


@pytest.fixture(autouse=True)
def _reset_counters():
    faults.reset_counters()
    yield
    faults.reset_counters()


def sales_db():
    rel = KRelation.from_rows(
        NAT, ("g", "v"), [((f"g{i % 3}", i), 1 + i % 2) for i in range(9)]
    )
    return KDatabase(NAT, {"R": rel})


def checkpointed(tmp_path):
    """A data directory whose newest checkpoint, at LSN 1, holds
    ``sales_db()`` and one view definition; returns its path."""
    manager = DurabilityManager.open(tmp_path, initial_db=sales_db(), fsync="always")
    manager.create_view("totals", SQL)
    path = manager.checkpoint()
    manager.close()
    return path


def framed(payload, lsn=1) -> bytes:
    """``payload`` (bytes, or JSON-able) as a checkpoint frame at ``lsn``."""
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    return pack_frame(lsn, body)


# ---------------------------------------------------------------------------
# the happy path
# ---------------------------------------------------------------------------


def test_round_trip_restores_the_database_and_the_views(tmp_path):
    path = checkpointed(tmp_path)
    assert path == checkpoint_path(str(tmp_path), 1)
    db, views = _load_checkpoint(path, 1)
    assert dict(iter(db)) == dict(iter(sales_db()))
    assert views == {"totals": SQL}


def test_the_file_is_exactly_one_frame(tmp_path):
    raw = open(checkpointed(tmp_path), "rb").read()
    lsn, body, end = unpack_frame(raw)
    assert (lsn, end) == (1, len(raw))
    assert json.loads(body) == {
        "database": database_to_jsonable(sales_db()), "views": {"totals": SQL}}


def test_the_directory_holds_segments_and_checkpoints_only(tmp_path):
    checkpointed(tmp_path)
    names = os.listdir(tmp_path)
    assert names and all(
        name.startswith(("wal-", "checkpoint-"))
        and name.endswith(".log" if name.startswith("wal-") else ".snap")
        for name in names
    ), names


def test_missing_file_is_not_corruption(tmp_path):
    with pytest.raises(FileNotFoundError):
        _load_checkpoint(str(tmp_path / "never-written.snap"), 0)


# ---------------------------------------------------------------------------
# the damage matrix
# ---------------------------------------------------------------------------


def _damage(raw: bytes, case: str) -> bytes:
    if case == "truncated":
        return raw[: len(raw) // 2]
    if case == "truncated-frame":
        return raw[: _FRAME.size - 7]
    if case == "empty":
        return b""
    if case == "trailing-bytes":
        return raw + b"\n"
    if case == "flipped-byte":
        flipped = bytearray(raw)
        flipped[len(flipped) // 2] ^= 0xFF
        return bytes(flipped)
    if case == "stale-checksum":
        return raw[: _FRAME.size - 32] + bytes(32) + raw[_FRAME.size:]
    if case == "bad-magic":
        return b"XXXX" + raw[4:]
    raise AssertionError(case)


#: each kind of damage and the reason :class:`SnapshotCorrupt` gives
DAMAGE = {
    "truncated": "truncated record body",
    "truncated-frame": "truncated frame",
    "empty": "truncated frame",
    "trailing-bytes": "trail its frame",
    "flipped-byte": "checksum mismatch",
    "stale-checksum": "checksum mismatch",
    "bad-magic": "bad record magic",
}


@pytest.mark.parametrize("case, reason", list(DAMAGE.items()), ids=list(DAMAGE))
def test_damaged_bytes_are_detected(tmp_path, case, reason):
    path = checkpointed(tmp_path)
    raw = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(_damage(raw, case))
    with pytest.raises(SnapshotCorrupt, match=reason):
        _load_checkpoint(path, 1)


@pytest.mark.parametrize("raw", [
    b'{"not": "a checkpoint"}\n{"kind": "x"}',
    b"\x00\xff\x00\xff\n\x00",
], ids=["json", "binary"])
def test_foreign_file_is_detected(tmp_path, raw):
    path = tmp_path / "checkpoint-00000000000000000001.snap"
    path.write_bytes(raw)
    with pytest.raises(SnapshotCorrupt, match="bad record magic"):
        _load_checkpoint(str(path), 1)


def test_a_frame_under_another_lsn_is_detected(tmp_path):
    path = checkpointed(tmp_path)
    raw = open(path, "rb").read()
    _lsn, body, _end = unpack_frame(raw)
    with open(path, "wb") as fh:
        fh.write(pack_frame(7, body))
    with pytest.raises(SnapshotCorrupt, match="filename says lsn=1"):
        _load_checkpoint(path, 1)


#: verified frames whose body is not ``{"database": ..., "views": ...}``
BODIES = {
    "undecodable": b"\xff\xfe not json",
    "not-json": b"{database",
    "array": [],
    "string": "x",
    "dumps-payload": json.loads(dumps(sales_db())),
    "database-only": {"database": database_to_jsonable(sales_db())},
    "extra-key": {"database": database_to_jsonable(sales_db()), "views": {}, "x": 1},
    "views-not-sql": {"database": database_to_jsonable(sales_db()),
                      "views": {"totals": 3}},
    "views-a-list": {"database": database_to_jsonable(sales_db()),
                     "views": [SQL]},
    "database-malformed": {"database": {"semiring": "N", "relations": []},
                           "views": {}},
    "unknown-semiring": {"database": {"semiring": "Q", "relations": {}},
                         "views": {}},
}


@pytest.mark.parametrize("payload", list(BODIES.values()), ids=list(BODIES))
def test_a_verified_body_that_is_not_a_checkpoint_is_corruption(tmp_path, payload):
    """Checksum fine, body hostile: the decode failure stays typed."""
    path = tmp_path / "checkpoint-00000000000000000001.snap"
    path.write_bytes(framed(payload))
    with pytest.raises(SnapshotCorrupt, match="failed to decode"):
        _load_checkpoint(str(path), 1)


def test_injected_torn_write_models_a_crash_before_rename(tmp_path):
    """The ``truncate_snapshot`` fault truncates the temp file *after*
    the data fsync and *before* the atomic rename — the installed file
    looks present but is torn, and load detects it."""
    manager = DurabilityManager.open(tmp_path, initial_db=sales_db(), fsync="always")
    manager.create_view("totals", SQL)
    with faults.inject("truncate_snapshot", keep=25):
        path = manager.checkpoint()
    manager.close()
    assert resilience_counters()["faults_injected"] == 1
    assert os.path.getsize(path) == 25  # installed — that's the point
    with pytest.raises(SnapshotCorrupt, match="truncated frame"):
        _load_checkpoint(path, 1)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_seeded_torn_writes_are_always_detected(tmp_path, seed):
    manager = DurabilityManager.open(tmp_path, initial_db=sales_db(), fsync="always")
    manager.create_view("totals", SQL)
    with faults.inject("truncate_snapshot", seed=seed):
        path = manager.checkpoint()
    manager.close()
    with pytest.raises(SnapshotCorrupt):
        _load_checkpoint(path, 1)


# ---------------------------------------------------------------------------
# checkpoint restore: corruption costs a longer replay, never a wrong answer
# ---------------------------------------------------------------------------


def test_checkpoint_holding_the_wrong_object_is_skipped(tmp_path):
    manager = DurabilityManager.open(tmp_path, initial_db=sales_db(), fsync="always")
    manager.update({"R": KRelation.from_rows(NAT, ("g", "v"), [(("g9", 9), 1)])})
    manager.create_view("totals", SQL)
    latest = manager.checkpoint()
    expected = manager.db.relation("R")
    manager.close()
    lsn = list_checkpoints(tmp_path)[0][0]
    with open(latest, "wb") as fh:  # a dumps payload, not a checkpoint
        fh.write(framed(json.loads(dumps(sales_db())), lsn))

    recovered = DurabilityManager.open(tmp_path)
    assert recovered.recovery["checkpoints_skipped"] == 1
    assert recovered.db.relation("R") == expected
    assert recovered.view_defs == {"totals": SQL}
    assert resilience_counters()["snapshot_rebuilds"] == 1
    recovered.close()

