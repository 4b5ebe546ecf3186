"""Crash-safe snapshot files: every way the bytes can lie is detected.

:func:`repro.io.serialize.dump_file` writes a checksummed, atomically
installed snapshot; :func:`load_file` must turn *any* damage — header
truncation, body truncation, a flipped byte, a stale checksum, a file
that was never a snapshot, a torn write installed by a crash between
write and rename — into the typed
:class:`~repro.exceptions.SnapshotCorrupt`, never a bare pickle/JSON/
``KeyError`` escaping mid-restore.  Recovery then skips a damaged
checkpoint for the previous one (counted in the resilience ledger), so
damage costs a longer replay, never a wrong answer."""

import glob
import json
import os

import pytest

from repro import faults
from repro.core import KDatabase, KRelation
from repro.exceptions import SnapshotCorrupt
from repro.io.serialize import SNAPSHOT_MAGIC, dump_file, load_file
from repro.obs.metrics import resilience_counters
from repro.semirings import NAT
from repro.wal import DurabilityManager


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


def split(path):
    raw = open(path, "rb").read()
    newline = raw.find(b"\n")
    return raw[:newline], raw[newline + 1 :]


# ---------------------------------------------------------------------------
# the happy path
# ---------------------------------------------------------------------------


def test_round_trip_restores_the_relation(tmp_path):
    path = tmp_path / "r.snap"
    rel = sales_db().relation("R")
    assert dump_file(rel, path) == os.fspath(path)
    assert load_file(path) == rel


def test_file_is_self_describing(tmp_path):
    path = tmp_path / "r.snap"
    dump_file(sales_db().relation("R"), path)
    header, body = split(path)
    meta = json.loads(header)
    assert meta["magic"] == SNAPSHOT_MAGIC
    assert meta["length"] == len(body)


def test_no_temp_files_survive_a_successful_write(tmp_path):
    dump_file(sales_db().relation("R"), tmp_path / "r.snap")
    assert glob.glob(str(tmp_path / "*.tmp")) == []


def test_missing_file_is_not_corruption(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_file(tmp_path / "never-written.snap")


# ---------------------------------------------------------------------------
# the corruption matrix
# ---------------------------------------------------------------------------


def _write(path, data: bytes):
    with open(path, "wb") as handle:
        handle.write(data)


def test_truncated_body_is_detected(tmp_path):
    path = tmp_path / "r.snap"
    dump_file(sales_db().relation("R"), path)
    header, body = split(path)
    _write(path, header + b"\n" + body[: len(body) // 2])
    with pytest.raises(SnapshotCorrupt, match="truncated or partially written"):
        load_file(path)


def test_truncated_header_is_detected(tmp_path):
    path = tmp_path / "r.snap"
    dump_file(sales_db().relation("R"), path)
    header, _body = split(path)
    _write(path, header[: len(header) // 2])  # no newline survives
    with pytest.raises(SnapshotCorrupt, match="no header line"):
        load_file(path)


def test_flipped_body_byte_is_detected(tmp_path):
    path = tmp_path / "r.snap"
    dump_file(sales_db().relation("R"), path)
    header, body = split(path)
    flipped = bytearray(body)
    flipped[len(flipped) // 2] ^= 0xFF
    _write(path, header + b"\n" + bytes(flipped))
    with pytest.raises(SnapshotCorrupt, match="sha256 mismatch"):
        load_file(path)


def test_stale_checksum_is_detected(tmp_path):
    path = tmp_path / "r.snap"
    dump_file(sales_db().relation("R"), path)
    header, body = split(path)
    meta = json.loads(header)
    meta["sha256"] = "0" * 64
    _write(path, json.dumps(meta).encode() + b"\n" + body)
    with pytest.raises(SnapshotCorrupt, match="sha256 mismatch"):
        load_file(path)


def test_foreign_file_is_detected(tmp_path):
    path = tmp_path / "r.snap"
    _write(path, b'{"not": "a snapshot"}\n{"kind": "x"}')
    with pytest.raises(SnapshotCorrupt, match="bad magic"):
        load_file(path)
    _write(path, b"\x00\xff\x00\xff\n\x00")
    with pytest.raises(SnapshotCorrupt, match="unreadable header"):
        load_file(path)


def test_verified_body_that_cannot_decode_is_still_typed(tmp_path):
    """Checksum fine, payload hostile: the decode failure stays typed."""
    path = tmp_path / "r.snap"
    body = b'{"kind": "mystery", "data": {}}'
    import hashlib

    header = json.dumps(
        {"magic": SNAPSHOT_MAGIC, "length": len(body),
         "sha256": hashlib.sha256(body).hexdigest()}
    ).encode()
    _write(path, header + b"\n" + body)
    with pytest.raises(SnapshotCorrupt, match="failed to decode"):
        load_file(path)


@pytest.mark.parametrize("body", [b"[]", b'"x"'])
def test_verified_body_that_is_not_an_object_is_corruption(tmp_path, body):
    """A checksum-valid body that is not a JSON object is corruption too."""
    import hashlib

    path = tmp_path / "t.snap"
    header = json.dumps(
        {"magic": SNAPSHOT_MAGIC, "length": len(body),
         "sha256": hashlib.sha256(body).hexdigest()}
    ).encode()
    _write(path, header + b"\n" + body)
    with pytest.raises(SnapshotCorrupt, match="failed to decode"):
        load_file(path)


def test_injected_torn_write_models_a_crash_before_rename(tmp_path):
    """The ``truncate_snapshot`` fault truncates the temp file *after*
    the data fsync and *before* the atomic rename — the installed file
    looks present but is torn, and load detects it."""
    path = tmp_path / "r.snap"
    with faults.inject("truncate_snapshot", keep=25):
        dump_file(sales_db().relation("R"), path)
    assert resilience_counters()["faults_injected"] == 1
    assert os.path.exists(path)  # installed — that's the point
    with pytest.raises(SnapshotCorrupt):
        load_file(path)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_seeded_torn_writes_are_always_detected(tmp_path, seed):
    path = tmp_path / "r.snap"
    with faults.inject("truncate_snapshot", seed=seed):
        dump_file(sales_db().relation("R"), path)
    with pytest.raises(SnapshotCorrupt):
        load_file(path)


# ---------------------------------------------------------------------------
# checkpoint restore: corruption costs a longer replay, never a wrong answer
# ---------------------------------------------------------------------------


def test_checkpoint_holding_the_wrong_object_is_skipped(tmp_path):
    manager = DurabilityManager.open(tmp_path, initial_db=sales_db(), fsync="always")
    manager.update({"R": KRelation.from_rows(NAT, ("g", "v"), [(("g9", 9), 1)])})
    latest = manager.checkpoint()
    expected = manager.db.relation("R")
    manager.close()
    dump_file(sales_db().relation("R"), latest)  # a relation, not a database

    recovered = DurabilityManager.open(tmp_path)
    assert recovered.recovery["checkpoints_skipped"] == 1
    assert recovered.db.relation("R") == expected
    assert resilience_counters()["snapshot_rebuilds"] == 1
    recovered.close()
