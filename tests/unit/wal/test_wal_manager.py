"""The durability manager: recovery, checkpoints, pruning, fallback.

The contract under test is the write-ahead discipline end to end: every
mutation the manager acknowledged is reproduced by :meth:`open` on a
fresh process (same directory), whatever mix of checkpoints and WAL tail
is on disk — including a corrupt *latest* checkpoint (fall back one,
replay a longer tail) and checkpoint-triggered segment pruning (the
retained checkpoints' tails must survive the unlinks).
"""

import hashlib
import json

import pytest

from repro import faults
from repro.core.database import KDatabase
from repro.core.relation import KRelation
from repro.core.schema import Schema
from repro.exceptions import SemiringError, WalCorrupt, WalWriteError
from repro.io import serialize
from repro.semirings import INT, NAT
from repro.wal import DurabilityManager, list_checkpoints, list_segments
from repro.wal.log import pack_frame


@pytest.fixture(autouse=True)
def _reset_counters():
    faults.reset_counters()
    yield
    faults.reset_counters()


def rel(rows, semiring=NAT, schema=("a", "b")):
    return KRelation.from_rows(
        semiring, Schema(schema), [(tuple(r), 1) for r in rows]
    )


def fresh(tmp_path, **kwargs):
    kwargs.setdefault("semiring", NAT)
    kwargs.setdefault("fsync", "always")
    return DurabilityManager.open(tmp_path, **kwargs)


# -- opening -----------------------------------------------------------------


def test_fresh_directory_writes_checkpoint_zero(tmp_path):
    manager = fresh(tmp_path)
    assert manager.recovery["source"] == "fresh"
    assert [lsn for lsn, _ in list_checkpoints(tmp_path)] == [0]
    manager.close()


def test_fresh_directory_requires_a_semiring(tmp_path):
    with pytest.raises(ValueError, match="initial_db or semiring"):
        DurabilityManager.open(tmp_path)


def test_nonempty_directory_is_authoritative_over_initial_db(tmp_path):
    manager = fresh(tmp_path)
    manager.add("R", rel([(1, 2)]))
    manager.close()
    other = KDatabase(NAT)
    other.add("IGNORED", rel([(9, 9)]))
    manager = DurabilityManager.open(tmp_path, initial_db=other)
    assert manager.db.names() == ("R",)
    manager.close()


def test_acknowledged_writes_survive_reopen(tmp_path, typed_contents):
    manager = fresh(tmp_path)
    manager.add("R", rel([(0, 0)]))
    for i in range(10):
        manager.update({"R": rel([(i, i + 1)])})
    manager.update({"R": rel([(10, 3.0)])})  # a float equal to an int
    contents = typed_contents(manager.db)
    manager.close()

    recovered = DurabilityManager.open(tmp_path)
    assert recovered.recovery["source"] == "checkpoint+wal"
    assert recovered.recovery["records_replayed"] == 12
    assert typed_contents(recovered.db) == contents
    recovered.close()


def test_replay_coalesces_but_preserves_deletions_in_z(tmp_path, typed_contents):
    manager = fresh(tmp_path, semiring=INT)
    manager.add("R", rel([(1, 1), (2, 2)], semiring=INT))
    # delete (1,1) the Z way: a delta carrying the additive inverse
    delete = KRelation.from_rows(INT, Schema(("a", "b")), [((1, 1), -1)])
    manager.update({"R": delete})
    contents = typed_contents(manager.db)
    manager.close()

    recovered = DurabilityManager.open(tmp_path)
    assert typed_contents(recovered.db) == contents
    support = {tuple(t[a] for a in ("a", "b"))
               for t, _ in recovered.db.relation("R").items()}
    assert support == {(2, 2)}
    recovered.close()


def test_update_validates_before_logging(tmp_path):
    manager = fresh(tmp_path)
    manager.add("R", rel([(1, 2)]))
    lsn_before = manager.stats()["last_lsn"]
    with pytest.raises(Exception):
        manager.update({"MISSING": rel([(1, 2)])})
    with pytest.raises(SemiringError):
        manager.add("S", rel([(1, 2)], semiring=INT))
    # neither bad batch reached the log
    assert manager.stats()["last_lsn"] == lsn_before
    manager.close()


def test_empty_update_is_a_no_op(tmp_path):
    manager = fresh(tmp_path)
    manager.add("R", rel([(1, 2)]))
    assert manager.update({}) is None
    manager.close()


# -- checkpoints and pruning -------------------------------------------------


def test_checkpoint_skips_when_nothing_changed(tmp_path):
    manager = fresh(tmp_path)
    manager.add("R", rel([(1, 2)]))
    assert manager.checkpoint() is not None
    assert manager.checkpoint() is None  # no new records
    assert manager.checkpoint(force=True) is not None
    manager.close()


def test_checkpoint_resets_lag_and_shortens_replay(tmp_path):
    manager = fresh(tmp_path)
    manager.add("R", rel([(0, 0)]))
    for i in range(5):
        manager.update({"R": rel([(i, i)])})
    assert manager.lag_records() == 6
    manager.checkpoint()
    assert manager.lag_records() == 0
    manager.update({"R": rel([(9, 9)])})
    manager.close()

    recovered = DurabilityManager.open(tmp_path)
    assert recovered.recovery["records_replayed"] == 1  # only the tail
    recovered.close()


def test_two_checkpoints_kept_and_old_segments_pruned(tmp_path, typed_contents):
    manager = fresh(tmp_path, segment_bytes=4096)
    manager.add("R", rel([(0, 0)]))
    for round_no in range(4):
        for i in range(60):
            manager.update({"R": rel([(round_no, i)])})
        manager.checkpoint()
    checkpoints = [lsn for lsn, _ in list_checkpoints(tmp_path)]
    assert len(checkpoints) == DurabilityManager.KEEP_CHECKPOINTS
    # every surviving segment is needed by the oldest kept checkpoint
    oldest_kept = min(checkpoints)
    segments = list_segments(tmp_path)
    assert len(segments) >= 1
    for (first, _), (next_first, _) in zip(segments, segments[1:]):
        assert next_first > oldest_kept + 1  # else it would have been pruned
    contents = typed_contents(manager.db)
    manager.close()
    recovered = DurabilityManager.open(tmp_path)
    assert typed_contents(recovered.db) == contents
    recovered.close()


def test_corrupt_latest_checkpoint_falls_back_to_the_previous(tmp_path, typed_contents):
    manager = fresh(tmp_path)
    manager.add("R", rel([(0, 0)]))
    manager.checkpoint()
    manager.update({"R": rel([(1, 1)])})
    latest = manager.checkpoint()
    manager.update({"R": rel([(2, 2)])})  # tail past the latest checkpoint
    contents = typed_contents(manager.db)
    manager.close()

    with open(latest, "r+b") as fh:
        fh.seek(120)
        fh.write(b"\x00\x00\x00\x00")

    recovered = DurabilityManager.open(tmp_path)
    assert recovered.recovery["checkpoints_skipped"] == 1
    # the older checkpoint's WAL tail was never pruned, so the replay
    # covers everything the damaged snapshot held — and what followed it
    assert typed_contents(recovered.db) == contents
    recovered.close()


def test_checksum_valid_non_object_checkpoint_falls_back_to_the_previous(
        tmp_path, typed_contents):
    """A latest checkpoint whose verified body is not a JSON object is
    skipped like a damaged one; recovery replays from the older one."""
    manager = fresh(tmp_path)
    manager.add("R", rel([(0, 0)]))
    manager.checkpoint()
    manager.update({"R": rel([(1, 1)])})
    latest = manager.checkpoint()
    manager.update({"R": rel([(2, 2)])})
    contents = typed_contents(manager.db)
    manager.close()

    with open(latest, "wb") as fh:
        fh.write(pack_frame(list_checkpoints(tmp_path)[0][0], b"[]"))

    recovered = DurabilityManager.open(tmp_path)
    assert recovered.recovery["checkpoints_skipped"] == 1
    assert typed_contents(recovered.db) == contents
    recovered.close()


def test_all_checkpoints_corrupt_with_full_history_replays_from_empty(tmp_path, typed_contents):
    manager = fresh(tmp_path)
    manager.add("R", rel([(0, 0)]))
    manager.update({"R": rel([(1, 1)])})
    contents = typed_contents(manager.db)
    manager.close()
    for _, path in list_checkpoints(tmp_path):
        with open(path, "r+b") as fh:
            fh.seek(50)
            fh.write(b"\xff\xff")
    # semiring cannot come off the corrupt snapshots: caller must supply it
    with pytest.raises(WalCorrupt, match="semiring"):
        DurabilityManager.open(tmp_path)
    recovered = DurabilityManager.open(tmp_path, semiring=NAT)
    assert recovered.recovery["source"] == "full-replay"
    assert typed_contents(recovered.db) == contents
    recovered.close()


def test_view_definitions_survive_checkpoint_and_replay(tmp_path):
    manager = fresh(tmp_path)
    manager.add("R", rel([(1, 2)]))
    manager.create_view("before", "SELECT a FROM R")
    manager.checkpoint()  # definition now lives in the checkpoint
    manager.create_view("after", "SELECT b FROM R")  # only in the WAL tail
    manager.close()

    recovered = DurabilityManager.open(tmp_path)
    assert recovered.view_defs == {
        "before": "SELECT a FROM R",
        "after": "SELECT b FROM R",
    }
    recovered.close()


def test_a_checkpoint_cut_after_its_first_write_keeps_the_view_definitions(
        tmp_path, monkeypatch):
    """A checkpoint is one file: if the disk fails after its first write,
    the definitions it covers are in that write, not in a second file
    that never landed."""
    manager = fresh(tmp_path)
    manager.add("R", rel([(1, 2)]))
    manager.create_view("v", "SELECT a FROM R")
    real, writes = serialize.write_atomic, []

    def first_write_only(path, data, **kwargs):
        writes.append(path)
        if len(writes) > 1:
            raise OSError("no space left on device")
        real(path, data, **kwargs)

    monkeypatch.setattr(serialize, "write_atomic", first_write_only)
    try:
        manager.checkpoint()
    except OSError:
        pass
    manager.close()
    monkeypatch.undo()

    recovered = DurabilityManager.open(tmp_path)
    assert recovered.recovery["checkpoint_lsn"] == 2
    assert recovered.view_defs == {"v": "SELECT a FROM R"}
    assert recovered.db.names() == ("R",)
    recovered.close()


def test_a_damaged_newest_checkpoint_falls_back_with_relations_and_views(
        tmp_path, typed_contents):
    manager = fresh(tmp_path)
    manager.add("R", rel([(1, 2)]))
    manager.create_view("v", "SELECT a FROM R")
    manager.checkpoint()
    manager.update({"R": rel([(3, 4)])})
    manager.create_view("w", "SELECT b FROM R")
    latest = manager.checkpoint()
    contents = typed_contents(manager.db)
    manager.close()
    with open(latest, "r+b") as fh:
        fh.seek(60)
        fh.write(b"\xff")

    recovered = DurabilityManager.open(tmp_path)
    assert recovered.recovery["checkpoints_skipped"] == 1
    assert recovered.recovery["checkpoint_lsn"] == 2
    assert typed_contents(recovered.db) == contents
    assert recovered.view_defs == {"v": "SELECT a FROM R", "w": "SELECT b FROM R"}
    recovered.close()


# -- a directory the build before this format wrote ---------------------------


def earlier_checkpoint(payload) -> bytes:
    """A checkpoint in the earlier format: a JSON header line, then a body."""
    body = json.dumps(payload).encode()
    header = json.dumps({"length": len(body), "magic": "REPRO-SNAPSHOT-V1",
                         "sha256": hashlib.sha256(body).hexdigest()}, sort_keys=True)
    return header.encode() + b"\n" + body


def earlier_segment(first_lsn, bodies) -> bytes:
    """A segment in the earlier format: two header lines, then frames."""
    header = b'REPRO-WAL-SEG-V1\n{"first_lsn": %d}\n' % first_lsn
    return header + b"".join(
        pack_frame(first_lsn + i, body) for i, body in enumerate(bodies))


def plant_earlier_directory(directory, segment):
    database = {"semiring": "N", "relations": {"R": {
        "semiring": "N", "schema": ["a", "b"],
        "columns": [[1], [2]], "annotations": [1]}}}
    (directory / "checkpoint-00000000000000000000.snap").write_bytes(
        earlier_checkpoint({"kind": "database", "data": database}))
    (directory / "checkpoint-00000000000000000000.views.json").write_text(
        json.dumps({"views": {"v": "SELECT a FROM R"}}))
    if segment is not None:
        (directory / "wal-00000000000000000001.log").write_bytes(segment)


EARLIER_SEGMENTS = {
    "checkpoint-only": None,
    "header-only-segment": earlier_segment(1, []),
    "segment-with-records": earlier_segment(1, [
        b'{"op":"create_view","name":"w","sql":"SELECT b FROM R"}',
        b'{"op":"update","relations":{"R":{"annotations":[1],"columns":[[3],[4]],'
        b'"schema":["a","b"],"semiring":"N"}}}',
    ]),
}


@pytest.mark.parametrize("segment", list(EARLIER_SEGMENTS.values()),
                         ids=list(EARLIER_SEGMENTS))
@pytest.mark.parametrize("kwargs", [{}, {"semiring": NAT},
                                    {"initial_db": KDatabase(NAT)}],
                         ids=["bare", "semiring", "initial-db"])
def test_an_earlier_format_directory_is_refused(tmp_path, segment, kwargs):
    """Never booted empty or with part of its data, and left as found."""
    plant_earlier_directory(tmp_path, segment)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(WalCorrupt):
        DurabilityManager.open(tmp_path, **kwargs)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# -- failure wiring ----------------------------------------------------------


def test_unwritable_log_surfaces_and_database_stays_clean(tmp_path, typed_contents):
    manager = fresh(tmp_path)
    manager.add("R", rel([(0, 0)]))
    version = manager.db.version
    with faults.inject("wal_torn_tail", seed=2):
        with pytest.raises(WalWriteError):
            manager.update({"R": rel([(1, 1)])})
    assert manager.db.version == version  # never applied
    assert not manager.healthy
    assert manager.stats()["unwritable"] is True
    with pytest.raises(WalWriteError):
        manager.update({"R": rel([(2, 2)])})
    manager._wal.close()

    recovered = DurabilityManager.open(tmp_path)
    assert recovered.recovery["torn_tail"] is True
    assert typed_contents(recovered.db) == typed_contents(manager.db)
    recovered.close()


def test_latent_record_corruption_refuses_recovery(tmp_path):
    manager = fresh(tmp_path)
    manager.add("R", rel([(0, 0)]))
    with faults.inject("wal_corrupt_record", seed=4):
        manager.update({"R": rel([(1, 1)])})  # acked; damage is latent
    manager.update({"R": rel([(2, 2)])})
    manager.close()
    with pytest.raises(WalCorrupt):
        DurabilityManager.open(tmp_path)


def test_stats_reports_the_whole_durability_story(tmp_path):
    manager = fresh(tmp_path, fsync="batch")
    manager.add("R", rel([(0, 0)]))
    manager.update({"R": rel([(1, 1)])})
    stats = manager.stats()
    assert stats["fsync"] == "batch"
    assert stats["last_lsn"] == 2
    assert stats["checkpoint_lsn"] == 0
    assert stats["lag_records"] == 2
    assert stats["records_appended"] == 2
    assert stats["unwritable"] is False
    assert stats["recovery"]["source"] == "fresh"
    assert json.dumps(stats)  # the whole block is JSON-safe for /stats
    manager.close()


def test_close_with_checkpoint_leaves_an_empty_tail(tmp_path):
    manager = fresh(tmp_path)
    manager.add("R", rel([(0, 0)]))
    manager.close(checkpoint=True)
    recovered = DurabilityManager.open(tmp_path)
    assert recovered.recovery["records_replayed"] == 0
    assert recovered.db.names() == ("R",)
    recovered.close()


def test_checkpoint_of_layered_tables_recovers_every_acknowledged_row(tmp_path, typed_contents):
    """Small updates leave each table a version layered over its
    predecessor's rows (inserts, collisions, cancellations in ``Z``); a
    checkpoint serialises those versions and recovery reproduces them
    row for row, the WAL tail after the checkpoint included."""
    manager = fresh(tmp_path, semiring=INT)
    base = [((k, k % 3), 1) for k in range(400)]
    manager.add("R", KRelation.from_rows(INT, Schema(("a", "b")), base))
    manager.add("S", KRelation.from_rows(INT, Schema(("a", "b")), base))
    for i in range(6):
        manager.update({
            "R": KRelation.from_rows(INT, Schema(("a", "b")), [
                ((1_000 + i, 0), 1), ((i, i % 3), 2), ((100 + i, (100 + i) % 3), -1)]),
            "S": KRelation.from_rows(INT, Schema(("a", "b")), [((2_000 + i, 1), 1)]),
        })
    layered = manager.db.relation("R")
    assert layered._flat is None  # nothing has read the whole map yet
    manager.checkpoint()
    manager.update({"R": KRelation.from_rows(INT, Schema(("a", "b")), [((200, 2), -1)])})
    assert manager.db.relation("R")._flat is None
    contents = typed_contents(manager.db)
    expected = {name: dict(rel.rows()) for name, rel in manager.db}
    manager.close()

    recovered = DurabilityManager.open(tmp_path)
    assert recovered.recovery["source"] == "checkpoint+wal"
    assert recovered.recovery["records_replayed"] == 1
    assert typed_contents(recovered.db) == contents
    assert {name: dict(rel.rows()) for name, rel in recovered.db} == expected
    assert len(expected["R"]) == 400 + 6 - 6 - 1
    recovered.close()
