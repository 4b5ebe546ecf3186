"""The byte-level WAL: framing, crash shapes, fsync policies, injection.

Every way a segment's bytes can lie about history must land in exactly
one of two buckets: a **torn final record** (a crash mid-append — the
write was never acknowledged, so recovery truncates it away and
continues) or **mid-log corruption** (acknowledged history is damaged —
recovery refuses with the typed :class:`~repro.exceptions.WalCorrupt`,
never a bare ``struct.error``/``KeyError``).  These tests build both
shapes byte-by-byte and check the scanner never confuses them.
"""

import os
import struct

import pytest

from repro import faults
from repro.exceptions import WalCorrupt, WalWriteError
from repro.obs import metrics as obs_metrics
from repro.wal import (
    FSYNC_POLICIES,
    WriteAheadLog,
    list_segments,
    scan_wal,
    segment_path,
)
from repro.wal.log import _FRAME, RECORD_MAGIC, pack_frame


@pytest.fixture(autouse=True)
def _reset_counters():
    faults.reset_counters()
    yield
    faults.reset_counters()


def fill(wal, n, start=0):
    return [wal.append(b"payload-%06d" % i) for i in range(start, start + n)]


# -- append / scan round-trip ------------------------------------------------


@pytest.mark.parametrize("fsync", FSYNC_POLICIES)
def test_append_scan_roundtrip_under_every_fsync_policy(tmp_path, fsync):
    wal = WriteAheadLog(tmp_path, fsync=fsync, batch_interval_s=0.001)
    lsns = fill(wal, 20)
    wal.close()
    assert lsns == list(range(1, 21))

    records, info = scan_wal(tmp_path)
    assert [lsn for lsn, _ in records] == lsns
    assert [body for _, body in records] == [b"payload-%06d" % i for i in range(20)]
    assert info["torn_tail"] is False
    assert info["last_lsn"] == 20


def test_segments_roll_by_size_and_scan_stitches_them(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="none", segment_bytes=4096)
    fill(wal, 200)  # ~60B/record: several segments
    wal.close()
    segments = list_segments(tmp_path)
    assert len(segments) > 1
    # filenames are the first LSN each segment holds, strictly increasing
    firsts = [first for first, _ in segments]
    assert firsts == sorted(firsts) and firsts[0] == 1

    records, info = scan_wal(tmp_path)
    assert [lsn for lsn, _ in records] == list(range(1, 201))
    assert info["segments"] == len(segments)


def test_reopen_starts_a_fresh_segment_and_lsns_continue(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="none")
    fill(wal, 5)
    wal.close()
    records, info = scan_wal(tmp_path)
    wal2 = WriteAheadLog(tmp_path, next_lsn=info["last_lsn"] + 1, fsync="none")
    more = fill(wal2, 3, start=5)
    wal2.close()
    assert more == [6, 7, 8]
    records, info = scan_wal(tmp_path)
    assert [lsn for lsn, _ in records] == list(range(1, 9))
    assert len(list_segments(tmp_path)) == 2  # old tail never re-opened


def test_scan_after_lsn_skips_the_checkpointed_prefix(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="none")
    fill(wal, 10)
    wal.close()
    records, info = scan_wal(tmp_path, after_lsn=7)
    assert [lsn for lsn, _ in records] == [8, 9, 10]
    assert info["last_lsn"] == 10


# -- torn tails (crash mid-append: truncate and continue) --------------------


def torn_log(tmp_path, cut):
    """A 5-record log whose last record is cut back to ``cut`` bytes."""
    wal = WriteAheadLog(tmp_path, fsync="always")
    fill(wal, 5)
    wal.close()
    (first, path), = list_segments(tmp_path)
    records, _ = scan_wal(tmp_path)
    last_len = _FRAME.size + len(records[-1][1])
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(size - last_len + cut)
    return path


@pytest.mark.parametrize("cut", [1, 3, _FRAME.size - 1, _FRAME.size + 4])
def test_torn_final_record_is_truncated_and_counted(tmp_path, cut):
    path = torn_log(tmp_path, cut)
    records, info = scan_wal(tmp_path)
    assert [lsn for lsn, _ in records] == [1, 2, 3, 4]
    assert info["torn_tail"] is True
    assert info["truncated_bytes"] == cut
    assert obs_metrics.resilience_counters()["wal_torn_tails"] == 1
    # the repair is durable: a second scan sees a clean log
    records, info = scan_wal(tmp_path)
    assert [lsn for lsn, _ in records] == [1, 2, 3, 4]
    assert info["torn_tail"] is False


def test_repair_false_leaves_the_torn_bytes_in_place(tmp_path):
    path = torn_log(tmp_path, 7)
    size_before = os.path.getsize(path)
    records, info = scan_wal(tmp_path, repair=False)
    assert info["torn_tail"] is True
    assert [lsn for lsn, _ in records] == [1, 2, 3, 4]
    assert os.path.getsize(path) == size_before


@pytest.mark.parametrize("cut", [1, 3, _FRAME.size - 1, _FRAME.size + 4])
def test_torn_first_frame_of_the_last_segment_is_harmless(tmp_path, cut):
    wal = WriteAheadLog(tmp_path, fsync="always", segment_bytes=4096)
    fill(wal, 150)
    wal.close()
    assert len(list_segments(tmp_path)) > 1
    # simulate a crash during the *next* segment's first append
    records_before, info_before = scan_wal(tmp_path)
    next_lsn = info_before["last_lsn"] + 1
    torn = segment_path(tmp_path, next_lsn)
    with open(torn, "wb") as fh:
        fh.write(pack_frame(next_lsn, b"never-acknowledged")[:cut])
    records, info = scan_wal(tmp_path)
    assert info["torn_tail"] is True
    assert info["truncated_bytes"] == cut
    assert [lsn for lsn, _ in records] == [lsn for lsn, _ in records_before]
    assert os.path.getsize(torn) == 0


def test_empty_trailing_segment_file_is_ignored(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    fill(wal, 3)
    wal.close()
    open(segment_path(tmp_path, 4), "wb").close()  # crash right at creation
    records, info = scan_wal(tmp_path)
    assert [lsn for lsn, _ in records] == [1, 2, 3]
    assert info["torn_tail"] is False


# -- mid-log corruption (acknowledged history damaged: refuse) ---------------


def test_flipped_body_byte_refuses_with_walcorrupt(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    fill(wal, 5)
    wal.close()
    (_, path), = list_segments(tmp_path)
    # damage record 2's body, complete records follow
    records, _ = scan_wal(tmp_path)
    offset = os.path.getsize(path)
    for lsn, body in reversed(records):
        offset -= _FRAME.size + len(body)
        if lsn == 2:
            break
    with open(path, "r+b") as fh:
        fh.seek(offset + _FRAME.size + 2)
        byte = fh.read(1)
        fh.seek(offset + _FRAME.size + 2)
        fh.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(WalCorrupt, match="checksum mismatch"):
        scan_wal(tmp_path)


def test_truncation_in_a_non_final_segment_refuses(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always", segment_bytes=4096)
    fill(wal, 120)
    wal.close()
    segments = list_segments(tmp_path)
    assert len(segments) >= 2
    first_path = segments[0][1]
    with open(first_path, "r+b") as fh:
        fh.truncate(os.path.getsize(first_path) - 11)
    with pytest.raises(WalCorrupt, match="later segment"):
        scan_wal(tmp_path)


def test_bad_record_magic_refuses(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    fill(wal, 2)
    wal.close()
    (_, path), = list_segments(tmp_path)
    with open(path, "rb") as fh:
        raw = fh.read()
    start = raw.index(RECORD_MAGIC)  # first record's frame
    with open(path, "r+b") as fh:
        fh.seek(start)
        fh.write(b"XXXX")
    with pytest.raises(WalCorrupt, match="bad record magic"):
        scan_wal(tmp_path)


def test_missing_segment_gap_refuses(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always", segment_bytes=4096)
    fill(wal, 250)
    wal.close()
    segments = list_segments(tmp_path)
    assert len(segments) >= 3
    os.unlink(segments[1][1])  # a middle segment vanishes
    with pytest.raises(WalCorrupt, match="gap|expected"):
        scan_wal(tmp_path)


def test_over_pruned_log_refuses_instead_of_silently_skipping(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always", segment_bytes=4096)
    fill(wal, 120)
    wal.close()
    segments = list_segments(tmp_path)
    os.unlink(segments[0][1])  # the tail the "checkpoint" needs is gone
    with pytest.raises(WalCorrupt, match="missing|over-pruned"):
        scan_wal(tmp_path, after_lsn=0)


def test_first_lsn_filename_mismatch_refuses(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    fill(wal, 2)
    wal.close()
    (first, path), = list_segments(tmp_path)
    os.rename(path, segment_path(tmp_path, 40))  # lies about its first LSN
    with pytest.raises(WalCorrupt, match="first_lsn=40"):
        scan_wal(tmp_path)


@pytest.mark.parametrize("raw", [
    b"hello, world\n",
    b"{}",
    b"\x00" * 100,
    # what the build before this format wrote on creating a segment
    b'REPRO-WAL-SEG-V1\n{"first_lsn": 1}\n',
], ids=["text", "json", "zeros", "earlier-header-only-segment"])
def test_a_file_that_does_not_begin_like_a_frame_refuses(tmp_path, raw):
    """A foreign last segment is not a torn tail: its bytes are no
    prefix of a frame, so the scan refuses and truncates nothing."""
    with open(segment_path(tmp_path, 1), "wb") as fh:
        fh.write(raw)
    with pytest.raises(WalCorrupt, match="bad record magic"):
        scan_wal(tmp_path)
    assert open(segment_path(tmp_path, 1), "rb").read() == raw


def test_a_short_tail_that_is_no_frame_prefix_refuses(tmp_path):
    """A few stray bytes after the last record are torn only when they
    could begin a frame; anything else is damage."""
    wal = WriteAheadLog(tmp_path, fsync="always")
    fill(wal, 3)
    wal.close()
    (_, path), = list_segments(tmp_path)
    with open(path, "ab") as fh:
        fh.write(b"RX")
    with pytest.raises(WalCorrupt, match="bad record magic"):
        scan_wal(tmp_path)


# -- the writer refuses bad states ------------------------------------------


def test_closed_log_refuses_appends(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="none")
    wal.close()
    with pytest.raises(WalWriteError, match="closed"):
        wal.append(b"x")


def test_append_rejects_non_bytes(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="none")
    try:
        with pytest.raises(TypeError):
            wal.append("not bytes")
    finally:
        wal.close()


def test_constructor_validates_policy_and_lsn(tmp_path):
    with pytest.raises(ValueError, match="fsync policy"):
        WriteAheadLog(tmp_path, fsync="sometimes")
    with pytest.raises(ValueError, match="next_lsn"):
        WriteAheadLog(tmp_path, next_lsn=0)


# -- injection points --------------------------------------------------------


def test_wal_torn_tail_injection_models_a_crashed_writer(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    fill(wal, 4)
    with faults.inject("wal_torn_tail", seed=9):
        with pytest.raises(WalWriteError, match="torn_tail"):
            wal.append(b"never-acknowledged")
    # a crashed writer never writes again: restart is the only way back
    with pytest.raises(WalWriteError, match="unwritable"):
        wal.append(b"after-the-crash")
    assert wal.last_error is not None
    wal.close()
    # recovery sees exactly the acknowledged prefix
    records, info = scan_wal(tmp_path)
    assert [lsn for lsn, _ in records] == [1, 2, 3, 4]
    assert info["torn_tail"] is True
    assert info["truncated_bytes"] > 0


def test_wal_torn_tail_prefix_is_seed_deterministic(tmp_path):
    sizes = []
    for run in range(2):
        directory = tmp_path / f"run{run}"
        directory.mkdir()
        wal = WriteAheadLog(directory, fsync="always")
        with faults.inject("wal_torn_tail", seed=1234):
            with pytest.raises(WalWriteError):
                wal.append(b"payload-abcdef")
        wal.close()
        _, info = scan_wal(directory)
        sizes.append(info["truncated_bytes"])
    assert sizes[0] == sizes[1] > 0


def test_wal_corrupt_record_injection_is_latent_until_recovery(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    with faults.inject("wal_corrupt_record", seed=5):
        lsn = wal.append(b"acknowledged-then-damaged")
    assert lsn == 1  # the ack happened; the damage is latent
    assert wal.last_error is None
    wal.append(b"later-history")  # complete data follows => mid-log
    wal.close()
    with pytest.raises(WalCorrupt):
        scan_wal(tmp_path)


def test_fsync_error_injection_fails_the_append_under_always(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    wal.append(b"before")
    with faults.inject("fsync_error"):
        with pytest.raises(WalWriteError, match="fsync"):
            wal.append(b"not-acknowledged")
    assert wal.last_error is not None
    # the device "recovers": always-mode retries and clears the error
    lsn = wal.append(b"after-recovery")
    assert wal.last_error is None
    wal.close()
    # the failed append's bytes were rolled back; its LSN was reissued
    # and the log reads clean — no duplicate, no garbage
    records, info = scan_wal(tmp_path)
    assert [r for r in records] == [(1, b"before"), (lsn, b"after-recovery")]
    assert info["torn_tail"] is False


def test_fsync_metrics_and_bytes_counters_advance(tmp_path):
    before = obs_metrics.WAL_APPENDED_BYTES.value()
    wal = WriteAheadLog(tmp_path, fsync="always")
    wal.append(b"x" * 100)
    wal.close()
    assert obs_metrics.WAL_APPENDED_BYTES.value() - before == _FRAME.size + 100
