"""The segmented write-ahead log: framing, append, scan, torn-tail repair.

This is the byte-level half of the durability subsystem, and the home
of the one on-disk format: the **frame**, packed by :func:`pack_frame`
and verified by :func:`unpack_frame`::

    | magic "RWL1" | u64 LSN | u32 body length | sha256(body) | body |

A log is a directory of append-only **segment** files, each nothing
but a run of frames, one per record::

    wal-00000000000000000001.log      (filename = first LSN the segment holds)
    wal-00000000000000004097.log
    ...

and a checkpoint (:mod:`repro.wal.manager`) is exactly one frame.
LSNs (log sequence numbers) are assigned by the writer, strictly
increasing across segments; the scanner verifies that a segment's
first frame carries the LSN its filename names, and continuity across
the rest, so a pruned, renamed or missing stretch of history is
detected, never silently skipped.

Crash semantics, the part that earns the checksums:

* a **torn final record** — the crash happened mid-append, so the last
  segment ends in a strict prefix of a frame (the magic or a prefix of
  it, then at most a short header or body) — is *expected*: the write was
  never acknowledged.  :func:`scan_wal` truncates the segment back to
  the last complete record (``repair=True``, the default) and recovery
  continues; the ``wal_torn_tails`` resilience counter records it.
* **mid-log corruption** — a damaged frame that complete data (or a
  later segment) follows, a file or tail that does not begin like a
  frame, or a checksum mismatch on a *complete* record anywhere — means
  acknowledged history is damaged.  That is never recoverable by
  guessing, so the scan raises the typed
  :class:`~repro.exceptions.WalCorrupt` and recovery refuses to boot on
  the damaged prefix.

Fsync policy (the durability/latency dial, ``--fsync`` on the server):

``always``
    every :meth:`WriteAheadLog.append` fsyncs before returning — an
    acknowledged write survives power loss;
``batch``
    appends return after the OS ``write``; a background flusher fsyncs
    every ``batch_interval_s``.  An acknowledged write survives process
    death (SIGKILL, OOM — the bytes are in the page cache) but the last
    interval may be lost to power failure;
``none``
    never fsync (benchmarks, throwaway data) — process-crash-safe only
    as far as the page cache goes, no power-loss story.

Injection points (:mod:`repro.faults`): ``wal_torn_tail`` makes one
append write a seeded prefix of its record and fail (the crash-mid-write
shape), ``wal_corrupt_record`` flips one seeded byte of a record *after*
a successful append (latent media damage), ``fsync_error`` makes one
fsync raise.  All three ride the standard seeded-budget ledger, so chaos
runs replay deterministically.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import faults
from repro.exceptions import WalCorrupt, WalWriteError
from repro.obs import metrics as obs_metrics

__all__ = [
    "FSYNC_POLICIES",
    "FrameError",
    "RECORD_MAGIC",
    "WriteAheadLog",
    "list_segments",
    "pack_frame",
    "scan_wal",
    "segment_path",
    "unpack_frame",
]

#: First bytes of every frame; bumping it versions the format.
RECORD_MAGIC = b"RWL1"

#: ``magic | lsn | body_length | sha256(body)`` — 48 bytes per frame.
_FRAME = struct.Struct("<4sQI32s")

FSYNC_POLICIES = ("always", "batch", "none")


class FrameError(Exception):
    """The bytes at ``offset`` are not one whole, verified frame.

    ``torn`` is true when they are a strict prefix of a frame — the
    magic or a prefix of it, then a short header or body — the shape a
    crash mid-write leaves; any other damage is not.  Callers type it:
    :func:`scan_wal` as a torn tail or :class:`WalCorrupt`, checkpoint
    loading as :class:`~repro.exceptions.SnapshotCorrupt`.
    """

    def __init__(self, reason: str, offset: int, *, torn: bool):
        super().__init__(f"{reason} at byte {offset}")
        self.torn = torn


def pack_frame(lsn: int, body: bytes) -> bytes:
    """``body`` framed under ``lsn``: the one on-disk format."""
    return _FRAME.pack(
        RECORD_MAGIC, lsn, len(body), hashlib.sha256(body).digest()
    ) + body


def unpack_frame(raw: bytes, offset: int = 0) -> Tuple[int, bytes, int]:
    """Verify the frame at ``offset``; return ``(lsn, body, end_offset)``.

    Raises :class:`FrameError` unless a whole frame with the magic and a
    matching checksum starts there.
    """
    head = raw[offset: offset + _FRAME.size]
    if head[: len(RECORD_MAGIC)] != RECORD_MAGIC[: len(head)]:
        raise FrameError("bad record magic", offset, torn=False)
    if len(head) < _FRAME.size:
        raise FrameError("truncated frame", offset, torn=True)
    _magic, lsn, length, digest = _FRAME.unpack(head)
    start = offset + _FRAME.size
    body = raw[start: start + length]
    if len(body) < length:
        raise FrameError("truncated record body", offset, torn=True)
    if hashlib.sha256(body).digest() != digest:
        raise FrameError(f"checksum mismatch on record lsn={lsn}", offset, torn=False)
    return lsn, body, start + length


_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


def segment_path(directory: str, first_lsn: int) -> str:
    """The canonical path of the segment whose first record is ``first_lsn``."""
    return os.path.join(
        directory, f"{_SEGMENT_PREFIX}{first_lsn:020d}{_SEGMENT_SUFFIX}"
    )


def list_segments(directory: str) -> List[Tuple[int, str]]:
    """``(first_lsn, path)`` for every segment file, ordered by first LSN."""
    found = []
    for name in os.listdir(directory):
        if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
            continue
        stem = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
        try:
            first_lsn = int(stem)
        except ValueError:
            continue
        found.append((first_lsn, os.path.join(directory, name)))
    found.sort()
    return found


class WriteAheadLog:
    """The append side: one writer, segments rolled by size.

    A fresh instance always opens a **new** segment at ``next_lsn`` —
    after recovery the old tail may have been repair-truncated, and
    never re-opening it for writes keeps every segment immutable once
    the writer moves past it (which is what makes checkpoint-time
    pruning a plain unlink).
    """

    def __init__(
        self,
        directory: str,
        *,
        next_lsn: int = 1,
        fsync: str = "batch",
        segment_bytes: int = 16 << 20,
        batch_interval_s: float = 0.01,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if next_lsn < 1:
            raise ValueError(f"next_lsn must be positive, got {next_lsn}")
        if segment_bytes < 4096:
            raise ValueError(f"segment_bytes too small: {segment_bytes}")
        self.directory = os.fspath(directory)
        self.fsync_policy = fsync
        self.segment_bytes = int(segment_bytes)
        self.batch_interval_s = float(batch_interval_s)
        self._lock = threading.Lock()
        self._next_lsn = int(next_lsn)
        self._fh: Optional[Any] = None  # current segment file object
        self._segment_first_lsn: Optional[int] = None
        self._segment_size = 0
        self._dirty = False  # bytes written since the last fsync
        self._closed = False
        self._last_error: Optional[str] = None
        self._fatal: Optional[str] = None  # torn append: restart required
        self._flusher: Optional[threading.Thread] = None
        self._flusher_stop = threading.Event()
        if fsync == "batch":
            self._flusher = threading.Thread(
                target=self._flush_loop, name="repro-wal-flush", daemon=True
            )
            self._flusher.start()

    # -- public surface ------------------------------------------------------

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def last_error(self) -> Optional[str]:
        """The most recent write/fsync failure, or None while healthy."""
        return self._fatal or self._last_error

    def append(self, payload: bytes) -> int:
        """Durably append one record; return its LSN.

        Raises :class:`~repro.exceptions.WalWriteError` if the bytes (or,
        under ``fsync=always``, their fsync) cannot be guaranteed — in
        which case the record is **not acknowledged** and the caller must
        not apply the mutation it frames.
        """
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise TypeError("WAL payloads are bytes")
        body = bytes(payload)
        with self._lock:
            if self._closed:
                raise WalWriteError("write-ahead log is closed")
            if self._fatal is not None:
                raise WalWriteError(
                    f"write-ahead log is unwritable: {self._fatal}"
                )
            if self._last_error is not None and self.fsync_policy == "batch":
                # the background flusher hit a disk error after an ack:
                # stop acknowledging until the device recovers (the
                # flusher keeps retrying and clears this on success)
                raise WalWriteError(
                    f"write-ahead log is unwritable: {self._last_error}"
                )
            lsn = self._next_lsn
            record = pack_frame(lsn, body)
            start_offset = None
            try:
                fh = self._segment_for(len(record))
                start_offset = self._segment_size
                torn = faults.should_fire("wal_torn_tail")
                if torn is not None:
                    # a crash mid-append: a strict prefix of the record
                    # reaches the disk, the write is never acknowledged,
                    # and — like the crashed process it models — this
                    # writer never writes again (restart recovers)
                    keep = torn.get("keep")
                    if keep is None:
                        keep = torn["rng"].randrange(1, len(record))
                    fh.write(record[: int(keep)])
                    fh.flush()
                    os.fsync(fh.fileno())
                    self._segment_size += int(keep)
                    self._fatal = (
                        "injected wal_torn_tail: append crashed mid-record "
                        "(restart to truncate and recover)"
                    )
                    raise WalWriteError(self._fatal)
                fh.write(record)
                fh.flush()
                self._segment_size += len(record)
                self._dirty = True
                if self.fsync_policy == "always":
                    self._do_fsync(fh)
            except WalWriteError:
                # an unacknowledged record's bytes must not stay in the
                # file: the retry reissues this LSN, and appending after
                # the failed bytes would forge a mid-log duplicate.  (The
                # torn-tail injection skips this — it models a crash,
                # where nobody is left to roll back.)
                self._rollback(start_offset)
                raise
            except OSError as exc:
                self._last_error = str(exc)
                self._rollback(start_offset)
                raise WalWriteError(f"WAL append failed: {exc}") from exc
            self._last_error = None
            self._next_lsn = lsn + 1
            corrupt = faults.should_fire("wal_corrupt_record")
            if corrupt is not None:
                # the append *succeeded* (the caller gets its ack); damage
                # one byte of the just-written record in place, modelling
                # latent media corruption that only recovery will see
                offset = corrupt.get("offset")
                if offset is None:
                    offset = corrupt["rng"].randrange(len(record))
                self._flip_byte(
                    self._segment_size - len(record) + int(offset)
                )
            obs_metrics.WAL_APPENDED_BYTES.inc(len(record))
            return lsn

    def sync(self) -> None:
        """Force an fsync of the current segment (drain / shutdown path)."""
        with self._lock:
            if self._fh is not None and self._dirty and not self._closed:
                self._do_fsync(self._fh)

    def close(self) -> None:
        """Stop the flusher, fsync the tail (unless ``fsync=none``), close."""
        self._flusher_stop.set()
        if self._flusher is not None:
            self._flusher.join(timeout=5)
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._fh is not None:
                try:
                    if self._dirty and self.fsync_policy != "none":
                        self._do_fsync(self._fh)
                finally:
                    self._fh.close()
                    self._fh = None

    # -- internals -----------------------------------------------------------

    def _segment_for(self, record_len: int):
        """The open segment file, rolling to a fresh one when full."""
        if (
            self._fh is not None
            and self._segment_size + record_len > self.segment_bytes
            and self._segment_size > 0
        ):
            old = self._fh
            try:
                if self._dirty and self.fsync_policy != "none":
                    self._do_fsync(old)
            finally:
                old.close()
            self._fh = None
        if self._fh is None:
            first_lsn = self._next_lsn
            # a segment recovery cut back to nothing is reopened, empty
            self._fh = open(segment_path(self.directory, first_lsn), "ab")
            self._segment_first_lsn = first_lsn
            self._segment_size = self._fh.tell()
            if self.fsync_policy != "none":
                from repro.io.serialize import fsync_dir  # local: io is heavy

                fsync_dir(self.directory)  # the new name must survive a crash
        return self._fh

    def _rollback(self, offset: Optional[int]) -> None:
        """Cut the open segment back to ``offset`` after a failed append.

        Called under the lock.  If even the truncate fails, the tail is
        in an unknown state and the log goes permanently unwritable
        (``_fatal``) — recovery's torn-tail repair handles it on restart.
        """
        if offset is None or self._fh is None or self._fatal is not None:
            return
        try:
            self._fh.flush()
            self._fh.truncate(offset)
            self._segment_size = offset
        except OSError as exc:
            self._fatal = (
                f"append failed and rollback failed too ({exc}); "
                "restart to repair the tail"
            )

    def _do_fsync(self, fh) -> None:
        recipe = faults.should_fire("fsync_error")
        if recipe is not None:
            self._last_error = "injected fsync_error"
            raise WalWriteError("injected fsync_error: device reported failure")
        start = time.perf_counter()
        try:
            os.fsync(fh.fileno())
        except OSError as exc:
            self._last_error = str(exc)
            raise WalWriteError(f"WAL fsync failed: {exc}") from exc
        obs_metrics.WAL_FSYNC_SECONDS.observe(time.perf_counter() - start)
        self._dirty = False
        self._last_error = None

    def _flip_byte(self, offset: int) -> None:
        """Flip one byte of the current segment at ``offset`` (fault site)."""
        path = segment_path(self.directory, self._segment_first_lsn or 1)
        self._fh.flush()
        with open(path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0xFF]))
            fh.flush()
            os.fsync(fh.fileno())

    def _flush_loop(self) -> None:  # pragma: no cover - timing-driven
        while not self._flusher_stop.wait(self.batch_interval_s):
            with self._lock:
                if self._closed or self._fh is None or not self._dirty:
                    continue
                try:
                    fd = os.dup(self._fh.fileno())
                except OSError as exc:
                    self._last_error = str(exc)
                    continue
                # optimistic: appends that land during the fsync below
                # re-mark the log dirty, so the next cycle covers them
                self._dirty = False
            # the fsync itself runs OUTSIDE the lock, on a dup'd
            # descriptor: a multi-ms device sync must never stall
            # concurrent appends (they only need the page cache), and
            # the dup keeps the file alive across a concurrent segment
            # roll closing the original handle
            error = None
            recipe = faults.should_fire("fsync_error")
            start = time.perf_counter()
            try:
                if recipe is not None:
                    raise OSError("injected fsync_error: device reported failure")
                os.fsync(fd)
            except OSError as exc:
                error = str(exc)
            finally:
                try:
                    os.close(fd)
                except OSError:
                    pass
            with self._lock:
                if error is not None:
                    # remember the failure; the next append refuses with
                    # 503-shaped WalWriteError instead of acking into a
                    # dying device (the retry next cycle clears this)
                    self._last_error = error
                    self._dirty = True
                else:
                    obs_metrics.WAL_FSYNC_SECONDS.observe(
                        time.perf_counter() - start
                    )
                    self._last_error = None


# ---------------------------------------------------------------------------
# the read side: recovery scan
# ---------------------------------------------------------------------------


def scan_wal(
    directory: str,
    *,
    after_lsn: int = 0,
    repair: bool = True,
) -> Tuple[List[Tuple[int, bytes]], Dict[str, Any]]:
    """Read every record with ``lsn > after_lsn``; verify, repair the tail.

    Returns ``(records, info)`` where ``records`` is ``[(lsn, body),
    ...]`` in LSN order and ``info`` reports what the scan saw::

        {"segments": 3, "records": 128, "last_lsn": 128,
         "torn_tail": False, "truncated_bytes": 0}

    Guarantees:

    * LSNs are verified **contiguous** from ``after_lsn + 1`` (pruned
      segments may start earlier; their pre-checkpoint prefix is
      skipped).  A gap anywhere — a missing segment, a record skipped by
      damage — raises :class:`~repro.exceptions.WalCorrupt`.
    * a torn final record is truncated away (when ``repair``, the
      default; the file is cut back and fsynced so the next boot sees a
      clean tail) and counted in the ``wal_torn_tails`` resilience
      ledger entry;
    * mid-log damage of any kind raises
      :class:`~repro.exceptions.WalCorrupt`.
    """
    segments = list_segments(directory)
    records: List[Tuple[int, bytes]] = []
    expected_next = None  # verified once we see the first kept record
    torn_tail = False
    truncated_bytes = 0
    for index, (first_lsn, path) in enumerate(segments):
        is_last = index == len(segments) - 1
        with open(path, "rb") as fh:
            raw = fh.read()
        pos = 0
        while pos < len(raw):
            try:
                lsn, body, end = unpack_frame(raw, pos)
            except FrameError as exc:
                # a strict prefix of a frame ending the last segment is a
                # crash mid-append (never acknowledged): cut it off.  The
                # same shortfall before a later segment, or any other
                # damage, is acknowledged history lost.
                if not (exc.torn and is_last):
                    later = " with a later segment present (mid-log damage)"
                    raise WalCorrupt(
                        f"segment {path!r}: {exc}{later if exc.torn else ''}"
                    ) from exc
                torn_tail = True
                truncated_bytes += len(raw) - pos
                if repair:
                    _truncate_file(path, pos)
                break
            if pos == 0 and lsn != first_lsn:
                raise WalCorrupt(
                    f"segment {path!r}: filename says first_lsn={first_lsn}, "
                    f"its first record is lsn={lsn}"
                )
            if expected_next is not None and lsn != expected_next:
                raise WalCorrupt(
                    f"segment {path!r}: LSN {lsn} where {expected_next} "
                    "was expected (gap or duplicate in the log)"
                )
            expected_next = lsn + 1
            if lsn > after_lsn:
                records.append((lsn, body))
            pos = end
    if records and records[0][0] != after_lsn + 1:
        raise WalCorrupt(
            f"WAL in {directory!r} starts at lsn {records[0][0]} but the "
            f"checkpoint covers through {after_lsn} — records "
            f"{after_lsn + 1}..{records[0][0] - 1} are missing (over-pruned "
            "or deleted segments)"
        )
    if torn_tail:
        faults.bump("wal_torn_tails")
    info = {
        "segments": len(segments),
        "records": len(records),
        "last_lsn": records[-1][0] if records else (
            expected_next - 1 if expected_next else after_lsn
        ),
        "torn_tail": torn_tail,
        "truncated_bytes": truncated_bytes,
    }
    return records, info


def _truncate_file(path: str, offset: int) -> None:
    from repro.io.serialize import fsync_dir  # local: io is heavy

    with open(path, "r+b") as fh:
        fh.truncate(offset)
        fh.flush()
        os.fsync(fh.fileno())
    fsync_dir(os.path.dirname(path) or ".")
