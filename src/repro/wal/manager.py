"""The durability manager: WAL + checkpoints + recovery-on-boot.

:class:`DurabilityManager` is the storage engine the serving layer sits
on.  It owns one data directory::

    data/
      wal-00000000000000000001.log          append-only runs of record frames
      checkpoint-00000000000000000042.snap  the database and view definitions at 42

and maintains the classic write-ahead discipline:

* every mutation (``update``/``add``/``create_view``) is validated,
  **appended to the WAL first** (the acknowledgement point, under the
  configured fsync policy), and only then applied to the in-memory
  :class:`~repro.core.database.KDatabase` — a crash between the two
  replays the record on boot, so an acknowledged write is never lost;
* a **checkpoint** is one frame of the log's format
  (:func:`repro.wal.log.pack_frame`) whose LSN is the one it covers and
  whose body is ``{"database": ..., "views": {name: sql}}``, written
  through :func:`repro.io.serialize.write_atomic` (temp file + fsync +
  atomic rename + directory fsync) and named after that LSN.  The
  database and the definitions land together or not at all.  It then
  prunes segments the *oldest retained* checkpoint no longer needs (two
  checkpoints are kept, so recovery can fall back across one corrupt
  snapshot without hitting pruned history);
* **recovery** (:meth:`DurabilityManager.open`) loads the newest
  loadable checkpoint and replays the WAL tail — coalescing runs of
  update records into one batch per relation, so a 100k-record tail
  replays in seconds, not quadratic union time — tolerating a torn
  final record (truncate and continue) while refusing mid-log damage
  with :class:`~repro.exceptions.WalCorrupt`.  Any damage to a
  checkpoint — short, long, foreign, wrong LSN, checksum mismatch, a
  body that is not that object — is
  :class:`~repro.exceptions.SnapshotCorrupt`.  Views are stored as
  definitions only: their state is a function of the recovered database,
  so the server evaluates each one after recovery.

``add`` and ``update`` records, like checkpoints, hold each relation as
the column record of :func:`repro.io.serialize.relation_to_jsonable`.
A data directory in any other format is refused with a typed error,
never booted empty or with part of its data.

The manager is thread-safe: one internal mutex serialises the
append-then-apply critical section, and the checkpoint path captures
``(snapshot, LSN)`` under that same mutex so the pair is always
mutually consistent.  Background checkpointing (interval- and
lag-triggered) runs on a daemon thread; serialisation happens outside
the mutex against the immutable captured snapshot, so writers never
stall behind a checkpoint.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import faults
from repro.core.database import KDatabase
from repro.core.relation import KRelation
from repro.exceptions import (
    ReproError,
    SemiringError,
    SnapshotCorrupt,
    WalCorrupt,
)
from repro.obs import metrics as obs_metrics
from repro.wal.log import (
    FrameError,
    WriteAheadLog,
    list_segments,
    pack_frame,
    scan_wal,
    unpack_frame,
)

log = logging.getLogger("repro.wal")

__all__ = ["DurabilityManager", "checkpoint_path", "list_checkpoints"]

_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{20})\.snap$")


def checkpoint_path(directory: str, lsn: int) -> str:
    """The canonical path of the checkpoint covering through ``lsn``."""
    return os.path.join(directory, f"checkpoint-{lsn:020d}.snap")


def list_checkpoints(directory: str) -> List[Tuple[int, str]]:
    """``(lsn, path)`` for every checkpoint file, newest first."""
    found = []
    for name in os.listdir(directory):
        match = _CHECKPOINT_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    found.sort(reverse=True)
    return found


def _encode_record(op: str, fields: Mapping[str, Any]) -> bytes:
    return json.dumps(
        {"op": op, **fields}, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


class DurabilityManager:
    """WAL-backed durability for one :class:`KDatabase` (see module doc)."""

    #: Checkpoints retained: recovery can skip one corrupt snapshot and
    #: still find the previous one *with its whole WAL tail intact*,
    #: because segments are only pruned up to the oldest retained LSN.
    KEEP_CHECKPOINTS = 2

    def __init__(
        self,
        directory: str,
        db: KDatabase,
        wal: WriteAheadLog,
        *,
        checkpoint_lsn: int,
        recovery: Dict[str, Any],
        view_defs: "Dict[str, str]",
        checkpoint_interval_s: Optional[float] = None,
        checkpoint_lag_records: int = 50_000,
    ):
        self.directory = os.fspath(directory)
        self._db = db
        self._wal = wal
        self._mutex = threading.RLock()
        self._ckpt_mutex = threading.Lock()
        self._checkpoint_lsn = checkpoint_lsn
        self.recovery = recovery
        #: ``name -> sql`` of every durably-registered materialised view.
        self.view_defs: Dict[str, str] = dict(view_defs)
        self.checkpoint_lag_records = int(checkpoint_lag_records)
        self.checkpoint_interval_s = checkpoint_interval_s
        self.checkpoints_written = 0
        self.records_appended = 0
        self._ckpt_wake = threading.Event()
        self._ckpt_stop = threading.Event()
        self._ckpt_thread: Optional[threading.Thread] = None
        self._closed = False
        self._publish_lag()
        if checkpoint_interval_s is not None and checkpoint_interval_s > 0:
            self._ckpt_thread = threading.Thread(
                target=self._checkpoint_loop,
                name="repro-wal-checkpoint",
                daemon=True,
            )
            self._ckpt_thread.start()

    # -- opening / recovery --------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str,
        *,
        initial_db: Optional[KDatabase] = None,
        semiring=None,
        fsync: str = "batch",
        segment_bytes: int = 16 << 20,
        batch_interval_s: float = 0.01,
        checkpoint_interval_s: Optional[float] = None,
        checkpoint_lag_records: int = 50_000,
    ) -> "DurabilityManager":
        """Open (and, on boot, recover) the durability state under
        ``directory``.

        A **fresh** directory adopts ``initial_db`` (or an empty database
        over ``semiring``) and immediately writes checkpoint 0, so the
        directory is self-describing from the first boot.  A **non-empty**
        directory is authoritative: recovery loads the newest loadable
        checkpoint (falling back across corrupt ones, counted in the
        ``snapshot_rebuilds`` ledger entry), replays the WAL tail
        (torn final record → truncate and continue; mid-log damage →
        :class:`~repro.exceptions.WalCorrupt`), and **ignores**
        ``initial_db``'s contents.  ``self.recovery`` reports what
        happened; ``/health`` surfaces it.
        """
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        started = time.perf_counter()
        checkpoints = list_checkpoints(directory)
        segments = list_segments(directory)

        db: Optional[KDatabase] = None
        ckpt_lsn = 0
        skipped = 0
        view_defs: Dict[str, str] = {}
        for lsn, path in checkpoints:
            try:
                db, view_defs = _load_checkpoint(path, lsn)
            except SnapshotCorrupt as exc:
                log.warning("skipping corrupt checkpoint %s: %s", path, exc)
                faults.bump("snapshot_rebuilds")
                skipped += 1
                continue
            ckpt_lsn = lsn
            break

        source = "checkpoint"
        if db is None:
            if checkpoints and not segments:
                raise WalCorrupt(
                    f"every checkpoint in {directory!r} is corrupt and no "
                    "WAL segments remain to replay from"
                )
            if checkpoints:
                # every snapshot is damaged; a full-history replay from
                # LSN 1 is only possible if nothing was ever pruned —
                # scan_wal's continuity check decides
                if initial_db is None and semiring is None:
                    raise WalCorrupt(
                        f"every checkpoint in {directory!r} is corrupt; a "
                        "full-history replay needs the database semiring "
                        "(pass initial_db or semiring)"
                    )
                db = KDatabase(
                    semiring if semiring is not None else initial_db.semiring
                )
                source = "full-replay"
            elif segments:
                raise WalCorrupt(
                    f"{directory!r} has WAL segments but no checkpoint — "
                    "not a repro data directory, or checkpoint files were "
                    "deleted by hand"
                )
            else:
                if initial_db is None:
                    if semiring is None:
                        raise ValueError(
                            "fresh data directory: pass initial_db or semiring"
                        )
                    initial_db = KDatabase(semiring)
                db = initial_db
                source = "fresh"

        records, scan_info = scan_wal(directory, after_lsn=ckpt_lsn)
        if records:
            _replay(db, records, view_defs)
            obs_metrics.WAL_REPLAYED_RECORDS.inc(len(records))
            if source != "full-replay":
                source = "checkpoint+wal"
        last_lsn = max(ckpt_lsn, scan_info["last_lsn"])

        recovery = {
            "source": source,
            "checkpoint_lsn": ckpt_lsn,
            "checkpoints_skipped": skipped,
            "records_replayed": len(records),
            "torn_tail": scan_info["torn_tail"],
            "truncated_bytes": scan_info["truncated_bytes"],
            "last_lsn": last_lsn,
            "views": len(view_defs),
            "duration_s": round(time.perf_counter() - started, 4),
        }

        wal = WriteAheadLog(
            directory,
            next_lsn=last_lsn + 1,
            fsync=fsync,
            segment_bytes=segment_bytes,
            batch_interval_s=batch_interval_s,
        )
        manager = cls(
            directory,
            db,
            wal,
            checkpoint_lsn=ckpt_lsn,
            recovery=recovery,
            view_defs=view_defs,
            checkpoint_interval_s=checkpoint_interval_s,
            checkpoint_lag_records=checkpoint_lag_records,
        )
        if source == "fresh":
            # checkpoint 0: the directory self-describes from first boot
            manager.checkpoint(force=True)
        return manager

    # -- the write path ------------------------------------------------------

    @property
    def db(self) -> KDatabase:
        """The recovered, WAL-protected database (mutate via this manager)."""
        return self._db

    @property
    def healthy(self) -> bool:
        """False once the log has refused a write (disk error, torn append)."""
        return self._wal.last_error is None

    @property
    def last_error(self) -> Optional[str]:
        return self._wal.last_error

    def update(self, deltas: "Mapping[str, KRelation] | KDatabase") -> Optional[int]:
        """Validate → WAL-append → apply one delta batch; return its LSN.

        The append is the acknowledgement point: if it raises
        (:class:`~repro.exceptions.WalWriteError` — disk failure, injected
        fault), the database is untouched and the caller must surface the
        failure (the server answers 503).  An empty batch is a no-op
        returning ``None``.
        """
        from repro.io.serialize import relation_to_jsonable  # local: io is heavy

        with self._mutex:
            items = self._db.check_deltas(deltas)
            if not items:
                return None
            payload = _encode_record(
                "update",
                {
                    "relations": {
                        name: relation_to_jsonable(delta)
                        for name, delta in items.items()
                    }
                },
            )
            lsn = self._wal.append(payload)
            self._db.update(items)
            self.records_appended += 1
            obs_metrics.WAL_RECORDS.inc(1, "update")
            lag = self._publish_lag()
        if lag >= self.checkpoint_lag_records:
            self._ckpt_wake.set()
        return lsn

    def add(self, name: str, relation: KRelation) -> int:
        """WAL-append then register/replace one relation; return the LSN."""
        from repro.io.serialize import relation_to_jsonable

        if relation.semiring is not self._db.semiring:
            raise SemiringError(
                f"relation {name!r} is annotated in {relation.semiring.name}, "
                f"database uses {self._db.semiring.name}"
            )
        with self._mutex:
            payload = _encode_record(
                "add",
                {"name": name, "relation": relation_to_jsonable(relation)},
            )
            lsn = self._wal.append(payload)
            self._db.add(name, relation)
            self.records_appended += 1
            obs_metrics.WAL_RECORDS.inc(1, "add")
            self._publish_lag()
        return lsn

    def create_view(self, name: str, sql: str) -> int:
        """Durably record a materialised-view definition; return the LSN.

        The view *state* is the server's to maintain; what the WAL
        guarantees is that the definition survives a crash, so the view
        is evaluated over the recovered database before serving.
        """
        with self._mutex:
            lsn = self._wal.append(
                _encode_record("create_view", {"name": name, "sql": sql})
            )
            self.view_defs[name] = sql
            self.records_appended += 1
            obs_metrics.WAL_RECORDS.inc(1, "create_view")
            self._publish_lag()
        return lsn

    def flush(self) -> None:
        """Force the WAL to disk (drain / graceful-shutdown path)."""
        self._wal.sync()

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self, *, force: bool = False) -> Optional[str]:
        """Write a full snapshot at the current LSN and prune old segments.

        Returns the checkpoint path, or ``None`` when nothing changed
        since the last checkpoint (pass ``force=True`` to write anyway —
        the fresh-directory boot does, so checkpoint 0 always exists).
        Serialisation runs against an immutable snapshot captured under
        the write mutex, so concurrent writers never stall behind it.
        """
        from repro.io import serialize  # local: io is heavy

        with self._ckpt_mutex:
            with self._mutex:
                snap = self._db.snapshot()
                lsn = self._wal.next_lsn - 1
                view_defs = dict(self.view_defs)
            if lsn == self._checkpoint_lsn and not force:
                return None
            path = checkpoint_path(self.directory, lsn)
            body = json.dumps(
                {"database": serialize.database_to_jsonable(snap), "views": view_defs}
            ).encode("utf-8")
            serialize.write_atomic(
                path, pack_frame(lsn, body), fault_point="truncate_snapshot"
            )
            with self._mutex:
                self._checkpoint_lsn = lsn
                self._publish_lag()
            self.checkpoints_written += 1
            obs_metrics.WAL_CHECKPOINTS.inc()
            self._prune()
            return path

    def _prune(self) -> None:
        """Drop checkpoints beyond the retention window, then every WAL
        segment the oldest *retained* checkpoint no longer needs."""
        checkpoints = list_checkpoints(self.directory)
        kept = checkpoints[: self.KEEP_CHECKPOINTS]
        for _lsn, path in checkpoints[self.KEEP_CHECKPOINTS:]:
            _unlink_quietly(path)
        if not kept:
            return
        horizon = min(lsn for lsn, _ in kept)
        segments = list_segments(self.directory)
        # a segment is dead when its successor starts at or before the
        # horizon — everything it holds is covered by a retained
        # checkpoint.  The live tail segment is never touched.
        for (first, path), (next_first, _) in zip(segments, segments[1:]):
            if next_first <= horizon + 1:
                _unlink_quietly(path)

    def lag_records(self) -> int:
        """Records appended since the last checkpoint (replay debt)."""
        with self._mutex:
            return (self._wal.next_lsn - 1) - self._checkpoint_lsn

    def _publish_lag(self) -> int:
        lag = (self._wal.next_lsn - 1) - self._checkpoint_lsn
        obs_metrics.WAL_LAG_RECORDS.set(lag)
        return lag

    def _checkpoint_loop(self) -> None:  # pragma: no cover - timing-driven
        interval = self.checkpoint_interval_s
        while True:
            self._ckpt_wake.wait(timeout=interval)
            if self._ckpt_stop.is_set():
                return
            self._ckpt_wake.clear()
            try:
                if self.lag_records() > 0:
                    self.checkpoint()
            except ReproError as exc:
                # a failing checkpoint must not kill the thread: the WAL
                # keeps the data safe, the next cycle retries
                log.warning("background checkpoint failed: %s", exc)

    # -- lifecycle / stats ---------------------------------------------------

    def close(self, *, checkpoint: bool = False) -> None:
        """Flush the WAL, optionally take a final checkpoint, stop threads.

        The graceful-shutdown path passes ``checkpoint=True`` so the next
        boot restores from the snapshot with an empty tail; crash paths
        never get to call this, which is the point of the WAL.
        """
        if self._closed:
            return
        self._closed = True
        self._ckpt_stop.set()
        self._ckpt_wake.set()
        if self._ckpt_thread is not None:
            self._ckpt_thread.join(timeout=10)
        if checkpoint and self.healthy:
            try:
                self.checkpoint()
            except ReproError as exc:
                log.warning("final checkpoint failed: %s", exc)
        self._wal.close()

    def stats(self) -> Dict[str, Any]:
        """The durability block of ``/stats`` (and the benchmark report)."""
        with self._mutex:
            last_lsn = self._wal.next_lsn - 1
            return {
                "fsync": self._wal.fsync_policy,
                "last_lsn": last_lsn,
                "checkpoint_lsn": self._checkpoint_lsn,
                "lag_records": last_lsn - self._checkpoint_lsn,
                "records_appended": self.records_appended,
                "checkpoints_written": self.checkpoints_written,
                "segments": len(list_segments(self.directory)),
                "unwritable": not self.healthy,
                "last_error": self._wal.last_error,
                "recovery": dict(self.recovery),
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DurabilityManager {self.directory!r} lsn={self._wal.next_lsn - 1} "
            f"ckpt={self._checkpoint_lsn}>"
        )


# ---------------------------------------------------------------------------
# recovery internals
# ---------------------------------------------------------------------------


def _load_checkpoint(path: str, lsn: int) -> Tuple[KDatabase, Dict[str, str]]:
    """The database and view definitions of the checkpoint at ``path``.

    The file must be exactly one verified frame under ``lsn`` whose body
    is ``{"database": ..., "views": {name: sql}}``; anything else raises
    :class:`~repro.exceptions.SnapshotCorrupt`.  A missing file raises
    the usual ``FileNotFoundError`` (absence is not corruption).
    """
    from repro.io.serialize import database_from_jsonable

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        frame_lsn, body, end = unpack_frame(raw)
    except FrameError as exc:
        raise SnapshotCorrupt(f"checkpoint {path!r}: {exc}") from exc
    if end != len(raw):
        raise SnapshotCorrupt(
            f"checkpoint {path!r}: {len(raw) - end} bytes trail its frame"
        )
    if frame_lsn != lsn:
        raise SnapshotCorrupt(
            f"checkpoint {path!r}: filename says lsn={lsn}, its frame {frame_lsn}"
        )
    try:
        payload = json.loads(body.decode("utf-8"))
        if not isinstance(payload, dict) or payload.keys() != {"database", "views"}:
            raise ValueError("not a {database, views} object")
        views = payload["views"]
        if not (isinstance(views, dict) and all(
                isinstance(v, str) for v in views.values())):
            raise ValueError("views is not a name -> sql object")
        return database_from_jsonable(payload["database"]), views
    except (AttributeError, IndexError, KeyError, TypeError, ValueError,
            ReproError) as exc:
        # the checksum passed but the body will not decode: written by a
        # buggy or foreign writer — typed, never a bare KeyError
        raise SnapshotCorrupt(
            f"checkpoint {path!r}: verified body failed to decode: {exc!r}"
        ) from exc


def _replay(
    db: KDatabase, records: List[Tuple[int, bytes]], view_defs: Dict[str, str]
) -> None:
    """Apply the WAL tail to ``db``, coalescing update runs.

    Folding each record through ``db.update`` individually would copy the
    relation catalog per record — O(n²) over a long tail.  Annotation
    addition is associative and commutative, so a *run* of update records
    collapses into one combined delta per relation (duplicate tuples
    merge with ``+_K`` inside the :class:`KRelation` constructor) and
    applies with a single union; ``add`` records are run boundaries
    (they rebind names).  The benchmark's ``wal.recovery_s`` (kill -9 to
    first healthy response) is the number this keeps down.
    """
    from repro.io.serialize import (
        SEMIRING_REGISTRY,
        record_rows,
        relation_from_jsonable,
    )

    #: name -> (semiring name, schema, the rows of the run's records)
    pending: Dict[str, Tuple[str, List[str], List[Any]]] = {}

    def flush() -> None:
        if not pending:
            return
        db.update({
            name: KRelation.from_rows(SEMIRING_REGISTRY[semiring], schema, rows)
            for name, (semiring, schema, rows) in pending.items()
        })
        pending.clear()

    for lsn, body in records:
        try:
            record = json.loads(body.decode("utf-8"))
            op = record["op"]
            if op == "update":
                for name, data in record["relations"].items():
                    bucket = pending.get(name)
                    if bucket is not None and bucket[1] != data["schema"]:
                        flush()
                        bucket = None
                    if bucket is None:
                        bucket = pending[name] = (
                            data["semiring"], list(data["schema"]), []
                        )
                    bucket[2].extend(record_rows(data))
            elif op == "add":
                flush()
                db.add(record["name"], relation_from_jsonable(record["relation"]))
            elif op == "create_view":
                view_defs[record["name"]] = record["sql"]
            else:
                raise WalCorrupt(
                    f"WAL record lsn={lsn} has unknown op {op!r}"
                )
        except WalCorrupt:
            raise
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            # the checksum passed but the record will not apply: written
            # by a buggy or future build — typed, never a bare KeyError
            raise WalCorrupt(
                f"WAL record lsn={lsn} failed to decode/apply: {exc}"
            ) from exc
    flush()


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
