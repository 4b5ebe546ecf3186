"""Snapshot handoff: one writer publishes, many readers pin.

The serving layer's isolation story is deliberately small because the
engine already did the hard part: every per-database cache (compiled
plans, dictionary encodings, circuit gate images, view states) keys on
the monotonic :attr:`~repro.core.database.KDatabase.version` stamp, and
:meth:`KDatabase.update` publishes each version's relation catalog as an
immutable dict.  :class:`SnapshotManager` adds the last inch:

* :meth:`pin` hands a reader the *current*
  :class:`PublishedSnapshot` — a single attribute read, so pinning is
  wait-free and never blocks on a writer;
* :meth:`update` / :meth:`add` run the write under the manager's writer
  mutex, then swap in a freshly-pinned snapshot with one reference
  assignment.

Every reader between two publishes therefore shares *the same* snapshot
object: prepared-query plan caches (keyed on the root database identity
plus version) and the dictionary-encoding cache (shared through the
snapshot onto the root) stay hot across the handoff, and a request that
straddles an update simply finishes on the version it pinned.

A pinned snapshot is an immutable K-database, so a query's annotated
answer on it never changes: each published snapshot owns the
:class:`Answers` computed on it, the rendered JSON of each ``/query``
result keyed by what decides it (SQL text, mode, engine, annotation
representation).  The store belongs to the snapshot object, never to a
version number (two servers over different databases can both be at
version 3), and a publish retires the superseded snapshot's store, so
only the current version holds answers and there is nothing to evict.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, Mapping, Optional

from repro.core.database import DatabaseSnapshot, KDatabase
from repro.core.relation import KRelation

__all__ = ["ANSWER_BYTES", "Answers", "PublishedSnapshot", "SnapshotManager"]

#: Rendered answer bytes one snapshot keeps; an answer that would pass
#: the bound is served but not kept.
ANSWER_BYTES = 8 << 20


class Answers:
    """The rendered answers computed on one snapshot.

    Reads are one dict lookup (no lock); stores take a lock so the byte
    count stays exact.  :meth:`retire` empties the store and refuses
    later stores: a reader still finishing on a superseded snapshot
    evaluates and answers, but keeps nothing.
    """

    __slots__ = ("_entries", "_lock", "nbytes", "_retired")

    def __init__(self) -> None:
        self._entries: Dict[Hashable, bytes] = {}
        self._lock = threading.Lock()
        self.nbytes = 0
        self._retired = False

    def get(self, key: Hashable) -> Optional[bytes]:
        return self._entries.get(key)

    def put(self, key: Hashable, data: bytes) -> None:
        """Keep ``data`` under ``key``, unless the store is retired,
        already holds the key, or would pass :data:`ANSWER_BYTES`."""
        with self._lock:
            if self._retired or key in self._entries:
                return
            if self.nbytes + len(data) <= ANSWER_BYTES:
                self._entries[key] = data
                self.nbytes += len(data)

    def retire(self) -> None:
        with self._lock:
            self._retired = True
            self._entries = {}
            self.nbytes = 0

    def __len__(self) -> int:
        return len(self._entries)


class PublishedSnapshot(DatabaseSnapshot):
    """A snapshot as :class:`SnapshotManager` publishes it: the pinned
    database plus the :class:`Answers` computed on it."""

    __slots__ = ("answers",)

    def __init__(self, parent: KDatabase):
        super().__init__(parent)
        self.answers = Answers()


class SnapshotManager:
    """Single-writer / many-reader coordinator over one :class:`KDatabase`."""

    def __init__(self, db: KDatabase):
        if isinstance(db, DatabaseSnapshot):
            raise ValueError("SnapshotManager needs the mutable root database")
        self._db = db
        self._writer = threading.Lock()
        self._current = PublishedSnapshot(db.snapshot())
        self.writes = 0

    @property
    def db(self) -> KDatabase:
        """The mutable root database (writer side only)."""
        return self._db

    @property
    def version(self) -> int:
        """The version of the currently-published snapshot."""
        return self._current.version

    def pin(self) -> PublishedSnapshot:
        """The current published snapshot (wait-free; never blocks)."""
        return self._current

    def update(self, deltas: Mapping[str, KRelation]) -> PublishedSnapshot:
        """Fold ``deltas`` in and publish the next snapshot atomically.

        Validation-then-publish is inherited from
        :meth:`KDatabase.update`; a bad batch raises before any reader
        can observe a change.  Returns the newly published snapshot.
        """
        with self._writer:
            self._db.update(deltas)
            return self._publish()

    def add(self, name: str, relation: KRelation) -> PublishedSnapshot:
        """Create/replace one relation and publish the next snapshot."""
        with self._writer:
            self._db.add(name, relation)
            return self._publish()

    def refresh(self) -> PublishedSnapshot:
        """Re-pin after out-of-band mutation of the root database."""
        with self._writer:
            return self._publish()

    def _publish(self) -> PublishedSnapshot:
        # built from a consistent (relations, version) pair taken under
        # the database lock
        snap = PublishedSnapshot(self._db.snapshot())
        previous, self._current = self._current, snap  # the handoff
        # compiled plans keep the snapshot they were compiled on alive,
        # so the superseded answers are dropped here, not left to it
        previous.answers.retire()
        self.writes += 1
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SnapshotManager v{self.version} writes={self.writes}>"
