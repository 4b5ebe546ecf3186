"""The decoded persistence format for materialised-view state.

A :class:`ViewSnapshot` is what :func:`repro.io.serialize.loads` returns
for a dumped view: head kind, schemas, the logical annotation semiring,
and the fully-decoded head state — one ``{key, tensors, total}`` entry
per group, for every head kind (tensors and raw annotation sums over the
*logical* semiring — circuit-mode views are lowered to canonical
``N[X]`` on dump and re-interned on restore).  Pair
it with the matching database and query via
``MaterializedView.create(db, query, snapshot=snap)``; restore checks
the recorded query text and the database's content fingerprint.
``db_version`` is informational only (debugging aid): version counters
are process-local, so cross-run consistency is enforced by
``db_fingerprint``, never by comparing versions.
"""

from __future__ import annotations

import os
from typing import Any

__all__ = ["ViewSnapshot", "save_view", "load_view"]


class ViewSnapshot:
    """Dehydrated materialised-view state (see :mod:`repro.io.serialize`)."""

    __slots__ = (
        "head",
        "semiring_name",
        "out_schema",
        "core_schema",
        "query_text",
        "db_version",
        "state",
        "db_fingerprint",
    )

    def __init__(
        self,
        head: str,
        semiring_name: str,
        out_schema,
        core_schema,
        query_text: str,
        db_version: int,
        state: Any,
        db_fingerprint: "str | None" = None,
    ):
        self.head = head
        self.semiring_name = semiring_name
        self.out_schema = out_schema
        self.core_schema = core_schema
        self.query_text = query_text
        self.db_version = db_version
        self.state = state
        self.db_fingerprint = db_fingerprint

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ViewSnapshot head={self.head} over {self.semiring_name} "
            f"for {self.query_text!r}>"
        )


def save_view(view, path: "str | os.PathLike") -> str:
    """Persist a :class:`~repro.ivm.view.MaterializedView`'s state
    crash-safely (temp file + fsync + atomic rename + checksummed header
    — see :func:`repro.io.serialize.dump_file`).  Returns the path."""
    from repro.io import serialize  # local: io imports ivm lazily

    return serialize.dump_file(view, path)


def load_view(db, query, path: "str | os.PathLike", *, rebuild_on_corrupt: bool = True):
    """Restore a materialised view from a :func:`save_view` file.

    The restore path is where crash-safety pays off: a snapshot damaged
    in any way (truncation, bit-flip, checksum mismatch, an interrupted
    write that left a torn file) surfaces as the typed
    :class:`~repro.exceptions.SnapshotCorrupt` — and, by default, the
    view is **rebuilt from the live database** instead
    (``MaterializedView.create`` without a snapshot re-evaluates the
    query; the ``snapshot_rebuilds`` resilience counter records the
    fallback).  An *intact* snapshot that no longer **matches** — the
    recorded query text, schema, semiring, or database fingerprint
    differs because the database moved on while the file sat on disk
    (WAL replay past a checkpoint does exactly this) — rebuilds the same
    way: a stale snapshot is as unusable as a damaged one, it just fails
    a different check.  Pass ``rebuild_on_corrupt=False`` to surface
    either condition to the caller instead.  A *missing* file always
    raises ``FileNotFoundError`` — absence is an operator error, not
    damage to route around silently.
    """
    from repro.exceptions import (
        QueryError,
        SchemaError,
        SemiringError,
        SnapshotCorrupt,
    )
    from repro.io import serialize
    from repro.ivm.view import MaterializedView

    try:
        snap = serialize.load_file(path)
        if not isinstance(snap, ViewSnapshot):
            raise SnapshotCorrupt(
                f"snapshot {os.fspath(path)!r} holds a "
                f"{type(snap).__name__}, not view state"
            )
        return MaterializedView.create(db, query, snapshot=snap)
    except (SnapshotCorrupt, QueryError, SchemaError, SemiringError):
        if not rebuild_on_corrupt:
            raise
        from repro import faults

        faults.bump("snapshot_rebuilds")
        return MaterializedView.create(db, query)
