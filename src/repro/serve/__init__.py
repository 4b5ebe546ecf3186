"""``repro.serve`` — the provenance query service.

A long-lived, many-client front end over the engine: HTTP/JSON served
one thread per connection (a request is parsed, admitted, evaluated and
answered on the thread that read it), snapshot-isolated reads off the
version-stamped :class:`~repro.core.database.KDatabase`, admission
gates that cap concurrent evaluations and shed overload as 503s,
per-connection prepared queries, answers kept per pinned snapshot (a
repeated query on an unchanged version is written from the rendered
bytes of its first answer), incrementally maintained materialised
views, and (with ``--data-dir``) durable writes through the
:mod:`repro.wal` write-ahead log.  Run it::

    python -m repro.serve --demo --port 8737 --data-dir ./data

then::

    curl -s localhost:8737/query -d '{"sql": "SELECT Dept, SUM(Sal) FROM Emp GROUP BY Dept"}'

See ``docs/architecture.md`` ("Serving layer") for the isolation
contract and which caches are shared versus confined.
"""

from repro.serve.server import ProvenanceServer, ServerHandle, start_in_thread
from repro.serve.snapshot import SnapshotManager
from repro.serve.workers import ServerOverloaded, WorkerPool

__all__ = [
    "ProvenanceServer",
    "ServerHandle",
    "ServerOverloaded",
    "SnapshotManager",
    "WorkerPool",
    "start_in_thread",
]
