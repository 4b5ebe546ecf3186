"""An asyncio HTTP/JSON front end over the three-tier engine.

Architecture (one process, no third-party dependencies):

* the **event loop** owns connections and parsing only — every request
  body is decoded, dispatched, and its CPU-bound work shipped to the
  :class:`~repro.serve.workers.WorkerPool` (admission-controlled, so an
  overloaded server answers 503 fast instead of queueing unboundedly);
* **readers** pin a :class:`~repro.core.database.DatabaseSnapshot` from
  the :class:`~repro.serve.snapshot.SnapshotManager` for the duration of
  a request: the whole evaluation — plan compile, encoded kernels,
  symbolic lowering — sees exactly one database version, and responses
  carry that ``version`` stamp so clients can observe the isolation;
* the **writer path** (``/update``, ``/relations``, ``/views``) is
  serialised by one asyncio lock, folds deltas into the root database,
  maintains every registered materialised view incrementally, and
  publishes the next snapshot with a single reference swap;
* **prepared queries**: each connection keeps a bounded SQL → compiled
  :class:`~repro.core.query.Query` cache, and the query object's own
  plan cache keys on ``(database root, version)`` — so a client reusing
  a connection re-plans only when the database actually moved;
* **durability** (optional): mounted on a
  :class:`~repro.wal.manager.DurabilityManager`, every write is
  WAL-appended *before* the snapshot publish — the append is the
  acknowledgement point, so a crash replays exactly the acknowledged
  prefix on the next boot.  ``/health`` and ``/stats`` report recovery
  and checkpoint state; an unwritable log turns every write into a 503
  while reads keep serving.

Routes (all bodies JSON unless noted)::

    GET  /health           liveness + current version
    GET  /stats            counters (cumulative), pool stats, view list
    GET  /metrics          Prometheus text exposition of the registry
    POST /query            {"sql", "engine"?, "mode"?, "annotations"?,
                            "analyze"?}
    POST /update           {"relations": {name: {"rows": [...]}}}
    POST /relations        {"name", "relation": {"columns", "rows"}}
    POST /views            {"name", "sql"}
    GET  /views/<name>     maintained view contents

Every response — including 408/503/500 error paths — carries an
``x-request-id`` header (the client's, honored, or a generated one);
error bodies repeat it as ``trace_id`` and the slow-query log records
it, so client logs, server logs and traces correlate on one id.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

from repro.caching import LRUDict
from repro.core.database import KDatabase
from repro.deadline import Deadline
from repro.exceptions import DeadlineExceeded, ReproError, WalWriteError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (wal imports obs)
    from repro.wal.manager import DurabilityManager
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve.schema import (
    BadRequest,
    deltas_from_json,
    parse_query_request,
    relation_from_json,
    relation_to_json,
)
from repro.serve.snapshot import SnapshotManager
from repro.serve.workers import ServerOverloaded, WorkerPool

log = logging.getLogger("repro.serve")

__all__ = ["ProvenanceServer", "ServerHandle", "start_in_thread"]

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Per-connection prepared-statement slots (compiled SQL ASTs).
PREPARED_SLOTS = 64

#: Largest accepted request body, a guard against memory-exhaustion abuse.
MAX_BODY_BYTES = 16 << 20


class PlainText:
    """A non-JSON response body (``GET /metrics`` exposition text)."""

    __slots__ = ("text", "content_type")

    def __init__(self, text: str,
                 content_type: str = "text/plain; version=0.0.4; charset=utf-8"):
        self.text = text
        self.content_type = content_type


def _route_label(method: str, path: str) -> str:
    """The bounded-cardinality route label for request metrics."""
    if path.startswith("/views/"):
        path = "/views/:name"
    elif path not in ("/health", "/stats", "/metrics", "/query", "/update",
                      "/relations", "/views"):
        path = ":other"
    return f"{method} {path}"


class ProvenanceServer:
    """The server object: routing, snapshot handoff, view maintenance."""

    def __init__(
        self,
        db: KDatabase,
        host: str = "127.0.0.1",
        port: int = 8737,
        *,
        workers: Optional[int] = None,
        max_queue: int = 32,
        heavy_slots: int = 1,
        drain_timeout: float = 5.0,
        slow_query_ms: float = 500.0,
        retry_after_base: float = 1.0,
        retry_after_max: float = 30.0,
        durability: "Optional[DurabilityManager]" = None,
    ):
        if durability is not None and db is not durability.db:
            raise ValueError(
                "durability manager must wrap the same database the "
                "server serves (pass db=manager.db)"
            )
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        #: Queries slower than this are logged (WARNING) with their
        #: trace id, so the slow-query log joins against client logs.
        self.slow_query_ms = slow_query_ms
        self.durability = durability
        self.manager = SnapshotManager(db)
        self.pool = WorkerPool(workers=workers, max_queue=max_queue,
                               heavy_slots=heavy_slots,
                               retry_after_base=retry_after_base,
                               retry_after_max=retry_after_max)
        self._views: Dict[str, Any] = {}
        self._writer_gate = asyncio.Lock()
        self._stats_lock = threading.Lock()
        self._counters = {"queries": 0, "updates": 0, "errors": 0,
                          "rejected": 0, "connections": 0, "timeouts": 0}
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: "set[asyncio.Task]" = set()
        if durability is not None:
            # checkpoints snapshot registered view states alongside the
            # database, so a restart restores instead of re-evaluating
            durability.set_view_supplier(lambda: self._views)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # resolve port 0 to the bound ephemeral port
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # graceful drain: stop accepting, then give in-flight requests a
        # grace period to finish before cancelling their connections —
        # cancelling first would kill requests awaiting the executor and
        # drop work that is milliseconds from a response
        if self.drain_timeout and self.drain_timeout > 0:
            grace_until = time.monotonic() + self.drain_timeout
            while self.pool.in_flight() and time.monotonic() < grace_until:
                await asyncio.sleep(0.01)
        for task in list(self._connections):  # drop open keep-alive clients
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self.pool.shutdown(drain_timeout=self.drain_timeout)

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._count("connections")
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        prepared = LRUDict(PREPARED_SLOTS)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                # honor the client's correlation id, else mint one; it
                # reaches every response header (error paths included),
                # error bodies, traces, and the slow-query log
                request_id = headers.get("x-request-id") or obs_trace.new_trace_id()
                status, payload = await self._dispatch(
                    method, path, body, prepared, headers, request_id
                )
                obs_metrics.SERVE_REQUESTS.inc(
                    1, _route_label(method, path), str(status)
                )
                keep = headers.get("connection", "").lower() != "close"
                await self._respond(writer, status, payload, keep, request_id)
                if not keep:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
        ):
            pass
        except asyncio.CancelledError:
            # aclose() cancels idle keep-alive connections; dropping the
            # socket is the intended outcome, not an error
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                # cancellation can also land inside this await when
                # aclose() tears down a connection mid-drain; the socket
                # is closed either way
                pass

    async def _read_request(
        self, reader
    ) -> "Optional[Tuple[str, str, Dict[str, str], bytes]]":
        line = await reader.readline()
        if not line or not line.strip():
            return None
        parts = line.decode("latin1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        if length > MAX_BODY_BYTES:
            raise asyncio.LimitOverrunError("request body too large", length)
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _respond(self, writer, status: int, payload: Any, keep: bool,
                       request_id: Optional[str] = None) -> None:
        if isinstance(payload, PlainText):
            data = payload.text.encode("utf-8")
            content_type = payload.content_type
        else:
            data = json.dumps(payload, default=str).encode("utf-8")
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'keep-alive' if keep else 'close'}\r\n"
        )
        if request_id is not None:
            # header values must stay CR/LF-free; the id is client input
            clean = request_id.replace("\r", "").replace("\n", "")[:128]
            head += f"x-request-id: {clean}\r\n"
        if status in (408, 503):
            # the hint the handler computed from pool pressure (integer
            # seconds per RFC 9110, rounded up so it never reads "0")
            hint = 1.0
            if isinstance(payload, Mapping):
                try:
                    hint = float(payload.get("retry_after") or 1.0)
                except (TypeError, ValueError):
                    hint = 1.0
            head += f"Retry-After: {max(1, math.ceil(hint))}\r\n"
        writer.write(head.encode("latin1") + b"\r\n" + data)
        await writer.drain()

    # -- routing -------------------------------------------------------------

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        prepared: LRUDict,
        headers: Optional[Dict[str, str]] = None,
        request_id: Optional[str] = None,
    ) -> Tuple[int, Any]:
        headers = headers or {}
        rid = request_id or obs_trace.new_trace_id()
        try:
            if method == "GET":
                if path == "/health":
                    return 200, self.health()
                if path == "/stats":
                    return 200, self.stats()
                if path == "/metrics":
                    return 200, PlainText(obs_metrics.render_prometheus())
                if path.startswith("/views/"):
                    return await self._read_view(path[len("/views/"):])
                return 404, {"error": f"no route GET {path}", "trace_id": rid}
            if method == "POST":
                try:
                    payload = json.loads(body) if body else {}
                except json.JSONDecodeError as exc:
                    return 400, {
                        "error": f"request body is not valid JSON: {exc}",
                        "trace_id": rid,
                    }
                if path == "/query":
                    return await self._query(payload, prepared, headers, rid)
                if path == "/update":
                    return await self._update(payload)
                if path == "/relations":
                    return await self._add_relation(payload)
                if path == "/views":
                    return await self._create_view(payload)
                return 404, {"error": f"no route POST {path}", "trace_id": rid}
            return 405, {"error": f"method {method} not allowed", "trace_id": rid}
        except ServerOverloaded as exc:
            self._count("rejected")
            return 503, {"error": str(exc), "retry_after": exc.retry_after,
                         "trace_id": rid}
        except BadRequest as exc:
            return 400, {"error": str(exc), "trace_id": rid}
        except DeadlineExceeded as exc:
            # must precede the ReproError clause (it subclasses it): an
            # expired budget is a timeout, not a malformed request.  The
            # worker slot is already reclaimed — the evaluating thread
            # raised at its next cooperative checkpoint
            self._count("timeouts")
            return 408, {"error": str(exc), "retry_after": 1.0, "trace_id": rid}
        except WalWriteError as exc:
            # must also precede the ReproError clause: the write-ahead
            # log refused the append (disk failure, injected fault), so
            # the write was never acknowledged and never applied — the
            # server is unavailable for writes, not the request malformed
            self._count("errors")
            return 503, {"error": f"durability: {exc}", "retry_after": 5.0,
                         "unwritable": True, "trace_id": rid}
        except ReproError as exc:
            # engine-level rejection of a well-formed HTTP request:
            # unknown table, schema mismatch, symbolic comparison, ...
            return 400, {"error": f"{type(exc).__name__}: {exc}", "trace_id": rid}
        except Exception as exc:  # pragma: no cover - defensive boundary
            self._count("errors")
            log.exception("request %s failed (trace %s)", path, rid)
            return 500, {"error": f"{type(exc).__name__}: {exc}", "trace_id": rid}

    # -- read path -----------------------------------------------------------

    def _prepare(self, sql: str, prepared: LRUDict):
        query = prepared.get(sql)
        if query is None:
            from repro.sql.compiler import compile_sql  # local: keep startup light

            query = compile_sql(sql)
            prepared[sql] = query
        return query

    async def _query(
        self,
        payload: Any,
        prepared: LRUDict,
        headers: Optional[Dict[str, str]] = None,
        request_id: Optional[str] = None,
    ) -> Tuple[int, Any]:
        req = parse_query_request(payload)
        timeout_ms = req.get("timeout_ms")
        header_timeout = (headers or {}).get("x-timeout-ms")
        if header_timeout:
            try:
                timeout_ms = float(header_timeout)
            except ValueError:
                raise BadRequest(
                    f"x-timeout-ms header must be a number, got {header_timeout!r}"
                ) from None
            if timeout_ms <= 0:
                raise BadRequest("x-timeout-ms header must be positive")
        snap = self.manager.pin()  # the whole request reads this version
        query = self._prepare(req["sql"], prepared)
        heavy = req["annotations"] == "circuit" or _symbolic(snap.semiring)
        analyze = req["analyze"] or obs_trace.enabled()
        rid = request_id or obs_trace.new_trace_id()
        sql = req["sql"]
        slow_ms = self.slow_query_ms

        def work():
            # runs start-to-finish on one pool thread, so the collector's
            # contextvar scope is exactly this request's evaluation
            start = time.perf_counter()
            deadline = (
                Deadline.after(timeout_ms / 1e3) if timeout_ms is not None else None
            )

            def evaluate():
                return query.evaluate(
                    snap,
                    mode=req["mode"],
                    engine=req["engine"],
                    annotations=req["annotations"],
                    deadline=deadline,
                )

            root = None
            if analyze:
                with obs_trace.collect("request", trace_id=rid,
                                       sql=sql, engine=req["engine"]) as root:
                    result = evaluate()
            else:
                result = evaluate()
            if hasattr(result, "lower"):  # CircuitResult → canonical N[X]
                result = result.lower()
            encoded = relation_to_json(result)
            elapsed = time.perf_counter() - start
            obs_metrics.QUERY_SECONDS.observe(elapsed)
            elapsed_ms = elapsed * 1e3
            encoded["elapsed_ms"] = round(elapsed_ms, 3)
            if slow_ms and elapsed_ms >= slow_ms:
                log.warning(
                    "slow query (%.1fms, trace %s): %s", elapsed_ms, rid, sql
                )
            if root is not None and req["analyze"]:
                encoded["analyze"] = {
                    "trace_id": root.trace_id,
                    "text": obs_trace.render(root),
                    "spans": root.to_dict(),
                }
            return encoded

        response = await self.pool.run(work, heavy=heavy)
        response["version"] = snap.version
        response["engine"] = req["engine"]
        self._count("queries")
        return 200, response

    # -- write path ----------------------------------------------------------

    async def _update(self, payload: Any) -> Tuple[int, Any]:
        async with self._writer_gate:
            snap = self.manager.pin()
            deltas = deltas_from_json(snap, payload)
            views = list(self._views.values())

            def work():
                if self.durability is not None:
                    # WAL-append first (the acknowledgement point), apply
                    # to the root, then publish the next snapshot
                    self.durability.update(deltas)
                    published = self.manager.refresh()
                else:
                    published = self.manager.update(deltas)
                # each view owns a private clone of the catalog; folding
                # the same deltas keeps every clone at the same contents,
                # at O(|Δ|) per clone: each new version layers the delta
                # over the rows of the one it replaces
                for view in views:
                    view.apply(deltas)
                return published.version

            version = await self.pool.run(work)
        self._count("updates")
        return 200, {"version": version}

    async def _add_relation(self, payload: Any) -> Tuple[int, Any]:
        if not isinstance(payload, Mapping):
            raise BadRequest("relations request body must be a JSON object")
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise BadRequest("relations request: 'name' must be a string")
        async with self._writer_gate:
            semiring = self.manager.pin().semiring
            relation = relation_from_json(
                semiring, payload.get("relation"), f"relation {name!r}"
            )

            def work():
                if self.durability is not None:
                    self.durability.add(name, relation)
                    return self.manager.refresh().version
                return self.manager.add(name, relation).version

            version = await self.pool.run(work)
        self._count("updates")
        return 201, {"name": name, "version": version}

    # -- materialised views --------------------------------------------------

    async def _create_view(self, payload: Any) -> Tuple[int, Any]:
        if not isinstance(payload, Mapping):
            raise BadRequest("views request body must be a JSON object")
        name = payload.get("name")
        sql = payload.get("sql")
        if not isinstance(name, str) or not name:
            raise BadRequest("views request: 'name' must be a string")
        if not isinstance(sql, str):
            raise BadRequest("views request: 'sql' must be a string")
        async with self._writer_gate:
            if name in self._views:
                raise BadRequest(f"view {name!r} already exists")
            snap = self.manager.pin()
            heavy = _symbolic(snap.semiring)

            def work():
                from repro.ivm import MaterializedView
                from repro.sql.compiler import compile_sql

                # the view maintains its own clone of the catalog
                # (relation objects shared, never copied), so its apply()
                # stream is confined and cannot race other views or the
                # root — per-worker confinement instead of shared locks
                view_db = KDatabase(snap.semiring, dict(iter(snap)))
                return MaterializedView.create(view_db, compile_sql(sql))

            view = await self.pool.run(work, heavy=heavy)
            if self.durability is not None:
                # log the definition before registering: a crash after
                # the append rebuilds the view on boot, a crash before it
                # leaves the client's 503 honest (view never existed)
                self.durability.create_view(name, sql)
            self._views[name] = view
        return 201, {"name": name, "version": self.manager.version}

    def restore_views(self) -> Dict[str, str]:
        """Rebuild every durably-registered view after recovery.

        Called once on boot (before serving) when the server is mounted
        on a durability manager.  Each definition recovered from the WAL
        / views manifest is restored from its checkpoint state snapshot
        when one matches the recovered database (fingerprint-checked —
        a stale or damaged snapshot falls back to re-evaluating the
        query; :func:`repro.ivm.snapshot.load_view` counts the fallback
        in the ``snapshot_rebuilds`` ledger).  Returns ``name ->
        "restored" | "rebuilt"`` for the boot log.
        """
        if self.durability is None:
            return {}
        from repro.ivm import MaterializedView
        from repro.ivm.snapshot import load_view
        from repro.sql.compiler import compile_sql

        outcomes: Dict[str, str] = {}
        for name, sql in sorted(self.durability.view_defs.items()):
            snap = self.manager.pin()
            view_db = KDatabase(snap.semiring, dict(iter(snap)))
            query = compile_sql(sql)
            path = self.durability.view_state_path(name)
            try:
                view = load_view(view_db, query, path)
                outcomes[name] = (
                    "restored" if view.restored_from_snapshot else "rebuilt"
                )
            except FileNotFoundError:
                # registered after the last checkpoint: only the WAL
                # create_view record survived, so evaluate from scratch
                view = MaterializedView.create(view_db, query)
                outcomes[name] = "rebuilt"
            self._views[name] = view
        return outcomes

    async def _read_view(self, name: str) -> Tuple[int, Any]:
        view = self._views.get(name)
        if view is None:
            return 404, {"error": f"no view named {name!r}"}

        def work():
            # the lock covers only fetching a consistent (result, version)
            # pair; the result is immutable, so lowering and JSON rendering
            # run outside it and a writer's view.apply never waits on them
            with view.db._lock:
                result = view.result()
                version = view.version
            if hasattr(result, "lower"):
                result = result.lower()
            encoded = relation_to_json(result)
            encoded["view_version"] = version
            return encoded

        response = await self.pool.run(work)
        self._count("queries")
        return 200, response

    # -- stats ---------------------------------------------------------------

    def _count(self, key: str) -> None:
        with self._stats_lock:
            self._counters[key] += 1

    def health(self) -> Dict[str, Any]:
        """Liveness + degradation: ``status`` is ``"degraded"`` while the
        write-ahead log is unwritable (reads keep serving, writes 503) —
        degraded, not down."""
        body: Dict[str, Any] = {
            "status": "ok",
            "version": self.manager.version,
            "semiring": self.manager.pin().semiring.name,
        }
        if self.durability is not None:
            body["durability"] = {
                "unwritable": not self.durability.healthy,
                "last_lsn": self.durability.stats()["last_lsn"],
                "lag_records": self.durability.lag_records(),
                "recovery": dict(self.durability.recovery),
            }
            if not self.durability.healthy:
                body["status"] = "degraded"
        return body

    def stats(self) -> Dict[str, Any]:
        """Cumulative counters (Prometheus semantics, same registry as
        ``GET /metrics``): ``tiers`` and ``resilience`` report
        process-lifetime totals — compute deltas client-side, exactly as
        a Prometheus ``rate()`` would.  Earlier builds baselined them at
        server construction; mixing since-start and since-construction
        windows in one payload proved error-prone."""
        with self._stats_lock:
            counters = dict(self._counters)
        body = {
            "version": self.manager.version,
            "writes": self.manager.writes,
            "views": sorted(self._views),
            "pool": self.pool.stats(),
            "tiers": obs_metrics.tier_executions(),
            "resilience": obs_metrics.resilience_counters(),
            **counters,
        }
        if self.durability is not None:
            body["durability"] = self.durability.stats()
        return body


# ---------------------------------------------------------------------------
# embedding: run the server off-thread (tests, benchmarks, notebooks)
# ---------------------------------------------------------------------------


class ServerHandle:
    """A running server on a background event-loop thread."""

    def __init__(self, server: ProvenanceServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.host, self.server.port

    def close(self) -> None:
        if not self._loop.is_closed():
            asyncio.run_coroutine_threadsafe(
                self.server.aclose(), self._loop
            ).result(timeout=10)
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)


def _symbolic(semiring) -> bool:
    """Is annotation arithmetic over ``semiring`` symbolic — the expensive
    work the heavy gate admits one slot at a time?  True for boxed
    annotations (no machine representation) and for machine entries that
    are ids into an in-process store (gate ids, ``N[X]`` term ids): both
    build polynomials or gates, unlike machine scalars."""
    machine = semiring.machine_repr
    return machine is None or not machine.portable


def start_in_thread(db: KDatabase, host: str = "127.0.0.1", port: int = 0,
                    **kwargs: Any) -> ServerHandle:
    """Start a :class:`ProvenanceServer` on a daemon thread and return a handle.

    ``port=0`` binds an ephemeral port; read it back off
    ``handle.server.port``.  The loop runs until :meth:`ServerHandle.close`.
    """
    loop = asyncio.new_event_loop()
    started = threading.Event()
    box: Dict[str, Any] = {}

    def runner() -> None:
        asyncio.set_event_loop(loop)
        server = ProvenanceServer(db, host, port, **kwargs)
        if server.durability is not None:
            server.restore_views()  # recovered views exist before serving
        # the server's writer gate must be created on this loop
        loop.run_until_complete(server.start())
        box["server"] = server
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=runner, name="repro-serve-loop", daemon=True)
    thread.start()
    if not started.wait(timeout=10):
        raise RuntimeError("server failed to start within 10s")
    return ServerHandle(box["server"], loop, thread)
