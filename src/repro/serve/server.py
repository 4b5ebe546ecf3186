"""A threaded HTTP/JSON front end over the three-tier engine.

Architecture (one process, no third-party dependencies):

* **one thread per connection**: the thread that reads a request off its
  socket parses it, passes the admission gates of the
  :class:`~repro.serve.workers.WorkerPool` (an overloaded server answers
  503 fast instead of queueing unboundedly, and ``workers`` caps the
  evaluations running at once), evaluates, renders and writes the
  response itself — a request never changes thread.  An idle keep-alive
  connection holds a blocked thread but no slot;
* **readers** pin a :class:`~repro.core.database.DatabaseSnapshot` from
  the :class:`~repro.serve.snapshot.SnapshotManager` for the duration of
  a request: the whole evaluation — plan compile, encoded kernels,
  symbolic lowering — sees exactly one database version, and responses
  carry that ``version`` stamp so clients can observe the isolation;
* the **writer path** (``/update``, ``/relations``, ``/views``) is
  serialised by one lock, folds deltas into the root database,
  carries every maintained answer across the write (below), and
  publishes the next snapshot with a single reference swap;
* **prepared queries**: each connection keeps a bounded SQL → compiled
  :class:`~repro.core.query.Query` cache, and the query object's own
  plan cache keys on ``(database root, version)`` — so a client reusing
  a connection re-plans only when the database actually moved;
* **answers**: a pinned snapshot never changes, so neither does a
  query's answer on it.  Each successful ``/query`` answer is kept on
  the snapshot it was computed on
  (:class:`~repro.serve.snapshot.Answers`) as the rendered JSON of
  ``{semiring, columns, rows, rowcount}``, keyed by ``(sql, mode,
  engine, annotations)``; a repeat on the same snapshot passes the same
  admission gates, then writes those bytes plus its own ``elapsed_ms``,
  ``version`` and ``engine``.  ``analyze`` requests and every request
  while tracing is on neither read nor keep answers, error answers are
  never kept, and :data:`~repro.serve.snapshot.ANSWER_BYTES` bounds what
  one snapshot holds;
* **maintained answers**: aggregation is a sum in ``K ⊗ M``, so an
  answer on ``R ∪ Δ`` is its answer on ``R`` plus its answer on ``Δ``.
  ``_views`` is one table of :class:`~repro.ivm.MaterializedView`
  entries, each over a private catalog clone: ``/views`` registrations
  (keyed by name, never demoted) and *promoted* answers (keyed like a
  kept answer).  Under the writer lock, before the next snapshot is
  published, a write folds its deltas into every entry, promotes each
  kept answer read on the version it replaces *and* on the one before
  (``mode="standard"``, ``annotations="expanded"``, and a query the view
  layer accepts), demotes each promoted answer that was not read on the
  version it replaces, and seeds the new snapshot's store with every
  promoted answer's bytes, rendered as a miss renders them: the
  read-your-write query is a hit.  A read that is not repeated after a
  write therefore never costs the writer an evaluation.  A replaced
  relation (``/relations``) reaches every entry: a ``/views`` entry
  reading it re-materialises, a promoted one is demoted.  A patch that
  raises demotes its entry (a ``/views`` entry is rebuilt instead) and
  the write still answers 200: the WAL append already acknowledged it.
  A ``/views`` entry whose rebuild raises too is *broken*: its reads
  answer 409, naming the write and the cause, and each later write
  retries the rebuild until one succeeds.
  Each entry costs O(|Δ|) per write (its clone layers the delta over its
  tables and carries its encodings forward).  Over a symbolic semiring
  a write takes the heavy slot, as the evaluations it may promote do;
* **durability** (optional): mounted on a
  :class:`~repro.wal.manager.DurabilityManager`, every write is
  WAL-appended *before* the snapshot publish — the append is the
  acknowledgement point, so a crash replays exactly the acknowledged
  prefix on the next boot.  Only view *definitions* are durable: boot
  evaluates each ``/views`` entry over the recovered database
  (:meth:`ProvenanceServer.restore_views`).  ``/health`` and ``/stats``
  report recovery and checkpoint state; an unwritable log turns every
  write into a 503 while reads keep serving.

Routes (all bodies JSON unless noted)::

    GET  /health           liveness + current version
    GET  /stats            counters (cumulative), pool stats, view list
    GET  /metrics          Prometheus text exposition of the registry
    POST /query            {"sql", "engine"?, "mode"?, "annotations"?,
                            "analyze"?}
    POST /update           {"relations": {name: {"rows": [...]}}}
    POST /relations        {"name", "relation": {"columns", "rows"}}
    POST /views            {"name", "sql"}
    GET  /views/<name>     maintained view contents (rendered once per
                           view version; 409 while it cannot be rebuilt)

Every response — including 408/503/500 error paths — carries an
``x-request-id`` header (the client's, honored, or a generated one);
error bodies repeat it as ``trace_id`` and the slow-query log records
it, so client logs, server logs and traces correlate on one id.
"""

from __future__ import annotations

import json
import logging
import math
import socket
import threading
import time
from contextlib import nullcontext
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Hashable, Mapping, Optional, Tuple

from repro.caching import LRUDict
from repro.core.database import KDatabase
from repro.core.query import Table
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
from repro.serve.snapshot import PublishedSnapshot, SnapshotManager
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
    409: "Conflict",
    413: "Content Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Per-connection prepared-statement slots (compiled SQL ASTs).
PREPARED_SLOTS = 64

#: Largest accepted request body, a guard against memory-exhaustion abuse.
MAX_BODY_BYTES = 16 << 20

#: Longest accepted request or header line, the same guard for the head.
MAX_LINE_BYTES = 64 << 10

#: Queries slower than this many milliseconds are logged (WARNING) with
#: their trace id, so the slow-query log joins against client logs.
SLOW_QUERY_MS = 500.0


class PlainText:
    """A non-JSON response body (``GET /metrics`` exposition text)."""

    __slots__ = ("text", "content_type")

    def __init__(self, text: str,
                 content_type: str = "text/plain; version=0.0.4; charset=utf-8"):
        self.text = text
        self.content_type = content_type


class _BadFraming(Exception):
    """Malformed HTTP framing: answered with ``status``, then the
    connection closes (the stream position is lost)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _route_label(method: str, path: str) -> str:
    """The bounded-cardinality route label for request metrics."""
    if path.startswith("/views/"):
        path = "/views/:name"
    elif path not in ("/health", "/stats", "/metrics", "/query", "/update",
                      "/relations", "/views"):
        path = ":other"
    return f"{method} {path}"


def _read_line(rfile) -> bytes:
    line = rfile.readline(MAX_LINE_BYTES + 1)
    if len(line) > MAX_LINE_BYTES:
        raise _BadFraming(431, f"request line or header exceeds {MAX_LINE_BYTES} bytes")
    return line


def _read_request(rfile) -> "Optional[Tuple[str, str, Dict[str, str], bytes]]":
    """One request off the stream, ``None`` at its end."""
    line = _read_line(rfile)
    parts = line.decode("latin1").split()
    if len(parts) < 2:
        return None
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        line = _read_line(rfile)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw = headers.get("content-length") or "0"
    if not (raw.isascii() and raw.isdigit()):
        raise _BadFraming(400, f"Content-Length must be a byte count, got {raw[:32]!r}")
    length = int(raw)
    if length > MAX_BODY_BYTES:
        raise _BadFraming(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    body = rfile.read(length)
    if len(body) < length:
        return None  # the peer closed mid-body
    return method, path, headers, body


class _Entry:
    """One maintained answer: a :class:`~repro.ivm.MaterializedView` over
    a private catalog clone, registered by ``/views`` (``named``) or
    promoted from a kept ``/query`` answer.  ``view`` is ``None`` for a
    key the view layer refused, kept so it is not offered again while it
    stays read, and for :data:`_SEEN`.  ``broken`` is ``(relation,
    cause)`` for a ``/views`` entry whose rebuild after a write to
    ``relation`` raised, or that could not be rebuilt on boot; ``query``
    is what a later write rebuilds it from (``view`` may be ``None``)."""

    __slots__ = ("view", "named", "broken", "query", "_rendered")

    def __init__(self, view: Any, named: bool = False,
                 broken: Optional[Tuple[str, str]] = None, query: Any = None):
        self.view = view
        self.named = named
        self.broken = broken
        self.query = query if view is None else view.query
        self._rendered: Tuple[Any, bytes] = (None, b"")

    def rendered(self) -> Tuple[int, bytes]:
        """``(view version, body)``: the view's answer as a ``/query`` miss
        renders it, without the closing brace; rendered once per result
        object, so a write the view ignores renders nothing again."""
        view = self.view
        # the lock covers only fetching a consistent (result, version)
        # pair; the result is immutable, so rendering runs outside it and
        # a writer's view.apply never waits on it
        with view.db._lock:
            result = view.result()
            version = view.version
        done, body = self._rendered
        if done is not result:
            body = _dumps(relation_to_json(result))[:-1]
            self._rendered = (result, body)
        return version, body


#: A kept answer read on one version only.  A write promotes a key read on
#: two consecutive versions, so a read that is not repeated after a write
#: never costs the writer an evaluation.
_SEEN = _Entry(None)


def _tables(query: Any) -> FrozenSet[str]:
    """The base tables ``query`` reads."""
    if isinstance(query, Table):
        return frozenset((query.name,))
    return frozenset().union(*map(_tables, query.children))


def _clone(snap: KDatabase) -> KDatabase:
    """A private catalog over ``snap``'s relation versions (shared, never
    copied, encodings included: they live on the versions), so an entry's
    apply() stream is confined and races no other entry and not the root."""
    return KDatabase(snap.semiring, dict(iter(snap)))


def _shutdown(sock: socket.socket, how: int) -> None:
    try:
        sock.shutdown(how)
    except OSError:  # already closed by the peer or by its own thread
        pass


class ProvenanceServer:
    """The server object: routing, snapshot handoff, answer maintenance."""

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
        self.durability = durability
        self.manager = SnapshotManager(db)
        self.pool = WorkerPool(workers=workers, max_queue=max_queue,
                               heavy_slots=heavy_slots)
        #: the maintained answers: ``/views`` entries by name, promoted
        #: answers by ``(sql, mode, engine, annotations)``; written only
        #: under the writer gate
        self._views: Dict[Hashable, _Entry] = {}
        self._writer_gate = threading.Lock()
        self._stats_lock = threading.Lock()
        self._counters = {"queries": 0, "updates": 0, "errors": 0,
                          "rejected": 0, "connections": 0, "timeouts": 0}
        #: /query answers by outcome (hit, miss, bypass)
        self._answer_outcomes = dict.fromkeys(obs_metrics.SERVE_ANSWER_OUTCOMES, 0)
        self._listener: Optional[socket.socket] = None
        self._closing = False
        #: open connection -> the thread serving it
        self._connections: Dict[socket.socket, threading.Thread] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind and listen; ``port=0`` resolves to the bound ephemeral port."""
        self._listener = socket.create_server((self.host, self.port), backlog=128)
        self.port = self._listener.getsockname()[1]

    def serve_forever(self) -> None:
        """Accept connections on the calling thread until :meth:`close`,
        each served start to finish by a thread of its own."""
        if self._listener is None:
            self.start()
        listener = self._listener
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError as exc:
                if self._closing:
                    return
                log.warning("accept failed: %s", exc)  # e.g. out of descriptors
                time.sleep(0.1)
                continue
            thread = threading.Thread(target=self._handle_connection, args=(conn,),
                                      name="repro-serve-conn", daemon=True)
            # close() sees the connection registered and started, or not at all
            with self._stats_lock:
                if self._closing:
                    conn.close()
                    return
                self._counters["connections"] += 1
                self._connections[conn] = thread
                obs_metrics.SERVE_OPEN_CONNECTIONS.inc()
                thread.start()

    def close(self) -> None:
        """Stop accepting, let in-flight requests finish within
        ``drain_timeout`` seconds, then close every connection.

        Shutting each connection's read side wakes an idle keep-alive
        thread with end-of-stream at once, while a thread mid-request
        still evaluates and writes its response before it reads that
        end; a connection still busy when the grace period is over is
        shut both ways.
        """
        with self._stats_lock:
            self._closing = True
            listener, self._listener = self._listener, None
            connections = dict(self._connections)
        if listener is not None:
            _shutdown(listener, socket.SHUT_RDWR)  # wakes the accept loop
            listener.close()
        for conn in connections:
            _shutdown(conn, socket.SHUT_RD)
        grace_until = time.monotonic() + max(0.0, self.drain_timeout or 0.0)
        for conn, thread in connections.items():
            thread.join(max(0.0, grace_until - time.monotonic()))
            if thread.is_alive():
                _shutdown(conn, socket.SHUT_RDWR)

    # -- connection handling -------------------------------------------------

    def _handle_connection(self, conn: socket.socket) -> None:
        prepared = LRUDict(PREPARED_SLOTS)
        rfile = conn.makefile("rb")
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                try:
                    request = _read_request(rfile)
                except _BadFraming as exc:
                    rid = obs_trace.new_trace_id()
                    self._respond(conn, exc.status, {"error": str(exc), "trace_id": rid},
                                  False, rid)
                    break
                if request is None:
                    break
                method, path, headers, body = request
                # honor the client's correlation id, else mint one; it
                # reaches every response header (error paths included),
                # error bodies, traces, and the slow-query log
                request_id = headers.get("x-request-id") or obs_trace.new_trace_id()
                status, payload = self._dispatch(
                    method, path, body, prepared, headers, request_id
                )
                obs_metrics.SERVE_REQUESTS.inc(
                    1, _route_label(method, path), str(status)
                )
                keep = headers.get("connection", "").lower() != "close"
                self._respond(conn, status, payload, keep, request_id)
                if not keep:
                    break
        except OSError:
            pass  # the peer went away, or close() shut the socket
        finally:
            with self._stats_lock:
                self._connections.pop(conn, None)
            obs_metrics.SERVE_OPEN_CONNECTIONS.dec()
            rfile.close()
            conn.close()

    def _respond(self, conn: socket.socket, status: int, payload: Any, keep: bool,
                 request_id: Optional[str] = None) -> None:
        if isinstance(payload, bytes):  # JSON already encoded
            data = payload
            content_type = "application/json"
        elif isinstance(payload, PlainText):
            data = payload.text.encode("utf-8")
            content_type = payload.content_type
        else:
            data = _dumps(payload)
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
        conn.sendall(head.encode("latin1") + b"\r\n" + data)

    # -- routing -------------------------------------------------------------

    def _dispatch(
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
                    return self._read_view(path[len("/views/"):], rid)
                return 404, {"error": f"no route GET {path}", "trace_id": rid}
            if method == "POST":
                try:
                    payload = json.loads(body) if body else {}
                except json.JSONDecodeError as exc:
                    return 400, {
                        "error": f"request body is not valid JSON: {exc}",
                        "trace_id": rid,
                    }
                except RecursionError:
                    # the decoder recurses once per nested array or object
                    return 400, {"error": "request body nests too deeply",
                                 "trace_id": rid}
                if path == "/query":
                    return self._query(payload, prepared, headers, rid)
                if path == "/update":
                    return self._update(payload)
                if path == "/relations":
                    return self._add_relation(payload)
                if path == "/views":
                    return self._create_view(payload)
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
            # slot is already released — the evaluation raised at its
            # next cooperative checkpoint
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

    def _query(
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
            if not math.isfinite(timeout_ms):
                raise BadRequest(
                    f"x-timeout-ms header must be finite, got {header_timeout!r}"
                )
            if timeout_ms <= 0:
                raise BadRequest("x-timeout-ms header must be positive")
        snap = self.manager.pin()  # the whole request reads this version
        sql = req["sql"]
        query = self._prepare(sql, prepared)
        heavy = req["annotations"] == "circuit" or _symbolic(snap.semiring)
        analyze = req["analyze"] or obs_trace.enabled()
        # an answer depends on the snapshot and on these; never a version
        key = (sql, req["mode"], req["engine"], req["annotations"])
        rid = request_id or obs_trace.new_trace_id()

        with self.pool.admit(heavy=heavy):
            start = time.perf_counter()
            body = None if analyze else snap.answers.get(key)
            if body is None:
                # the collector's contextvar scope is this thread, so it
                # covers exactly this request's evaluation
                deadline = (
                    Deadline.after(timeout_ms / 1e3) if timeout_ms is not None else None
                )
                collector = (
                    obs_trace.collect("request", trace_id=rid, sql=sql,
                                      engine=req["engine"])
                    if analyze else nullcontext()
                )
                with collector as root:
                    result = query.evaluate(
                        snap,
                        mode=req["mode"],
                        engine=req["engine"],
                        annotations=req["annotations"],
                        deadline=deadline,
                    )
                response = relation_to_json(result)
            elapsed = time.perf_counter() - start
        obs_metrics.QUERY_SECONDS.observe(elapsed)
        elapsed_ms = elapsed * 1e3
        if elapsed_ms >= SLOW_QUERY_MS:
            log.warning("slow query (%.1fms, trace %s): %s", elapsed_ms, rid, sql)
        self._count("queries")
        tail: Dict[str, Any] = {"elapsed_ms": round(elapsed_ms, 3)}
        if analyze:
            outcome = "bypass"
            if req["analyze"]:
                tail["analyze"] = {
                    "trace_id": root.trace_id,
                    "text": obs_trace.render(root),
                    "spans": root.to_dict(),
                }
        else:
            outcome = "miss" if body is None else "hit"
        tail["version"] = snap.version
        tail["engine"] = req["engine"]
        self._count_answer(outcome)
        if body is None:
            # the answer's encoding without its closing brace: with the
            # tail's encoding after it, these are the bytes json.dumps
            # gives the whole response
            body = _dumps(response)[:-1]
            if not analyze:
                snap.answers.put(key, body)
        return 200, body + b", " + _dumps(tail)[1:]

    # -- write path ----------------------------------------------------------

    def _update(self, payload: Any) -> Tuple[int, Any]:
        with self._writer_gate:
            snap = self.manager.pin()
            deltas = deltas_from_json(snap, payload)
            carry = partial(self._carry, deltas=deltas)
            # over N[X] a write may promote answers (whole evaluations),
            # so it takes the heavy slot those evaluations take
            with self.pool.admit(heavy=_symbolic(snap.semiring)):
                if self.durability is not None:
                    # WAL-append first (the acknowledgement point), apply
                    # to the root, then publish the next snapshot
                    self.durability.update(deltas)
                    published = self.manager.refresh(carry)
                else:
                    published = self.manager.update(deltas, carry)
        self._count("updates")
        return 200, {"version": published.version}

    def _add_relation(self, payload: Any) -> Tuple[int, Any]:
        if not isinstance(payload, Mapping):
            raise BadRequest("relations request body must be a JSON object")
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise BadRequest("relations request: 'name' must be a string")
        with self._writer_gate:
            semiring = self.manager.pin().semiring
            relation = relation_from_json(
                semiring, payload.get("relation"), f"relation {name!r}"
            )
            carry = partial(self._carry, replaced=(name, relation))
            with self.pool.admit(heavy=_symbolic(semiring)):
                if self.durability is not None:
                    self.durability.add(name, relation)
                    version = self.manager.refresh(carry).version
                else:
                    version = self.manager.add(name, relation, carry).version
        self._count("updates")
        return 201, {"name": name, "version": version}

    # -- maintained answers --------------------------------------------------

    def _carry(
        self,
        read: FrozenSet[Hashable],
        published: PublishedSnapshot,
        *,
        deltas: Optional[Mapping[str, Any]] = None,
        replaced: Optional[Tuple[str, Any]] = None,
    ) -> None:
        """Carry every maintained answer across one write: the publish's
        handoff, run under the writer gate before ``published`` is
        visible.  Exactly one of ``deltas`` (``/update``) and
        ``replaced`` (``/relations``: ``(name, relation)``) is given."""
        views = self._views
        outcomes = []
        written = replaced[0] if replaced is not None else ", ".join(deltas)
        for key, entry in list(views.items()):
            view = entry.view
            if not entry.named and key not in read:
                del views[key]
                if view is not None:
                    outcomes.append("demoted: not read")
                continue
            if entry.broken is not None:
                views[key] = self._rebuilt(entry, published, written)
                continue
            if view is None:
                continue
            if replaced is not None and not entry.named and replaced[0] in view.tables:
                del views[key]
                outcomes.append("demoted: relation replaced")
                continue
            try:
                if replaced is not None:
                    view.replace(*replaced)  # re-materialises if it reads it
                else:
                    view.apply(deltas)
                    outcomes.append("patched")
            except Exception:
                log.exception("carrying maintained answer %r across a write failed", key)
                views[key] = self._rebuilt(entry, published, written)
                if not entry.named:
                    outcomes.append("demoted: patch failed")
        # a key read on the superseded version and on the one before it
        # is promoted; one read on the superseded version only is noted
        for key in read:
            entry = views.get(key)
            if entry is None:
                views[key] = _SEEN
            elif entry is _SEEN:
                views[key], outcome = self._promoted(key, published)
                outcomes.append(outcome)
        for key, entry in list(views.items()):
            if entry.named or entry.view is None:
                continue
            try:
                body = entry.rendered()[1]
            except Exception:
                log.exception("rendering maintained answer %r failed", key)
                views[key] = _Entry(None)
                outcomes.append("demoted: patch failed")
                continue
            published.answers.put(key, body, read=False)
        for outcome in outcomes:
            obs_metrics.SERVE_ANSWER_PATCHES.inc(1, outcome)

    def _promoted(self, key: Hashable,
                  published: PublishedSnapshot) -> Tuple[_Entry, str]:
        """A kept answer read on the last two versions as a view over a
        clone of ``published`` (whose encodings it shares, so nothing is
        encoded again): or a refusal, remembered as an entry without a
        view."""
        from repro.ivm import MaterializedView
        from repro.sql.compiler import compile_sql

        sql, mode, _engine, annotations = key
        if mode != "standard" or annotations != "expanded":
            return _Entry(None), "demoted: not maintainable"
        try:
            view = MaterializedView.create(_clone(published), compile_sql(sql))
        except Exception as exc:
            if not isinstance(exc, ReproError):
                log.exception("promoting %r failed", key)
            return _Entry(None), "demoted: not maintainable"
        return _Entry(view), "promoted"

    def _rebuilt(self, entry: _Entry, published: PublishedSnapshot,
                 written: str) -> _Entry:
        """What replaces an entry whose patch (or, for ``/relations``,
        re-materialisation) raised, or a broken one at the next write
        (``written`` names the relations written): a ``/views`` entry is
        re-created over ``published`` — or, where that raises as well, is
        broken, naming the write that broke it and the cause — a promoted
        one is remembered as refused."""
        if entry.named:
            from repro.ivm import MaterializedView

            try:
                view = MaterializedView.create(_clone(published), entry.query)
                return _Entry(view, named=True)
            except Exception as exc:
                if entry.broken is None:
                    log.exception("rebuilding view %r failed", entry.query)
                relation = written if entry.broken is None else entry.broken[0]
                return _Entry(entry.view, named=True, query=entry.query,
                              broken=(relation, f"{type(exc).__name__}: {exc}"))
        return _Entry(None)

    # -- materialised views --------------------------------------------------

    def _create_view(self, payload: Any) -> Tuple[int, Any]:
        if not isinstance(payload, Mapping):
            raise BadRequest("views request body must be a JSON object")
        name = payload.get("name")
        sql = payload.get("sql")
        if not isinstance(name, str) or not name:
            raise BadRequest("views request: 'name' must be a string")
        if not isinstance(sql, str):
            raise BadRequest("views request: 'sql' must be a string")
        with self._writer_gate:
            if name in self._views:
                raise BadRequest(f"view {name!r} already exists")
            snap = self.manager.pin()
            with self.pool.admit(heavy=_symbolic(snap.semiring)):
                from repro.ivm import MaterializedView
                from repro.sql.compiler import compile_sql

                view = MaterializedView.create(_clone(snap), compile_sql(sql))
            if self.durability is not None:
                # log the definition before registering: a crash after
                # the append rebuilds the view on boot, a crash before it
                # leaves the client's 503 honest (view never existed)
                self.durability.create_view(name, sql)
            self._views[name] = _Entry(view, named=True)
        return 201, {"name": name, "version": self.manager.version}

    def restore_views(self) -> Dict[str, str]:
        """Evaluate every durably-registered view after recovery.

        Called once on boot (before serving) when the server is mounted
        on a durability manager.  A view's state is a function of the
        database, so each definition recovered from the checkpoint and
        the WAL tail is evaluated over the recovered catalog; promoted
        answers are not recovered (a miss rebuilds them).  A definition
        the recovered catalog no longer type-checks (a later
        ``/relations`` write dropped a column it reads) is registered
        *broken*, naming the tables it reads and the cause, as a write
        that breaks it at run time does: its reads answer 409 and each
        later write retries the rebuild.  Returns ``name -> "rebuilt" |
        "broken"`` for the boot log.
        """
        if self.durability is None:
            return {}
        from repro.ivm import MaterializedView
        from repro.sql.compiler import compile_sql

        outcomes: Dict[str, str] = {}
        for name, sql in sorted(self.durability.view_defs.items()):
            query = compile_sql(sql)
            try:
                view = MaterializedView.create(_clone(self.manager.pin()), query)
            except Exception as exc:
                log.exception("view %r cannot be rebuilt on boot", name)
                outcomes[name] = "broken"
                self._views[name] = _Entry(
                    None, named=True, query=query,
                    broken=(", ".join(sorted(_tables(query))),
                            f"{type(exc).__name__}: {exc}"))
                continue
            outcomes[name] = "rebuilt"
            self._views[name] = _Entry(view, named=True)
        return outcomes

    def _read_view(self, name: str, request_id: str) -> Tuple[int, Any]:
        entry = self._views.get(name)  # a name never matches a promoted key
        if entry is None:
            return 404, {"error": f"no view named {name!r}", "trace_id": request_id}
        if entry.broken is not None:
            relation, cause = entry.broken
            return 409, {
                "error": f"view {name!r} cannot be rebuilt since the write to "
                         f"{relation!r}: {cause}",
                "view": name, "relation": relation, "cause": cause,
                "trace_id": request_id,
            }
        with self.pool.admit():
            version, body = entry.rendered()
        self._count("queries")
        return 200, body + b', "view_version": ' + str(version).encode() + b"}"

    # -- stats ---------------------------------------------------------------

    def _count(self, key: str) -> None:
        with self._stats_lock:
            self._counters[key] += 1

    def _count_answer(self, outcome: str) -> None:
        obs_metrics.SERVE_ANSWERS.inc(1, outcome)
        with self._stats_lock:
            self._answer_outcomes[outcome] += 1

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
            answers = dict(self._answer_outcomes)
        entries = self._views.copy()  # atomic under the GIL, as above
        body = {
            "version": self.manager.version,
            "writes": self.manager.writes,
            "views": sorted(name for name, e in entries.items() if e.named),
            "pool": self.pool.stats(),
            "connections_open": len(self._connections),
            "tiers": obs_metrics.tier_executions(),
            "resilience": obs_metrics.resilience_counters(),
            "answers": {
                "hits": answers["hit"],
                "misses": answers["miss"],
                "bypasses": answers["bypass"],
                "bytes": self.manager.pin().answers.nbytes,
                "promoted": sum(1 for e in entries.values()
                                if not e.named and e.view is not None),
            },
            **counters,
        }
        if self.durability is not None:
            body["durability"] = self.durability.stats()
        return body


# ---------------------------------------------------------------------------
# embedding: run the server off-thread (tests, benchmarks, notebooks)
# ---------------------------------------------------------------------------


class ServerHandle:
    """A running server whose accept loop runs on a background thread."""

    def __init__(self, server: ProvenanceServer, thread: threading.Thread):
        self.server = server
        self._thread = thread

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.host, self.server.port

    def close(self) -> None:
        self.server.close()
        self._thread.join(timeout=10)


def _dumps(payload: Any) -> bytes:
    return json.dumps(payload, default=str).encode("utf-8")


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
    ``handle.server.port``.  It serves until :meth:`ServerHandle.close`.
    """
    server = ProvenanceServer(db, host, port, **kwargs)
    if server.durability is not None:
        server.restore_views()  # recovered views exist before serving
    server.start()
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve-accept", daemon=True)
    thread.start()
    return ServerHandle(server, thread)
