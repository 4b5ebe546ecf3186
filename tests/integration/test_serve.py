"""Concurrency stress + round-trip tests for the ``repro.serve`` service.

The core assertion is **snapshot isolation**: while a writer folds
deltas in, every concurrent reader must see *one* database version for
the whole evaluation.  The detector couples two relations updated in
lockstep — each write appends one fresh-keyed row to ``A`` *and* one to
``B`` in a single ``/update`` batch, so for any published version ``v``

    |A| + |B|  ==  2 * (BASE + (v - v0))

A torn read (plan scanning ``A`` at version ``v`` and ``B`` at ``v+1``,
or a half-published catalog) breaks the equality; responses carry the
pinned ``version`` stamp, so the invariant is checked *per response*
against the version that response claims to have read.

The same invariant is exercised below HTTP as well (threads pinning
:meth:`KDatabase.snapshot` directly against a hot ``db.update`` loop),
so a failure localises to either the engine or the service layer.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import sys
import threading
import time

import pytest

from repro.core import KDatabase, KRelation
from repro.semirings import NAT, NX
from repro.obs import metrics as obs_metrics
from repro.serve import ServerOverloaded, WorkerPool, start_in_thread
from repro.serve import server as serve_server
from repro.sql.compiler import compile_sql

#: An exception escaping a connection thread fails the test, not a log line.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)

BASE = 64  # rows per relation before any update

UNION_SQL = "SELECT K FROM A UNION SELECT K FROM B"


def lockstep_db() -> KDatabase:
    """A(K, V) and B(K, V), disjoint key spaces, BASE rows each."""
    a = KRelation.from_rows(
        NAT, ("K", "V"), [((f"a{i}", i), 1) for i in range(BASE)]
    )
    b = KRelation.from_rows(
        NAT, ("K", "V"), [((f"b{i}", i), 1) for i in range(BASE)]
    )
    return KDatabase(NAT, {"A": a, "B": b})


def lockstep_delta(i: int):
    """One fresh row for each relation — applied as a single batch."""
    return {
        "A": KRelation.from_rows(NAT, ("K", "V"), [((f"a+{i}", i), 1)]),
        "B": KRelation.from_rows(NAT, ("K", "V"), [((f"b+{i}", i), 1)]),
    }


class Client:
    """A keep-alive JSON client over one HTTP connection."""

    def __init__(self, address):
        self.conn = http.client.HTTPConnection(*address, timeout=30)

    def request(self, method, path, payload=None):
        body = None if payload is None else json.dumps(payload)
        self.conn.request(method, path, body)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self):
        self.conn.close()


@pytest.fixture()
def server():
    handle = start_in_thread(lockstep_db())
    try:
        yield handle
    finally:
        handle.close()


# ---------------------------------------------------------------------------
# engine-level snapshot isolation (no HTTP)
# ---------------------------------------------------------------------------


def test_snapshot_pins_one_version_under_hot_writer():
    db = lockstep_db()
    query = compile_sql(UNION_SQL)
    v0 = db.version
    stop = threading.Event()
    errors = []

    def reader():
        try:
            while not stop.is_set():
                snap = db.snapshot()
                rows = query.evaluate(snap, engine="planned")
                expected = 2 * (BASE + (snap.version - v0))
                assert len(list(rows.items())) == expected, (
                    f"torn read: {len(list(rows.items()))} rows "
                    f"at version {snap.version}"
                )
        except Exception as exc:  # pragma: no cover - the failure path
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for i in range(60):
        db.update(lockstep_delta(i))
    stop.set()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    assert db.version == v0 + 60  # one bump per batch, not per relation


def test_snapshot_is_immutable_while_root_moves():
    db = lockstep_db()
    snap = db.snapshot()
    before = snap.version
    db.update(lockstep_delta(0))
    assert snap.version == before
    assert len(list(snap.relation("A").items())) == BASE
    assert len(list(db.relation("A").items())) == BASE + 1
    from repro.exceptions import QueryError

    with pytest.raises(QueryError):
        snap.update(lockstep_delta(1))


# ---------------------------------------------------------------------------
# HTTP round trips
# ---------------------------------------------------------------------------


def test_http_query_update_round_trip(server):
    client = Client(server.address)
    try:
        status, health = client.request("GET", "/health")
        assert status == 200 and health["status"] == "ok"
        v0 = health["version"]

        status, result = client.request("POST", "/query", {"sql": UNION_SQL})
        assert status == 200
        assert result["rowcount"] == 2 * BASE
        assert result["version"] == v0
        assert result["engine"] == "planned"

        status, update = client.request(
            "POST",
            "/update",
            {"relations": {"A": {"rows": [{"values": ["a+x", 1], "annotation": 1}]},
                           "B": {"rows": [{"values": ["b+x", 1], "annotation": 1}]}}},
        )
        assert status == 200 and update["version"] == v0 + 1

        status, result = client.request("POST", "/query", {"sql": UNION_SQL})
        assert status == 200
        assert result["rowcount"] == 2 * BASE + 2
        assert result["version"] == v0 + 1
    finally:
        client.close()


def test_http_readers_see_single_version_under_concurrent_writer(server):
    """The headline stress: 4 keep-alive readers, 1 writer, zero torn reads."""
    status, health = Client(server.address).request("GET", "/health")
    assert status == 200
    v0 = health["version"]
    stop = threading.Event()
    errors = []
    reads = [0] * 4

    def reader(i):
        client = Client(server.address)
        try:
            while not stop.is_set():
                status, result = client.request(
                    "POST", "/query", {"sql": UNION_SQL, "engine": "planned"}
                )
                assert status == 200, result
                expected = 2 * (BASE + (result["version"] - v0))
                assert result["rowcount"] == expected, (
                    f"torn read: {result['rowcount']} rows at "
                    f"claimed version {result['version']}"
                )
                reads[i] += 1
        except Exception as exc:  # pragma: no cover - the failure path
            errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    writer = Client(server.address)
    try:
        for i in range(30):
            status, update = writer.request(
                "POST",
                "/update",
                {"relations": {
                    "A": {"rows": [{"values": [f"a+{i}", i], "annotation": 1}]},
                    "B": {"rows": [{"values": [f"b+{i}", i], "annotation": 1}]},
                }},
            )
            assert status == 200, update
        stop.set()
    finally:
        writer.close()
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    assert sum(reads) > 0
    status, stats = Client(server.address).request("GET", "/stats")
    assert stats["version"] == v0 + 30
    assert stats["updates"] == 30


def test_http_view_is_maintained_through_updates(server):
    client = Client(server.address)
    try:
        status, created = client.request(
            "POST",
            "/views",
            {"name": "totals", "sql": "SELECT SUM(V) FROM A"},
        )
        assert status == 201 and created["name"] == "totals"

        status, view = client.request("GET", "/views/totals")
        assert status == 200
        base_total = sum(range(BASE))
        assert view["rows"][0]["values"] == [base_total]

        status, _ = client.request(
            "POST",
            "/update",
            {"relations": {"A": {"rows": [{"values": ["a+v", 1000], "annotation": 1}]}}},
        )
        assert status == 200

        status, view = client.request("GET", "/views/totals")
        assert status == 200
        assert view["rows"][0]["values"] == [base_total + 1000]

        # the maintained view answer must equal ad-hoc recomputation
        status, adhoc = client.request(
            "POST", "/query", {"sql": "SELECT SUM(V) FROM A"}
        )
        assert adhoc["rows"][0]["values"] == view["rows"][0]["values"]

        status, err = client.request(
            "POST", "/views", {"name": "totals", "sql": "SELECT SUM(V) FROM A"}
        )
        assert status == 400 and "already exists" in err["error"]
    finally:
        client.close()


def test_view_read_renders_json_outside_the_view_lock(server, monkeypatch):
    """A writer's ``view.apply`` takes ``view.db._lock``: rendering the
    response must not hold it."""
    from repro.serve import server as server_module

    client = Client(server.address)
    try:
        status, _ = client.request(
            "POST", "/views", {"name": "totals", "sql": "SELECT SUM(V) FROM A"})
        assert status == 201
        lock = server.server._views["totals"].db._lock
        free_while_rendering = []

        def probe():
            acquired = lock.acquire(timeout=5)
            free_while_rendering.append(acquired)
            if acquired:
                lock.release()

        def rendering(rel):
            other = threading.Thread(target=probe)  # an RLock re-enters on this one
            other.start()
            other.join(timeout=10)
            return real(rel)

        real = server_module.relation_to_json
        monkeypatch.setattr(server_module, "relation_to_json", rendering)
        status, view = client.request("GET", "/views/totals")
        assert status == 200 and view["rows"][0]["values"] == [sum(range(BASE))]
        assert free_while_rendering == [True]
    finally:
        client.close()


def test_relation_to_json_renders_each_value_once_in_support_order(monkeypatch):
    from repro.semimodules import compatibility
    from repro.semimodules.tensor import Tensor
    from repro.serve.schema import relation_to_json

    # plain values, column order unlike the sorted attribute order: the
    # rows come out in KRelation.items() order
    plain = KRelation.from_rows(
        NAT, ("Z", "A"), [((z, a), 1 + a) for z in ("x", "y") for a in (10, 9, 1)]
    )
    assert [(r["values"], r["annotation"]) for r in relation_to_json(plain)["rows"]] == [
        ([t["Z"], t["A"]], k) for t, k in plain.items()
    ]

    # aggregate values: one readback per tensor, no Tensor.__str__, rows
    # ordered by the value the client sees
    emp = KRelation.from_rows(
        NAT, ("Dept", "Sal"), [((f"d{i % 5}", 10 * i), 1) for i in range(25)]
    )
    grouped = compile_sql("SELECT Dept, SUM(Sal) FROM Emp GROUP BY Dept").evaluate(
        KDatabase(NAT, {"Emp": emp})
    )
    readbacks = []
    real = compatibility.readback
    monkeypatch.setattr(
        compatibility, "readback", lambda t: readbacks.append(t) or real(t)
    )
    monkeypatch.setattr(
        Tensor, "__str__", lambda self: pytest.fail("a read-back tensor was stringified")
    )
    rows = relation_to_json(grouped)["rows"]
    assert len(readbacks) == 5
    assert [r["values"] for r in rows] == [
        [f"d{j}", sum(10 * i for i in range(j, 25, 5))] for j in range(5)
    ]


def test_http_symbolic_round_trip():
    """Polynomial annotations survive JSON: string in, string out."""
    emp = KRelation.from_rows(
        NX,
        ("Dept", "Sal"),
        [(("d1", 10), NX.variable("x")), (("d1", 20), NX.variable("y"))],
    )
    handle = start_in_thread(KDatabase(NX, {"Emp": emp}))
    try:
        client = Client(handle.address)
        status, result = client.request(
            "POST", "/query", {"sql": "SELECT Dept FROM Emp"}
        )
        assert status == 200
        assert result["semiring"] == "N[X]"
        (row,) = result["rows"]
        assert sorted(row["annotation"].replace(" ", "").split("+")) == ["x", "y"]

        status, _ = client.request(
            "POST",
            "/update",
            {"relations": {"Emp": {"rows": [
                {"values": ["d2", 30], "annotation": "2*x*y"}
            ]}}},
        )
        assert status == 200
        status, result = client.request(
            "POST", "/query", {"sql": "SELECT Dept, Sal FROM Emp"}
        )
        annotations = {tuple(r["values"]): r["annotation"] for r in result["rows"]}
        assert annotations[("d2", 30)] in ("2*x*y", "2*y*x", "2xy")
        client.close()
    finally:
        handle.close()


def test_http_error_paths(server):
    client = Client(server.address)
    try:
        status, err = client.request("POST", "/query", {"sql": "SELECT K FROM Nope"})
        assert status == 400 and "Nope" in err["error"]

        client.conn.request("POST", "/query", "{not json")
        response = client.conn.getresponse()
        assert response.status == 400
        response.read()

        status, _ = client.request("GET", "/views/missing")
        assert status == 404
        status, _ = client.request("GET", "/nope")
        assert status == 404
        status, _ = client.request("PUT", "/query", {})
        assert status == 405

        status, err = client.request("POST", "/query", {"engine": "planned"})
        assert status == 400 and "sql" in err["error"]
        status, err = client.request(
            "POST", "/query", {"sql": "SELECT K FROM A", "engine": "warp"}
        )
        assert status == 400 and "engine" in err["error"]
    finally:
        client.close()


def test_nan_on_the_wire_is_a_400_and_changes_nothing(server):
    """``json.loads`` accepts a ``NaN`` literal; stored, it would equal
    no tuple and make MIN/MAX depend on row order.  ``±inf`` stays legal."""
    client = Client(server.address)
    try:
        status, _ = client.request(
            "POST", "/views", {"name": "top", "sql": "SELECT MAX(V) FROM A"})
        assert status == 201
        _status, before = client.request("GET", "/views/top")
        v0 = client.request("GET", "/health")[1]["version"]
        nan = float("nan")
        bad = [
            ("/update", {"relations": {"A": {"rows": [{"values": ["a+n", nan]}]}}}),
            ("/update", {"relations": {"A": {"rows": [
                {"values": ["a+n", 1], "annotation": nan}]}}}),
            ("/relations", {"name": "C", "relation": {
                "columns": ["K", "V"], "rows": [{"values": ["c", nan]}]}}),
        ]
        for path, payload in bad:
            status, err = client.request("POST", path, payload)
            assert status == 400 and "NaN" in err["error"], (path, err)
        assert client.request("GET", "/health")[1]["version"] == v0
        assert client.request("GET", "/views/top")[1] == before
        status, err = client.request("POST", "/query", {"sql": "SELECT K FROM C"})
        assert status == 400 and "C" in err["error"]

        status, _ = client.request("POST", "/update", {"relations": {
            "A": {"rows": [{"values": ["a+inf", float("inf")]}]}}})
        assert status == 200
        status, view = client.request("GET", "/views/top")
        assert view["rows"][0]["values"] == [float("inf")]
    finally:
        client.close()


def test_mistyped_order_predicate_is_a_400_not_a_500(server):
    """``K < 1`` on a string column used to leak a bare TypeError, which
    the dispatcher answers with 500, a logged traceback and ``errors``
    +1; the engine now rejects it with a typed QueryError on every path."""
    client = Client(server.address)
    try:
        _status, before = client.request("GET", "/stats")
        for engine in ("planned", "interpreted"):
            status, err = client.request(
                "POST", "/query", {"sql": "SELECT K FROM A WHERE K < 1", "engine": engine}
            )
            assert status == 400, err
            assert err["error"].startswith("QueryError: cannot decide 'a")
            assert err["trace_id"]
        _status, after = client.request("GET", "/stats")
        assert after["errors"] == before["errors"]
    finally:
        client.close()


def test_count_only_group_by_is_served(server):
    client = Client(server.address)
    try:
        status, body = client.request(
            "POST", "/query", {"sql": "SELECT V, COUNT(*) AS n FROM A GROUP BY V"}
        )
        assert status == 200, body
        assert body["rowcount"] == BASE
    finally:
        client.close()


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


def hold(pool, release, heavy=False):
    """A thread holding ``pool.admit(heavy=...)`` until ``release`` is set;
    returns it once admitted, with the list its ``release.wait`` result
    lands in."""
    admitted, outcome = threading.Event(), []

    def occupy():
        with pool.admit(heavy=heavy):
            admitted.set()
            outcome.append(release.wait(30))

    thread = threading.Thread(target=occupy)
    thread.start()
    assert admitted.wait(5)
    return thread, outcome


def test_worker_pool_sheds_load_when_saturated():
    pool = WorkerPool(workers=1, max_queue=0)
    release = threading.Event()
    occupying, outcome = hold(pool, release)  # the blocker claims the only slot
    try:
        with pytest.raises(ServerOverloaded):
            with pool.admit():
                pass
        assert pool.stats()["rejected"] == 1
    finally:
        release.set()
        occupying.join(5)
        assert outcome == [True]
        pool.shutdown()


def test_worker_pool_heavy_gate_is_separate():
    pool = WorkerPool(workers=4, max_queue=4, heavy_slots=1)
    release = threading.Event()
    heavy, outcome = hold(pool, release, heavy=True)
    try:
        # the single heavy slot is busy: more heavy work is shed...
        with pytest.raises(ServerOverloaded):
            with pool.admit(heavy=True):
                pass
        # ...but light traffic keeps flowing around it
        assert asyncio.run(pool.run(lambda: 42)) == 42
        assert pool.stats()["heavy_rejected"] == 1
    finally:
        release.set()
        heavy.join(5)
        assert outcome == [True]
        pool.shutdown()


# ---------------------------------------------------------------------------
# connection threads: framing, idle connections, parked evaluations
# ---------------------------------------------------------------------------


def raw_exchange(address, data: bytes) -> bytes:
    """Send ``data`` on a fresh socket; return all the server answers
    before it closes the connection."""
    chunks = []
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(data)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:  # closed with the oversized line unread
            pass
    return b"".join(chunks)


@pytest.mark.parametrize(
    "request_head, status",
    [
        (b"POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
        (b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
        (b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * (70 << 10) + b"\r\n\r\n", 431),
        (b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         % (serve_server.MAX_BODY_BYTES + 1), 413),
    ],
    ids=["length-not-a-number", "length-negative", "header-over-64KiB",
         "body-over-limit"],
)
def test_malformed_framing_is_a_typed_4xx_then_close(server, request_head, status):
    reply = raw_exchange(server.address, request_head)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 %d " % status), reply[:200]
    assert b"Connection: close" in head
    assert json.loads(body)["trace_id"]
    client = Client(server.address)
    try:
        assert client.request("GET", "/health")[0] == 200
    finally:
        client.close()


def test_idle_keep_alive_connections_hold_no_slot():
    workers, max_queue = 1, 1
    handle = start_in_thread(lockstep_db(), workers=workers, max_queue=max_queue)
    idle = [Client(handle.address) for _ in range(workers + max_queue + 2)]
    fresh = Client(handle.address)
    try:
        for client in idle:  # one answered query each, then kept open
            assert client.request("POST", "/query", {"sql": "SELECT K FROM A"})[0] == 200
        status, body = fresh.request("POST", "/query", {"sql": "SELECT K FROM A"})
        assert status == 200 and body["rowcount"] == BASE
        _, stats = fresh.request("GET", "/stats")
        assert stats["connections_open"] == len(idle) + 1
        assert stats["rejected"] == 0 and stats["pool"]["in_flight"] == 0
        assert obs_metrics.SERVE_OPEN_CONNECTIONS.value() >= len(idle) + 1
    finally:
        for client in idle + [fresh]:
            client.close()
        handle.close()


def test_slot_and_connection_accounting_under_concurrent_clients():
    """Eight clients on two cores, three short-lived connections each:
    every request is counted once, every slot comes back, and every
    connection thread deregisters (a lost update breaks one of the three)."""
    clients, connections, requests = 8, 3, 5
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    gauge = obs_metrics.SERVE_OPEN_CONNECTIONS.value()
    handle = start_in_thread(lockstep_db(), workers=2, max_queue=64)
    statuses = []

    def client_loop():
        for _ in range(connections):
            client = Client(handle.address)
            try:
                for _ in range(requests):
                    statuses.append(client.request("POST", "/query", {"sql": UNION_SQL})[0])
            finally:
                client.close()

    try:
        threads = [threading.Thread(target=client_loop) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        assert statuses == [200] * (clients * connections * requests)
        deadline = time.monotonic() + 10
        while handle.server.stats()["connections_open"] and time.monotonic() < deadline:
            time.sleep(0.01)
        stats = handle.server.stats()
        assert stats["connections_open"] == 0
        assert stats["connections"] == clients * connections
        assert stats["queries"] == stats["pool"]["completed"] == len(statuses)
        assert stats["pool"]["in_flight"] == 0
        assert obs_metrics.SERVE_OPEN_CONNECTIONS.value() == gauge
    finally:
        sys.setswitchinterval(switch)
        handle.close()


def park_evaluations(monkeypatch):
    """Make every served evaluation wait on ``release`` once it holds its
    slot; ``parked`` is set when one does."""
    parked, release = threading.Event(), threading.Event()
    render = serve_server.relation_to_json

    def parking(rel):
        parked.set()
        release.wait(10)
        return render(rel)

    monkeypatch.setattr(serve_server, "relation_to_json", parking)
    return parked, release


def test_health_answers_while_an_evaluation_is_parked(monkeypatch):
    handle = start_in_thread(lockstep_db(), workers=1)
    parked, release = park_evaluations(monkeypatch)
    answers = []

    def query():
        client = Client(handle.address)
        try:
            answers.append(client.request("POST", "/query", {"sql": "SELECT K FROM A"}))
        finally:
            client.close()

    busy = threading.Thread(target=query)
    busy.start()
    client = Client(handle.address)
    try:
        assert parked.wait(10)
        status, health = client.request("GET", "/health")
        assert status == 200 and health["status"] == "ok"
        _, stats = client.request("GET", "/stats")
        assert stats["pool"]["in_flight"] == 1
    finally:
        release.set()
        busy.join(10)
        client.close()
        handle.close()
    assert answers[0][0] == 200 and answers[0][1]["rowcount"] == BASE


def test_close_drops_idle_connections_and_drains_in_flight_requests(monkeypatch):
    handle = start_in_thread(lockstep_db(), drain_timeout=5.0)
    parked, release = park_evaluations(monkeypatch)
    idle = Client(handle.address)
    answers = []

    def query():
        client = Client(handle.address)
        try:
            answers.append(client.request("POST", "/query", {"sql": "SELECT K FROM A"}))
        finally:
            client.close()

    busy = threading.Thread(target=query)
    try:
        assert idle.request("GET", "/health")[0] == 200  # now an idle keep-alive
        busy.start()
        assert parked.wait(10)
        threading.Timer(0.2, release.set).start()
        t0 = time.monotonic()
        handle.close()
        assert time.monotonic() - t0 < 4.0  # returned once drained
        busy.join(10)
        status, body = answers[0]
        assert status == 200 and body["rowcount"] == BASE  # finished, not dropped
        with pytest.raises((http.client.HTTPException, OSError)):
            idle.request("GET", "/health")  # the server closed it
        assert handle.server.stats()["connections_open"] == 0
    finally:
        release.set()
        idle.close()


def test_stats_reports_per_tier_execution_counts(server):
    client = Client(server.address)
    try:
        status, stats = client.request("GET", "/stats")
        assert status == 200
        before = stats["tiers"]
        assert set(before) == {"object", "encoded", "parallel"}
        status, _ = client.request(
            "POST", "/query", {"sql": "SELECT K FROM A", "engine": "planned"}
        )
        assert status == 200
        status, stats = client.request("GET", "/stats")
        served = {k: stats["tiers"][k] - before[k] for k in before}
        # NAT has a machine representation, so the planned engine serves
        # this query from the encoded tier — and /stats shows it
        assert served["encoded"] >= 1
    finally:
        client.close()
