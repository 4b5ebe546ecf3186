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
import threading

import pytest

from repro.core import KDatabase, KRelation
from repro.semirings import NAT, NX
from repro.serve import ServerOverloaded, WorkerPool, start_in_thread
from repro.sql.compiler import compile_sql

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


def test_worker_pool_sheds_load_when_saturated():
    async def scenario():
        pool = WorkerPool(workers=1, max_queue=0)
        release = threading.Event()
        occupying = asyncio.ensure_future(pool.run(release.wait, 30))
        await asyncio.sleep(0.05)  # let the blocker claim the only slot
        try:
            with pytest.raises(ServerOverloaded):
                await pool.run(lambda: None)
            assert pool.stats()["rejected"] == 1
        finally:
            release.set()
            assert await occupying is True
            pool.shutdown()

    asyncio.run(scenario())


def test_worker_pool_heavy_gate_is_separate():
    async def scenario():
        pool = WorkerPool(workers=4, max_queue=4, heavy_slots=1)
        release = threading.Event()
        heavy = asyncio.ensure_future(pool.run(release.wait, 30, heavy=True))
        await asyncio.sleep(0.05)
        try:
            # the single heavy slot is busy: more heavy work is shed...
            with pytest.raises(ServerOverloaded):
                await pool.run(lambda: None, heavy=True)
            # ...but light traffic keeps flowing around it
            assert await pool.run(lambda: 42) == 42
            assert pool.stats()["heavy_rejected"] == 1
        finally:
            release.set()
            assert await heavy is True
            pool.shutdown()

    asyncio.run(scenario())


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
