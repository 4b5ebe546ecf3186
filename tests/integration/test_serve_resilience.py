"""Resilience behaviour of the serving layer.

Deadlines become HTTP: a request carrying ``timeout_ms`` (body) or
``x-timeout-ms`` (header) that exceeds its budget gets **408 + Retry-After**
from the cooperative cancellation machinery, not a hung connection.
Degradation becomes observable: ``/stats`` serves the cumulative
resilience ledger, and the parallel tier's circuit breaker — which no
served query reaches — stays out of ``/health``.  Shutdown becomes
graceful: the worker pool drains in-flight queries inside the configured
grace period instead of dropping them mid-request.
"""

import http.client
import json
import threading
import time

import pytest

from repro import faults
from repro.core import KDatabase, KRelation
from repro.plan import parallel
from repro.semirings import NAT, NX
from repro.serve import WorkerPool, start_in_thread

#: An exception escaping a connection thread fails the test, not a log line.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)

SQL = "SELECT g, SUM(v) FROM R GROUP BY g"


def serve_db():
    rel = KRelation.from_rows(
        NAT, ("g", "v"), [((f"g{i % 4}", i % 9), 1) for i in range(32)]
    )
    return KDatabase(NAT, {"R": rel})


class Client:
    def __init__(self, address):
        self.conn = http.client.HTTPConnection(*address, timeout=30)

    def request(self, method, path, payload=None, headers=None):
        body = None if payload is None else json.dumps(payload)
        self.conn.request(method, path, body, headers=headers or {})
        response = self.conn.getresponse()
        status, raw = response.status, response.read()
        return status, json.loads(raw), dict(response.getheaders())

    def close(self):
        self.conn.close()


@pytest.fixture()
def server():
    parallel.reset_breaker()
    faults.reset_counters()
    handle = start_in_thread(serve_db())
    try:
        yield handle
    finally:
        handle.close()
        parallel.reset_breaker()
        faults.reset_counters()


# ---------------------------------------------------------------------------
# deadlines over HTTP
# ---------------------------------------------------------------------------


def test_expired_budget_returns_408_with_retry_after(server):
    client = Client(server.address)
    try:
        # stall the scan well past the 10 ms budget (the sleep happens on
        # the worker thread serving this one request)
        with faults.inject("latency", ms=120, times=3):
            status, body, headers = client.request(
                "POST", "/query", {"sql": SQL, "timeout_ms": 10}
            )
        assert status == 408
        assert "budget" in body["error"]
        assert body["retry_after"] == 1.0
        assert "Retry-After" in headers

        # the connection survives 408 and the next request succeeds
        status, body, _ = client.request("POST", "/query", {"sql": SQL})
        assert status == 200 and body["rowcount"] == 4

        status, stats, _ = client.request("GET", "/stats")
        assert stats["timeouts"] == 1
        assert stats["resilience"]["deadline_expiries"] >= 1
    finally:
        client.close()


def test_header_timeout_takes_precedence_over_body(server):
    client = Client(server.address)
    try:
        with faults.inject("latency", ms=120, times=3):
            status, body, _ = client.request(
                "POST",
                "/query",
                {"sql": SQL, "timeout_ms": 60_000},
                headers={"x-timeout-ms": "10"},
            )
        assert status == 408, body
    finally:
        client.close()


def nx_db():
    r = KRelation.from_rows(
        NX, ("g", "v"), [((f"g{i % 4}", i % 9), NX.variable(f"r{i}")) for i in range(32)]
    )
    s = KRelation.from_rows(NX, ("g",), [((f"g{i}",), NX.variable(f"s{i}")) for i in range(4)])
    return KDatabase(NX, {"R": r, "S": s})


def test_a_circuit_query_past_its_budget_is_408_mid_plan():
    """Circuit-mode plans check the request's deadline at every operator:
    the first scan's stall spends the budget and the join never starts."""
    handle = start_in_thread(nx_db())
    client = Client(handle.address)
    sql = "SELECT g, SUM(v) FROM R, S GROUP BY g"
    try:
        # the warm-up compiles the plan but, being an analyze request,
        # keeps no answer: the timed request below still evaluates
        status, body, _ = client.request(
            "POST", "/query", {"sql": sql, "annotations": "circuit", "analyze": True}
        )
        assert status == 200 and body["rowcount"] == 4
        with faults.inject("latency", ms=120, times=10) as stall:
            status, body, headers = client.request(
                "POST", "/query", {"sql": sql, "annotations": "circuit", "timeout_ms": 10}
            )
        assert status == 408, body
        assert "budget" in body["error"] and "query end" not in body["error"]
        assert "Retry-After" in headers
        assert stall.fired == 1
    finally:
        client.close()
        handle.close()
        faults.reset_counters()


def test_expanded_nx_work_takes_the_heavy_slot():
    """``N[X]`` runs the encoded tier over term ids, yet an expanded query
    and a view creation still build polynomials: each needs the one heavy
    slot, and is shed while something else holds it."""
    handle = start_in_thread(nx_db())
    client = Client(handle.address)
    sql = "SELECT g, SUM(v) FROM R GROUP BY g"
    heavy = handle.server.pool._heavy
    try:
        status, body, _ = client.request("POST", "/query", {"sql": sql})
        assert status == 200 and body["rowcount"] == 4
        assert heavy.acquire(blocking=False)  # hold the slot
        try:
            status, body, _ = client.request("POST", "/query", {"sql": sql})
            assert status == 503 and "symbolic" in body["error"], body
            _, stats, _ = client.request("GET", "/stats")
            assert stats["pool"]["heavy_rejected"] == 1
            status, body, _ = client.request(
                "POST", "/views", {"name": "V", "sql": sql}
            )
            assert status == 503 and "symbolic" in body["error"], body
            _, stats, _ = client.request("GET", "/stats")
            assert stats["pool"]["heavy_rejected"] == 2
        finally:
            heavy.release()
        status, _, _ = client.request("POST", "/views", {"name": "V", "sql": sql})
        assert status == 201
    finally:
        client.close()
        handle.close()


def test_generous_budget_answers_normally(server):
    client = Client(server.address)
    try:
        status, body, _ = client.request(
            "POST", "/query", {"sql": SQL, "timeout_ms": 60_000}
        )
        assert status == 200 and body["rowcount"] == 4
        status, stats, _ = client.request("GET", "/stats")
        assert stats["timeouts"] == 0
    finally:
        client.close()


def test_invalid_timeouts_are_400(server):
    client = Client(server.address)
    try:
        for bad in (0, -5, "soon", True):
            status, body, _ = client.request(
                "POST", "/query", {"sql": SQL, "timeout_ms": bad}
            )
            assert status == 400 and "timeout_ms" in body["error"]
        status, body, _ = client.request(
            "POST", "/query", {"sql": SQL}, headers={"x-timeout-ms": "never"}
        )
        assert status == 400 and "x-timeout-ms" in body["error"]
        status, body, _ = client.request(
            "POST", "/query", {"sql": SQL}, headers={"x-timeout-ms": "-3"}
        )
        assert status == 400
    finally:
        client.close()


def test_non_finite_timeouts_are_400_not_timeouts(server):
    """``NaN`` and ``±Infinity`` are no budget: a typed 400, never a 408
    with ``Retry-After``, a ``timeouts`` count or a deadline expiry."""
    client = Client(server.address)
    try:
        cases = [({"timeout_ms": float(bad)}, {}, "timeout_ms")
                 for bad in ("nan", "inf", "-inf")]
        cases += [({}, {"x-timeout-ms": bad}, "x-timeout-ms")
                  for bad in ("nan", "inf", "-inf", "NaN", "Infinity")]
        for extra, headers, field in cases:
            status, body, response_headers = client.request(
                "POST", "/query", {"sql": SQL, **extra}, headers=headers
            )
            assert status == 400, (extra, headers, body)
            assert field in body["error"] and "finite" in body["error"], body
            assert "Retry-After" not in response_headers
        _, stats, _ = client.request("GET", "/stats")
        assert stats["timeouts"] == 0
        assert stats["resilience"]["deadline_expiries"] == 0
        assert stats["queries"] == 0
    finally:
        client.close()


# ---------------------------------------------------------------------------
# degraded-mode observability
# ---------------------------------------------------------------------------


def test_the_parallel_breaker_is_not_the_servers_health(server, monkeypatch):
    client = Client(server.address)
    try:
        # served queries never run the parallel tier, so its breaker
        # cannot degrade them: a trip shows in the resilience ledger only
        monkeypatch.setattr(parallel, "BREAKER_THRESHOLD", 1)
        parallel._breaker_failure()  # one crash degradation trips it
        assert parallel.breaker_state()["state"] == "open"
        status, health, _ = client.request("GET", "/health")
        assert status == 200 and health["status"] == "ok"
        assert "breaker" not in health

        _, before, _ = client.request("GET", "/stats")
        status, body, _ = client.request("POST", "/query", {"sql": SQL})
        assert status == 200 and body["rowcount"] == 4
        status, stats, _ = client.request("GET", "/stats")
        assert "breaker" not in stats
        assert stats["resilience"]["breaker_trips"] == 1
        assert stats["tiers"]["parallel"] == before["tiers"]["parallel"]
    finally:
        client.close()


def test_stats_exposes_the_full_resilience_ledger(server):
    client = Client(server.address)
    try:
        status, stats, _ = client.request("GET", "/stats")
        assert status == 200
        assert set(stats["resilience"]) == {
            "faults_injected",
            "morsel_retries",
            "pool_rebuilds",
            "parallel_exhausted",
            "shm_integrity_failures",
            "breaker_trips",
            "deadline_expiries",
            "snapshot_rebuilds",
            "wal_torn_tails",
        }
        assert "in_flight" in stats["pool"] or "workers" in stats["pool"]
    finally:
        client.close()


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------


def test_shutdown_drains_in_flight_work_within_grace():
    pool = WorkerPool(workers=2)
    release = threading.Event()
    started = threading.Event()
    results = []

    def slow():
        with pool.admit():
            started.set()
            release.wait(5)
            results.append("done")

    task = threading.Thread(target=slow)
    task.start()
    assert started.wait(1) and pool.in_flight() == 1

    # release shortly after shutdown begins: the drain must wait for
    # the in-flight query instead of cancelling it
    threading.Timer(0.1, release.set).start()
    t0 = time.monotonic()
    pool.shutdown(drain_timeout=5.0)
    assert time.monotonic() - t0 < 4.0  # returned on idle, not timeout
    task.join(5)
    assert results == ["done"]
    assert pool.in_flight() == 0
    assert pool.stats()["completed"] == 1


def test_shutdown_grace_period_is_bounded():
    pool = WorkerPool(workers=1)
    release = threading.Event()
    admitted = threading.Event()

    def blocker():
        with pool.admit():
            admitted.set()
            release.wait(10)

    task = threading.Thread(target=blocker)
    task.start()
    assert admitted.wait(1)
    t0 = time.monotonic()
    pool.shutdown(drain_timeout=0.2)  # the blocker ignores the grace
    assert 0.15 <= time.monotonic() - t0 < 2.0
    release.set()
    task.join(5)  # the already-running callable still finishes
    assert not task.is_alive()


def test_stats_counts_in_flight(server):
    client = Client(server.address)
    try:
        status, stats, _ = client.request("GET", "/stats")
        assert status == 200
        assert stats["pool"]["in_flight"] >= 0
    finally:
        client.close()
