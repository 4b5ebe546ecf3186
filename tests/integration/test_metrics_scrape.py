"""Integration tests for the observability surface of ``repro.serve``:
``GET /metrics`` scrapes under concurrent query load, request-id
propagation on every response (success and each error path), and the
``analyze`` round-trip over HTTP."""

from __future__ import annotations

import http.client
import json
import re
import threading

import pytest

from repro.core import KDatabase, KRelation
from repro.semirings import NAT
from repro.serve import start_in_thread

#: An exception escaping a connection thread fails the test, not a log line.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)

#: One Prometheus text-format sample line.
SAMPLE_RE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r' [^ ]+$'
)


def small_db() -> KDatabase:
    rel = KRelation.from_rows(
        NAT, ("K", "V"), [((f"k{i}", i % 7), 1) for i in range(64)]
    )
    return KDatabase(NAT, {"R": rel})


@pytest.fixture()
def server():
    handle = start_in_thread(small_db())
    try:
        yield handle
    finally:
        handle.close()


def scrape(address):
    """``(status, content_type, text)`` for one GET /metrics."""
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        return (
            response.status,
            response.getheader("Content-Type") or "",
            response.read().decode("utf-8"),
        )
    finally:
        conn.close()


def parse_samples(text):
    """``{series: value}`` for every non-comment line, validating shape."""
    samples = {}
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.splitlines():
        if not line or line.startswith("# "):
            continue
        assert SAMPLE_RE.match(line), f"malformed sample line: {line!r}"
        series, _, value = line.rpartition(" ")
        samples[series] = float(value)
    return samples


# ---------------------------------------------------------------------------
# GET /metrics
# ---------------------------------------------------------------------------


def test_metrics_endpoint_serves_prometheus_text(server):
    status, content_type, text = scrape(server.address)
    assert status == 200
    assert content_type == "text/plain; version=0.0.4; charset=utf-8"
    samples = parse_samples(text)
    # the engine families render with their pre-seeded label sets
    for tier in ("object", "encoded", "parallel"):
        assert f'repro_tier_executions_total{{tier="{tier}"}}' in samples
    for event in ("extend", "rebuild", "disqualify"):
        assert f'repro_encoded_cache_events_total{{event="{event}"}}' in samples
    for cause in ("overlay", "read"):
        assert f'repro_relation_flatten_total{{cause="{cause}"}}' in samples
    assert "# HELP repro_query_seconds " in text
    assert "# TYPE repro_query_seconds histogram" in text
    assert 'repro_query_seconds_bucket{le="+Inf"}' in samples


def test_query_traffic_moves_the_serve_counters(server):
    conn = http.client.HTTPConnection(*server.address, timeout=30)
    try:
        before = parse_samples(scrape(server.address)[2])
        for _ in range(3):
            conn.request("POST", "/query", json.dumps({"sql": "SELECT K FROM R"}))
            response = conn.getresponse()
            response.read()
            assert response.status == 200
        after = parse_samples(scrape(server.address)[2])
    finally:
        conn.close()
    series = 'repro_serve_requests_total{route="POST /query",status="200"}'
    assert after[series] >= before.get(series, 0) + 3
    assert (after["repro_query_seconds_count"]
            >= before.get("repro_query_seconds_count", 0) + 3)


def test_a_repeated_query_moves_the_answer_hits(server):
    """The first ask of a query on a version evaluates (miss), each
    repeat is written from the snapshot's kept answer (hit), and an
    ``analyze`` request neither reads nor keeps one (bypass)."""

    def outcomes():
        samples = parse_samples(scrape(server.address)[2])
        return {outcome: samples[f'repro_serve_answers_total{{outcome="{outcome}"}}']
                for outcome in ("hit", "miss", "bypass")}

    sql = "SELECT K, SUM(V) FROM R GROUP BY K"
    before = outcomes()
    for extra in ({}, {}, {}, {"analyze": True}):
        status, _headers, body = request_with_headers(
            server.address, "POST", "/query", json.dumps({"sql": sql, **extra}))
        assert status == 200, body
    after = outcomes()
    assert after["miss"] == before["miss"] + 1
    assert after["hit"] == before["hit"] + 2
    assert after["bypass"] == before["bypass"] + 1


def test_write_loop_extends_the_encoding_and_never_rebuilds(server):
    """Insert → query → view read, as the ``serve_write`` workload does:
    once the tables and the view are loaded, every acknowledged write
    carries the encodings forward (the root's and the view catalog's —
    the counter is process-wide) and no read re-encodes a table.  Nor
    does any request read a written version's whole row map: each write
    layers the table over its predecessor's rows, and only an overlay
    grown past its share flattens (cause="overlay"), never a read."""

    def post(path, payload, expect):
        status, _headers, body = request_with_headers(
            server.address, "POST", path, json.dumps(payload))
        assert status == expect, body
        return body

    def events():
        samples = parse_samples(scrape(server.address)[2])
        counts = {event: samples[f'repro_encoded_cache_events_total{{event="{event}"}}']
                  for event in ("extend", "rebuild")}
        counts["read"] = samples['repro_relation_flatten_total{cause="read"}']
        return counts

    sql = "SELECT K, SUM(V) FROM R GROUP BY K"
    post("/views", {"name": "by_k", "sql": sql}, 201)
    post("/query", {"sql": sql}, 200)
    loaded = last = events()
    for k in range(10):
        write = post("/update", {"relations": {"R": {"rows": [
            {"values": [f"new{k}", k % 7], "annotation": 1}]}}}, 200)
        read = post("/query", {"sql": sql}, 200)
        assert read["version"] == write["version"]
        status, _headers, view = request_with_headers(server.address, "GET", "/views/by_k")
        assert status == 200 and view["rows"] == read["rows"]
        now = events()
        assert now["extend"] > last["extend"]
        assert now["rebuild"] == loaded["rebuild"]
        assert now["read"] == loaded["read"]
        last = now


def test_scrape_under_concurrent_query_load(server):
    """Hammer /query from several threads while scraping /metrics in a
    loop: every scrape parses, counters never regress, zero errors."""
    stop = threading.Event()
    errors = []
    queried = []

    def reader():
        conn = http.client.HTTPConnection(*server.address, timeout=30)
        body = json.dumps({"sql": "SELECT K FROM R"})
        try:
            while not stop.is_set():
                conn.request("POST", "/query", body)
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    queried.append(1)
                elif response.status != 503:
                    errors.append(f"reader got HTTP {response.status}")
                    return
        except Exception as exc:  # pragma: no cover - the failure path
            errors.append(f"reader: {exc}")
        finally:
            conn.close()

    readers = [threading.Thread(target=reader) for _ in range(3)]
    for t in readers:
        t.start()
    previous = {}
    scrapes = 0
    try:
        for _ in range(25):
            status, content_type, text = scrape(server.address)
            assert status == 200 and content_type.startswith("text/plain")
            samples = parse_samples(text)
            for series, value in samples.items():
                name = series.split("{", 1)[0]
                if name.endswith(("_total", "_count", "_bucket", "_sum")):
                    last = previous.get(series)
                    assert last is None or value >= last, (
                        f"counter went backwards: {series} {last} -> {value}"
                    )
                    previous[series] = value
            scrapes += 1
    finally:
        stop.set()
        for t in readers:
            t.join()
    assert not errors, errors
    assert scrapes == 25 and queried, "no concurrent work happened"


# ---------------------------------------------------------------------------
# x-request-id on every response, including error paths
# ---------------------------------------------------------------------------


def request_with_headers(address, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request(method, path, body, headers or {})
        response = conn.getresponse()
        raw = response.read()
        payload = json.loads(raw) if raw.startswith(b"{") else None
        return response.status, dict(response.getheaders()), payload
    finally:
        conn.close()


def test_request_id_is_honoured_on_success(server):
    status, headers, payload = request_with_headers(
        server.address, "POST", "/query",
        json.dumps({"sql": "SELECT K FROM R"}),
        {"x-request-id": "client-chose-this-id"},
    )
    assert status == 200
    assert headers["x-request-id"] == "client-chose-this-id"
    assert payload["rowcount"] == 64


def test_request_id_is_generated_when_absent(server):
    status, headers, _payload = request_with_headers(
        server.address, "GET", "/health"
    )
    assert status == 200
    assert re.fullmatch(r"[0-9a-f]{16}", headers["x-request-id"])


@pytest.mark.parametrize(
    "method,path,body,expect_status",
    [
        ("GET", "/nope", None, 404),
        ("DELETE", "/query", None, 405),
        ("POST", "/query", "not json", 400),
        ("POST", "/query", json.dumps({"sql": 7}), 400),
    ],
)
def test_request_id_rides_every_error_response(server, method, path, body,
                                               expect_status):
    status, headers, payload = request_with_headers(
        server.address, method, path, body, {"x-request-id": "err-trace-1"}
    )
    assert status == expect_status
    assert headers["x-request-id"] == "err-trace-1"
    # the JSON error body carries the same id as its trace id
    assert payload is not None and payload["trace_id"] == "err-trace-1"


def test_request_id_header_is_sanitised(server):
    """Hostile ids cannot smuggle CRLF into the response head."""
    conn = http.client.HTTPConnection(*server.address, timeout=30)
    try:
        conn.putrequest("GET", "/health")
        conn.putheader("x-request-id", "abc" + "x" * 300)
        conn.endheaders()
        response = conn.getresponse()
        response.read()
        rid = response.getheader("x-request-id")
    finally:
        conn.close()
    assert rid is not None and len(rid) <= 128


# ---------------------------------------------------------------------------
# analyze over the wire
# ---------------------------------------------------------------------------


def test_analyze_round_trip(server):
    status, headers, payload = request_with_headers(
        server.address, "POST", "/query",
        json.dumps({"sql": "SELECT K FROM R", "analyze": True}),
        {"x-request-id": "an-analyze-run-01"},
    )
    assert status == 200
    analyze = payload["analyze"]
    # the span tree's trace id is the request id, tying the rendered
    # trace to the response header and any server-side log lines
    assert analyze["trace_id"] == "an-analyze-run-01"
    assert headers["x-request-id"] == "an-analyze-run-01"
    assert "request" in analyze["text"] and "plan.execute" in analyze["text"]
    assert analyze["spans"]["name"] == "request"
    assert any(c["name"] == "plan.execute"
               for c in analyze["spans"]["children"])


def test_analyze_must_be_boolean(server):
    status, _headers, payload = request_with_headers(
        server.address, "POST", "/query",
        json.dumps({"sql": "SELECT K FROM R", "analyze": "yes"}),
    )
    assert status == 400
    assert "analyze" in payload["error"]


def test_analyze_off_by_default_keeps_responses_lean(server):
    status, _headers, payload = request_with_headers(
        server.address, "POST", "/query",
        json.dumps({"sql": "SELECT K FROM R"}),
    )
    assert status == 200
    assert "analyze" not in payload
