"""Answers kept per pinned snapshot.

A published snapshot is an immutable K-database, so a query's answer on
it never changes: the server keeps each successful ``/query`` answer on
the snapshot it was computed on, as rendered JSON, and a repeat on the
same snapshot writes those bytes again.  These tests hold the contract:

* a repeat (a *hit*) answers the bytes an evaluation answers, except
  ``elapsed_ms``, for every semiring, engine and annotation
  representation the endpoint serves;
* a write publishes a new snapshot, so the next read evaluates on it;
* answers belong to a snapshot object, never to a version number;
* ``analyze``, tracing, error answers and the byte bound keep nothing;
* a hit passes the same admission gates as an evaluation.
"""

from __future__ import annotations

import http.client
import json
import re
import sys
import threading

import pytest

from repro import faults
from repro.core import KDatabase, KRelation
from repro.obs import trace as obs_trace
from repro.semirings import BOOL, NAT, NX
from repro.serve import snapshot as serve_snapshot
from repro.serve import start_in_thread
from repro.serve.schema import relation_to_json
from repro.sql.compiler import compile_sql

#: An exception escaping a connection thread fails the test, not a log line.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)

GROUPED = "SELECT g, SUM(v) FROM R GROUP BY g"

_ELAPSED = re.compile(rb'"elapsed_ms": [0-9.e+-]+')


def nat_db(rows: int = 32) -> KDatabase:
    rel = KRelation.from_rows(
        NAT, ("g", "v"), [((f"g{i % 4}", i % 9), 1 + i % 3) for i in range(rows)]
    )
    return KDatabase(NAT, {"R": rel})


def bool_db() -> KDatabase:
    rel = KRelation.from_rows(
        BOOL, ("g", "v"), [((f"g{i % 4}", i % 9), True) for i in range(32)]
    )
    return KDatabase(BOOL, {"R": rel})


def nx_db() -> KDatabase:
    rel = KRelation.from_rows(
        NX, ("g", "v"), [((f"g{i % 4}", i % 9), NX.variable(f"r{i}")) for i in range(16)]
    )
    return KDatabase(NX, {"R": rel})


class Client:
    def __init__(self, address):
        self.conn = http.client.HTTPConnection(*address, timeout=30)

    def raw(self, method, path, payload=None, headers=None):
        """``(status, body bytes)`` of one round trip."""
        body = None if payload is None else json.dumps(payload)
        self.conn.request(method, path, body, headers=headers or {})
        response = self.conn.getresponse()
        return response.status, response.read()

    def request(self, method, path, payload=None, headers=None):
        status, data = self.raw(method, path, payload, headers)
        return status, json.loads(data)

    def answers(self):
        return self.request("GET", "/stats")[1]["answers"]

    def close(self):
        self.conn.close()


@pytest.fixture()
def serve():
    """``serve(db, **kwargs) -> (handle, client)``; closes both."""
    opened = []

    def start(db, **kwargs):
        handle = start_in_thread(db, **kwargs)
        client = Client(handle.address)
        opened.append((handle, client))
        return handle, client

    yield start
    for handle, client in opened:
        client.close()
        handle.close()


def without_elapsed(data: bytes) -> bytes:
    return _ELAPSED.sub(b'"elapsed_ms": 0', data)


def rendered(db, sql, engine="planned", mode="standard", annotations="expanded"):
    """The JSON of ``sql``'s result on ``db`` as the server renders it."""
    result = compile_sql(sql).evaluate(
        db.snapshot(), engine=engine, mode=mode, annotations=annotations
    )
    if hasattr(result, "lower"):  # a circuit result lowers to N[X]
        result = result.lower()
    return json.dumps(relation_to_json(result), default=str).encode()


# ---------------------------------------------------------------------------
# a hit answers the evaluated bytes
# ---------------------------------------------------------------------------

CASES = {
    "N readback": (nat_db, GROUPED, {}),
    "N interpreted": (nat_db, GROUPED, {"engine": "interpreted"}),
    "N extended": (nat_db, GROUPED, {"mode": "extended"}),
    "N empty": (nat_db, "SELECT g, v FROM R WHERE v > 100", {}),
    "B": (bool_db, "SELECT g, MAX(v) FROM R GROUP BY g", {}),
    "N[X] expanded": (nx_db, GROUPED, {}),
    "N[X] symbolic rows": (nx_db, "SELECT g FROM R", {}),
    "circuit": (nx_db, GROUPED, {"annotations": "circuit"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_hit_answers_the_evaluated_bytes(serve, case):
    make_db, sql, extra = CASES[case]
    db = make_db()
    handle, client = serve(db)
    payload = {"sql": sql, **extra}
    # with tracing on the request bypasses the answers: the response is
    # rendered from the evaluated dict, the one way there was before
    obs_trace.enable()
    try:
        status, bypassed = client.raw("POST", "/query", payload)
    finally:
        obs_trace.disable()
    assert status == 200, bypassed
    status, evaluated = client.raw("POST", "/query", payload)
    assert status == 200
    status, hit = client.raw("POST", "/query", payload)
    assert status == 200
    assert client.answers() == {
        "hits": 1, "misses": 1, "bypasses": 1,
        "bytes": handle.server.manager.pin().answers.nbytes,
    }
    assert without_elapsed(hit) == without_elapsed(evaluated) == without_elapsed(bypassed)

    # and those bytes are the in-process rendering of the evaluated result
    assert hit.startswith(rendered(db, sql, **extra)[:-1] + b', "elapsed_ms": ')
    assert hit.endswith(
        f', "version": {db.version}, "engine": "{extra.get("engine", "planned")}"}}'.encode()
    )


def test_answers_key_on_sql_mode_engine_and_annotations(serve):
    handle, client = serve(nx_db())
    bodies = []
    for extra in ({}, {"engine": "interpreted"}, {"mode": "extended"},
                  {"annotations": "circuit"}):
        for _ in range(2):
            status, body = client.request("POST", "/query", {"sql": GROUPED, **extra})
            assert status == 200
        bodies.append(body)
    assert client.answers()["hits"] == 4
    assert client.answers()["misses"] == 4
    assert len(handle.server.manager.pin().answers) == 4
    assert {b["engine"] for b in bodies} == {"planned", "interpreted"}


# ---------------------------------------------------------------------------
# versions
# ---------------------------------------------------------------------------


def test_an_update_is_read_by_the_next_query(serve):
    _handle, client = serve(nat_db())
    payload = {"sql": "SELECT g, v FROM R"}
    _, first = client.request("POST", "/query", payload)
    _, again = client.request("POST", "/query", payload)
    assert again == {**first, "elapsed_ms": again["elapsed_ms"]}
    status, written = client.request(
        "POST", "/update", {"relations": {"R": {"rows": [{"values": ["new", 1]}]}}}
    )
    assert status == 200 and written["version"] > first["version"]
    _, after = client.request("POST", "/query", payload)
    assert after["version"] == written["version"]
    assert after["rowcount"] == first["rowcount"] + 1
    assert ["new", 1] in [row["values"] for row in after["rows"]]
    assert client.answers()["hits"] == 1
    assert client.answers()["misses"] == 2


def test_a_replaced_relation_is_read_by_the_next_query(serve):
    _handle, client = serve(nat_db())
    payload = {"sql": "SELECT g, v FROM R"}
    for _ in range(2):
        _, before = client.request("POST", "/query", payload)
    status, added = client.request("POST", "/relations", {
        "name": "R",
        "relation": {"columns": ["g", "v"], "rows": [{"values": ["only", 7]}]},
    })
    assert status == 201
    _, after = client.request("POST", "/query", payload)
    assert after["version"] == added["version"] != before["version"]
    assert after["rows"] == [{"values": ["only", 7], "annotation": 1}]


def test_a_publish_retires_the_superseded_answers(serve):
    handle, client = serve(nat_db())
    client.request("POST", "/query", {"sql": GROUPED})
    old = handle.server.manager.pin()
    assert len(old.answers) == 1 and old.answers.nbytes > 0
    client.request(
        "POST", "/update", {"relations": {"R": {"rows": [{"values": ["g0", 1]}]}}}
    )
    assert len(old.answers) == 0 and old.answers.nbytes == 0
    assert client.answers()["bytes"] == 0
    # a reader still finishing on the old snapshot keeps nothing there
    old.answers.put(("late",), b"{}")
    assert len(old.answers) == 0


def test_servers_with_equal_version_stamps_share_no_answer(serve):
    """Two servers over different databases at the same version: each
    answers from its own database, however the other was queried."""
    small, client_small = serve(nat_db(8))
    large, client_large = serve(nat_db(32))
    assert small.server.manager.version == large.server.manager.version
    payload = {"sql": "SELECT g, v FROM R"}
    for _ in range(2):
        _, from_small = client_small.request("POST", "/query", payload)
        _, from_large = client_large.request("POST", "/query", payload)
    assert from_small["version"] == from_large["version"]
    assert from_small["rowcount"] == 8 and from_large["rowcount"] == 32
    assert client_small.answers()["hits"] == client_large.answers()["hits"] == 1


# ---------------------------------------------------------------------------
# what keeps nothing
# ---------------------------------------------------------------------------


def test_analyze_still_evaluates_and_returns_its_trace(serve):
    handle, client = serve(nat_db())
    client.request("POST", "/query", {"sql": GROUPED})
    for _ in range(2):
        status, body = client.request("POST", "/query", {"sql": GROUPED, "analyze": True})
        assert status == 200
        assert body["analyze"]["spans"]["name"] == "request"
        assert "plan.execute" in body["analyze"]["text"]
    assert client.answers() == {
        "hits": 0, "misses": 1, "bypasses": 2,
        "bytes": handle.server.manager.pin().answers.nbytes,
    }
    assert len(handle.server.manager.pin().answers) == 1


def test_error_answers_are_never_kept(serve):
    handle, client = serve(nat_db())
    bad = {"sql": "SELECT g FROM R WHERE g < 1"}  # undecidable: a 400
    for _ in range(2):
        status, body = client.request("POST", "/query", bad)
        assert status == 400 and body["error"].startswith("QueryError"), body
    try:
        with faults.inject("latency", ms=120, times=3):
            status, body = client.request(
                "POST", "/query", {"sql": GROUPED, "timeout_ms": 10}
            )
        assert status == 408, body
    finally:
        faults.reset_counters()
    assert len(handle.server.manager.pin().answers) == 0
    assert client.answers()["bytes"] == 0
    status, body = client.request("POST", "/query", {"sql": GROUPED})
    assert status == 200 and body["rowcount"] == 4
    assert client.answers()["misses"] == 1 and client.answers()["hits"] == 0


def test_the_byte_bound_holds(serve, monkeypatch):
    db = nat_db()
    small = ["SELECT g FROM R", "SELECT g FROM R WHERE v < 3"]
    large = "SELECT g, v FROM R"
    # an answer is kept as its rendering without the closing brace
    size = {sql: len(rendered(db, sql)) - 1 for sql in small + [large]}
    bound = size[small[0]] + size[small[1]]
    assert size[large] > size[small[1]]
    monkeypatch.setattr(serve_snapshot, "ANSWER_BYTES", bound)
    handle, client = serve(db)
    for sql in (small[0], large, small[1], large):
        status, body = client.request("POST", "/query", {"sql": sql})
        assert status == 200
    assert body["rowcount"] == 32  # the answer that never fit, evaluated
    kept = handle.server.manager.pin().answers
    assert kept.nbytes == bound and len(kept) == 2
    assert client.answers() == {"hits": 0, "misses": 4, "bypasses": 0, "bytes": bound}
    client.request("POST", "/query", {"sql": small[0]})
    assert client.answers()["hits"] == 1


# ---------------------------------------------------------------------------
# admission
# ---------------------------------------------------------------------------


def test_a_saturated_pool_answers_503_for_a_kept_answer(serve):
    handle, client = serve(nat_db(), workers=1, max_queue=0)
    assert client.request("POST", "/query", {"sql": GROUPED})[0] == 200
    pool = handle.server.pool
    assert pool._admission.acquire(blocking=False)  # the one slot
    try:
        status, body = client.request("POST", "/query", {"sql": GROUPED})
        assert status == 503 and "capacity" in body["error"], body
    finally:
        pool._admission.release()
    assert client.request("POST", "/query", {"sql": GROUPED})[0] == 200
    stats = client.request("GET", "/stats")[1]
    assert stats["rejected"] == 1 and stats["answers"]["hits"] == 1


def test_a_kept_symbolic_answer_still_needs_the_heavy_slot(serve):
    handle, client = serve(nx_db())
    assert client.request("POST", "/query", {"sql": GROUPED})[0] == 200
    heavy = handle.server.pool._heavy
    assert heavy.acquire(blocking=False)
    try:
        status, body = client.request("POST", "/query", {"sql": GROUPED})
        assert status == 503 and "symbolic" in body["error"], body
    finally:
        heavy.release()
    assert client.request("POST", "/query", {"sql": GROUPED})[0] == 200
    assert client.answers()["hits"] == 1


# ---------------------------------------------------------------------------
# concurrency
# ---------------------------------------------------------------------------


def test_concurrent_readers_and_a_writer_keep_exact_answers(serve):
    """Six readers (more than cores) and a writer, with thread switches
    forced often: every answer, kept or evaluated, is its own version's
    (one fresh row per write), and the store's byte count is the sum of
    what it holds — a lost update to either would break one."""
    handle, client = serve(nat_db(), workers=4)
    v0 = handle.server.manager.version
    queries = ["SELECT g, v FROM R", "SELECT v FROM R", GROUPED]
    errors, counted = [], []

    def read(seed):
        reader = Client(handle.address)
        try:
            for i in range(40):
                sql = queries[(seed + i) % 3]
                status, body = reader.request("POST", "/query", {"sql": sql})
                if status == 503:
                    continue
                counted.append(1)
                if status != 200:
                    errors.append(body)
                elif sql == queries[0] and body["rowcount"] != 32 + body["version"] - v0:
                    errors.append(("torn", body["version"], body["rowcount"]))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(repr(exc))
        finally:
            reader.close()

    def write():
        writer = Client(handle.address)
        try:
            for i in range(15):
                status, body = writer.request("POST", "/update", {"relations": {
                    "R": {"rows": [{"values": [f"w{i}", 100 + i]}]}}})
                if status != 200:
                    errors.append(body)
        finally:
            writer.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read, args=(n,)) for n in range(6)]
        threads.append(threading.Thread(target=write))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[:5]
    stats = client.answers()
    assert stats["hits"] + stats["misses"] == len(counted)
    kept = handle.server.manager.pin().answers
    assert kept.nbytes == sum(map(len, kept._entries.values())) == stats["bytes"]

