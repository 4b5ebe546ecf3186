"""Answers kept per pinned snapshot.

A published snapshot is an immutable K-database, so a query's answer on
it never changes: the server keeps each successful ``/query`` answer on
the snapshot it was computed on, as rendered JSON, and a repeat on the
same snapshot writes those bytes again.  These tests hold the contract:

* a repeat (a *hit*) answers the bytes an evaluation answers, except
  ``elapsed_ms``, for every semiring, engine and annotation
  representation the endpoint serves;
* a write carries each answer read on the version it replaces across as
  a maintained view, and seeds the new snapshot with its patched bytes
  before ``/update`` answers: the read-your-write query is a hit whose
  bytes equal a fresh evaluation's; an answer not read on a version is
  demoted at the next write, and what the view layer cannot maintain is
  never promoted;
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
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.semirings import BOOL, INT, NAT, NX
from repro.serve import server as serve_server
from repro.serve import snapshot as serve_snapshot
from repro.serve import start_in_thread
from repro.serve.schema import relation_to_json
from repro.sql.compiler import compile_sql
from repro.wal import DurabilityManager, list_checkpoints
from repro.wal.manager import _load_checkpoint

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


def int_db() -> KDatabase:
    rel = KRelation.from_rows(
        INT, ("g", "v"), [((f"g{i % 4}", i % 9), 1 + i % 3) for i in range(32)]
    )
    return KDatabase(INT, {"R": rel})


def float_db() -> KDatabase:
    rel = KRelation.from_rows(
        NAT, ("g", "v"), [((f"g{i % 4}", 0.1 * (i % 9)), 1) for i in range(32)]
    )
    return KDatabase(NAT, {"R": rel})


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
        "bytes": handle.server.manager.pin().answers.nbytes, "promoted": 0,
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
    handle, client = serve(nat_db())
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
    # read on one version only: noted, not carried across the write
    assert client.answers()["hits"] == 1
    assert client.answers()["misses"] == 2
    assert client.answers()["promoted"] == 0
    client.request(
        "POST", "/update", {"relations": {"R": {"rows": [{"values": ["newer", 2]}]}}}
    )
    _, carried = client.request("POST", "/query", payload)
    assert carried["rowcount"] == after["rowcount"] + 1
    # read on both versions before the write, so carried across it
    assert client.answers()["hits"] == 2
    assert client.answers()["promoted"] == 1


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
    write = {"relations": {"R": {"rows": [{"values": ["g0", 1]}]}}}
    client.request("POST", "/query", {"sql": GROUPED})
    old = handle.server.manager.pin()
    assert len(old.answers) == 1 and old.answers.nbytes > 0
    assert old.answers.read_keys() == {(GROUPED, "standard", "planned", "expanded")}
    client.request("POST", "/update", write)
    assert len(old.answers) == 0 and old.answers.nbytes == 0
    assert old.answers.read_keys() == frozenset()
    # read on one version only: the new store starts empty
    assert client.answers()["bytes"] == 0
    client.request("POST", "/query", {"sql": GROUPED})
    client.request("POST", "/update", write)
    # read on two: the new store holds the carried answer, seeded but
    # not yet read
    new = handle.server.manager.pin()
    assert len(new.answers) == 1 and new.answers.read_keys() == frozenset()
    assert client.answers()["bytes"] == new.answers.nbytes > 0
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
# carried across writes
# ---------------------------------------------------------------------------


def _rows(*rows):
    """``/update`` rows from ``(values, annotation)`` pairs."""
    return [{"values": list(values), "annotation": ann} for values, ann in rows]


#: ``make_db, queries, writes``: each write is one ``/update`` of ``R``.
PATCH_CASES = {
    "N": (nat_db, [GROUPED, "SELECT g, v FROM R WHERE v > 4"], [
        _rows((["g0", 5], 2), (["new", 1], 1)),
        _rows((["g9", 7], 1)),
        _rows((["g1", 8], 3), (["g9", 7], 1)),
    ]),
    "B": (bool_db, ["SELECT g, MAX(v) FROM R GROUP BY g", "SELECT g FROM R"], [
        _rows((["g0", 40], True)),
        _rows((["g7", 1], True), (["g0", 41], True)),
        _rows((["g2", 3], True)),
    ]),
    # (g0, 0) holds annotation 1, (g1, 1) 2 and (g2, 2) 3: rows deleted,
    # rows dropping to a smaller multiplicity, an insert deleted again
    "Z deleting": (int_db, [GROUPED, "SELECT g, v FROM R", "SELECT COUNT(*) FROM R"], [
        _rows((["g0", 0], -1), (["g2", 2], -1)),
        _rows((["g1", 1], -1), (["g5", 9], 2)),
        _rows((["g2", 2], -2), (["g5", 9], -2)),
    ]),
    "N[X] expanded": (nx_db, [GROUPED, "SELECT g FROM R"], [
        _rows((["g0", 2], "x1"), (["g9", 1], "x2")),
        _rows((["g0", 2], "x3"), (["g1", 4], "r1")),
        _rows((["g2", 5], "x4")),
    ]),
    "float SUM": (float_db, [GROUPED, "SELECT AVG(v) FROM R"], [
        _rows((["g0", 0.1], 1), (["g3", 1e16], 1)),
        _rows((["g3", -1e16], 1), (["g3", 0.7], 2)),
        _rows((["g1", 0.3], 1), (["g4", 2.5], 3)),
    ]),
}


@pytest.mark.parametrize("engine", ["planned", "interpreted"])
@pytest.mark.parametrize("case", sorted(PATCH_CASES))
def test_a_patched_answer_is_the_evaluated_answer(serve, case, engine):
    """After each write the read-your-write query answers a fresh
    evaluation's bytes on that snapshot, except ``elapsed_ms``; from the
    second write on (each query was read on the two versions before it)
    it is a hit."""
    make_db, queries, writes = PATCH_CASES[case]
    db = make_db()
    _handle, client = serve(db)
    for sql in queries:
        assert client.raw("POST", "/query", {"sql": sql, "engine": engine})[0] == 200
    for rows in writes:
        status, written = client.request(
            "POST", "/update", {"relations": {"R": {"rows": rows}}})
        assert status == 200, written
        for sql in queries:
            status, hit = client.raw("POST", "/query", {"sql": sql, "engine": engine})
            assert status == 200
            assert hit.startswith(
                rendered(db, sql, engine=engine)[:-1] + b', "elapsed_ms": '), sql
            assert hit.endswith(
                f', "version": {written["version"]}, "engine": "{engine}"}}'.encode())
    answers = client.answers()
    assert answers["misses"] == 2 * len(queries)
    assert answers["hits"] == len(queries) * (len(writes) - 1)
    assert answers["promoted"] == len(queries)


def _patches():
    return dict(obs_metrics.SERVE_ANSWER_PATCHES.values())


def _moved(before):
    """The ``repro_serve_answer_patches_total`` outcomes that grew."""
    now = _patches()
    return {k[0]: now[k] - before.get(k, 0) for k in now if now[k] != before.get(k, 0)}


def _write(client, *rows):
    status, body = client.request(
        "POST", "/update", {"relations": {"R": {"rows": _rows(*rows)}}})
    assert status == 200, body
    return body


def _promote(client, payload):
    """Read ``payload`` on two consecutive versions, so that the second
    write promotes it; returns that write's answer."""
    for k in range(2):
        client.request("POST", "/query", payload)
        written = _write(client, (["p", k], 1))
    return written


def two_tables() -> KDatabase:
    db = nat_db()
    db.add("S", KRelation.from_rows(NAT, ("g", "v"), [(("s0", 1), 1), (("s1", 2), 2)]))
    return db


def test_analyze_extended_and_circuit_answers_are_never_promoted(serve):
    db = nx_db()
    _handle, client = serve(db)
    variants = [{"analyze": True}, {"mode": "extended"}, {"annotations": "circuit"}]

    def ask_all():
        for extra in variants:
            status, body = client.raw("POST", "/query", {"sql": GROUPED, **extra})
            assert status == 200, body
            want = json.loads(rendered(db, GROUPED, **{
                k: v for k, v in extra.items() if k != "analyze"}))
            got = json.loads(body)
            assert {k: got[k] for k in want} == want, extra

    ask_all()
    before = _patches()
    for token in ("x1", "x2", "x3"):
        _write(client, (["g0", 2], token))
        ask_all()
    # refused once, at the second write, and remembered while read
    assert _moved(before) == {"demoted: not maintainable": 2}
    answers = client.answers()
    assert answers["promoted"] == 0 and answers["hits"] == 0
    assert answers["misses"] == 8 and answers["bypasses"] == 4


def test_a_query_the_view_layer_refuses_is_never_promoted(serve):
    db = nat_db()
    _handle, client = serve(db)
    sql = "SELECT g, v FROM R EXCEPT SELECT g, v FROM R WHERE v > 6"
    before = _patches()
    for k in range(3):
        status, body = client.raw("POST", "/query", {"sql": sql})
        assert status == 200 and body.startswith(rendered(db, sql)[:-1])
        _write(client, (["g0", 9 + k], 1))
    assert _moved(before) == {"demoted: not maintainable": 1}
    assert client.answers()["misses"] == 3


def test_a_patch_that_raises_demotes_and_the_write_still_answers(serve, monkeypatch):
    """A promoted answer whose patch raises is demoted (and not offered
    again while it stays read); a ``/views`` entry is rebuilt."""
    from repro.ivm import MaterializedView

    db = nat_db()
    _handle, client = serve(db)
    assert client.request("POST", "/views", {"name": "v", "sql": GROUPED})[0] == 201
    sql = "SELECT g, v FROM R"
    _promote(client, {"sql": sql})
    client.request("POST", "/query", {"sql": sql})
    before = _patches()

    def broken(self, deltas):
        raise RuntimeError("injected patch failure")

    with monkeypatch.context() as patch:
        patch.setattr(MaterializedView, "apply", broken)
        written = _write(client, (["g0", 2], 1))
    assert _moved(before) == {"demoted: patch failed": 1}
    status, body = client.raw("POST", "/query", {"sql": sql})
    assert status == 200 and body.startswith(rendered(db, sql)[:-1])
    assert json.loads(body)["version"] == written["version"]
    status, view = client.request("GET", "/views/v")
    assert status == 200
    assert view["rows"] == json.loads(rendered(db, GROUPED))["rows"]
    _write(client, (["g0", 3], 1))
    assert _moved(before) == {"demoted: patch failed": 1, "patched": 1}
    assert client.request("GET", "/views/v")[1]["rows"] == \
        json.loads(rendered(db, GROUPED))["rows"]
    assert client.answers()["promoted"] == 0


def test_a_replace_that_raises_still_reaches_every_entry(serve, monkeypatch):
    """A ``/relations`` write whose re-materialisation raises an untyped
    error carries on through the table: a promoted answer over the
    relation is demoted before anything is replaced, one over another
    table is demoted, and every ``/views`` entry is rebuilt on the new
    snapshot."""
    from repro.ivm import MaterializedView

    db = two_tables()
    _handle, client = serve(db)
    for name, sql in (("a", GROUPED), ("b", "SELECT g FROM R"), ("s", "SELECT g FROM S")):
        assert client.request("POST", "/views", {"name": name, "sql": sql})[0] == 201
    reads = [{"sql": "SELECT g, v FROM R"}, {"sql": "SELECT g, v FROM S"}]
    for k in range(2):
        for payload in reads:
            client.request("POST", "/query", payload)
        _write(client, (["p", k], 1))
    for payload in reads:
        client.request("POST", "/query", payload)
    assert client.answers()["promoted"] == 2
    before = _patches()

    def broken(self, name, relation):
        raise RuntimeError("injected replace failure")

    with monkeypatch.context() as patch:
        patch.setattr(MaterializedView, "replace", broken)
        status, body = client.request("POST", "/relations", {"name": "R", "relation": {
            "columns": ["g", "v"], "rows": [{"values": ["z", 100]}]}})
    assert status == 201, body
    assert _moved(before) == {"demoted: relation replaced": 1, "demoted: patch failed": 1}
    assert client.answers()["promoted"] == 0
    _write(client, (["z", 5], 1))
    for name, sql in (("a", GROUPED), ("b", "SELECT g FROM R"), ("s", "SELECT g FROM S")):
        status, view = client.request("GET", f"/views/{name}")
        assert status == 200
        assert view["rows"] == json.loads(rendered(db, sql))["rows"], name
    for payload in reads:
        status, body = client.raw("POST", "/query", payload)
        assert status == 200 and body.startswith(rendered(db, payload["sql"])[:-1])


def test_a_render_that_raises_demotes_and_the_write_still_answers(serve, monkeypatch):
    db = nat_db()
    _handle, client = serve(db)
    _promote(client, {"sql": GROUPED})
    client.request("POST", "/query", {"sql": GROUPED})
    before = _patches()

    def broken(rel):
        raise RuntimeError("injected render failure")

    with monkeypatch.context() as patch:
        patch.setattr(serve_server, "relation_to_json", broken)
        written = _write(client, (["g0", 9], 1))
    assert _moved(before) == {"patched": 1, "demoted: patch failed": 1}
    assert client.answers()["promoted"] == 0
    status, body = client.raw("POST", "/query", {"sql": GROUPED})
    assert status == 200 and body.startswith(rendered(db, GROUPED)[:-1])
    assert json.loads(body)["version"] == written["version"]


def test_a_write_the_view_ignores_renders_nothing_again(serve, monkeypatch):
    """A view's bytes are rendered once per result: a write to a table it
    does not read moves its version and renders nothing."""
    db = two_tables()
    _handle, client = serve(db)
    assert client.request("POST", "/views", {"name": "v", "sql": GROUPED})[0] == 201
    status, first = client.request("GET", "/views/v")
    assert status == 200
    status, _ = client.request("POST", "/update", {"relations": {
        "S": {"rows": [{"values": ["s2", 3]}]}}})
    assert status == 200

    def no_rendering(rel):
        raise AssertionError("an unchanged view renders nothing")

    monkeypatch.setattr(serve_server, "relation_to_json", no_rendering)
    status, again = client.request("GET", "/views/v")
    assert status == 200
    assert again["rows"] == first["rows"]
    assert again["view_version"] > first["view_version"]


def test_a_symbolic_write_needs_the_heavy_slot(serve):
    """Over ``N[X]`` a write may promote answers, each a whole evaluation,
    so it takes the heavy slot those evaluations take: while the slot is
    held the write is shed before anything is published."""
    handle, client = serve(nx_db())
    client.request("POST", "/query", {"sql": GROUPED})
    _write(client, (["g0", 2], "x1"))
    client.request("POST", "/query", {"sql": GROUPED})
    version = handle.server.manager.version
    heavy = handle.server.pool._heavy
    assert heavy.acquire(blocking=False)
    try:
        status, body = client.request("POST", "/update", {"relations": {
            "R": {"rows": _rows((["g0", 2], "x2"))}}})
        assert status == 503 and "symbolic" in body["error"], body
        assert handle.server.manager.version == version
    finally:
        heavy.release()
    before = _patches()
    _write(client, (["g0", 2], "x2"))
    assert _moved(before) == {"promoted": 1}


def test_an_answer_not_read_on_a_version_is_demoted_at_the_next_write(serve):
    handle, client = serve(nat_db())
    before = _patches()
    _promote(client, {"sql": GROUPED})
    assert _moved(before) == {"promoted": 1}
    assert client.answers()["promoted"] == 1
    assert len(handle.server.manager.pin().answers) == 1  # seeded
    _write(client, (["g0", 2], 1))  # nothing read in between
    assert _moved(before) == {"promoted": 1, "demoted: not read": 1}
    assert client.answers()["promoted"] == 0
    assert len(handle.server.manager.pin().answers) == 0
    status, body = client.request("POST", "/query", {"sql": GROUPED})
    assert status == 200
    assert client.answers()["misses"] == 3 and client.answers()["hits"] == 0


def test_the_patch_runs_before_the_update_answers(serve, monkeypatch):
    """The very next ``/query`` after ``/update`` is a hit: it renders
    nothing, so the patched bytes were in place when the write answered."""
    db = nat_db()
    _handle, client = serve(db)
    written = _promote(client, {"sql": GROUPED})
    want = rendered(db, GROUPED)

    def no_rendering(rel):
        raise AssertionError("a hit renders nothing")

    monkeypatch.setattr(serve_server, "relation_to_json", no_rendering)
    status, hit = client.raw("POST", "/query", {"sql": GROUPED})
    assert status == 200, hit
    assert hit.startswith(want[:-1] + b', "elapsed_ms": ')
    assert json.loads(hit)["version"] == written["version"]
    assert client.answers()["hits"] == 1


def test_a_checkpoint_writes_no_view_files(tmp_path):
    """Maintained answers stay in memory: a checkpoint writes the
    database and the ``/views`` definitions, and no state of a ``/views``
    entry or a promoted answer."""
    manager = DurabilityManager.open(tmp_path, semiring=NAT, fsync="always")
    handle = start_in_thread(manager.db, durability=manager)
    client = Client(handle.address)
    try:
        status, _ = client.request("POST", "/relations", {"name": "R", "relation": {
            "columns": ["g", "v"], "rows": [{"values": ["g1", 1]}]}})
        assert status == 201
        assert client.request("POST", "/views", {"name": "v", "sql": GROUPED})[0] == 201
        _promote(client, {"sql": "SELECT g, v FROM R"})
        assert client.answers()["promoted"] == 1
        assert manager.checkpoint() is not None
        assert sorted({path.suffix for path in tmp_path.iterdir()}) == [".log", ".snap"]
        (lsn, path), *_ = list_checkpoints(tmp_path)
        assert _load_checkpoint(path, lsn)[1] == {"v": GROUPED}
        assert client.request("GET", "/stats")[1]["views"] == ["v"]
    finally:
        client.close()
        handle.close()
        manager.close()


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
        "bytes": handle.server.manager.pin().answers.nbytes, "promoted": 0,
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
    assert client.answers() == {
        "hits": 0, "misses": 4, "bypasses": 0, "bytes": bound, "promoted": 0,
    }
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
    forced often: every answer, kept, patched or evaluated, is its own
    version's (one fresh row per write), and the store's byte count is
    the sum of what it holds — a lost update to either would break one.
    The writer starts after the first answer, so it promotes at least
    that one."""
    handle, client = serve(nat_db(), workers=4)
    v0 = handle.server.manager.version
    queries = ["SELECT g, v FROM R", "SELECT v FROM R", GROUPED]
    errors, counted = [], []
    answered = threading.Event()

    def read(seed):
        reader = Client(handle.address)
        try:
            for i in range(40):
                sql = queries[(seed + i) % 3]
                status, body = reader.request("POST", "/query", {"sql": sql})
                if status == 503:
                    continue
                counted.append(1)
                answered.set()
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
            answered.wait(30)
            for i in range(15):
                status, body = writer.request("POST", "/update", {"relations": {
                    "R": {"rows": [{"values": [f"w{i}", 100 + i]}]}}})
                if status != 200:
                    errors.append(body)
        finally:
            writer.close()

    before = _patches()
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
    assert _moved(before).get("promoted", 0) >= 1



def test_a_write_is_folded_once_and_every_view_catalog_adopts_it(serve):
    """The root folds each ``/update`` once: after every write of a
    stream, each ``/views`` entry and each promoted answer renders a
    fresh evaluation's bytes on the published snapshot, and every entry's
    catalog holds the snapshot's relation versions themselves, so the
    table's encoding is carried once per write (with NumPy), not once
    per catalog."""
    from repro.plan.kernels import HAVE_NUMPY

    handle, client = serve(two_tables())
    named = {"totals": GROUPED, "s_rows": "SELECT g, v FROM S"}
    for name, sql in named.items():
        assert client.request("POST", "/views", {"name": name, "sql": sql})[0] == 201
    promoted = [GROUPED, "SELECT g, v FROM R WHERE v > 4"]
    server = handle.server
    for k in range(6):
        for sql in promoted:
            assert client.raw("POST", "/query", {"sql": sql})[0] == 200
        extends = obs_metrics.ENCODED_CACHE_EVENTS.values().get(("extend",), 0)
        table = "S" if k == 3 else "R"
        status, body = client.request("POST", "/update", {"relations": {
            table: {"rows": _rows(([f"w{k}", k], 1), ([f"x{k}", k], 2))}}})
        assert status == 200, body
        if HAVE_NUMPY:
            carried = obs_metrics.ENCODED_CACHE_EVENTS.values()[("extend",)] - extends
            assert carried == 1, (k, carried)
        snap = server.manager.pin()
        for name, sql in named.items():
            status, view = client.raw("GET", f"/views/{name}")
            assert status == 200
            assert view.startswith(rendered(snap, sql)[:-1] + b', "view_version": '), name
        for sql in promoted:
            status, answer = client.raw("POST", "/query", {"sql": sql})
            assert answer.startswith(rendered(snap, sql)[:-1] + b', "elapsed_ms": '), sql
        entries = [entry for entry in server._views.values()
                   if getattr(entry, "view", None) is not None]
        assert len(entries) >= len(named) + (len(promoted) if k else 0)
        for entry in entries:
            catalog = entry.view.db
            assert catalog.names() == snap.names()
            assert all(catalog.relation(t) is snap.relation(t) for t in snap.names())
