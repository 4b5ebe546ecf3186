"""The durable serving layer over HTTP: recovery, 503s, Retry-After.

End-to-end across process boundaries is the chaos suite's job
(``tests/chaos/test_durability_chaos.py``); here the server runs
in-process (``start_in_thread``) so the tests can reach into the
durability manager, inject faults, and restart the stack quickly:

* acknowledged HTTP writes (200/201 responses) survive a server
  restart over the same data directory, including materialised views,
  which boot by evaluation (view-state files an earlier build wrote
  beside its checkpoints are never read), and a checkpoint never waits
  for a view;
* an unwritable WAL turns writes into 503 + ``Retry-After`` while reads
  keep answering, and ``/health`` reports degraded with the reason;
* the ``Retry-After`` header tracks pool pressure instead of the old
  hardcoded ``1``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import threading

import pytest

from repro import faults
from repro.obs import metrics as obs_metrics
from repro.core import KDatabase, KRelation
from repro.semirings import NAT
from repro.serve import WorkerPool, start_in_thread
from repro.serve.workers import RETRY_AFTER_BASE, RETRY_AFTER_MAX
from repro.sql.compiler import compile_sql
from repro.wal import DurabilityManager
from repro.wal import manager as wal_manager

#: An exception escaping a connection thread fails the test, not a log line.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)


@pytest.fixture(autouse=True)
def _reset_counters():
    faults.reset_counters()
    yield
    faults.reset_counters()


class Client:
    """A keep-alive JSON client that also exposes response headers."""

    def __init__(self, address):
        self.conn = http.client.HTTPConnection(*address, timeout=30)

    def request(self, method, path, payload=None):
        body = None if payload is None else json.dumps(payload)
        self.conn.request(method, path, body)
        response = self.conn.getresponse()
        return (
            response.status,
            json.loads(response.read()),
            dict(response.getheaders()),
        )

    def close(self):
        self.conn.close()


def durable_server(tmp_path, **open_kwargs):
    open_kwargs.setdefault("semiring", NAT)
    open_kwargs.setdefault("fsync", "always")
    manager = DurabilityManager.open(tmp_path, **open_kwargs)
    handle = start_in_thread(manager.db, durability=manager)
    return manager, handle


ROWS = {"columns": ["g", "v"], "rows": [{"values": ["g1", 1]},
                                        {"values": ["g2", 2]}]}

BY_G = "SELECT g, SUM(v) FROM R GROUP BY g"

#: The view-state file an earlier build's checkpoint wrote for ``by_g``
#: over ``R = {g1: 1, g2: 2, g3: 3}``, the database the restart test
#: builds, byte for byte; its fingerprint matches that database, so that
#: build restored the view from it instead of evaluating.
BY_G_STATE = (
    '{"kind": "view_state", "data": {"head": "group", "semiring": "N", '
    '"query": "GB[g; SUM(v)](R)", "db_version": 1, "db_fingerprint": '
    '"1e4a4351e2f95436ac3d1248f9e0780646faf1f7396ec44ce4b52ec3c341ec31", '
    '"out_schema": ["g", "v"], "core_schema": ["g", "v"], "state": ['
    '{"key": ["g1"], "tensors": {"v": {"__tensor__": {"semiring": "N", '
    '"monoid": "SUM", "items": [[1, 1]]}}}, "total": 1}, '
    '{"key": ["g2"], "tensors": {"v": {"__tensor__": {"semiring": "N", '
    '"monoid": "SUM", "items": [[2, 1]]}}}, "total": 1}, '
    '{"key": ["g3"], "tensors": {"v": {"__tensor__": {"semiring": "N", '
    '"monoid": "SUM", "items": [[3, 1]]}}}, "total": 1}]}}'
)


def plant_view_state(directory, name, body):
    """Write ``body`` where an earlier build kept ``name``'s state, in the
    checksummed snapshot-file format."""
    data = body.encode("utf-8")
    header = json.dumps({"magic": "REPRO-SNAPSHOT-V1", "length": len(data),
                         "sha256": hashlib.sha256(data).hexdigest()}, sort_keys=True)
    path = directory / f"view-{hashlib.sha256(name.encode()).hexdigest()[:16]}.snap"
    path.write_bytes(header.encode("utf-8") + b"\n" + data)


def view_files(directory):
    return {path.name: path.read_bytes() for path in directory.glob("view-*")}


@pytest.mark.parametrize("earlier_build_files", [False, True],
                         ids=["own", "earlier-build-view-files"])
def test_acknowledged_writes_and_views_survive_restart(tmp_path, monkeypatch,
                                                       earlier_build_files):
    manager, handle = durable_server(tmp_path)
    client = Client(handle.address)
    try:
        status, _, _ = client.request("POST", "/relations",
                                      {"name": "R", "relation": ROWS})
        assert status == 201
        status, body, _ = client.request(
            "POST", "/update",
            {"relations": {"R": {"rows": [{"values": ["g3", 3]}]}}},
        )
        assert status == 200
        status, _, _ = client.request(
            "POST", "/views", {"name": "by_g", "sql": BY_G})
        assert status == 201
    finally:
        client.close()
        handle.close()
        manager.close()
    if earlier_build_files:
        plant_view_state(tmp_path, "by_g", BY_G_STATE)
    planted = view_files(tmp_path)
    read, load = [], wal_manager._load_checkpoint

    def reading(path, lsn):
        read.append(os.path.basename(path))
        return load(path, lsn)

    monkeypatch.setattr(wal_manager, "_load_checkpoint", reading)

    # a new process over the same directory: everything is back
    recovered, handle = durable_server(tmp_path)
    client = Client(handle.address)
    try:
        _, health, _ = client.request("GET", "/health")
        assert health["durability"]["recovery"]["records_replayed"] == 3
        status, result, _ = client.request(
            "POST", "/query", {"sql": "SELECT g, v FROM R"}
        )
        assert status == 200
        values = sorted(tuple(r["values"]) for r in result["rows"])
        assert values == [("g1", 1), ("g2", 2), ("g3", 3)]
        status, view, _ = client.request("GET", "/views/by_g")
        assert status == 200
        assert len(view["rows"]) == 3  # g1, g2, g3 groups
        assert handle.server._views["by_g"].view.result() == compile_sql(BY_G).evaluate(
            recovered.db, engine="interpreted")
        _, stats, _ = client.request("GET", "/stats")
        assert stats["views"] == ["by_g"]
        assert stats["durability"]["last_lsn"] == 3
        # recovery read its checkpoint and nothing else; a checkpoint
        # writes no view file and leaves the earlier build's in place
        assert read and all(name.startswith("checkpoint-") for name in read)
        recovered.checkpoint(force=True)
        assert view_files(tmp_path) == planted
    finally:
        client.close()
        handle.close()
        recovered.close()


def test_a_view_registered_before_a_checkpoint_boots_over_the_wal_tail(tmp_path):
    manager, handle = durable_server(tmp_path)
    client = Client(handle.address)
    try:
        client.request("POST", "/relations", {"name": "R", "relation": ROWS})
        client.request("POST", "/views",
                       {"name": "v", "sql": "SELECT COUNT(*) FROM R"})
        manager.checkpoint()
        client.request(
            "POST", "/update",
            {"relations": {"R": {"rows": [{"values": ["g9", 9]}]}}},
        )
    finally:
        client.close()
        handle.close()
        manager.close()

    recovered = DurabilityManager.open(tmp_path)
    handle = start_in_thread(recovered.db, durability=recovered)
    client = Client(handle.address)
    try:
        assert recovered.recovery["source"] == "checkpoint+wal"
        _, body, _ = client.request("GET", "/views/v")
        assert body["rows"][0]["values"] == [3]  # evaluated over 3 rows
        assert obs_metrics.resilience_counters()["snapshot_rebuilds"] == 0
    finally:
        client.close()
        handle.close()
        recovered.close()


def test_a_checkpoint_does_not_wait_for_a_view(tmp_path):
    """A checkpoint writes the database and the view definitions, never a
    view's state, so it completes while a writer holds the view's lock."""
    manager, handle = durable_server(tmp_path)
    client = Client(handle.address)
    held, release, done = threading.Event(), threading.Event(), []

    def hold():
        with handle.server._views["by_g"].view.db._lock:
            held.set()
            release.wait(30)

    holder = threading.Thread(target=hold)
    checkpointer = threading.Thread(target=lambda: done.append(manager.checkpoint()))
    try:
        client.request("POST", "/relations", {"name": "R", "relation": ROWS})
        assert client.request("POST", "/views", {"name": "by_g", "sql": BY_G})[0] == 201
        client.request("POST", "/update",
                       {"relations": {"R": {"rows": [{"values": ["g3", 3]}]}}})
        holder.start()
        assert held.wait(10)
        checkpointer.start()
        checkpointer.join(10)
        assert done and done[0] is not None, "the checkpoint waited on the view's lock"
    finally:
        release.set()
        for thread in (holder, checkpointer):
            if thread.is_alive():
                thread.join(10)
        client.close()
        handle.close()
        manager.close()


def test_a_view_the_recovered_catalog_breaks_boots_as_broken(tmp_path):
    """A ``/views`` entry that no longer type-checks after a ``/relations``
    write does not stop the boot: it answers 409 naming the relation and
    the cause, and the first later write it type-checks against rebuilds
    it."""
    manager, handle = durable_server(tmp_path)
    client = Client(handle.address)
    try:
        client.request("POST", "/relations", {"name": "A", "relation": ROWS})
        status, _, _ = client.request(
            "POST", "/views", {"name": "s", "sql": "SELECT g, SUM(v) FROM A GROUP BY g"})
        assert status == 201
        status, _, _ = client.request("POST", "/relations", {"name": "A", "relation": {
            "columns": ["g"], "rows": [{"values": ["g1"]}]}})  # v dropped
        assert status == 201
    finally:
        client.close()
        handle.close()
        manager.close()

    recovered, handle = durable_server(tmp_path)
    client = Client(handle.address)
    try:
        status, body, _ = client.request("GET", "/views/s")
        assert status == 409
        assert (body["view"], body["relation"]) == ("s", "A")
        assert body["cause"].startswith("QueryError") and body["trace_id"]
        _, stats, _ = client.request("GET", "/stats")
        assert stats["views"] == ["s"]
        status, _, _ = client.request("POST", "/relations", {"name": "B", "relation": ROWS})
        assert status == 201  # the retry fails too: still broken
        assert client.request("GET", "/views/s")[0] == 409
        status, _, _ = client.request("POST", "/relations", {"name": "A", "relation": ROWS})
        assert status == 201
        status, body, _ = client.request("GET", "/views/s")
        assert status == 200 and len(body["rows"]) == 2
    finally:
        client.close()
        handle.close()
        recovered.close()


def test_unwritable_log_maps_to_503_with_retry_after(tmp_path):
    manager, handle = durable_server(tmp_path)
    client = Client(handle.address)
    try:
        client.request("POST", "/relations", {"name": "R", "relation": ROWS})
        with faults.inject("wal_torn_tail", seed=1):
            status, body, headers = client.request(
                "POST", "/update",
                {"relations": {"R": {"rows": [{"values": ["gX", 0]}]}}},
            )
        assert status == 503
        assert body["unwritable"] is True
        assert "Retry-After" in headers
        assert int(headers["Retry-After"]) >= 1
        # reads keep serving while writes are refused
        status, result, _ = client.request(
            "POST", "/query", {"sql": "SELECT g, v FROM R"}
        )
        assert status == 200
        assert len(result["rows"]) == 2  # the refused write never applied
        _, health, _ = client.request("GET", "/health")
        assert health["status"] == "degraded"
        assert health["durability"]["unwritable"] is True
        _, stats, _ = client.request("GET", "/stats")
        assert stats["durability"]["unwritable"] is True
        assert stats["durability"]["last_error"]
    finally:
        client.close()
        handle.close()
        manager._wal.close()


def test_retry_after_derives_from_pool_pressure():
    pool = WorkerPool(workers=4)
    try:
        assert pool.retry_after() == RETRY_AFTER_BASE == 1.0  # idle: the base
        with pool._stats_lock:
            pool._in_flight = 4  # saturated: base * 2
        assert pool.retry_after() == 2 * RETRY_AFTER_BASE
        with pool._stats_lock:
            pool._in_flight = 400  # absurd backlog: capped
        assert pool.retry_after() == RETRY_AFTER_MAX == 30.0
    finally:
        with pool._stats_lock:
            pool._in_flight = 0
        pool.shutdown()


def test_non_durable_server_has_no_durability_block(tmp_path):
    handle = start_in_thread(KDatabase(NAT))
    client = Client(handle.address)
    try:
        _, health, _ = client.request("GET", "/health")
        assert "durability" not in health
        _, stats, _ = client.request("GET", "/stats")
        assert "durability" not in stats
    finally:
        client.close()
        handle.close()


def test_server_refuses_a_mismatched_database(tmp_path):
    manager = DurabilityManager.open(tmp_path, semiring=NAT)
    try:
        from repro.serve import ProvenanceServer

        with pytest.raises(ValueError, match="same database"):
            ProvenanceServer(KDatabase(NAT), durability=manager)
    finally:
        manager.close()
