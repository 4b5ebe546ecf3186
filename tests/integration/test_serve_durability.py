"""The durable serving layer over HTTP: recovery, 503s, Retry-After.

End-to-end across process boundaries is the chaos suite's job
(``tests/chaos/test_durability_chaos.py``); here the server runs
in-process (``start_in_thread``) so the tests can reach into the
durability manager, inject faults, and restart the stack quickly:

* acknowledged HTTP writes (200/201 responses) survive a server
  restart over the same data directory, including materialised views;
* an unwritable WAL turns writes into 503 + ``Retry-After`` while reads
  keep answering, and ``/health`` reports degraded with the reason;
* the ``Retry-After`` header tracks pool pressure instead of the old
  hardcoded ``1``.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro import faults
from repro.obs import metrics as obs_metrics
from repro.core import KDatabase, KRelation
from repro.semirings import NAT
from repro.serve import WorkerPool, start_in_thread
from repro.wal import DurabilityManager

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


def test_acknowledged_writes_and_views_survive_restart(tmp_path):
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
            "POST", "/views",
            {"name": "by_g", "sql": "SELECT g, SUM(v) FROM R GROUP BY g"},
        )
        assert status == 201
    finally:
        client.close()
        handle.close()
        manager.close()

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
        _, stats, _ = client.request("GET", "/stats")
        assert stats["views"] == ["by_g"]
        assert stats["durability"]["last_lsn"] == 3
    finally:
        client.close()
        handle.close()
        recovered.close()


def test_view_state_restores_from_checkpoint_snapshot(tmp_path):
    manager, handle = durable_server(tmp_path)
    client = Client(handle.address)
    try:
        client.request("POST", "/relations", {"name": "R", "relation": ROWS})
        client.request("POST", "/views",
                       {"name": "v", "sql": "SELECT COUNT(*) FROM R"})
        manager.checkpoint()  # snapshots the view state alongside the db
    finally:
        client.close()
        handle.close()
        manager.close()

    recovered = DurabilityManager.open(tmp_path)
    handle = start_in_thread(recovered.db, durability=recovered)
    try:
        # start_in_thread ran restore_views(); the checkpoint state was
        # fingerprint-valid (no post-checkpoint writes), so no rebuild
        assert handle.server._views["v"].restored_from_snapshot is True
        assert obs_metrics.resilience_counters()["snapshot_rebuilds"] == 0
    finally:
        handle.close()
        recovered.close()


def test_stale_view_snapshot_rebuilds_after_post_checkpoint_writes(tmp_path):
    manager, handle = durable_server(tmp_path)
    client = Client(handle.address)
    try:
        client.request("POST", "/relations", {"name": "R", "relation": ROWS})
        client.request("POST", "/views",
                       {"name": "v", "sql": "SELECT COUNT(*) FROM R"})
        manager.checkpoint()
        # the database moves on; the view state snapshot goes stale
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
        view = handle.server._views["v"]
        assert view.restored_from_snapshot is False  # fingerprint mismatch
        assert obs_metrics.resilience_counters()["snapshot_rebuilds"] == 1
        _, body, _ = client.request("GET", "/views/v")
        assert body["rows"][0]["values"] == [3]  # rebuilt over 3 rows
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
    pool = WorkerPool(workers=4, retry_after_base=2.0, retry_after_max=9.0)
    try:
        assert pool.retry_after() == 2.0  # idle: the base
        with pool._stats_lock:
            pool._in_flight = 4  # saturated: base * 2
        assert pool.retry_after() == 4.0
        with pool._stats_lock:
            pool._in_flight = 400  # absurd backlog: capped
        assert pool.retry_after() == 9.0
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
