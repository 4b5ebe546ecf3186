"""Per-layer probes for the traced run: one layer's public function, called
from here, timed alone.

The op scripts in ``workloads.py`` give the client-side view (one span per
call an op makes).  The probes below time the calls those spans are made
of, on the same fixtures: the write-path probes use ``serve_write``'s
tables in-process, the tier probes use ``scan_analytic``'s database, the
replay probes push ``serve_read``'s request bodies through the functions
the server's handler calls.  Every time is divided by the reference
slowdown measured around its probe, like the op latencies are.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional

from e2e import gen, refclock
from e2e.measure import percentile

Metrics = Dict[str, float]


def timed_ms(fn: Callable[..., Any], *, repeats: int = 5, inner: int = 1,
             fresh: Optional[Callable[[], Any]] = None) -> float:
    """Normalised median milliseconds of one ``fn`` call.

    ``fresh`` builds (untimed) the argument for each repeat, for calls
    that consume their input; ``inner`` batches calls too short to time.
    """
    before = refclock.now()
    samples: List[float] = []
    for _ in range(repeats):
        args = (fresh(),) if fresh is not None else ()
        t0 = time.perf_counter()
        for _ in range(inner):
            fn(*args)
        samples.append((time.perf_counter() - t0) / inner)
    slowdown = refclock.between(before, refclock.now())
    return percentile(samples, 0.5) / slowdown * 1e3


# ---------------------------------------------------------------------------
# the write path, on serve_write's tables
# ---------------------------------------------------------------------------


def write_path(write, workdir: str) -> Metrics:
    """core / plan / ivm / wal / io probes on ``serve_write``'s fixture."""
    from repro.core import KDatabase, KRelation
    from repro.ivm import MaterializedView
    from repro.io import serialize
    from repro.obs import metrics as obs_metrics
    from repro.plan import compile_plan, encoded_scan
    from repro.semirings import NAT
    from repro.serve.schema import deltas_from_json
    from repro.serve.snapshot import SnapshotManager
    from repro.sql.compiler import compile_sql
    from repro.wal import DurabilityManager, WriteAheadLog

    out: Metrics = {}
    loads = [json.loads(body)["relation"]["rows"] for body in write.loads]
    emp_pairs = [(tuple(r["values"]), 1) for r in loads[0]]
    dept_pairs = [(tuple(r["values"]), 1) for r in loads[1]]

    out["core.from_rows_ms"] = timed_ms(
        lambda: KRelation.from_rows(NAT, gen.EMP_COLUMNS, emp_pairs), repeats=3)
    emp = KRelation.from_rows(NAT, gen.EMP_COLUMNS, emp_pairs)
    dept = KRelation.from_rows(NAT, gen.DEPT_COLUMNS, dept_pairs)

    def database() -> KDatabase:
        return KDatabase(NAT, {"Emp": emp, "Dept": dept})

    batches = iter(range(20_000_000, 30_000_000))  # keys no op has used

    def delta_body() -> bytes:
        return gen.update_body(gen.update_batch(write.seed, next(batches), write.BATCH, write.DEPTS))

    def delta() -> Dict[str, Any]:
        return deltas_from_json(db, json.loads(delta_body()))

    db = database()
    body = delta_body()
    out["serve.deltas_from_json_ms"] = timed_ms(
        lambda: deltas_from_json(db, json.loads(body)), inner=20)
    out["core.db_update_ms"] = timed_ms(db.update, repeats=9, fresh=delta)
    manager = SnapshotManager(db)
    out["serve.snapshot_pin_ms"] = timed_ms(manager.pin, inner=1000)
    out["serve.snapshot_publish_ms"] = timed_ms(manager.update, repeats=9, fresh=delta)

    out["sql.compile_ms"] = timed_ms(lambda: compile_sql(gen.S2), inner=20)
    s1, s2 = compile_sql(gen.S1), compile_sql(gen.S2)

    def moved() -> None:
        db.update(delta())  # a new version: every plan is stale

    out["plan.compile_ms"] = timed_ms(lambda _: compile_plan(s2, db), fresh=moved)
    out["plan.encoded.build_ms"] = timed_ms(
        lambda d: encoded_scan(d, "Emp", emp), fresh=database)
    warm = database()
    encoded_scan(warm, "Emp", emp)
    out["plan.encoded.hit_ms"] = timed_ms(lambda: encoded_scan(warm, "Emp", emp), inner=100)
    out["plan.object.exec_ms"] = timed_ms(compile_plan(s2, warm, tier="object").execute, repeats=3)

    out["ivm.create_ms"] = timed_ms(
        lambda d: MaterializedView.create(d, s1), repeats=3, fresh=database)
    by_dept = MaterializedView.create(database(), s1)
    by_region = MaterializedView.create(database(), s2)
    out["ivm.apply_ms"] = timed_ms(by_dept.apply, repeats=9, fresh=delta)
    out["ivm.apply_join_ms"] = timed_ms(by_region.apply, repeats=9, fresh=delta)

    def applied():
        by_dept.apply(delta())  # drops the view's cached result

    out["ivm.result_ms"] = timed_ms(lambda _: by_dept.result(), fresh=applied)

    out["io.relation_to_jsonable_ms"] = timed_ms(
        lambda: serialize.relation_to_jsonable(emp), repeats=3)
    out["io.dumps_ms"] = timed_ms(lambda: serialize.dumps(emp), repeats=3)

    fsyncs = obs_metrics.WAL_FSYNC_SECONDS.snapshot()["count"]
    appended = obs_metrics.WAL_APPENDED_BYTES.values().get((), 0)
    user_bytes = 0
    durable = DurabilityManager.open(
        os.path.join(workdir, "probe-wal"), initial_db=database(), fsync="batch")
    try:
        def durable_delta():
            nonlocal user_bytes
            raw = delta_body()
            user_bytes += len(raw)
            return deltas_from_json(durable.db, json.loads(raw))

        # encode + append + the in-memory update (core.db_update_ms) it wraps
        out["wal.update_ms"] = timed_ms(durable.update, repeats=15, fresh=durable_delta)
        durable.flush()
        out["wal.fsyncs"] = obs_metrics.WAL_FSYNC_SECONDS.snapshot()["count"] - fsyncs
        out["wal.bytes_per_user_byte"] = (
            obs_metrics.WAL_APPENDED_BYTES.values().get((), 0) - appended) / user_bytes
        paths: List[str] = []
        out["wal.checkpoint_ms"] = timed_ms(
            lambda: paths.append(durable.checkpoint(force=True)), repeats=3)
        out["wal.checkpoint_bytes"] = os.path.getsize(paths[-1])
    finally:
        durable.close()

    log_dir = os.path.join(workdir, "probe-log")
    os.makedirs(log_dir)
    log = WriteAheadLog(log_dir, fsync="batch")
    try:
        out["wal.append_ms"] = timed_ms(lambda: log.append(body), inner=50)
    finally:
        log.close()
    return out


# ---------------------------------------------------------------------------
# the read path: serve_read's requests replayed through the handler's calls
# ---------------------------------------------------------------------------


def read_path(read) -> Metrics:
    """What one ``/query`` costs inside the process, stage by stage.

    The mean over the four statements of each stage's median is that
    stage's per-request cost; their sum is the part of ``serve.query_ms``
    the in-process layers explain, and the rest is ``serve.unattributed_ms``
    (HTTP framing, the event loop, the pool hand-off, the socket).
    """
    from repro.core import KDatabase
    from repro.semirings import NAT
    from repro.serve.schema import parse_query_request, relation_from_json, relation_to_json
    from repro.serve.snapshot import SnapshotManager
    from repro.serve.workers import WorkerPool
    from repro.sql.compiler import compile_sql

    db = KDatabase(NAT)
    for body in read.loads:
        payload = json.loads(body)
        db.add(payload["name"], relation_from_json(NAT, payload["relation"], payload["name"]))
    manager = SnapshotManager(db)
    statements = read.script[:4]
    stages: Dict[str, List[float]] = {
        "serve.parse_request_ms": [], "plan.cached_eval_ms": [],
        "serve.relation_to_json_ms": [], "serve.json_dumps_ms": []}
    for sql, body in statements:
        query = compile_sql(sql)
        snap = manager.pin()
        result = query.evaluate(snap, engine="planned")
        encoded = relation_to_json(result)
        stages["serve.parse_request_ms"].append(
            timed_ms(lambda: parse_query_request(json.loads(body)), inner=200))
        stages["plan.cached_eval_ms"].append(
            timed_ms(lambda: query.evaluate(snap, engine="planned"), repeats=9))
        stages["serve.relation_to_json_ms"].append(
            timed_ms(lambda: relation_to_json(result), inner=10))
        stages["serve.json_dumps_ms"].append(
            timed_ms(lambda: json.dumps(encoded, default=str), inner=10))
    out = {name: sum(values) / len(values) for name, values in stages.items()}
    out["serve.attributed_ms"] = sum(out.values())

    async def hand_offs(n: int) -> float:
        """Seconds per ``WorkerPool.run`` of a no-op from an event loop."""
        pool = WorkerPool(workers=2)
        try:
            await pool.run(int)
            t0 = time.perf_counter()
            for _ in range(n):
                await pool.run(int)
            return (time.perf_counter() - t0) / n
        finally:
            pool.shutdown()

    before = refclock.now()
    per_call = asyncio.run(hand_offs(300))
    out["serve.pool_handoff_ms"] = per_call / refclock.between(before, refclock.now()) * 1e3
    return out


# ---------------------------------------------------------------------------
# the tiers, on scan_analytic's database
# ---------------------------------------------------------------------------


def tiers(scan) -> Metrics:
    """Forced-tier executions of A1.  Adds rows to ``Fact``: call it after
    the workload's own ops, whose expected answers it invalidates."""
    from repro.core import KRelation
    from repro.obs import trace as obs_trace
    from repro.plan import compile_plan
    from repro.semirings import NAT

    out: Metrics = {}
    a1 = scan.queries[0][1]
    encoded = compile_plan(a1, scan.db, tier="encoded")
    encoded.execute()
    out["plan.encoded.exec_ms"] = timed_ms(encoded.execute)

    def collected():
        with obs_trace.collect("probe"):
            encoded.execute()

    # alternate the two so host drift cancels in the ratio
    pairs = [(timed_ms(collected, repeats=1), timed_ms(encoded.execute, repeats=1))
             for _ in range(5)]
    out["obs.collect_overhead_x"] = percentile([a / b for a, b in pairs], 0.5)

    parallel = compile_plan(a1, scan.db, tier="parallel")
    parallel.execute()
    out["plan.parallel.exec_ms"] = timed_ms(parallel.execute)
    keys = iter(range(1, 100))

    def moved():
        # one new Fact row: the table re-encodes and is published to the
        # workers again on the next parallel execution
        row = KRelation.from_rows(NAT, gen.FACT_COLUMNS, [((-next(keys), "g0", 1), 1)])
        scan.db.update({"Fact": row})
        return compile_plan(a1, scan.db, tier="parallel")

    out["plan.parallel.publish_ms"] = timed_ms(lambda plan: plan.execute(), repeats=3, fresh=moved)
    return out


def circuit_lower(symbolic) -> Metrics:
    def fresh():
        return symbolic.q.evaluate(symbolic.db, engine="planned", annotations="circuit")

    return {"circuit.lower_ms": timed_ms(lambda result: result.lower(), fresh=fresh)}
