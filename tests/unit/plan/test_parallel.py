"""Unit tests for the morsel-driven parallel tier.

The property suite (``tests/property/test_parallel_tier.py``) certifies
semantic equivalence over random workloads; this file pins the plumbing:
the tier is only ever selected on request, EXPLAIN reporting (sharding
decision and honest fallback reasons), the aggregated int64
reduction-bound guard, per-tier execution counters, the driver's
partition and its cache, one plan run from several threads at once, the
serial re-run after a failed or cancelled morsel, and deadlines.
"""

import os
import sys
import threading
import time

import pytest

pytest.importorskip("numpy")  # the parallel tier exists only with NumPy

from repro.core import (
    Distinct,
    GroupBy,
    KDatabase,
    KRelation,
    NaturalJoin,
    Project,
    Select,
    AttrEq,
    Table,
    Union,
)
from repro import faults
from repro.exceptions import DeadlineExceeded, QueryError
from repro.monoids import SUM
from repro.obs import trace
from repro.obs.metrics import resilience_counters, tier_executions
from repro.plan import ParallelFallback, compile_plan, effective_workers
from repro.plan import encoded as enc
from repro.plan import parallel
from repro.plan.encoded import _INT64_MAX
from repro.semirings import NAT, NX


@pytest.fixture(autouse=True)
def _two_workers(monkeypatch):
    """Two workers whatever the host's core count, so the morsel counts
    below are fixed; the resilience ledger starts at zero."""
    monkeypatch.setattr(parallel, "effective_workers", lambda: 2)
    faults.reset_counters()
    yield
    faults.reset_counters()


def sales_db(rows: int = 24) -> KDatabase:
    groups = ["g0", "g1", "g2", "g3"]
    r = KRelation.from_rows(
        NAT,
        ("g", "v"),
        [((groups[i % 4], i % 7), 1 + i % 3) for i in range(rows)],
    )
    s = KRelation.from_rows(NAT, ("g",), [((g,), 2) for g in groups[:3]])
    return KDatabase(NAT, {"R": r, "S": s})


GROUP_QUERY = GroupBy(
    NaturalJoin(Table("R"), Table("S")), ["g"], {"v": SUM}, count_attr="n"
)


# ---------------------------------------------------------------------------
# tier selection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rows", [24, 204_800])
def test_default_tier_is_encoded_at_any_size_and_morsels_only_on_request(rows):
    # measured on two cores at 0.2-1.6M rows, the serial encoded tier beat
    # the morsels on every benchmark shape: the compiler never picks them,
    # however big the largest scan and however many cores there are
    fact = [((f"g{i % 4}", i), 1 + i % 3) for i in range(rows)]  # all distinct
    db = KDatabase(NAT, {
        "R": KRelation.from_rows(NAT, ("g", "v"), fact),
        "S": KRelation.from_rows(NAT, ("g",), [((g,), 2) for g in ("g0", "g1", "g2")]),
    })
    assert len(db.relation("R")) == rows
    plan = compile_plan(GROUP_QUERY, db)
    assert plan.tier == "encoded"
    rendered = plan.explain()
    assert "tier: encoded" in rendered and "parallel:" not in rendered
    assert plan._parallel_spec is None  # nothing analysed for sharding
    if rows > 24:
        return  # the compile-time decision is the point at this size
    forced = compile_plan(GROUP_QUERY, db, tier="parallel")
    assert "parallel: 2 workers × 4 morsels" in forced.explain()
    assert forced.execute() == compile_plan(GROUP_QUERY, db, tier="object").execute()
    assert forced._last_tier.startswith("parallel (2 workers × 4 morsels")


def test_forced_parallel_requires_machine_representation():
    db = KDatabase(
        NX, {"R": KRelation.from_rows(NX, ("g",), [(("a",), NX.variable("x"))])}
    )
    with pytest.raises(QueryError, match="parallel tier"):
        compile_plan(Table("R"), db, tier="parallel")


def test_the_worker_count_is_the_core_count():
    # the function as imported, before the fixture replaced it
    assert effective_workers() == (os.cpu_count() or 1)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_explain_and_the_run_name_the_same_fan_out(workers, monkeypatch):
    monkeypatch.setattr(parallel, "effective_workers", lambda: workers)
    morsels = max(2, workers * parallel.MORSELS_PER_WORKER)
    db = sales_db(240)
    plan = compile_plan(GROUP_QUERY, db, tier="parallel")
    assert f"parallel: {workers} workers × {morsels} morsels" in plan.explain()
    assert plan.execute() == compile_plan(GROUP_QUERY, db, tier="encoded").execute()
    assert plan._last_tier == f"parallel ({workers} workers × {morsels} morsels)"


# ---------------------------------------------------------------------------
# execution + EXPLAIN
# ---------------------------------------------------------------------------


def test_parallel_execution_matches_serial_and_reports_in_explain():
    db = sales_db()
    plan = compile_plan(GROUP_QUERY, db, tier="parallel")
    rendered = plan.explain()
    assert "tier: parallel" in rendered
    assert "parallel: 2 workers × 4 morsels (driver: Scan R" in rendered
    assert plan.execute() == compile_plan(GROUP_QUERY, db, tier="object").execute()
    assert plan._last_tier.startswith("parallel (2 workers × 4 morsels")


def test_unparallelizable_query_falls_back_with_reason():
    db = sales_db()
    query = Distinct(Table("R"))  # δ on the driver path is non-linear
    plan = compile_plan(query, db, tier="parallel")
    assert "parallel: unavailable" in plan.explain()
    assert plan.execute() == query.evaluate(db)
    assert "parallel fallback" in plan._last_tier


def test_self_union_replicated_side_counts_once():
    """Σ_m (A_m ∪ B) would add B once *per morsel*; the ``once`` scan
    mode must keep the non-driver union side single-counted."""
    db = sales_db()
    query = Union(
        Project(Select(Table("R"), [AttrEq("g", "g0")]), ("g",)),
        Project(Table("R"), ("g",)),
    )
    plan = compile_plan(query, db, tier="parallel")
    assert plan.execute() == query.evaluate(db)
    assert plan._last_tier.startswith("parallel (")


def test_tier_counters_track_executions():
    db = sales_db()
    before = tier_executions()
    compile_plan(GROUP_QUERY, db, tier="object").execute()
    compile_plan(GROUP_QUERY, db, tier="encoded").execute()
    compile_plan(GROUP_QUERY, db, tier="parallel").execute()
    after = tier_executions()
    assert after["object"] - before["object"] == 1
    assert after["encoded"] - before["encoded"] == 1
    assert after["parallel"] - before["parallel"] == 1


# ---------------------------------------------------------------------------
# the aggregated int64 reduction-bound guard
# ---------------------------------------------------------------------------


def test_merged_reduction_bound_mirrors_serial_guard():
    machine = NAT.machine_repr
    # the whole input would overflow int64 even though each morsel fits
    with pytest.raises(ParallelFallback):
        parallel.check_merged_reduction_bound(
            machine, total_rows=1 << 32, bound=1 << 32
        )
    # exactly at the bound: allowed (mirrors check_reduction_bound)
    parallel.check_merged_reduction_bound(
        machine, total_rows=1, bound=_INT64_MAX
    )


# ---------------------------------------------------------------------------
# the driver's partition
# ---------------------------------------------------------------------------


def decoded_rows(batch, start=0, stop=None):
    cols = [batch.col(a) for a in batch.schema.attributes]
    stop = len(batch) if stop is None else stop
    return [tuple(c.values[c.codes[i]] for c in cols) for i in range(start, stop)]


def test_every_group_lands_in_one_morsel_in_the_serial_order():
    """A float ``SUM`` folds a group's rows in the serial order only if
    the partition keeps the group in one morsel and the rows of a morsel
    in their scan order."""
    db = sales_db(240)
    plan = compile_plan(GROUP_QUERY, db, tier="parallel")
    plan.execute()
    _sig, _rels, state, bounds = plan._parallel_job
    assert "hash(g)" in plan.explain()
    serial = decoded_rows(enc.encoded_scan(db, "R", db.relation("R")))
    position = {row: i for i, row in enumerate(serial)}
    assert len(position) == len(serial)  # distinct rows: positions are exact
    home = {}
    for m, (start, stop) in enumerate(bounds):
        rows = decoded_rows(state["batches"]["R"], start, stop)
        assert [position[r] for r in rows] == sorted(position[r] for r in rows)
        for g, _v in rows:
            assert home.setdefault(g, m) == m, f"group {g} split across morsels"
    assert bounds[0][0] == 0 and bounds[-1][1] == len(serial)
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


def test_without_a_key_the_driver_is_chunked_in_place():
    db = sales_db()
    query = Project(Table("R"), ("v",))  # no join key, no group key
    plan = compile_plan(query, db, tier="parallel")
    assert "partition: contiguous chunks" in plan.explain()
    assert plan.execute() == compile_plan(query, db, tier="encoded").execute()
    _sig, _rels, state, bounds = plan._parallel_job
    assert bounds == [(0, 6), (6, 12), (12, 18), (18, 24)]
    serial = enc.encoded_scan(db, "R", db.relation("R"))
    assert decoded_rows(state["batches"]["R"]) == decoded_rows(serial)


def test_the_driver_is_partitioned_once_per_relation_version(monkeypatch):
    calls = []
    partition_order = parallel._partition_order

    def counted(batch, attrs, morsels):
        calls.append(len(batch))
        return partition_order(batch, attrs, morsels)

    monkeypatch.setattr(parallel, "_partition_order", counted)
    db = sales_db()
    plan = compile_plan(GROUP_QUERY, db, tier="parallel")
    for _ in range(3):
        assert plan.execute() == compile_plan(GROUP_QUERY, db, tier="encoded").execute()
    assert calls == [24]
    # a write replaces R: the next run partitions the new version
    db.update({"R": KRelation.from_rows(NAT, ("g", "v"), [(("g1", 100), 5)])})
    assert plan.execute() == compile_plan(GROUP_QUERY, db, tier="encoded").execute()
    assert calls == [24, 25]
    assert plan._last_tier.startswith("parallel (")


def test_an_empty_driver_answers_exactly():
    db = KDatabase(NAT, {
        "R": KRelation.from_rows(NAT, ("g", "v"), []),
        "S": KRelation.from_rows(NAT, ("g",), []),
    })
    plan = compile_plan(GROUP_QUERY, db, tier="parallel")
    result = plan.execute()
    assert result == GROUP_QUERY.evaluate(db, engine="interpreted")
    assert len(result) == 0
    assert plan._last_tier.startswith("parallel (2 workers × 4 morsels")


# ---------------------------------------------------------------------------
# morsels on threads
# ---------------------------------------------------------------------------


def test_morsels_run_on_the_pool_threads_not_the_callers(monkeypatch):
    names = []
    exec_morsel = parallel._exec_morsel

    def recording(state, morsel_index, start, stop, deadline=None):
        names.append(threading.current_thread().name)
        return exec_morsel(state, morsel_index, start, stop, deadline)

    monkeypatch.setattr(parallel, "_exec_morsel", recording)
    db = sales_db()
    plan = compile_plan(GROUP_QUERY, db, tier="parallel")
    assert plan.execute() == compile_plan(GROUP_QUERY, db, tier="encoded").execute()
    assert len(names) == 4
    assert all(name.startswith("repro-morsel") for name in names), names
    assert len(set(names)) <= 2


def test_one_plan_run_from_four_threads_equals_the_serial_answer(monkeypatch):
    """The cached morsel job, the thread pool and the plan's operators
    (their build caches) are shared by concurrent executions of one
    prepared plan: four callers, four pool threads, frequent switches."""
    monkeypatch.setattr(parallel, "effective_workers", lambda: 4)
    db = sales_db(240)
    want = compile_plan(GROUP_QUERY, db, tier="encoded").execute()
    plan = compile_plan(GROUP_QUERY, db, tier="parallel")
    results, errors = [], []
    start = threading.Barrier(4)

    def run():
        try:
            start.wait()
            for _ in range(20):
                results.append(plan.execute())
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(results) == 80
    assert all(result == want for result in results)
    assert plan._last_tier.startswith("parallel (4 workers × 8 morsels")


def test_concurrent_traced_runs_each_collect_their_own_morsel_spans():
    """Each morsel runs in a copy of its caller's context, so two traces
    open at once on two threads never see each other's morsels."""
    db = sales_db(240)
    plan = compile_plan(GROUP_QUERY, db, tier="parallel")
    roots, errors = {}, []
    start = threading.Barrier(2)

    def run(i):
        try:
            start.wait()
            for _ in range(5):
                with trace.collect(f"run {i}") as root:
                    plan.execute()
                roots.setdefault(i, []).append(root)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not errors, errors
    for collected in roots.values():
        assert len(collected) == 5
        for root in collected:
            (execute,) = [c for c in root.children if c.name == "plan.execute"]
            morsels = [c for c in execute.children if c.name.startswith("morsel ")]
            assert sorted(c.attrs["morsel"] for c in morsels) == [0, 1, 2, 3]
            assert all(c.trace_id == root.trace_id for c in morsels)


def test_cleanup_racing_concurrent_runs_never_changes_an_answer():
    """``cleanup()`` may shut the pool under a running plan: its morsels
    are then refused or cancelled and the plan re-runs serially."""
    db = sales_db(240)
    want = compile_plan(GROUP_QUERY, db, tier="encoded").execute()
    plan = compile_plan(GROUP_QUERY, db, tier="parallel")
    results, errors = [], []

    def run():
        try:
            for _ in range(10):
                results.append(plan.execute())
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(3)]
    for t in threads:
        t.start()
    while any(t.is_alive() for t in threads):
        parallel.cleanup()
        time.sleep(0.001)
    assert not errors, errors
    assert len(results) == 30
    assert all(result == want for result in results)


@pytest.mark.parametrize("query", [GROUP_QUERY, Project(Table("R"), ("g",))],
                         ids=["group", "spju"])
def test_a_morsel_that_raises_reruns_the_plan_serially(query, monkeypatch):
    db = sales_db(240)
    want = compile_plan(query, db, tier="encoded").execute()
    exec_morsel = parallel._exec_morsel

    def failing(state, morsel_index, start, stop, deadline=None):
        if morsel_index == 1:
            raise RuntimeError("morsel 1 failed")
        return exec_morsel(state, morsel_index, start, stop, deadline)

    monkeypatch.setattr(parallel, "_exec_morsel", failing)
    before = tier_executions()
    plan = compile_plan(query, db, tier="parallel")
    assert plan.execute() == want
    assert plan._last_tier == (
        "encoded (parallel fallback: morsel: RuntimeError: morsel 1 failed)"
    )
    after = tier_executions()
    assert after["parallel"] == before["parallel"]
    assert after["encoded"] - before["encoded"] == 1
    # the plan runs on morsels again once they stop failing
    monkeypatch.setattr(parallel, "_exec_morsel", exec_morsel)
    assert plan.execute() == want
    assert plan._last_tier.startswith("parallel (")


def test_cleanup_mid_run_cancels_the_queued_morsels_and_reruns_serially(monkeypatch):
    """Morsel 0 shuts the pool while morsel 1 holds the other thread, so
    morsels 2 and 3 are still queued: they are cancelled, and the plan
    re-runs on the serial encoded tier."""
    db = sales_db()
    want = compile_plan(GROUP_QUERY, db, tier="encoded").execute()
    plan = compile_plan(GROUP_QUERY, db, tier="parallel")
    exec_morsel = parallel._exec_morsel
    released = threading.Event()

    def racing(state, morsel_index, start, stop, deadline=None):
        if morsel_index == 0:
            parallel.cleanup()
            released.set()
        elif morsel_index == 1:
            assert released.wait(10)
        return exec_morsel(state, morsel_index, start, stop, deadline)

    monkeypatch.setattr(parallel, "_exec_morsel", racing)
    assert plan.execute() == want
    assert plan._last_tier == "encoded (parallel fallback: morsel cancelled)"
    monkeypatch.setattr(parallel, "_exec_morsel", exec_morsel)
    assert plan.execute() == want
    assert plan._last_tier.startswith("parallel (")


def test_cleanup_shuts_the_pool_and_the_next_run_starts_one():
    db = sales_db()
    plan = compile_plan(GROUP_QUERY, db, tier="parallel")
    want = plan.execute()
    parallel.cleanup()
    assert parallel._POOLS == {}
    assert plan.execute() == want
    assert plan._last_tier.startswith("parallel (")


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------


def test_spent_deadline_raises_before_dispatch():
    db = sales_db()
    plan = compile_plan(GROUP_QUERY, db, tier="parallel")
    with pytest.raises(DeadlineExceeded):
        plan.execute(deadline=0.0)
    assert resilience_counters()["deadline_expiries"] == 1


def test_a_deadline_expiring_inside_a_morsel_is_not_a_fallback(monkeypatch):
    """Every other morsel error re-runs the plan serially; an expired
    deadline propagates, so the spent budget does not start the work
    again."""
    db = sales_db()
    plan = compile_plan(GROUP_QUERY, db, tier="parallel")
    exec_morsel = parallel._exec_morsel

    def expiring(state, morsel_index, start, stop, deadline=None):
        if morsel_index == 1:
            raise DeadlineExceeded("morsel 1 ran out of time")
        return exec_morsel(state, morsel_index, start, stop, deadline)

    monkeypatch.setattr(parallel, "_exec_morsel", expiring)
    before = tier_executions()
    with pytest.raises(DeadlineExceeded, match="morsel 1 ran out of time"):
        plan.execute()
    assert tier_executions() == before


def test_a_stalled_morsel_trips_the_deadline():
    """An injected stall at a morsel's start surfaces as DeadlineExceeded,
    never as a serial re-run."""
    db = sales_db()
    plan = compile_plan(GROUP_QUERY, db, tier="parallel")
    with faults.inject("latency", ms=600, seed=2):
        with pytest.raises(DeadlineExceeded):
            plan.execute(deadline=0.15)
    assert resilience_counters()["deadline_expiries"] >= 1
