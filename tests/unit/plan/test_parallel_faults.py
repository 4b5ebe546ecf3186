"""Fault-injection tests for the parallel tier's recovery machinery.

Every recovery path in :mod:`repro.plan.parallel` is driven here by the
deterministic fault layer (:mod:`repro.faults`) and judged against one
oracle: the object-tier result.  Recovery that changes an annotation is
a bug, whatever it survived.

Covered: worker-crash redispatch (a genuinely SIGKILL-dead worker, via
``os._exit``), transient kernel errors, dropped and corrupted
shared-memory segments (checksum detection + republish), retry
exhaustion degrading to the serial encoded tier, the circuit breaker's
open/half-open/closed lifecycle, cooperative deadlines, and the
zero-leaked-segments guarantee after crashes.
"""

import threading

import pytest

pytest.importorskip("numpy")  # the parallel tier exists only with NumPy

from test_parallel import GROUP_QUERY, sales_db

from repro import faults
from repro.exceptions import DeadlineExceeded
from repro.obs.metrics import resilience_counters
from repro.plan import compile_plan, set_default_workers
from repro.plan import parallel


@pytest.fixture(autouse=True)
def _resilience_slate():
    """Breaker state and the counter ledger are process-global: every
    test starts closed/zeroed and leaves nothing armed behind."""
    parallel.reset_breaker()
    faults.reset_counters()
    set_default_workers(2)
    yield
    set_default_workers(None)
    parallel.reset_breaker()
    faults.reset_counters()


def parallel_plan(db):
    return compile_plan(GROUP_QUERY, db, tier="parallel")


def oracle(db):
    return compile_plan(GROUP_QUERY, db, tier="object").execute()


# ---------------------------------------------------------------------------
# worker crashes
# ---------------------------------------------------------------------------


def test_killed_worker_recovers_exactly():
    """One worker ``os._exit``\\ s mid-morsel (the real crash, not a mock):
    the parent redispatches the lost morsels and the merged result is
    bit-for-bit the serial answer."""
    db = sales_db()
    plan = parallel_plan(db)
    with faults.inject("kill_worker", seed=7):
        result = plan.execute()
    assert result == oracle(db)
    assert plan._last_tier.startswith("parallel (")
    ledger = resilience_counters()
    assert ledger["faults_injected"] == 1
    assert ledger["morsel_retries"] >= 1
    assert ledger["pool_rebuilds"] >= 1


def test_killed_worker_recovery_spawns_no_pool_on_the_query_thread(monkeypatch):
    """A worker kill must not put a pool respawn on the query's critical
    path: the lost morsels are salvaged in-process and the respawn is left
    to the ``repro-pool-warmup`` thread.  So from the moment the broken
    pool is dropped until ``execute()`` returns, ``_get_pool`` — the only
    place a pool is spawned — may be entered from that thread alone."""
    db = sales_db()
    plan = parallel_plan(db)
    get_pool = parallel._get_pool
    entered_after_kill = []

    def recording_get_pool(workers):
        if resilience_counters()["pool_rebuilds"]:
            entered_after_kill.append(threading.current_thread().name)
        return get_pool(workers)

    monkeypatch.setattr(parallel, "_get_pool", recording_get_pool)
    with faults.inject("kill_worker", seed=7):
        result = plan.execute()
    until_return = list(entered_after_kill)
    assert result == oracle(db)
    assert resilience_counters()["pool_rebuilds"] >= 1
    assert set(until_return) <= {"repro-pool-warmup"}


def test_transient_kernel_error_is_retried_not_fatal():
    db = sales_db()
    plan = parallel_plan(db)
    with faults.inject("kernel_error", seed=3):
        assert plan.execute() == oracle(db)
    assert plan._last_tier.startswith("parallel (")
    assert resilience_counters()["morsel_retries"] >= 1


def test_no_leaked_segments_after_a_worker_crash():
    """The shm-leak regression: kill a worker mid-job, then cleanup; no
    segment this process created may remain in /dev/shm."""
    parallel.cleanup()
    db = sales_db()
    plan = parallel_plan(db)
    with faults.inject("kill_worker", seed=1):
        assert plan.execute() == oracle(db)
    parallel.cleanup()
    assert parallel.live_segments() == []


# ---------------------------------------------------------------------------
# shared-memory integrity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("point", ["drop_shm", "corrupt_shm"])
def test_damaged_segment_is_detected_and_republished(point):
    """A dropped or byte-flipped segment must be *detected* (checksum /
    missing-file), republished from the in-process batches, and the
    query must still produce the exact answer."""
    parallel.cleanup()  # only this query's segments in the target set
    db = sales_db()
    plan = parallel_plan(db)
    with faults.inject(point, seed=5):
        assert plan.execute() == oracle(db)
    assert plan._last_tier.startswith("parallel (")
    ledger = resilience_counters()
    assert ledger["faults_injected"] == 1
    assert ledger["shm_integrity_failures"] >= 1


# ---------------------------------------------------------------------------
# retry exhaustion + the circuit breaker
# ---------------------------------------------------------------------------


def test_exhausted_retries_degrade_to_the_serial_tier():
    """A morsel that fails on every redispatch exhausts the retry budget:
    the query still answers — exactly — through the serial encoded tier."""
    db = sales_db()
    plan = parallel_plan(db)
    with faults.inject("kernel_error", morsel=1, times=10):
        assert plan.execute() == oracle(db)
    assert "parallel fallback" in plan._last_tier
    ledger = resilience_counters()
    assert ledger["parallel_exhausted"] == 1
    assert ledger["morsel_retries"] >= parallel.PARALLEL_MAX_RETRIES
    assert parallel.breaker_state()["failures"] == 1


def test_breaker_opens_after_repeated_crash_degradations(monkeypatch):
    monkeypatch.setattr(parallel, "BREAKER_THRESHOLD", 1)
    db = sales_db()
    plan = parallel_plan(db)
    with faults.inject("kernel_error", morsel=1, times=10):
        assert plan.execute() == oracle(db)
    state = parallel.breaker_state()
    assert state["state"] == "open"
    assert state["cooldown_remaining"] > 0
    assert resilience_counters()["breaker_trips"] == 1
    blocking = parallel.breaker_blocking()
    assert blocking is not None and "circuit breaker open" in blocking

    # while open: the tier is pinned serial (no doomed dispatch), results
    # stay exact, and EXPLAIN reports the degradation honestly
    degraded = parallel_plan(db)
    assert "parallel: degraded — circuit breaker open" in degraded.explain()
    assert degraded.execute() == oracle(db)
    assert "parallel fallback" in degraded._last_tier

    parallel.reset_breaker()
    assert parallel.breaker_state() == {
        "state": "closed",
        "failures": 0,
        "cooldown_remaining": 0.0,
    }


def test_breaker_half_open_trial_closes_on_success(monkeypatch):
    monkeypatch.setattr(parallel, "BREAKER_THRESHOLD", 1)
    monkeypatch.setattr(parallel, "BREAKER_COOLDOWN_S", 0.0)
    db = sales_db()
    with faults.inject("kernel_error", morsel=1, times=10):
        assert parallel_plan(db).execute() == oracle(db)
    assert parallel.breaker_state()["state"] == "half-open"  # cooled down
    # the half-open trial runs clean and closes the breaker
    plan = parallel_plan(db)
    assert plan.execute() == oracle(db)
    assert plan._last_tier.startswith("parallel (")
    assert parallel.breaker_state()["state"] == "closed"


# ---------------------------------------------------------------------------
# deadlines in the parallel tier
# ---------------------------------------------------------------------------


def test_spent_deadline_raises_before_dispatch_and_skips_the_breaker():
    db = sales_db()
    plan = compile_plan(GROUP_QUERY, db, tier="parallel", deadline=0.0)
    with pytest.raises(DeadlineExceeded):
        plan.execute()
    # expiry is not a crash: the breaker must not count it
    assert parallel.breaker_state() == {
        "state": "closed",
        "failures": 0,
        "cooldown_remaining": 0.0,
    }
    assert resilience_counters()["deadline_expiries"] == 1


def test_worker_side_stall_trips_the_deadline():
    """An injected stall inside one worker's morsel must surface as
    DeadlineExceeded in the parent — cooperative cancellation crosses the
    process boundary — and never as a retried/fallback success."""
    db = sales_db()
    plan = compile_plan(GROUP_QUERY, db, tier="parallel", deadline=0.15)
    with faults.inject("latency", ms=600, seed=2):
        with pytest.raises(DeadlineExceeded):
            plan.execute()
    assert resilience_counters()["deadline_expiries"] >= 1
