"""Unit tests for the deterministic fault-injection switchboard.

The chaos suite (``tests/chaos``) exercises the *recovery machinery*
under injected faults; this file pins the switchboard itself: arming and
disarming, firing budgets, seed determinism, the env-variable arming
path, and the resilience-counter ledger.
"""

import pytest

from repro import faults
from repro.obs.metrics import resilience_counters


@pytest.fixture(autouse=True)
def _clean_slate():
    """No armed spec or counter value leaks across tests."""
    with faults._LOCK:
        saved = list(faults._ACTIVE)
        faults._ACTIVE.clear()
    faults.reset_counters()
    yield
    with faults._LOCK:
        faults._ACTIVE[:] = saved
    faults.reset_counters()


# ---------------------------------------------------------------------------
# arming
# ---------------------------------------------------------------------------


def test_unknown_point_is_rejected():
    with pytest.raises(ValueError, match="unknown fault point"):
        faults.FaultSpec("segfault_everything")
    with pytest.raises(ValueError, match="times must be positive"):
        faults.FaultSpec("fsync_error", times=0)


def test_inject_arms_only_inside_the_block():
    assert faults.active("fsync_error") is None
    with faults.inject("fsync_error", seed=7) as spec:
        assert faults.active("fsync_error") is spec
        assert faults.active("wal_torn_tail") is None
    assert faults.active("fsync_error") is None


def test_budget_is_consumed_and_spec_reports_fired():
    with faults.inject("wal_torn_tail", times=2) as spec:
        assert faults.should_fire("wal_torn_tail") is not None
        assert spec.fired == 1
        assert faults.active("wal_torn_tail") is spec  # budget remains
        assert faults.should_fire("wal_torn_tail") is not None
        assert faults.should_fire("wal_torn_tail") is None  # spent
        assert faults.active("wal_torn_tail") is None
    assert resilience_counters()["faults_injected"] == 2


def test_nested_specs_for_one_point_fire_in_arming_order():
    with faults.inject("latency", ms=1) as outer:
        with faults.inject("latency", ms=2) as inner:
            faults.should_fire("latency")
            assert (outer.fired, inner.fired) == (1, 0)
            faults.should_fire("latency")
            assert (outer.fired, inner.fired) == (1, 1)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_rng_is_a_pure_function_of_seed_point_ordinal():
    def draws(seed):
        out = []
        with faults.inject("wal_corrupt_record", seed=seed, times=3):
            for _ in range(3):
                recipe = faults.should_fire("wal_corrupt_record")
                out.append(recipe["rng"].randrange(1 << 30))
        return out

    assert draws(42) == draws(42)
    assert draws(42) != draws(43)
    # distinct ordinals under one seed draw independently
    assert len(set(draws(42))) == 3


def test_site_context_selects_no_firing():
    # the first site to ask consumes the firing, whatever it names
    with faults.inject("latency", ms=0, times=2) as spec:
        assert faults.should_fire("latency", site="morsel") is not None
        assert faults.should_fire("latency", site="scan", table="R") is not None
        assert spec.fired == 2


# ---------------------------------------------------------------------------
# the latency site
# ---------------------------------------------------------------------------


def test_sleep_point_is_a_noop_when_disarmed():
    assert faults.sleep_point("latency", site="scan") == 0.0
    assert resilience_counters()["faults_injected"] == 0


def test_sleep_point_sleeps_the_requested_milliseconds():
    with faults.inject("latency", ms=5):
        slept = faults.sleep_point("latency", site="scan")
    assert slept == pytest.approx(0.005)


def test_sleep_point_caps_runaway_durations():
    with faults.inject("latency", ms=10_000_000) as spec:
        spec.params["ms"] = 0  # don't actually sleep; check the cap math only
        recipe = faults.should_fire("latency")
        assert recipe is not None
    assert min(float(10_000_000) / 1e3, faults.MAX_LATENCY_S) == faults.MAX_LATENCY_S


# ---------------------------------------------------------------------------
# env arming
# ---------------------------------------------------------------------------


def test_install_from_env_parses_the_documented_format():
    specs = faults.install_from_env("fsync_error:seed=7,latency:ms=50:times=3")
    try:
        assert [s.point for s in specs] == ["fsync_error", "latency"]
        assert specs[0].seed == 7 and specs[0].times == 1
        assert specs[1].params == {"ms": 50} and specs[1].times == 3
        assert faults.active("latency") is specs[1]
    finally:
        with faults._LOCK:
            for s in specs:
                faults._ACTIVE.remove(s)


def test_install_from_env_empty_and_blank_entries():
    assert faults.install_from_env("") == []
    assert faults.install_from_env(" , ,") == []


def test_install_from_env_rejects_unknown_points():
    with pytest.raises(ValueError, match="unknown fault point"):
        faults.install_from_env("meteor_strike:seed=1")


# ---------------------------------------------------------------------------
# the resilience ledger
# ---------------------------------------------------------------------------


def test_counters_cover_every_recovery_path_and_reset():
    ledger = resilience_counters()
    assert set(ledger) >= {
        "faults_injected",
        "deadline_expiries",
        "snapshot_rebuilds",
        "wal_torn_tails",
    }
    assert all(v == 0 for v in ledger.values())
    faults.bump("snapshot_rebuilds", 3)
    faults.bump("wal_torn_tails")
    assert resilience_counters()["snapshot_rebuilds"] == 3
    assert resilience_counters()["wal_torn_tails"] == 1
    faults.reset_counters()
    assert all(v == 0 for v in resilience_counters().values())
