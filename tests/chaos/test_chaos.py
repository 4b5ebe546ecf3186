"""The chaos suite: exactness under every injected fault.

The resilience contract is absolute — recovery may cost wall-clock,
never an annotation.  Each test arms one fault class from
:mod:`repro.faults` across several seeds, forces the parallel tier, and
compares the recovered answer bit-for-bit against the interpreter (the
paper-faithful oracle that shares no code with the tiers under test).
Workers map checksummed shared-memory segments, so the shm faults
(dropped and byte-flipped segments) run against the real transport.

The suite ends by auditing ``/dev/shm``: after :func:`parallel.cleanup`
not one segment this process created may survive, *including* those
whose jobs died mid-flight.

Run directly via ``make chaos``; the tier-1 suite collects it too.
"""

import pytest

pytest.importorskip("numpy")  # the parallel tier exists only with NumPy

from repro import faults
from repro.obs import metrics as obs_metrics
from repro.core import (
    AttrEq,
    GroupBy,
    KDatabase,
    KRelation,
    NaturalJoin,
    Project,
    Select,
    Table,
    Union,
)
from repro.exceptions import DeadlineExceeded, SnapshotCorrupt
from repro.monoids import MAX, SUM
from repro.plan import compile_plan, set_default_workers
from repro.plan import parallel
from repro.semirings import INT, NAT

SEEDS = [0, 1, 7]

ROWS = 240  # enough for 4+ non-trivial morsels at 2 workers


@pytest.fixture(autouse=True)
def _resilience_slate():
    parallel.reset_breaker()
    faults.reset_counters()
    set_default_workers(2)
    yield
    set_default_workers(None)
    parallel.reset_breaker()
    faults.reset_counters()


def chaos_db(semiring=NAT):
    # over Z the annotations mix signs, so cross-morsel merges cancel
    lift = (lambda k: k) if semiring is NAT else (lambda k: 2 * k - 5)
    r = KRelation.from_rows(
        semiring,
        ("g", "k", "v"),
        [((f"g{i % 8}", i % 11, i % 23), lift(1 + i % 4)) for i in range(ROWS)],
    )
    s = KRelation.from_rows(
        semiring, ("g", "w"), [((f"g{i}", i * 10), lift(2)) for i in range(6)]
    )
    return KDatabase(semiring, {"R": r, "S": s})


GROUP_QUERY = GroupBy(
    NaturalJoin(Table("R"), Table("S")),
    ["g"],
    {"v": SUM, "w": MAX},
    count_attr="n",
)

SPJU_QUERY = Union(
    Project(Select(NaturalJoin(Table("R"), Table("S")), [AttrEq("g", "g1")]), ("g", "k")),
    Project(Table("R"), ("g", "k")),
)

WORKER_FAULTS = ["kill_worker", "kernel_error", "latency"]
SHM_FAULTS = ["drop_shm", "corrupt_shm"]


def assert_exact(query, db, point, seed, times=1, **params):
    oracle = query.evaluate(db, engine="interpreted")
    plan = compile_plan(query, db, tier="parallel")
    with faults.inject(point, seed=seed, times=times, **params):
        assert plan.execute() == oracle, (
            f"fault {point!r} seed={seed} changed the answer"
        )
    # and the healed plan keeps answering exactly with nothing armed
    assert plan.execute() == oracle


# ---------------------------------------------------------------------------
# worker-side chaos
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("point", WORKER_FAULTS)
def test_grouped_aggregate_survives_worker_faults(point, seed):
    assert_exact(GROUP_QUERY, chaos_db(), point, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("point", WORKER_FAULTS)
def test_spju_with_union_once_survives_worker_faults(point, seed):
    """The union-once seeding (non-driver branch contributes exactly one
    morsel) must survive that morsel's worker dying and being retried."""
    assert_exact(SPJU_QUERY, chaos_db(), point, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_signed_cancellation_survives_a_kill(seed):
    """Over Z, cross-morsel merges cancel annotations to zero; a retried
    morsel must not double-count its contribution."""
    assert_exact(GROUP_QUERY, chaos_db(INT), "kill_worker", seed)


def test_double_fault_kill_then_kernel_error():
    db = chaos_db()
    oracle = GROUP_QUERY.evaluate(db, engine="interpreted")
    plan = compile_plan(GROUP_QUERY, db, tier="parallel")
    with faults.inject("kill_worker", seed=3):
        with faults.inject("kernel_error", seed=5):
            assert plan.execute() == oracle
    assert obs_metrics.resilience_counters()["faults_injected"] == 2


# ---------------------------------------------------------------------------
# shared-memory chaos
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("point", SHM_FAULTS)
def test_damaged_segments_never_damage_answers(point, seed):
    parallel.cleanup()
    assert_exact(GROUP_QUERY, chaos_db(), point, seed)
    assert obs_metrics.resilience_counters()["shm_integrity_failures"] >= 1


# ---------------------------------------------------------------------------
# exhaustion + deadline chaos
# ---------------------------------------------------------------------------


def test_exhaustion_degrades_serially_and_exactly():
    db = chaos_db()
    oracle = GROUP_QUERY.evaluate(db, engine="interpreted")
    plan = compile_plan(GROUP_QUERY, db, tier="parallel")
    with faults.inject("kernel_error", morsel=0, times=50):
        assert plan.execute() == oracle
    assert "parallel fallback" in plan._last_tier
    assert obs_metrics.resilience_counters()["parallel_exhausted"] == 1


def test_tight_deadline_under_latency_cancels_or_answers_exactly():
    """A racing deadline has exactly two legal outcomes: the exact answer
    in time, or DeadlineExceeded — never a partial or wrong result."""
    db = chaos_db()
    oracle = GROUP_QUERY.evaluate(db, engine="interpreted")
    for budget in (0.0, 0.05, 30.0):
        plan = compile_plan(GROUP_QUERY, db, tier="parallel", deadline=budget)
        with faults.inject("latency", ms=80, times=2, seed=1):
            try:
                assert plan.execute() == oracle
            except DeadlineExceeded:
                assert budget < 30.0  # the generous budget must never trip


# ---------------------------------------------------------------------------
# snapshot chaos
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_torn_snapshots_rebuild_to_the_exact_view(tmp_path, seed):
    from repro.ivm import MaterializedView, load_view, save_view

    db = chaos_db()
    view = MaterializedView.create(db, GROUP_QUERY)
    path = tmp_path / f"chaos-{seed}.snap"
    with faults.inject("truncate_snapshot", seed=seed):
        save_view(view, path)
    with pytest.raises(SnapshotCorrupt):
        from repro.io.serialize import load_file

        load_file(path)
    restored = load_view(db, GROUP_QUERY, path)
    assert restored.result() == GROUP_QUERY.evaluate(db)
    assert obs_metrics.resilience_counters()["snapshot_rebuilds"] == 1


# ---------------------------------------------------------------------------
# the leak audit — runs last, over everything the suite did above
# ---------------------------------------------------------------------------


def test_zzz_no_shm_segments_leak_after_cleanup():
    """After every crash, corruption and republish above: cleanup leaves
    zero segments of ours in /dev/shm.  (Named to sort last in the file.)"""
    parallel.cleanup()
    assert parallel.live_segments() == []
