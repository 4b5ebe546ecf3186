"""The chaos suite: exactness under every injected fault.

The resilience contract is absolute — recovery may cost wall-clock,
never an annotation.  Each test arms one fault class from
:mod:`repro.faults` across several seeds and compares the answer
bit-for-bit against the interpreter (the paper-faithful oracle that
shares no code with the tiers under test): a stalled morsel on the
parallel tier, a morsel that raises (the whole query re-runs on the
serial encoded tier), a deadline racing a stall, and a torn checkpoint.
The WAL's faults are in ``test_durability_chaos.py``.

The suite ends by auditing the morsel pool: after :func:`parallel.cleanup`
not one morsel thread may survive the stalls and failures above.

Run directly via ``make chaos``; the tier-1 suite collects it too.
"""

import contextlib
import threading
from unittest import mock

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
from repro.plan import compile_plan
from repro.plan import parallel
from repro.semirings import INT, NAT

SEEDS = [0, 1, 7]

ROWS = 240  # enough for 4+ non-trivial morsels at 2 workers


@pytest.fixture(autouse=True)
def _resilience_slate():
    faults.reset_counters()
    yield
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

#: the faults a morsel thread can meet: its kernel raising once its work
#: is done, and a stall at its start
WORKER_FAULTS = ["kernel_error", "latency"]


@contextlib.contextmanager
def armed(point, seed, times=1, **params):
    """Arm ``point``: a :mod:`repro.faults` point, or ``"kernel_error"`` —
    morsel ``seed % 2`` (every run has at least two) computes its partial
    result on its pool thread and then raises, so the serial re-run must
    drop the partials that did finish."""
    if point != "kernel_error":
        with faults.inject(point, seed=seed, times=times, **params):
            yield
        return
    exec_morsel = parallel._exec_morsel
    target = seed % 2

    def failing(state, morsel_index, start, stop, deadline=None):
        payload = exec_morsel(state, morsel_index, start, stop, deadline)
        if morsel_index == target:
            raise RuntimeError(f"kernel of morsel {target} failed")
        return payload

    with mock.patch.object(parallel, "_exec_morsel", failing):
        yield


def assert_exact(query, db, point, seed, times=1, **params):
    oracle = query.evaluate(db, engine="interpreted")
    plan = compile_plan(query, db, tier="parallel")
    with armed(point, seed, times=times, **params):
        assert plan.execute() == oracle, (
            f"fault {point!r} seed={seed} changed the answer"
        )
        if point == "kernel_error":
            assert "parallel fallback" in plan._last_tier
    # and the healed plan keeps answering exactly with nothing armed
    assert plan.execute() == oracle


# ---------------------------------------------------------------------------
# morsel chaos
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("point", WORKER_FAULTS)
def test_grouped_aggregate_survives_worker_faults(point, seed):
    assert_exact(GROUP_QUERY, chaos_db(), point, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("point", WORKER_FAULTS)
def test_spju_with_union_once_survives_worker_faults(point, seed):
    """The union-once seeding (the non-driver branch contributes to one
    morsel only) must hold whichever morsel stalls or fails."""
    assert_exact(SPJU_QUERY, chaos_db(), point, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("semiring", [NAT, INT], ids=lambda s: s.name)
def test_a_failing_morsel_degrades_serially_and_exactly(semiring, seed, monkeypatch):
    """Over Z the annotations mix signs, so cross-morsel merges cancel: the
    serial re-run after a failed morsel must count no morsel twice."""
    db = chaos_db(semiring)
    oracle = GROUP_QUERY.evaluate(db, engine="interpreted")
    plan = compile_plan(GROUP_QUERY, db, tier="parallel")
    exec_morsel = parallel._exec_morsel
    target = seed % 2  # every run has at least two morsels

    def failing(state, morsel_index, start, stop, deadline=None):
        if morsel_index == target:
            raise RuntimeError(f"morsel {target} failed")
        return exec_morsel(state, morsel_index, start, stop, deadline)

    monkeypatch.setattr(parallel, "_exec_morsel", failing)
    assert plan.execute() == oracle
    assert "parallel fallback" in plan._last_tier
    monkeypatch.setattr(parallel, "_exec_morsel", exec_morsel)
    assert plan.execute() == oracle
    assert plan._last_tier.startswith("parallel (")


# ---------------------------------------------------------------------------
# deadline chaos
# ---------------------------------------------------------------------------


def test_tight_deadline_under_latency_cancels_or_answers_exactly():
    """A racing deadline has exactly two legal outcomes: the exact answer
    in time, or DeadlineExceeded — never a partial or wrong result."""
    db = chaos_db()
    oracle = GROUP_QUERY.evaluate(db, engine="interpreted")
    for budget in (0.0, 0.05, 30.0):
        plan = compile_plan(GROUP_QUERY, db, tier="parallel")
        with faults.inject("latency", ms=80, times=2, seed=1):
            try:
                assert plan.execute(deadline=budget) == oracle
            except DeadlineExceeded:
                assert budget < 30.0  # the generous budget must never trip


# ---------------------------------------------------------------------------
# checkpoint chaos
# ---------------------------------------------------------------------------

VIEW_SQL = "SELECT g, SUM(v), COUNT(*) FROM R GROUP BY g"


@pytest.mark.parametrize("seed", range(6))
def test_a_torn_checkpoint_recovers_the_exact_relations_and_view(tmp_path, seed,
                                                                 typed_contents):
    """A checkpoint torn before its rename is skipped on recovery: the
    previous checkpoint plus the WAL tail give back every acknowledged
    row, and the registered view boots equal to evaluation."""
    from repro.serve.server import ProvenanceServer
    from repro.sql.compiler import compile_sql
    from repro.wal import DurabilityManager, list_checkpoints
    from repro.wal.manager import _load_checkpoint

    manager = DurabilityManager.open(tmp_path, initial_db=chaos_db(), fsync="always")
    manager.create_view("by_g", VIEW_SQL)
    manager.update({"R": KRelation.from_rows(NAT, ("g", "k", "v"), [(("g9", seed, 5), 2)])})
    with faults.inject("truncate_snapshot", seed=seed):
        torn = manager.checkpoint()
    manager.update({"R": KRelation.from_rows(NAT, ("g", "k", "v"), [(("g1", 1, seed), 1)])})
    acknowledged = typed_contents(manager.db)
    manager.close()
    (lsn, newest), *_ = list_checkpoints(tmp_path)
    assert newest == torn
    with pytest.raises(SnapshotCorrupt):
        _load_checkpoint(torn, lsn)

    recovered = DurabilityManager.open(tmp_path)
    try:
        assert obs_metrics.resilience_counters()["snapshot_rebuilds"] == 1
        assert recovered.recovery["checkpoints_skipped"] == 1
        assert recovered.recovery["checkpoint_lsn"] == 0  # the one before
        assert recovered.recovery["records_replayed"] == 3
        assert typed_contents(recovered.db) == acknowledged
        server = ProvenanceServer(recovered.db, durability=recovered)
        assert server.restore_views() == {"by_g": "rebuilt"}
        want = compile_sql(VIEW_SQL).evaluate(recovered.db, engine="interpreted")
        assert server._views["by_g"].view.result() == want
    finally:
        recovered.close()


# ---------------------------------------------------------------------------
# the thread audit — runs last, over everything the suite did above
# ---------------------------------------------------------------------------


def _morsel_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-morsel")]


def test_zzz_no_morsel_threads_outlive_cleanup():
    """After every stall and failure above, cleanup leaves no morsel
    thread running.  (Named to sort last in the file.)"""
    parallel.cleanup()
    for thread in _morsel_threads():
        thread.join(10)
    assert _morsel_threads() == []
