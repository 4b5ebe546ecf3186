"""Unit tests for cooperative query deadlines.

The integration picture (HTTP 408, worker-side morsel checks) lives in
the serve and chaos suites; this file pins the :class:`Deadline` object
itself and the engine entry points that thread it: a per-call
``PhysicalPlan.execute(deadline=)`` and ``Query.evaluate(deadline=)`` in
both annotation representations.
"""

import time

import pytest

from repro import faults
from repro.core import GroupBy, KDatabase, KRelation, NaturalJoin, Table
from repro.deadline import Deadline
from repro.exceptions import DeadlineExceeded
from repro.monoids import SUM
from repro.obs.metrics import resilience_counters
from repro.plan import compile_plan
from repro.semirings import NAT, NX


@pytest.fixture(autouse=True)
def _reset_counters():
    faults.reset_counters()
    yield
    faults.reset_counters()


def small_db():
    r = KRelation.from_rows(
        NAT, ("g", "v"), [((f"g{i % 3}", i), 1) for i in range(12)]
    )
    s = KRelation.from_rows(NAT, ("g",), [((f"g{i}",), 1) for i in range(3)])
    return KDatabase(NAT, {"R": r, "S": s})


QUERY = GroupBy(NaturalJoin(Table("R"), Table("S")), ["g"], {"v": SUM})


# ---------------------------------------------------------------------------
# the Deadline object
# ---------------------------------------------------------------------------


def test_after_rejects_negative_budgets():
    with pytest.raises(ValueError, match="non-negative"):
        Deadline.after(-1)


def test_after_rejects_nan_and_accepts_an_unbounded_budget():
    with pytest.raises(ValueError, match="nan"):
        Deadline.after(float("nan"))
    unbounded = Deadline.after(float("inf"))
    assert not unbounded.expired()
    unbounded.check()


def test_remaining_and_expired_track_the_monotonic_clock():
    d = Deadline.after(60)
    assert not d.expired()
    assert 59 < d.remaining() <= 60
    spent = Deadline.after(0)
    assert spent.expired()
    assert spent.remaining() <= 0


def test_check_is_silent_before_expiry_and_raises_after():
    Deadline.after(60).check("anywhere")
    with pytest.raises(DeadlineExceeded, match="0.000s budget at join build"):
        Deadline.after(0).check("join build")


def test_expiry_counter_bumps_exactly_once_per_deadline():
    d = Deadline.after(0)
    for _ in range(3):
        with pytest.raises(DeadlineExceeded):
            d.check()
    assert resilience_counters()["deadline_expiries"] == 1
    with pytest.raises(DeadlineExceeded):
        Deadline.after(0).check()
    assert resilience_counters()["deadline_expiries"] == 2


# ---------------------------------------------------------------------------
# threading through the engine
# ---------------------------------------------------------------------------


def test_a_per_call_budget_starts_a_fresh_deadline_each_execute():
    db = small_db()
    plan = compile_plan(QUERY, db)
    for _ in range(2):  # bare numbers coerce to a fresh Deadline per call
        with pytest.raises(DeadlineExceeded):
            plan.execute(deadline=0.0)
    assert resilience_counters()["deadline_expiries"] == 2
    assert plan.execute() == QUERY.evaluate(db)  # no call, no budget


def test_a_negative_per_call_budget_is_rejected():
    plan = compile_plan(QUERY, small_db())
    with pytest.raises(ValueError, match="non-negative"):
        plan.execute(deadline=-0.5)


def test_generous_deadline_does_not_change_results():
    db = small_db()
    plan = compile_plan(QUERY, db)
    assert plan.execute(deadline=30.0) == QUERY.evaluate(db)


def test_query_evaluate_threads_deadlines_through_every_engine():
    db = small_db()
    for engine in ("planned", "interpreted"):
        with pytest.raises(DeadlineExceeded):
            QUERY.evaluate(db, engine=engine, deadline=0)
        assert QUERY.evaluate(db, engine=engine, deadline=30) == QUERY.evaluate(db)


def test_injected_scan_latency_trips_a_tight_deadline():
    """The serial tier's per-operator checkpoints actually cancel work:
    a 60 ms injected scan stall must trip a 10 ms budget."""
    db = small_db()
    plan = compile_plan(QUERY, db, tier="encoded")
    start = time.monotonic()
    with faults.inject("latency", ms=60, times=10):
        with pytest.raises(DeadlineExceeded):
            plan.execute(deadline=0.01)
    # cancelled at the first checkpoint after the stall, not after all 10
    assert time.monotonic() - start < 0.5
    assert resilience_counters()["deadline_expiries"] == 1


# ---------------------------------------------------------------------------
# both annotation representations
# ---------------------------------------------------------------------------


def small_nx_db():
    r = KRelation.from_rows(
        NX, ("g", "v"), [((f"g{i % 3}", i), NX.variable(f"r{i}")) for i in range(12)]
    )
    s = KRelation.from_rows(NX, ("g",), [((f"g{i}",), NX.variable(f"s{i}")) for i in range(3)])
    return KDatabase(NX, {"R": r, "S": s})


class CountingDeadline(Deadline):
    """A deadline that never expires and records where it was checked."""

    def __init__(self):
        super().__init__(float("inf"))
        self.contexts = []

    def check(self, context=""):
        self.contexts.append(context)
        super().check(context)


def operator_labels(plan):
    labels, stack = [], [plan.root]
    while stack:
        op = stack.pop()
        labels.append(op.label())
        stack.extend(op.children)
    return labels


@pytest.mark.parametrize("annotations", ["expanded", "circuit"])
def test_every_operator_checks_the_deadline_in_both_representations(annotations):
    db = small_nx_db()
    deadline = CountingDeadline()
    result = QUERY.evaluate(db, engine="planned", annotations=annotations, deadline=deadline)
    plan = QUERY._cached_plan(db, annotations)
    if annotations == "circuit":
        result = result.lower()
    assert result == QUERY.evaluate(db)
    labels = operator_labels(plan)
    assert len(labels) >= 3  # two scans, a join, a grouped aggregate
    for label in labels:  # on entry and on exit
        assert deadline.contexts.count(label) >= 2, (label, deadline.contexts)


@pytest.mark.parametrize("annotations", ["expanded", "circuit"])
def test_a_deadline_expiring_mid_plan_stops_the_plan(annotations):
    """The first scan's stall spends the budget; its exit checkpoint
    cancels the plan before the second scan runs."""
    db = small_nx_db()
    QUERY.evaluate(db, engine="planned", annotations=annotations)  # compile, lift
    with faults.inject("latency", ms=40, times=10) as stall:
        with pytest.raises(DeadlineExceeded) as raised:
            QUERY.evaluate(db, engine="planned", annotations=annotations, deadline=0.01)
    assert stall.fired == 1
    assert "query end" not in str(raised.value)
