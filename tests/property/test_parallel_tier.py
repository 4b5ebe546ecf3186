"""Property suite: the parallel tier computes every serial tier's results.

Randomized SPJUA workloads over every machine semiring (the shared
generator in :mod:`strategies`) are evaluated a fourth way — forced
through ``compile_plan(..., tier="parallel")`` — and compared against
the interpreter, the object tier and the serial encoded tier, across
worker counts {1, 2, 4}.  The parallel tier must be *invisible*
semantically: whether a query shards cleanly, hits the union-once path,
or cannot shard at all (δ on the driver, operators outside the morsel
fragment) and falls back to serial execution, the annotated result is
identical.

A separate property injects annotations outside the machine dtype
(``1 << 40`` in ``N``): encoding disqualifies at scan time, the parallel
run reports :class:`~repro.plan.parallel.ParallelFallback`, and the
whole query degrades through serial encoded to the object path — still
bit-for-bit equal to the interpreter.
"""

from unittest import mock

import pytest

pytest.importorskip("numpy")  # the parallel tier exists only with NumPy

from hypothesis import given, settings, strategies as st

from repro.core import Query, Table
from repro.plan import compile_plan, parallel
from repro.semirings import NAT

from strategies import POOLS, database, query

WORKER_COUNTS = [1, 2, 4]


def _scanned_tables(node):
    if isinstance(node, Table):
        yield node.name
    for value in vars(node).values():
        if isinstance(value, Query):
            yield from _scanned_tables(value)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parallel_tier_equals_interpreter_and_serial_tiers(data):
    semiring = data.draw(st.sampled_from(list(POOLS)), label="semiring")
    db, _tokens = data.draw(database(semiring), label="db")
    q = data.draw(query(semiring), label="query")
    workers = data.draw(st.sampled_from(WORKER_COUNTS))
    with mock.patch.object(parallel, "effective_workers", lambda: workers):
        interpreted = q.evaluate(db, engine="interpreted")
        assert compile_plan(q, db, tier="object").execute() == interpreted
        assert compile_plan(q, db).execute() == interpreted
        parallel_plan = compile_plan(q, db, tier="parallel")
        assert parallel_plan.execute() == interpreted
        # and again: the cached morsel job must not leak state between
        # executions of a prepared plan
        assert parallel_plan.execute() == interpreted


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_oversized_annotations_degrade_through_every_fallback(data):
    """Annotations outside the machine dtype disqualify encoding at scan
    time: the parallel run falls back to serial encoded, which falls back
    to the object path — transparently."""
    db, _tokens = data.draw(database(NAT, [1, 2, 1 << 40]), label="db")
    q = data.draw(query(NAT), label="query")
    plan = compile_plan(q, db, tier="parallel")
    assert plan.execute() == q.evaluate(db)
    oversized_scanned = any(
        ann >= (1 << 32)
        for name in set(_scanned_tables(q))
        for _tup, ann in db.relation(name).items()
    )
    if oversized_scanned:
        assert not plan._last_tier.startswith("parallel (")
