"""Unit tests for the morsel-driven parallel tier.

The property suite (``tests/property/test_parallel_tier.py``) certifies
semantic equivalence over random workloads; this file pins the plumbing:
the tier is only ever selected on request, EXPLAIN reporting (sharding
decision and honest fallback reasons), the aggregated int64
reduction-bound guard, and per-tier execution counters.
"""

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
from repro.exceptions import QueryError
from repro.monoids import SUM
from repro.obs.metrics import tier_executions
from repro.plan import (
    ParallelFallback,
    compile_plan,
    effective_workers,
    set_default_workers,
)
from repro.plan import parallel
from repro.plan.encoded import _INT64_MAX
from repro.semirings import NAT, NX


@pytest.fixture(autouse=True)
def _restore_workers():
    yield
    set_default_workers(None)


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
    # however big the largest scan and however many workers are configured
    set_default_workers(2)
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


def test_worker_count_env_override(monkeypatch):
    set_default_workers(None)
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "3")
    assert effective_workers() == 3
    set_default_workers(7)
    assert effective_workers() == 7


# ---------------------------------------------------------------------------
# execution + EXPLAIN
# ---------------------------------------------------------------------------


def test_parallel_execution_matches_serial_and_reports_in_explain():
    set_default_workers(2)
    db = sales_db()
    plan = compile_plan(GROUP_QUERY, db, tier="parallel")
    rendered = plan.explain()
    assert "tier: parallel" in rendered
    assert "parallel: 2 workers × 4 morsels (driver: Scan R" in rendered
    assert plan.execute() == compile_plan(GROUP_QUERY, db, tier="object").execute()
    assert plan._last_tier.startswith("parallel (2 workers × 4 morsels")


def test_unparallelizable_query_falls_back_with_reason():
    set_default_workers(2)
    db = sales_db()
    query = Distinct(Table("R"))  # δ on the driver path is non-linear
    plan = compile_plan(query, db, tier="parallel")
    assert "parallel: unavailable" in plan.explain()
    assert plan.execute() == query.evaluate(db)
    assert "parallel fallback" in plan._last_tier


def test_self_union_replicated_side_counts_once():
    """Σ_m (A_m ∪ B) would add B once *per morsel*; the ``once`` scan
    mode must keep the non-driver union side single-counted."""
    set_default_workers(2)
    db = sales_db()
    query = Union(
        Project(Select(Table("R"), [AttrEq("g", "g0")]), ("g",)),
        Project(Table("R"), ("g",)),
    )
    plan = compile_plan(query, db, tier="parallel")
    assert plan.execute() == query.evaluate(db)
    assert plan._last_tier.startswith("parallel (")


def test_tier_counters_track_executions():
    set_default_workers(2)
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
