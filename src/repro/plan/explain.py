"""The EXPLAIN surface.

``explain(query, db)`` renders the physical plan the planned engine would
run — one line per operator with its cardinality estimate, children
indented beneath their parent::

    plan for: GB[Dept; SUM(Sal)]((Emp ⋈ σ[Region = EU](Dept)))
    GroupedAggregate[Dept; SUM(Sal)]  [est_rows=25]
    └─ HashJoin natural on (Dept) build=right  [est_rows=4]
       ├─ Scan Emp  [est_rows=100]
       └─ Fused[σ[Region = EU]]  [est_rows=4]
          └─ Scan Dept  [est_rows=12]

Reading guide: selections appear *below* joins when the rewriter pushed
them down; ``build=left/right`` names the side the hash table is built on
(always the smaller estimate); ``Fused[...]`` lists the σ/Π/ρ/δ stages
executed in one pipeline over a single batch.
"""

from __future__ import annotations

from repro.core.query import Query
from repro.plan.compiler import compile_plan

__all__ = ["explain"]


def explain(
    query: Query,
    db,
    *,
    rewrite: bool = True,
    annotations: str = "expanded",
    tier: "str | None" = None,
) -> str:
    """Compile ``query`` against ``db`` and render the chosen plan.

    ``annotations`` mirrors ``Query.evaluate``: pass ``"circuit"`` to see
    the plan the circuit-backed execution would run — the same operator
    tree over shared gates, on the tier that runs them (encoded: gate
    ids).  ``tier`` mirrors :func:`compile_plan` — pass ``"parallel"`` to
    see the sharding decision (``parallel:`` line), which only that tier
    makes.
    """
    return compile_plan(
        query, db, rewrite=rewrite, tier=tier, annotations=annotations
    ).explain()
