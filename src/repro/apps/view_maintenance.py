"""The view delta of an SPJU query — the historical entry point over
:mod:`repro.ivm`.

This module was the original interpreted-only SPJU delta evaluator.  The
engine now lives in :mod:`repro.ivm`: compiled delta *physical* plans
(hash joins building on the delta side, columnar batches, n-ary semiring
kernels) and stateful aggregate heads maintained group-by-group.  One
entry point keeps its historical signature and semantics here:

``delta_evaluate(query, db, deltas)``
    the view delta of an SPJU query under base-relation insertions —
    still raises :class:`QueryError` for aggregate nodes, which need the
    stateful maintenance of :class:`repro.ivm.MaterializedView`.

To *maintain* a view use :class:`repro.ivm.MaterializedView` — it
maintains grouped/whole aggregates, supports deletions
(``Z``-annotations and token zeroing), circuit-backed annotations, and
``explain_delta()``.
"""

from __future__ import annotations

from typing import Dict

from repro.core.database import KDatabase
from repro.core.query import Query
from repro.core.relation import KRelation
from repro.ivm.delta import compile_delta_plan

__all__ = ["delta_evaluate"]


def delta_evaluate(
    query: Query, db: KDatabase, deltas: Dict[str, KRelation]
) -> KRelation:
    """The *delta* of an SPJU query under base-relation insertions.

    Returns ``Q(D + dD) - Q(D)`` as a K-relation computed by the delta
    rules (no subtraction involved: the positive algebra's deltas are
    positive).  Only SPJU nodes are supported — aggregates need stateful
    re-aggregation and are handled by :class:`repro.ivm.MaterializedView`.
    """
    plan = compile_delta_plan(query, db, deltas.keys(), engine="interpreted")
    return plan.execute(db, deltas)
