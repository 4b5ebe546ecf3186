"""Incremental view maintenance: delta plans over the physical layer.

The paper frames annotations as the algebraic generalisation of the
Gupta–Mumick counting algorithm — this package is that payoff made
executable.  A :class:`MaterializedView` compiles a query's SPJU core
into *delta physical plans* (the classical delta rules, pushed through
:mod:`repro.plan` so they run as hash joins building on the tiny delta
side), and maintains aggregation heads **statefully**: each group keeps
its semimodule tensor and raw annotation total, and a delta patches only
the groups it touches — insertions via semiring ``+``, deletions via
``Z``-annotations that cancel or via token zeroing.

Entry points::

    from repro.ivm import MaterializedView

    view = MaterializedView.create(db, query)
    view.apply({"Emp": delta_rows})     # patches dirty groups, folds into db
    view.result()                       # == query.evaluate(db), maintained
    print(view.explain_delta())         # the physical delta plan

See ``docs/architecture.md`` ("The incremental layer") for the delta-rule
table, the one head state and the cache-versioning contract.
"""

from repro.ivm.delta import (
    DeltaPlan,
    compile_delta_plan,
    delta_prefix,
    delta_rewrite,
    new_rewrite,
    table_refs,
)
from repro.ivm.view import MaterializedView

__all__ = [
    "MaterializedView",
    "DeltaPlan",
    "compile_delta_plan",
    "delta_rewrite",
    "new_rewrite",
    "table_refs",
    "delta_prefix",
]
