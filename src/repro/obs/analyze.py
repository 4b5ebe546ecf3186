"""EXPLAIN ANALYZE: run a query under tracing and render what happened.

``explain()`` shows the plan the compiler *picked*; :func:`explain_analyze`
runs the query inside a trace collector and renders the span tree —
per-operator wall/CPU time, rows produced, annotation-array bytes, the
tier that actually executed, morsel fan-out, and any fallback cause —
underneath the plan text.  The HTTP face is ``POST /query`` with
``{"analyze": true}`` (see :mod:`repro.serve`).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.obs import trace

__all__ = ["analyze_query", "explain_analyze"]


def analyze_query(
    query,
    db,
    *,
    engine: str = "planned",
    tier: Optional[str] = None,
    mode: str = "standard",
    annotations: str = "expanded",
    deadline=None,
    trace_id: Optional[str] = None,
) -> Tuple[Any, Any, Any]:
    """Run ``query`` under a trace collector.

    Returns ``(result, root_span, plan)`` where ``plan`` is the executed
    :class:`~repro.plan.compiler.PhysicalPlan` (None for the interpreted
    engine, which has no physical plan).  ``tier`` pins the execution
    tier exactly as :func:`repro.plan.compile_plan` does, on a plan
    compiled for this run; without it the query's cached plan runs, the
    one ``Query.evaluate`` runs (warm, as a served query is); ``engine`` and
    the remaining keywords mirror :meth:`repro.core.query.Query.evaluate`.
    """
    if engine == "interpreted":
        with trace.collect("query", trace_id=trace_id,
                           engine="interpreted") as root:
            with trace.span("interpret", mode=mode, annotations=annotations):
                result = query.evaluate(
                    db, mode=mode, engine="interpreted",
                    annotations=annotations, deadline=deadline,
                )
            root.attrs["rows_out"] = len(result)
        return result, root, None
    if engine != "planned":
        raise ValueError(f"unknown engine {engine!r}")
    # imported lazily: repro.plan imports repro.obs.metrics at module
    # load, so an eager import here would be a cycle
    from repro.plan.compiler import compile_plan

    if tier is None:
        plan = query._cached_plan(db, annotations)
    else:
        plan = compile_plan(query, db, tier=tier, annotations=annotations)
    with trace.collect("query", trace_id=trace_id, engine="planned") as root:
        result = plan.execute(db, deadline=deadline)
        root.attrs["rows_out"] = len(result)
        root.attrs["tier"] = plan._last_tier
    return result, root, plan


def explain_analyze(
    query,
    db,
    *,
    engine: str = "planned",
    tier: Optional[str] = None,
    mode: str = "standard",
    annotations: str = "expanded",
    deadline=None,
    trace_id: Optional[str] = None,
) -> str:
    """Execute ``query`` and render plan text plus the measured span tree."""
    result, root, plan = analyze_query(
        query, db, engine=engine, tier=tier, mode=mode,
        annotations=annotations, deadline=deadline, trace_id=trace_id,
    )
    del result  # executed for its trace; the caller re-runs for data
    parts = []
    if plan is not None:
        parts.append(plan.explain())
    else:
        parts.append(f"plan for: {query}\nengine: interpreted (no physical plan)")
    parts.append(f"analyze (trace {root.trace_id}):")
    parts.append(trace.render(root))
    return "\n\n".join(parts[:1] + ["\n".join(parts[1:])])
