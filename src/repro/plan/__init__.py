"""Physical planning and vectorized execution.

The logical layer (:mod:`repro.core`) defines *what* an annotated query
means — the paper's semantics, one tree-walking interpreter, one
dict-backed relation representation.  This package defines *how* to run it
fast without changing a single annotation:

* :func:`compile_plan` — ``Query`` → :class:`PhysicalPlan`, reusing the
  provenance-preserving rewrites of :mod:`repro.core.rewrites` for
  selection pushdown, then picking physical operators (hash joins with
  cached build sides on the smaller input, fused select-project pipelines,
  grouped aggregation without intermediate relations);
* :class:`ColumnarKRelation` — the column-wise batch representation
  physical operators exchange, avoiding per-tuple ``Tup`` construction on
  hot paths;
* :func:`explain` — render the chosen plan with cardinality estimates.

Entry point for users: ``query.evaluate(db, engine="planned")`` — see
``docs/architecture.md``.
"""

from repro.plan.columnar import ColumnarKRelation
from repro.plan.compiler import PhysicalPlan, compile_plan
from repro.plan.encoded import EncodedBatch, encoded_scan
from repro.plan.explain import explain
from repro.plan.kernels import active_backend
from repro.plan.parallel import ParallelFallback, effective_workers

__all__ = [
    "ColumnarKRelation",
    "EncodedBatch",
    "encoded_scan",
    "PhysicalPlan",
    "compile_plan",
    "explain",
    "active_backend",
    "ParallelFallback",
    "effective_workers",
]
