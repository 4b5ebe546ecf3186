"""NumPy, the optional accelerator behind the encoded and parallel tiers.

The contract, stated once: *NumPy is the optional accelerator that buys
the encoded and parallel tiers; without it every plan runs the object
tier and every answer is identical.*  The encoded tier
(:mod:`repro.plan.encoded`) stores column codes and machine-semiring
annotations in NumPy ``int64``/``float64``/``bool`` arrays and runs the
hot operators as ufunc kernels (``take``, ``argsort`` + ``reduceat``,
boolean masks); the parallel tier (:mod:`repro.plan.parallel`) ships
those arrays to workers through shared memory.  There is no second array
representation and no selector: this module is the one place NumPy is
imported, the other plan modules take :data:`np` from here, and
:func:`~repro.plan.compiler.compile_plan` reads :data:`HAVE_NUMPY` to
decide whether a database is encodable at all.
"""

from __future__ import annotations

from typing import Any, Tuple

try:  # optional accelerator — the engine is complete without it
    import numpy as np

    HAVE_NUMPY = True
except ImportError:
    np = None
    HAVE_NUMPY = False

__all__ = ["HAVE_NUMPY", "active_backend", "np", "reduce_by_key"]


def active_backend() -> str:
    """What runs the array kernels in this process: ``"numpy"``, or
    ``"none"`` when NumPy did not import and every plan runs the object
    tier.  A per-process constant (benchmarks stamp it into their
    environment record)."""
    return "numpy" if HAVE_NUMPY else "none"


def reduce_by_key(keys, values, ufunc) -> Tuple[Any, Any, Any]:
    """Group ``values`` by ``keys`` and reduce each group with ``ufunc``.

    The sort-based grouped reduction behind consolidation and grouped
    aggregation: one stable ``argsort`` over the integer keys, one
    ``ufunc.reduceat`` over the reordered values.  Returns
    ``(unique_keys, representative_positions, reductions)`` where
    ``representative_positions[i]`` is the index (into the *input* arrays)
    of the first row of group ``i`` — usable to gather per-group column
    values.  Groups appear in ascending key order.
    """
    n = len(keys)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=values.dtype)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    reductions = ufunc.reduceat(values[order], starts)
    return sorted_keys[starts], order[starts], reductions
