"""NumPy, the optional accelerator behind the encoded and parallel tiers.

The contract, stated once: *NumPy is the optional accelerator that buys
the encoded and parallel tiers; without it every plan runs the object
tier and every answer is identical.*  The encoded tier
(:mod:`repro.plan.encoded`) stores column codes and machine-semiring
annotations in NumPy ``int64``/``float64``/``bool`` arrays and runs the
hot operators as ufunc kernels.  Codes are dense, so a combined key is an
address: while the key space is within :func:`direct` of the row count,
grouped reductions scatter (``ufunc.at``) and join probes index a slot
table; a sparser space sorts (``argsort`` + ``reduceat``,
``searchsorted``).  The parallel tier (:mod:`repro.plan.parallel`) runs
the same kernels over slices of those arrays on threads.  There is no
second array representation and no selector: this module is the one
place NumPy is imported, the other plan modules take :data:`np` from
here, and :func:`~repro.plan.compiler.compile_plan` reads
:data:`HAVE_NUMPY` to decide whether a database is encodable at all.
"""

from __future__ import annotations

import sys
from typing import Any, Tuple

from repro.semirings import base as _base
from repro.semirings.interning import run_starts

try:  # optional accelerator — the engine is complete without it
    import numpy as np

    HAVE_NUMPY = True
except ImportError:
    np = None
    HAVE_NUMPY = False

# the semiring layer's array kernels take NumPy from this module
_base.accelerator = sys.modules[__name__]

__all__ = ["HAVE_NUMPY", "active_backend", "direct", "marks_itself", "np", "reduce_by_key"]


def active_backend() -> str:
    """What runs the array kernels in this process: ``"numpy"``, or
    ``"none"`` when NumPy did not import and every plan runs the object
    tier.  A per-process constant (benchmarks stamp it into their
    environment record)."""
    return "numpy" if HAVE_NUMPY else "none"


def direct(space: int, rows: int) -> bool:
    """Is a key space of ``space`` codes dense enough over ``rows`` rows to
    be addressed directly (an accumulator / slot table of ``space``
    entries) instead of sorted?  The one bound, shared by
    :func:`reduce_by_key` and the join probe.  Measured at 204 800 rows of
    unordered keys (NumPy 2.4.6): the scatter costs 2.5 / 2.9 / 13 / 35 ms
    at a space of 1x / 4x / 16x / 64x the rows against a flat ~23 ms sort,
    so it wins past 16x; 4x keeps a margin (already-ordered keys sort in
    ~0.2 ms), and the constant lets small inputs over a shared large
    dictionary through.  Into 1 024 keys the ``add.at`` and the presence
    scatter take ~0.26 ms each, a stable ``argsort`` ~15 ms.
    """
    return space <= 4 * rows + 1024


def marks_itself(values, ufunc, identity) -> bool:
    """Do the ``ufunc`` sums of ``values`` show which keys are present (no
    group can reduce to ``identity``)?  So for ``add`` over values all
    ``> 0`` (``N``: one ``min`` pass checks it) and ``or`` over all ``True``."""
    return ((ufunc is np.add or ufunc is np.logical_or) and identity == 0
            and len(values) > 0 and values.min() > 0)


def reduce_by_key(keys, values, ufunc, space: int, identity, present=None) -> Tuple[Any, Any]:
    """Group ``values`` by ``keys`` and reduce each group with ``ufunc``.

    The grouped reduction behind consolidation and grouped aggregation.
    ``keys`` are non-negative integers below ``space`` and ``identity`` is
    the identity of ``ufunc`` (``0_K`` for a semiring's ``+_K``).  Returns
    ``(unique_keys, reductions)``, groups in ascending key order; a caller
    reads a group's column values off its key
    (:func:`~repro.plan.encoded.split_codes`), never off a row.

    While :func:`direct` holds the keys are addresses: one ``ufunc.at``
    scatter into a ``space``-sized accumulator, and one boolean scatter
    marks the keys present — unless ``present`` knows them: ``"totals"``
    (the sums mark them, :func:`marks_itself`) or the keys themselves, from
    a reduction over these very ``keys`` (a ``GROUP BY``'s totals).
    Otherwise — or when ``ufunc`` offers ``reduceat`` only (a
    :class:`~repro.semirings.base.MachineRepr` whose ``+`` interns gates)
    — one stable ``argsort`` and one ``ufunc.reduceat`` — compacting a
    sparse key space *is* a sort.  The two are equal element for element:
    every machine ``+_K`` (int add inside the callers' overflow bound,
    min, max, or) is exactly associative and commutative, so the order of
    a group's rows is free.
    """
    n = len(keys)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=values.dtype)
    scatter = getattr(ufunc, "at", None)
    if scatter is not None and direct(space, n):
        reductions = np.full(space, identity, dtype=values.dtype)
        scatter(reductions, keys, values)
        if isinstance(present, str):
            present = np.flatnonzero(reductions)
        elif present is None:
            seen = np.zeros(space, dtype=bool)
            seen[keys] = True
            present = np.flatnonzero(seen)
        return present, reductions[present]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = run_starts(np, sorted_keys)
    return sorted_keys[starts], ufunc.reduceat(values[order], starts)
