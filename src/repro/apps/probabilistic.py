"""Probabilistic evaluation of provenance (the Section 6 outlook).

On a tuple-independent probabilistic database each token ``x`` is true
with probability ``p(x)``.  The probability that a query answer exists is
the probability of its lineage formula — obtained here by specialising
``N[X]`` provenance into ``BoolExp(X)`` and computing exactly via Shannon
expansion with memoisation (exponential worst case, as it must be:
evaluation is #P-hard in general; fine at example scale).

For tensor-valued aggregates, :func:`aggregate_expectation` computes the
*expected value* of a SUM aggregate by linearity — the provenance
structure makes this a one-liner: ``E[sum k_i (x) m_i] = sum Pr[k_i] m_i``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.core.relation import KRelation
from repro.exceptions import QueryError
from repro.monoids.numeric import SUM
from repro.semimodules.tensor import Tensor
from repro.semirings.boolexpr import (
    BAnd,
    BConst,
    BNot,
    BOr,
    BoolExpr,
    BVar,
    boolexpr_variables,
    evaluate_boolexpr,
)
from repro.semirings.hierarchy import nx_to_boolexpr
from repro.semirings.polynomials import NX, Polynomial

__all__ = ["probability", "tuple_probabilities", "aggregate_expectation"]


def probability(expr: BoolExpr, probs: Mapping[Any, float]) -> float:
    """Exact probability of a boolean provenance formula.

    Shannon expansion on the variable order given by sorted names, with
    memoisation on (remaining expression, partial assignment) — standard
    exact weighted model counting, adequate for the library's example
    scale.
    """
    names = sorted(boolexpr_variables(expr), key=str)
    for name in names:
        if name not in probs:
            raise QueryError(f"no probability given for token {name!r}")
    memo: Dict[Tuple[int, frozenset], float] = {}

    def go(index: int, assignment: Dict[Any, bool]) -> float:
        if index == len(names):
            return 1.0 if evaluate_boolexpr(expr, assignment) else 0.0
        key = (index, frozenset(assignment.items()))
        if key in memo:
            return memo[key]
        name = names[index]
        p = probs[name]
        assignment[name] = True
        yes = go(index + 1, assignment)
        assignment[name] = False
        no = go(index + 1, assignment)
        del assignment[name]
        result = p * yes + (1 - p) * no
        memo[key] = result
        return result

    return go(0, {})


def tuple_probabilities(
    rel: KRelation, probs: Mapping[Any, float]
) -> Dict[Any, float]:
    """Per-tuple existence probabilities of an ``N[X]``-annotated result."""
    if rel.semiring is not NX:
        raise QueryError(
            f"tuple_probabilities expects N[X] annotations, got {rel.semiring.name}"
        )
    out: Dict[Any, float] = {}
    for tup, annotation in rel.rows():
        out[tup] = probability(nx_to_boolexpr(annotation), probs)
    return out


def aggregate_expectation(value: Tensor, probs: Mapping[Any, float]) -> float:
    """Expected value of a SUM-aggregate tensor over ``N[X]``.

    By linearity of expectation, ``E[sum k_i (x) m_i] = sum E[k_i] * m_i``
    where ``E[k]`` is the expected multiplicity of the polynomial ``k``
    under independent tokens — computable term-by-term because
    ``E[prod x_i^e_i] = prod p_i`` for independent boolean tokens
    (``x^e = x``).
    """
    space = value.space
    if space.semiring is not NX or space.monoid is not SUM:
        raise QueryError("aggregate_expectation expects an N[X] (x) SUM tensor")
    total = 0.0
    for m, scalar in value:
        total += _expected_multiplicity(scalar, probs) * m
    return total


def _expected_multiplicity(poly: Polynomial, probs: Mapping[Any, float]) -> float:
    expectation = 0.0
    for mono, coeff in poly.terms():
        term = float(coeff)
        for var, _exp in mono:
            if isinstance(var, BVar):  # pragma: no cover - defensive
                var = var.name
            if var not in probs:
                raise QueryError(f"no probability given for token {var!r}")
            term *= probs[var]
        expectation += term
    return expectation
