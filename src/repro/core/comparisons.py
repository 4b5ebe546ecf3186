"""Ordered comparison atoms: the paper's "arbitrary comparison predicates".

Section 4's note: "the results can easily be extended to arbitrary
comparison predicates, that can be decided for elements of M".  This
module does that extension for the order predicates ``<`` and ``<=`` (with
``>``/``>=`` normalised by swapping sides): a :class:`ComparisonAtom` is a
provenance token ``[a <= b]`` whose sides are tensors in ``K^M (x) M``,
resolved exactly where equality atoms resolve — when both sides collapse
to ordered monoid values — and kept symbolic otherwise.

This enables HAVING-style queries (``SELECT ... GROUP BY g`` filtered on
``SUM(v) >= threshold``) with full provenance: the threshold comparison
stays open until tokens are valuated.
"""

from __future__ import annotations

import operator
from typing import Any, Optional

from repro.core.equality import (  # shared resolution plumbing
    _atom_annotation,
    _demote_constants,
)
from repro.exceptions import QueryError, UnresolvableEqualityError
from repro.semimodules.tensor import Tensor
from repro.semirings.base import ProvenanceTerm
from repro.semirings.polynomials import Polynomial, PolynomialSemiring

__all__ = ["ComparisonAtom", "resolve_order", "comparison_annotation",
           "NORMALISED_OPS", "negate_op"]

#: The operators kept in atoms; > and >= normalise into these.
NORMALISED_OPS = ("<", "<=")

_FLIP = {">": "<", ">=": "<="}

#: The order predicates on plain values — the one table every evaluator
#: (both interpreter tables, atom resolution, the physical ``SelectStage``)
#: decides ``a op b`` with.
ORDER_PREDICATES = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def decide_order(op: str, a: Any, b: Any) -> bool:
    """``a op b`` on plain values; a pair with no order is a typed error."""
    try:
        return ORDER_PREDICATES[op](a, b)
    except KeyError:
        raise QueryError(f"unknown comparison operator {op!r}") from None
    except TypeError:
        raise QueryError(
            f"cannot decide {a!r} {op} {b!r}: {type(a).__name__} and "
            f"{type(b).__name__} values have no order"
        ) from None


def negate_op(op: str) -> str:
    """The complement predicate (used by NOT pushes in rewrites)."""
    return {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}[op]


def _ordered_value(value: Any) -> Any:
    """Monoid elements we can order: numbers and booleans."""
    if isinstance(value, bool) or isinstance(value, (int, float)):
        return value
    raise UnresolvableEqualityError(
        f"monoid value {value!r} has no order; comparison undecidable"
    )


def resolve_order(op: str, lhs: Tensor, rhs: Tensor) -> Optional[bool]:
    """Decide ``lhs op rhs`` where possible; ``None`` = keep symbolic.

    Resolution mirrors :func:`~repro.core.equality.compare_tensors`: both
    sides must land in ``iota(M)`` through collapse (directly, or after
    demoting constant polynomial scalars), and the monoid values must be
    orderable.
    """
    left = _as_monoid_value(lhs)
    right = _as_monoid_value(rhs)
    if left is None or right is None:
        return None
    return decide_order(op, _ordered_value(left), _ordered_value(right))


def _as_monoid_value(t: Tensor) -> Optional[Any]:
    if t.space.collapses:
        return t.collapse()
    demoted = _demote_constants(t)
    if demoted is not None and demoted is not t:
        return _as_monoid_value(demoted)
    if not t:  # the zero tensor reads as the monoid identity
        return t.space.monoid.identity
    return None


class ComparisonAtom(ProvenanceTerm):
    """The provenance token ``[lhs op rhs]`` for an order predicate.

    Unlike equality atoms these are *not* symmetric; ``>``/``>=`` inputs
    are normalised to ``<``/``<=`` by swapping the sides.
    """

    __slots__ = ("op", "lhs", "rhs", "_hash")

    def __init__(self, op: str, lhs: Tensor, rhs: Tensor):
        if op in _FLIP:
            op = _FLIP[op]
            lhs, rhs = rhs, lhs
        if op not in NORMALISED_OPS:
            raise QueryError(f"unknown comparison operator {op!r}")
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        self._hash = hash(("ComparisonAtom", op, lhs, rhs))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ComparisonAtom)
            and self.op == other.op
            and self.lhs == other.lhs
            and self.rhs == other.rhs
        )

    def __hash__(self) -> int:
        return self._hash

    def apply_hom(self, hom: Any) -> Any:
        """Map both sides with ``h^M`` and re-attempt resolution."""
        return comparison_annotation(
            hom.target, self.op, self.lhs.apply_hom(hom), self.rhs.apply_hom(hom)
        )

    def __str__(self) -> str:
        return f"[{self.lhs} {self.op} {self.rhs}]"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ComparisonAtom({self.op!r}, {self.lhs!r}, {self.rhs!r})"


def comparison_annotation(
    km: PolynomialSemiring, op: str, lhs: Tensor, rhs: Tensor
) -> Polynomial:
    """The ``K^M`` annotation of ``lhs op rhs`` (eagerly resolved)."""
    if op in _FLIP:  # normalise as the atom would, without building it yet
        op, lhs, rhs = _FLIP[op], rhs, lhs
    return _atom_annotation(km, resolve_order(op, lhs, rhs), ComparisonAtom, op, lhs, rhs)
