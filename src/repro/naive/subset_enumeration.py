"""The naive tuple-level aggregation baseline (Figure 2, Section 1/3.1).

The approach the paper *rejects*: keep annotations at the tuple level and
enumerate, as separate output tuples, the aggregation result of **every
subset** of the input, annotating each with the product over all input
tuples of either its token (present) or its "hat" (absent)::

    Dept  SalMass
    d1    45       p1 p2 p3
    d1    30       p1 p2 p̂3
    d1    35       p1 p̂2 p3
    ...

Two hat realisations from the paper's discussion:

* ``Z[X]``: ``p-hat = 1 - p`` (Green's thesis [20], following Z-relations);
* ``BoolExp(X)``: ``p-hat = not p`` (c-tables, Imielinski & Lipski [28]).

Both satisfy the deletion criterion (set ``p = 0`` / false and the right
rows survive) but cost ``2^n`` output tuples for SUM — the exponential
lower bound the tensor construction avoids.  Experiment E2 benchmarks
this module against ``AGG``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Dict, List, Tuple

from repro.core.relation import KRelation
from repro.core.tuples import Tup
from repro.exceptions import QueryError
from repro.monoids.base import CommutativeMonoid
from repro.semirings.boolexpr import BOOLEXPR, band, bnot
from repro.semirings.polynomials import NX, ZX

__all__ = ["naive_aggregate_zx", "naive_aggregate_boolexpr", "naive_output_size"]


def _token_of(annotation: Any) -> Any:
    """Extract the single token of an abstractly-tagged N[X] annotation."""
    variables = annotation.variables()
    if annotation.semiring is not NX or len(variables) != 1:
        raise QueryError(
            "the naive baseline needs abstractly-tagged input: each tuple "
            f"annotated by a single distinct token, got {annotation}"
        )
    (token,) = variables
    return token


def naive_aggregate_zx(
    r: KRelation, attribute: str, monoid: CommutativeMonoid
) -> KRelation:
    """Figure 2(a) with ``p-hat = 1 - p`` in ``Z[X]``.

    Input: an abstractly-tagged ``N[X]``-relation over ``(attribute,)``.
    Output: a ``Z[X]``-relation with one tuple per subset of the input,
    valued at the subset's aggregate, annotated ``prod p_i * prod (1-p_j)``.
    """
    rows = _tagged_rows(r, attribute)
    pairs: List[Tuple[Tup, Any]] = []
    for subset in _all_subsets(len(rows)):
        value = monoid.sum(rows[i][0] for i in subset)
        annotation = ZX.one
        for i, (_value, token) in enumerate(rows):
            p = ZX.variable(token)
            annotation = ZX.times(
                annotation, p if i in subset else ZX.plus(ZX.one, ZX.constant(-1) * p)
            )
        pairs.append((Tup({attribute: value}), annotation))
    return KRelation(ZX, (attribute,), pairs)


def naive_aggregate_boolexpr(
    r: KRelation, attribute: str, monoid: CommutativeMonoid
) -> KRelation:
    """Figure 2(a) with ``p-hat = not p`` in ``BoolExp(X)`` (c-table style)."""
    rows = _tagged_rows(r, attribute)
    pairs: List[Tuple[Tup, Any]] = []
    for subset in _all_subsets(len(rows)):
        value = monoid.sum(rows[i][0] for i in subset)
        literals = [
            BOOLEXPR.variable(token) if i in subset else bnot(BOOLEXPR.variable(token))
            for i, (_value, token) in enumerate(rows)
        ]
        pairs.append((Tup({attribute: value}), band(*literals)))
    return KRelation(BOOLEXPR, (attribute,), pairs)


def naive_output_size(n: int) -> int:
    """The number of output tuples the naive approach materialises: 2^n."""
    return 2 ** n


def _tagged_rows(r: KRelation, attribute: str) -> List[Tuple[Any, Any]]:
    if tuple(r.schema.attributes) != (attribute,):
        raise QueryError(
            f"naive aggregation expects a relation over exactly ({attribute!r},)"
        )
    rows = []
    seen: Dict[Any, None] = {}
    for tup, annotation in r.rows():
        token = _token_of(annotation)
        if token in seen:
            raise QueryError(f"token {token!r} tags more than one tuple")
        seen[token] = None
        rows.append((tup[attribute], token))
    return rows


def _all_subsets(n: int):
    for size in range(n + 1):
        yield from (frozenset(c) for c in combinations(range(n), size))
