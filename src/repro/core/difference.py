"""Relational difference via aggregation (Section 5), plus rival semantics.

The paper encodes ``R - S`` with nested aggregation over the monoid
``B-hat = ({F, T}, or, F)``::

    R - S = Pi_{a1..an}( GB_{a1..an, b}( R x {F}  ∪  S x {T} ) ⋈ R x {F} )

Running this through the Section 4.3 semantics yields (Prop. 5.1) the
closed form

    (R - S)(t)  =  [ S(t) (x) T  =  0 ] * R(t)

a *hybrid* semantics: membership of ``t`` in ``S`` acts as a boolean
condition (set-style), while surviving tuples keep their full ``R``
annotation (bag-style).  Both forms are implemented here, together with
the competing semantics Section 5.2 compares against:

* :func:`monus_difference` — the m-semiring / bag-monus of Geerts & Poggi
  [19] (``max(0, a - b)`` on ``N``, ``a and not b`` on ``B``);
* :func:`z_difference` — the ``Z``-relations semantics of Green, Ives &
  Tannen [22] (``a - b`` in a ring).

Props. 5.4-5.7 (which equational laws hold where) are exercised in
``tests/integration/test_difference_laws.py``.
"""

from __future__ import annotations

from typing import Any

from repro.core.equality import (
    coerce_annotation,
    equality_annotation,
    km_semiring,
)
from repro.core.relation import KRelation
from repro.exceptions import QueryError, SchemaError, SemiringError
from repro.monoids.boolmonoid import BHAT
from repro.semimodules.tensor import tensor_space
from repro.semirings.boolean import BOOL
from repro.semirings.natural import NAT

__all__ = [
    "difference",
    "difference_via_aggregation",
    "monus_difference",
    "z_difference",
]


def difference(r: KRelation, s: KRelation) -> KRelation:
    """``(R - S)(t) = [S(t) (x) T = 0] * R(t)`` — the Prop. 5.1 form.

    The comparison lives in ``K^M (x) B-hat``: when it resolves (``K`` has
    a decidable support, e.g. ``N``/``B``) the result is an ordinary
    ``K``-relation; for free semirings the atom stays symbolic so that
    deletions can still be propagated (Example 5.3: revoking the closure
    of a department resurrects its tuple).
    """
    _check_difference_operands(r, s)
    base = r.semiring
    km = km_semiring(base)
    space = tensor_space(km, BHAT)

    pairs = []
    for tup, r_annotation in r.rows():
        s_annotation = coerce_annotation(km, s.annotation(tup))
        membership = space.simple(s_annotation, True)  # S(t) (x) T
        atom = equality_annotation(km, membership, space.zero)
        annotation = km.times(atom, coerce_annotation(km, r_annotation))
        pairs.append((tup, annotation))

    result = KRelation(km, r.schema, pairs)
    from repro.core.nested import collapse_km_relation  # local: avoid cycle

    return collapse_km_relation(result, base)


def difference_via_aggregation(
    r: KRelation, s: KRelation, flag_attribute: str = "__b"
) -> KRelation:
    """The literal Section 5 encoding, run through the extended semantics.

    Builds ``R x ⊥_b ∪ S x ⊤_b``, groups on the original attributes
    aggregating the flag through ``B-hat``, natural-joins back against
    ``R x ⊥_b`` (the flag comparison produces exactly the
    ``[S(t)(x)T = 0]`` atom, because ``iota(F) = 0`` in ``K (x) B-hat``),
    and projects the flag away.  Prop. 5.1 says this agrees with
    :func:`difference` under every homomorphism into a collapsing space;
    the integration tests verify it.
    """
    _check_difference_operands(r, s)
    if flag_attribute in r.schema:
        raise SchemaError(
            f"flag attribute {flag_attribute!r} collides with schema {r.schema}"
        )
    from repro.core import nested  # local: avoid cycle

    base = r.semiring
    km = km_semiring(base)
    attrs = r.schema.attributes

    bottom = KRelation.from_rows(base, (flag_attribute,), [((False,), base.one)])
    top = KRelation.from_rows(base, (flag_attribute,), [((True,), base.one)])

    r_bottom = nested.ext_cartesian(
        nested.lift_to_km(r, km), nested.lift_to_km(bottom, km), km
    )
    s_top = nested.ext_cartesian(
        nested.lift_to_km(s, km), nested.lift_to_km(top, km), km
    )
    unioned = nested.ext_union(r_bottom, s_top, km)
    grouped = nested.ext_group_by(unioned, attrs, {flag_attribute: BHAT}, km)
    joined = nested.ext_natural_join(grouped, r_bottom, km)
    projected = nested.ext_projection(joined, attrs, km)
    return nested.collapse_km_relation(projected, base)


def monus_difference(r: KRelation, s: KRelation) -> KRelation:
    """The m-semiring difference of [19]: tuple-wise monus.

    Supported for every shipped semiring with a monus (see
    :mod:`repro.semirings.monus`): ``N``, ``B``, fuzzy, Why(X),
    PosBool(X), Lin(X).  Section 5.2 contrasts its equational laws with
    the paper's hybrid semantics (e.g. ``(A ∪ B) - B = A`` holds for bag
    monus but *not* for the hybrid semantics).
    """
    from repro.semirings.monus import monus  # local: keep module deps light

    _check_difference_operands(r, s)
    semiring = r.semiring
    pairs = [
        (tup, monus(semiring, annotation, s.annotation(tup)))
        for tup, annotation in r.rows()
    ]
    return KRelation(semiring, r.schema, pairs)


def z_difference(r: KRelation, s: KRelation) -> KRelation:
    """The ``Z``-relations difference of [22]: ring subtraction.

    Requires a ring-like annotation structure (a ``negate`` operation),
    e.g. ``Z`` or ``Z[X]``; annotations may go negative, which is exactly
    the "negative multiplicities" semantics the paper distinguishes from
    its own in Prop. 5.7.
    """
    _check_difference_operands(r, s)
    semiring = r.semiring
    negate = getattr(semiring, "negate", None)
    if negate is None:
        if hasattr(semiring, "coefficients") and hasattr(semiring.coefficients, "negate"):
            minus_one = semiring.constant(semiring.coefficients.negate(semiring.coefficients.one))
            negate = lambda a: semiring.times(minus_one, a)  # noqa: E731
        else:
            raise SemiringError(
                f"{semiring.name} has no additive inverses; Z-difference undefined"
            )
    pairs = [(t, semiring.plus(k, negate(s.annotation(t)))) for t, k in r.rows()]
    pairs += [(t, negate(k)) for t, k in s.rows() if t not in r]
    return KRelation(semiring, r.schema, pairs)


def _check_difference_operands(r: KRelation, s: KRelation) -> None:
    if r.semiring is not s.semiring:
        raise QueryError(
            f"difference operands annotated in different semirings: "
            f"{r.semiring.name} vs {s.semiring.name}"
        )
    if r.schema != s.schema:
        raise SchemaError(
            f"difference of incompatible schemas {r.schema} and {s.schema}"
        )
