"""Equality atoms and the ``K^M`` construction (Section 4.2).

Nested aggregation queries compare symbolic aggregate values: is
``r1 (x) 20 + r2 (x) 10`` equal to ``1 (x) 20``?  The truth value is
undetermined until the provenance tokens are valuated, so the paper
enlarges the annotation semiring: ``K^M`` is (the quotient of) the
polynomial semiring over ``K`` whose extra indeterminates are *equality
atoms* ``[c1 = c2]`` with ``c1, c2`` tensors in ``K^M (x) M``.

Implementation notes
--------------------
* ``K^M`` is realised as :func:`km_semiring`: for a polynomial ``K`` (e.g.
  ``N[X]``) the atoms simply join the open variable universe, making
  ``K^M = K`` as a Python object; for a concrete ``K`` it is
  ``polynomials_over(K)``.  The quotient axioms ``k1 +_Khat k2 ~ k1 +_K
  k2`` etc. hold by construction (coefficients compute in ``K``).
* Axiom (*) — resolve ``[a = b]`` to ``1/0`` whenever ``iota`` is an
  isomorphism — is :func:`compare_tensors` + eager resolution in
  :func:`equality_annotation`.  Tensors over non-collapsing spaces with
  *identical normal forms* also resolve to ``1`` (sound: equal
  representations denote equal elements).
* Atoms are symmetric by construction (``[a = b]`` and ``[b = a]`` are
  the same indeterminate: the sides hash and compare as an unordered
  pair): semantically sound for an equality predicate and keeps
  annotations canonical.  Only ``str`` orders the sides, by rendering.
* Homomorphisms map atoms side-wise (``h^M`` on each tensor) and then
  re-attempt resolution in the target — if the target space still does not
  collapse and the target semiring has no symbolic variables, resolution
  is impossible and :class:`UnresolvableEqualityError` is raised.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.exceptions import UnresolvableEqualityError
from repro.semimodules.tensor import Tensor, tensor_space  # noqa: F401 (tensor_space used in demotion)
from repro.semirings.base import ProvenanceTerm, Semiring
from repro.semirings.polynomials import (
    Polynomial,
    PolynomialSemiring,
    polynomials_over,
)

__all__ = [
    "EqualityAtom",
    "km_semiring",
    "compare_tensors",
    "equality_annotation",
    "coerce_annotation",
    "collapse_constant",
]


def km_semiring(semiring: Semiring) -> PolynomialSemiring:
    """The semiring ``K^M`` hosting equality atoms for annotations in ``K``.

    Polynomial semirings are their own ``K^M`` (open variable universe);
    concrete semirings get ``polynomials_over(K)``.  Prop. 4.4 (``K^M = K``
    when every atom resolves) is realised by :func:`collapse_constant`.
    """
    if isinstance(semiring, PolynomialSemiring):
        return semiring
    return polynomials_over(semiring)


def compare_tensors(lhs: Tensor, rhs: Tensor) -> Optional[bool]:
    """Decide ``lhs = rhs`` where possible; ``None`` means undetermined.

    * identical normal forms  -> ``True`` (sound in every ``K (x) M``);
    * collapsing space        -> compare the collapsed monoid values
      (exact — this is axiom (*) of Section 4.2);
    * polynomial scalars that are all *constants* demote to the
      coefficient semiring's space and the comparison recurses (this is
      how ``K^M (x) M`` comparisons over concrete ``K`` resolve, e.g. bag
      relations: constants over ``N`` collapse and decide);
    * otherwise               -> ``None``: keep the atom symbolic.
    """
    if lhs.space is not rhs.space:
        return None
    if lhs.space.collapses:
        return lhs.collapse() == rhs.collapse()
    if lhs == rhs:
        return True
    demoted = _demote_constants(lhs), _demote_constants(rhs)
    if demoted[0] is not None and demoted[1] is not None:
        return compare_tensors(*demoted)
    return None


def _demote_constants(t: Tensor) -> Optional[Tensor]:
    """Re-express a tensor with constant polynomial scalars over ``K`` itself.

    Returns ``None`` when the scalars are not polynomials or not all
    constant (no demotion possible).
    """
    semiring = t.space.semiring
    if not isinstance(semiring, PolynomialSemiring):
        return None
    entries = t._entries
    for scalar in entries.values():
        if not (isinstance(scalar, Polynomial) and scalar.is_constant()):
            return None
    target = tensor_space(semiring.coefficients, t.space.monoid)
    return target.sum(
        target.simple(scalar.constant_value(), m) for m, scalar in entries.items()
    )


class EqualityAtom(ProvenanceTerm):
    """The provenance token ``[lhs = rhs]`` for tensors ``lhs, rhs``.

    A *constrained* indeterminate: it participates in polynomial
    arithmetic like any token, but a homomorphism maps it side-wise and
    re-resolves.  The sides are an unordered pair: identity never depends
    on how a tensor renders, and building an atom renders nothing.
    """

    __slots__ = ("lhs", "rhs", "_hash")

    def __init__(self, lhs: Tensor, rhs: Tensor):
        self.lhs = lhs
        self.rhs = rhs
        self._hash = hash(("EqualityAtom", frozenset((lhs, rhs))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EqualityAtom):
            return False
        return (self.lhs == other.lhs and self.rhs == other.rhs) or (
            self.lhs == other.rhs and self.rhs == other.lhs
        )

    def __hash__(self) -> int:
        return self._hash

    def apply_hom(self, hom: Any) -> Any:
        """Map both sides with ``h^M`` and resolve in the target (axiom (*))."""
        return equality_annotation(
            hom.target, self.lhs.apply_hom(hom), self.rhs.apply_hom(hom)
        )

    def __str__(self) -> str:
        # deterministic side order is presentation, chosen here and not stored
        first, second = sorted((_side_key(self.lhs), _side_key(self.rhs)))
        return f"[{first} = {second}]"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EqualityAtom({self.lhs!r}, {self.rhs!r})"


def _side_key(t: Tensor) -> str:
    return str(t)


def equality_annotation(km: PolynomialSemiring, lhs: Tensor, rhs: Tensor) -> Polynomial:
    """The ``K^M`` annotation of the comparison ``lhs = rhs``.

    Eagerly resolved to ``1``/``0`` when :func:`compare_tensors` decides;
    otherwise the symbolic atom enters the annotation as an indeterminate.
    (A homomorphism re-resolving an atom passes its target for ``km``.)
    """
    return _atom_annotation(km, compare_tensors(lhs, rhs), EqualityAtom, lhs, rhs)


def _atom_annotation(target: Semiring, verdict: Optional[bool], atom: type, *sides: Any) -> Any:
    """Axiom (*) for either atom kind: a decided comparison is ``1``/``0``.

    An undecided one stays ``atom(*sides)``, built only now — which needs
    a ``target`` with indeterminates (a ``K^M``); a homomorphism into a
    concrete semiring whose space does not collapse cannot interpret it.
    """
    if verdict is not None:
        return target.one if verdict else target.zero
    if isinstance(target, PolynomialSemiring):
        return target.variable(atom(*sides))
    raise UnresolvableEqualityError(
        f"{atom(*sides)} cannot be interpreted in {target.name}: the space "
        f"{sides[-1].space.name} does not collapse and {target.name} admits "
        "no symbolic tokens"
    )


def coerce_annotation(km: PolynomialSemiring, annotation: Any) -> Polynomial:
    """Embed a ``K`` annotation into ``K^M`` (identity when ``K^M = K``)."""
    if isinstance(annotation, Polynomial) and annotation.semiring is km:
        return annotation
    return km.constant(annotation)


def collapse_constant(km: PolynomialSemiring, annotation: Polynomial) -> Any:
    """The Prop. 4.4 collapse: a constant ``K^M`` element is a ``K`` element.

    Returns the underlying coefficient for constant polynomials, or the
    polynomial itself when genuine indeterminates remain.
    """
    if isinstance(annotation, Polynomial) and annotation.semiring is km:
        if annotation.is_constant():
            return annotation.constant_value()
    return annotation
