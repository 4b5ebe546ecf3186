"""Semiring homomorphisms and their free extension from valuations.

Commutation with homomorphisms is the paper's load-bearing desideratum:
because ``N[X]`` is freely generated, *any* valuation ``X -> K`` extends
uniquely to a homomorphism ``N[X] -> K``, and query evaluation commutes
with applying it (Thm. 3.3 and the Section-4.3 extension).  Practically:
evaluate the query once over provenance polynomials, then specialise the
result — to multiplicities, truth values, clearances, costs, confidences —
without re-running the query.

This module provides:

* :class:`Homomorphism` — a first-class arrow ``K -> K'`` (composable,
  callable);
* :func:`valuation_hom` — the free extension of a token valuation to a
  homomorphism out of a polynomial semiring, with structured
  indeterminates (delta-terms, equality atoms) dispatching themselves via
  :class:`~repro.semirings.base.ProvenanceTerm`;
* :func:`deletion_hom` — the token-zeroing endomorphism of ``N[X]`` that
  implements deletion propagation (Fig. 1 / Example 3.4 / Example 5.3);
* :func:`support_hom` — the canonical specialisation onto the booleans for
  positive semirings ("does the tuple exist at all?").
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from repro.exceptions import HomomorphismError
from repro.semirings.base import ProvenanceTerm, Semiring
from repro.semirings.boolean import BOOL
from repro.semirings.natural import NAT
from repro.semirings.polynomials import (
    Polynomial,
    PolynomialSemiring,
    evaluate_polynomial,
)

__all__ = [
    "Homomorphism",
    "identity_hom",
    "semiring_hom",
    "valuation_hom",
    "deletion_hom",
    "support_hom",
    "nat_hom",
]


class Homomorphism:
    """A semiring homomorphism ``source -> target`` as a first-class value.

    The wrapped function must preserve ``0``, ``1``, ``+`` and ``*`` (and
    ``delta`` when both sides define it); :func:`check_homomorphism_laws`
    in the test helpers verifies this on samples.  Instances are callable
    and compose with :meth:`then`.
    """

    __slots__ = ("source", "target", "_fn", "name")

    def __init__(
        self,
        source: Semiring,
        target: Semiring,
        fn: Callable[[Any], Any],
        name: str = "",
    ):
        self.source = source
        self.target = target
        self._fn = fn
        self.name = name or f"{source.name}→{target.name}"

    def __call__(self, element: Any) -> Any:
        return self._fn(element)

    def apply(self, element: Any) -> Any:
        """Alias of ``__call__`` for call sites that read better with a verb."""
        return self._fn(element)

    def then(self, other: "Homomorphism") -> "Homomorphism":
        """Composition ``other . self`` — first this map, then ``other``."""
        if other.source is not self.target:
            raise HomomorphismError(
                f"cannot compose {self.name} (into {self.target.name}) "
                f"with {other.name} (from {other.source.name})"
            )
        return Homomorphism(
            self.source,
            other.target,
            lambda a: other(self(a)),
            name=f"{self.name};{other.name}",
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<hom {self.name}>"


def identity_hom(semiring: Semiring) -> Homomorphism:
    """The identity homomorphism on ``semiring``."""
    return Homomorphism(semiring, semiring, lambda a: a, name=f"id_{semiring.name}")


def semiring_hom(
    source: Semiring, target: Semiring, fn: Callable[[Any], Any], name: str = ""
) -> Homomorphism:
    """Wrap an explicit element map as a :class:`Homomorphism`.

    No laws are checked at construction (they are generally undecidable);
    use the test helpers to validate on samples.
    """
    return Homomorphism(source, target, fn, name=name)


def valuation_hom(
    source: PolynomialSemiring,
    target: Semiring,
    valuation: Mapping[Any, Any] | Callable[[Any], Any],
    *,
    coeff_hom: Callable[[Any], Any] | None = None,
    name: str = "",
) -> Homomorphism:
    """Freely extend a token valuation to a homomorphism ``K[X] -> K'``.

    ``valuation`` gives the image of each *plain* token (a mapping or a
    callable); structured indeterminates — delta-terms and equality atoms —
    are mapped by their own :meth:`ProvenanceTerm.apply_hom`, recursively
    through this very homomorphism, which realises ``h(d(e)) = d(h(e))``
    and the equality-resolution axiom (*) of Section 4.2.

    ``coeff_hom`` maps coefficients; by default coefficients in ``N`` embed
    canonically via ``target.from_int``, identical semirings pass through,
    and any coefficient already belonging to the target is kept.
    """
    if isinstance(valuation, Mapping):
        mapping = dict(valuation)

        def plain_image(var: Any) -> Any:
            try:
                return mapping[var]
            except KeyError:
                raise HomomorphismError(
                    f"valuation does not cover token {var!r}"
                ) from None

    else:
        plain_image = valuation

    coeff_semiring = source.coefficients
    if coeff_hom is not None:
        coeff_image = coeff_hom
    elif coeff_semiring is target:
        coeff_image = lambda c: c  # noqa: E731 - tiny adapter
    elif coeff_semiring.is_naturals:
        coeff_image = target.from_int
    else:

        def coeff_image(c: Any) -> Any:
            if target.contains(c):
                return c
            raise HomomorphismError(
                f"no default coefficient map {coeff_semiring.name} -> {target.name}; "
                f"pass coeff_hom explicitly"
            )

    hom_box: list[Homomorphism] = []

    def var_image(var: Any) -> Any:
        # plain tokens are nearly always strings: skip the ABC instance check
        if type(var) is not str and isinstance(var, ProvenanceTerm):
            return var.apply_hom(hom_box[0])
        return plain_image(var)

    def fn(poly: Any) -> Any:
        if not isinstance(poly, Polynomial) or poly.semiring is not source:
            raise HomomorphismError(
                f"{poly!r} is not an element of {source.name}"
            )
        return evaluate_polynomial(poly, var_image, target, coeff_image)

    hom = Homomorphism(source, target, fn, name=name or f"{source.name}→{target.name}")
    hom_box.append(hom)
    return hom


def deletion_hom(
    source: PolynomialSemiring, deleted_tokens: Iterable[Any], name: str = ""
) -> Homomorphism:
    """The endomorphism of ``K[X]`` zeroing ``deleted_tokens``, fixing the rest.

    Setting a tuple's token to 0 and propagating through annotations is the
    algebraic form of deletion propagation (Section 1; more general than
    counting-based view maintenance because it maintains provenance too).
    """
    deleted = set(deleted_tokens)

    def image(var: Any) -> Any:
        return source.zero if var in deleted else source.variable(var)

    label = name or f"delete{{{', '.join(sorted(map(str, deleted)))}}}"
    return valuation_hom(source, source, image, name=label)


def support_hom(source: Semiring) -> Homomorphism:
    """The support map onto ``B`` — a homomorphism for positive semirings.

    Sends ``a`` to ``True`` iff ``a != 0``.  Positivity is exactly what
    makes this preserve ``+`` (``a + b = 0  iff  a = b = 0``); for
    non-positive semirings like ``Z`` it is *not* a homomorphism and this
    function refuses to build it.
    """
    if not source.positive:
        raise HomomorphismError(
            f"support map of non-positive semiring {source.name} is not a homomorphism"
        )
    if isinstance(source, PolynomialSemiring):
        # For free semirings "support" of a polynomial is valuation-dependent;
        # the canonical choice maps every token to T (all tuples present).
        return valuation_hom(source, BOOL, lambda var: True, name=f"supp_{source.name}")
    return Homomorphism(
        source, BOOL, lambda a: not source.is_zero(a), name=f"supp_{source.name}"
    )


def nat_hom(source: Semiring) -> Homomorphism:
    """The canonical homomorphism ``K -> N`` when one exists (Thm. 3.13)."""
    if not source.has_hom_to_nat:
        raise HomomorphismError(f"{source.name} has no homomorphism to N")
    return Homomorphism(source, NAT, source.hom_to_nat, name=f"{source.name}→N")
