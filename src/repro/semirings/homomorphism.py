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
  callable, and mapping a batch at once with :meth:`Homomorphism.map_many`);
* :func:`valuation_hom` — the free extension of a token valuation to a
  homomorphism out of a polynomial semiring, with structured
  indeterminates (delta-terms, equality atoms) dispatching themselves via
  :class:`~repro.semirings.base.ProvenanceTerm`; a batch is one pass that
  maps each distinct token and monomial once, by a walk over each
  polynomial — and a planned result's term-store folds as arrays, where
  the target is ``N``, ``Z`` or ``B`` (:meth:`Homomorphism.map_folds`);
* :func:`deletion_hom` — the token-zeroing endomorphism of ``N[X]`` that
  implements deletion propagation (Fig. 1 / Example 3.4 / Example 5.3);
* :func:`support_hom` — the canonical specialisation onto the booleans for
  positive semirings ("does the tuple exist at all?").
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Mapping, Tuple

from repro.exceptions import HomomorphismError
from repro.semirings import base
from repro.semirings.base import ProvenanceTerm, Semiring, _np
from repro.semirings.boolean import BOOL
from repro.semirings.natural import NAT
from repro.semirings.polynomials import Polynomial, PolynomialSemiring
from repro.semirings.terms import Unmappable, map_folds

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

    #: The token map this homomorphism freely extends, where its
    #: coefficients embed by the default map (:func:`valuation_hom`), else
    #: ``None``: a provenance circuit is evaluated by it gate by gate.
    tokens: Callable[[Any], Any] | None = None

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
        return self(element)

    def map_many(self, elements: Iterable[Any]) -> List[Any]:
        """The images of ``elements``, in order.

        The batch form that specialising a relation or a tensor calls
        (:meth:`repro.core.relation.KRelation.apply_hom` maps every
        annotation and tensor scalar of a relation in one call).  A
        homomorphism that can share work across a batch overrides it:
        :func:`valuation_hom` maps each distinct token and monomial once,
        and a circuit result's evaluates the gates reachable from the whole
        batch in one pass.  This default maps one element at a time.
        """
        fn = self._fn
        return [fn(element) for element in elements]

    def map_folds(self, folds) -> Tuple[List[Any] | None, "Homomorphism"]:
        """The images of the runs and groups of the term-store folds
        ``folds`` (:class:`~repro.semirings.terms.Fold`, a planned
        result's sums) as :func:`~repro.semirings.terms.map_folds` gives
        them, or ``None``; and the homomorphism that maps the folds'
        polynomials where it is ``None``.  Here ``(None, self)``:
        :func:`valuation_hom` maps folds as arrays."""
        return None, self

    def then(self, other: "Homomorphism") -> "Homomorphism":
        """Composition ``other . self`` — first this map, then ``other``."""
        if other.source is not self.target:
            raise HomomorphismError(
                f"cannot compose {self.name} (into {self.target.name}) "
                f"with {other.name} (from {other.source.name})"
            )
        return _Composite(self, other)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<hom {self.name}>"


class _Composite(Homomorphism):
    """``second . first``: a batch is mapped by ``first`` as one batch, and
    its images by ``second`` as one batch."""

    __slots__ = ("first", "second")

    def __init__(self, first: Homomorphism, second: Homomorphism):
        super().__init__(first.source, second.target, None, f"{first.name};{second.name}")
        self.first = first
        self.second = second

    def __call__(self, element: Any) -> Any:
        return self.second(self.first(element))

    def map_many(self, elements: Iterable[Any]) -> List[Any]:
        return self.second.map_many(self.first.map_many(elements))


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

    The homomorphism maps a batch (:meth:`Homomorphism.map_many`) in one
    pass (:class:`_Pass`): each distinct token, structured term and
    monomial is mapped once for the whole batch, and a single call is a
    batch of one.
    """
    if isinstance(valuation, Mapping):
        mapping = dict(valuation)

        def token_image(var: Any) -> Any:
            try:
                return mapping[var]
            except KeyError:
                raise HomomorphismError(
                    f"valuation does not cover token {var!r}"
                ) from None

    else:
        token_image = valuation

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

    # a coefficient of N (or of the target itself) is its own image there
    native = (
        _native_type(target)
        if coeff_hom is None and (coeff_semiring is target or coeff_semiring.is_naturals)
        else None
    )
    return _Valuation(
        source, target, token_image, coeff_image, native,
        name or f"{source.name}→{target.name}",
        token_image if coeff_hom is None else None,
    )


def _native_type(target: Semiring) -> type | None:
    """The Python type whose own ``+``/``*`` (``or``/``and``) are exactly
    ``target``'s operations on values of that type, or ``None``: ``int``
    for an ``int64`` add/multiply representation (``N``, ``Z``), ``bool``
    for a ``bool`` or/and one (``B``).  The exact-type rule is the circuit
    evaluator's array pass's."""
    machine = target.machine_repr
    if machine is None or not machine.portable:
        return None
    ops = (machine.dtype, machine.np_plus, machine.np_times)
    if ops == ("int64", "add", "multiply"):
        return int
    if ops == ("bool", "logical_or", "logical_and"):
        return bool
    return None


class _Valuation(Homomorphism):
    """The arrow :func:`valuation_hom` returns: every call is one
    :class:`_Pass`, so a batch shares one memo."""

    __slots__ = ("_token", "_coeff", "_native", "tokens")

    def __init__(self, source, target, token, coeff, native, name, tokens):
        super().__init__(source, target, None, name)
        self._token = token
        self._coeff = coeff
        self._native = native
        self.tokens = tokens

    def __call__(self, element: Any) -> Any:
        return _Pass(self)(element)

    def map_many(self, elements: Iterable[Any]) -> List[Any]:
        elements = list(elements)
        if elements:  # polynomials carry no runs: the walk maps them
            # without NumPy no result has runs; before the planner loads,
            # whether NumPy is there is not known yet (``None``)
            _count_hom("fallback: no NumPy" if base.accelerator.HAVE_NUMPY is False
                       else "fallback: no term runs")
        return _Pass(self).map_many(elements)

    def map_folds(self, folds):
        return _Pass(self).map_folds(folds)


def _count_hom(kernel: str) -> None:
    """Count which of the array pass and the walk mapped a batch."""
    from repro.obs import metrics

    metrics.ENCODED_KERNEL.inc(1, "hom", kernel)


_MISSING = object()


class _Pass(Homomorphism):
    """One specialisation by a valuation, shared by a whole batch.

    Each distinct variable — a token, or a structured term (``δ``,
    equality or comparison atom) — and each distinct monomial is mapped
    once.  A structured term maps itself *through this pass*
    (``h(δ(e)) = δ(h(e))``; an atom maps its tensor sides), so what it
    contains shares the memo: a group's ``δ`` argument is free once the
    group's tensor entries are mapped, and vice versa.

    While every image has the target's native type (:func:`_native_type`)
    the fold is Python's own ``+``/``*`` or ``or``/``and``; the first image
    that has not (a ``bool`` into ``N``, a NumPy integer) hands the rest of
    the pass to the target's own operations.  On values of the native type
    the two are the same expressions, so where the switch happens cannot
    change a result.

    Folds of the term store (:meth:`map_folds`, a planned result's sums)
    are mapped as arrays instead (:func:`repro.semirings.terms.map_folds`)
    when the target has a native type: each token the runs reach is
    mapped once through the valuation.  The walk above maps everything
    else: polynomial batches (:meth:`map_many`), folds reaching a
    structured variable, other targets, an image outside the native type,
    folds without a provable int64 bound, and any folds without NumPy.
    Which of the two mapped a batch is counted on
    ``repro_encoded_kernel_total`` (``op="hom"``): ``kernel="array"``, or
    ``kernel="fallback: <cause>"`` (``"no term runs"`` for every batch
    of polynomials, ``"no NumPy"`` where the planner found none).
    """

    __slots__ = ("_valuation", "_images", "_monomials", "_native", "_pending", "_walking")

    def __init__(self, valuation: _Valuation):
        super().__init__(valuation.source, valuation.target, None, valuation.name)
        self._valuation = valuation
        self._images: dict = {}
        self._monomials: dict = {}
        self._native = valuation._native
        #: ``(tokens, images)`` the array pass mapped, not yet in ``_images``
        self._pending = None
        self._walking = False

    def __call__(self, element: Any) -> Any:
        self._walking = True
        return self._polynomial(element)

    def map_many(self, elements: Iterable[Any]) -> List[Any]:
        self._walking = True
        polynomial = self._polynomial
        return [polynomial(element) for element in elements]

    def blocked(self) -> str | None:
        """Why this pass cannot map as arrays, or ``None``."""
        if self._valuation._native is None:
            return "target has no native type"
        if self._native is None:  # the walk met one before
            return "non-native image"
        if not base.accelerator.HAVE_NUMPY:
            return "no NumPy"
        return None

    def map_folds(self, folds):
        """The folds' images as one array pass, or ``None`` where the walk
        must map them — by this pass, whose memo holds the tokens the
        array pass mapped; counted either way."""
        cause = self.blocked()
        if cause is None:
            try:
                images = map_folds(folds, self._token_array, self._native)
            except Unmappable as exc:
                cause = exc.args[0]
                self._memo()  # the walk maps no token twice
            else:
                _count_hom("array")
                return images, self
        _count_hom(f"fallback: {cause}")
        return None, self

    def _token_array(self, tokens: List[Any]):
        """The images of the plain tokens ``tokens`` as an array of the
        native type, each mapped through the valuation once per pass (the
        memo the walk shares).  Raises :class:`Unmappable` for an image
        outside the native type — handing the walk the target's own
        operations — or one past int64."""
        token = self._valuation._token
        if self._walking:  # a batch inside the walk (an atom's): its memo
            images = self._images
            fresh = [var for var in tokens if var not in images]
            images.update(zip(fresh, map(token, fresh)))
            out = list(map(images.__getitem__, tokens))
        else:  # the memo takes them only if the walk takes over
            out = list(map(token, tokens))
            self._pending = (tokens, out)
        native = self._native
        if set(map(type, out)) - {native}:
            self._native = None
            raise Unmappable("non-native image")
        np = _np()
        try:
            return np.fromiter(out, np.int64 if native is int else bool, len(out))
        except OverflowError:
            raise Unmappable("int64 bound") from None

    def _memo(self) -> None:
        """Put the array pass's pending token images in the memo."""
        if self._pending is not None:
            self._images.update(zip(*self._pending))
            self._pending = None

    def _polynomial(self, poly: Any) -> Any:
        """``sum_t coeff(c_t) * value(m_t)`` over the terms of ``poly``."""
        if not isinstance(poly, Polynomial) or poly.semiring is not self.source:
            raise HomomorphismError(f"{poly!r} is not an element of {self.source.name}")
        monomials = self._monomials
        native = self._native
        if native is int:
            total = 0
            for mono, c in poly._terms.items():
                value = monomials.get(mono, _MISSING)
                if value is _MISSING:
                    value = self._monomial(mono)
                total += c * value
            return total
        if native is bool:
            total = False  # every stored coefficient maps to True
            for mono in poly._terms:
                value = monomials.get(mono, _MISSING)
                if value is _MISSING:
                    value = self._monomial(mono)
                total = total or value
            return total
        target = self.target
        coeff, times, is_zero = self._valuation._coeff, target.times, target.is_zero
        values = []
        for mono, c in poly._terms.items():
            k = coeff(c)
            if is_zero(k):
                continue
            value = monomials.get(mono, _MISSING)
            if value is _MISSING:
                value = self._monomial(mono)
            values.append(times(k, value))
        return target.sum_many(values)

    def _monomial(self, mono: Any) -> Any:
        """The product of the images of ``mono``'s variables, each variable
        mapped once per pass.  Stops at the first zero, so a factor after
        it is never mapped (an atom there need not resolve)."""
        target = self.target
        images = self._images
        acc = _MISSING
        for var, exp in mono._powers.items():
            image = images.get(var, _MISSING)
            if image is _MISSING:
                # plain tokens are nearly always strings: skip the ABC check
                if type(var) is not str and isinstance(var, ProvenanceTerm):
                    image = var.apply_hom(self)
                else:
                    image = self._valuation._token(var)
                if type(image) is not self._native:
                    self._native = None
                images[var] = image
            native = self._native
            if native is int:
                if exp != 1:
                    image = image ** exp
                acc = image if acc is _MISSING else acc * image
                if not acc:
                    break
            elif native is bool:
                acc = image if acc is _MISSING else acc and image
                if not acc:
                    break
            else:
                if exp != 1:
                    image = target.pow(image, exp)
                acc = image if acc is _MISSING else target.times(acc, image)
                if target.is_zero(acc):
                    break
        if acc is _MISSING:  # the unit monomial
            acc = target.one
        self._monomials[mono] = acc
        return acc


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
