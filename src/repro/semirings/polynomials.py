"""Generic multivariate polynomial semirings ``K[X]``.

The paper's central provenance structure is ``N[X]``, the commutative
semiring *freely generated* by a set ``X`` of provenance tokens: any
valuation ``X -> K`` extends uniquely to a semiring homomorphism
``N[X] -> K``, which is what makes "compute provenance once, specialise
many times" work (trust, security, deletion propagation, multiplicity...).

This module implements polynomials **generically over the coefficient
semiring**, which buys three structures for the price of one:

* ``N[X]`` — provenance polynomials (coefficients in :data:`~repro.semirings.natural.NAT`);
* ``Z[X]`` — the ring of polynomials used by the naive tuple-level
  aggregation baseline of Figure 2 (``p-hat = 1 - p``);
* ``K^M`` — the Section-4 construction for nested aggregation: polynomials
  whose indeterminates include *equality atoms* ``[a = b]`` and whose
  coefficients come from ``K``.  (When ``K`` is itself a polynomial
  semiring the atoms simply join its variable universe, because variable
  universes here are open-ended.)

Variables ("indeterminates") may be any hashable value.  Plain tokens
(strings) map under homomorphisms via the supplied valuation; *structured*
indeterminates — :class:`~repro.semirings.delta.DeltaTerm` and
:class:`~repro.core.equality.EqualityAtom` — subclass
:class:`~repro.semirings.base.ProvenanceTerm` and map themselves (this is
how the free delta-semiring ``N[X, d]`` and the ``K^M`` quotient are
realised without special-casing the polynomial arithmetic).
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Iterable, Iterator, Mapping, Tuple

from repro.exceptions import SemiringError
from repro.semirings.base import ProvenanceTerm, Semiring
from repro.semirings.natural import NAT

__all__ = [
    "Monomial",
    "Polynomial",
    "PolynomialSemiring",
    "polynomials_over",
    "NX",
    "ZX",
    "variable_sort_key",
]


#: Cap on each monomial's memoized-product table (see :meth:`Monomial.mul`).
_MUL_CACHE_LIMIT = 512


def variable_sort_key(var: Any) -> Tuple[str, str]:
    """A deterministic display-ordering key for heterogeneous variables.

    Variables may be strings, delta-terms, equality atoms, or anything
    hashable; we order by type name then by string rendering.  The key is
    used only for *presentation* (canonical printing); equality and hashing
    of monomials never depend on it.
    """
    return (type(var).__name__, str(var))


class Monomial:
    """A product of variables with positive integer exponents.

    Immutable and hashable; the empty monomial is the multiplicative unit.
    Stored as a mapping ``variable -> exponent`` with all exponents >= 1.
    """

    __slots__ = ("_powers", "_hash", "_mul_cache")

    def __init__(self, powers: Mapping[Any, int] | Iterable[Tuple[Any, int]] = ()):
        items = dict(powers)
        for var, exp in list(items.items()):
            if not isinstance(exp, int) or exp < 0:
                raise SemiringError(f"monomial exponent must be a natural number, got {exp!r}")
            if exp == 0:
                del items[var]
        self._powers: Dict[Any, int] = items
        self._hash = hash(frozenset(items.items()))
        self._mul_cache: Dict["Monomial", "Monomial"] | None = None

    @classmethod
    def _from_clean(cls, powers: Dict[Any, int]) -> "Monomial":
        """Trusted constructor: ``powers`` already holds int exponents >= 1.

        The kernel path (:meth:`mul`, the polynomial ``times``/``dot``
        specialisations) builds exponent dicts that are clean by
        construction; skipping re-validation keeps monomial products cheap.
        """
        self = cls.__new__(cls)
        self._powers = powers
        self._hash = hash(frozenset(powers.items()))
        self._mul_cache = None
        return self

    def __getstate__(self):
        # the exponents are the value; the hash is per process and the
        # product memo pins other monomials, so neither is copied or pickled
        # (a tuple: an empty state would skip __setstate__ for the unit)
        return (self._powers,)

    def __setstate__(self, state) -> None:
        (powers,) = state
        self._powers = powers
        self._hash = hash(frozenset(powers.items()))
        self._mul_cache = None

    # -- basic protocol -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self._powers == other._powers

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self) -> Iterator[Tuple[Any, int]]:
        return iter(sorted(self._powers.items(), key=lambda kv: variable_sort_key(kv[0])))

    def __len__(self) -> int:
        return len(self._powers)

    def __bool__(self) -> bool:
        return bool(self._powers)

    # -- structure ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree: the sum of all exponents."""
        return sum(self._powers.values())

    def exponent(self, var: Any) -> int:
        """The exponent of ``var`` (0 when absent)."""
        return self._powers.get(var, 0)

    def variables(self) -> frozenset:
        """The set of variables occurring in this monomial."""
        return frozenset(self._powers)

    def mul(self, other: "Monomial") -> "Monomial":
        """Monomial product: exponents add.

        Products are memoized per left operand: polynomial multiplication
        combines every monomial of one factor with every monomial of the
        other, so the same pair recurs across terms (and across repeated
        joins on the same annotations).  The per-instance cache is capped
        (entries hold the partner and product strongly, so an unbounded
        cache on a long-lived base-token monomial would pin every product
        it ever took part in).
        """
        if not other._powers:
            return self
        if not self._powers:
            return other
        cache = self._mul_cache
        if cache is None:
            cache = self._mul_cache = {}
        else:
            hit = cache.get(other)
            if hit is not None:
                return hit
        merged = dict(self._powers)
        get = merged.get
        for var, exp in other._powers.items():
            merged[var] = get(var, 0) + exp
        result = Monomial._from_clean(merged)
        if len(cache) < _MUL_CACHE_LIMIT:
            cache[other] = result
        return result

    def drop_exponents(self) -> "Monomial":
        """Cap every exponent at 1 (the Trio / Why specialisations)."""
        return Monomial({var: 1 for var in self._powers})

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._powers:
            return "1"
        parts = []
        for var, exp in self:
            text = str(var)
            parts.append(text if exp == 1 else f"{text}^{exp}")
        return "*".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Monomial({self._powers!r})"


#: The multiplicative-unit monomial (no variables).
_UNIT_MONOMIAL = Monomial()


class Polynomial:
    """An element of ``K[X]``: a finite ``monomial -> coefficient`` map.

    Immutable and hashable (so polynomials may themselves serve as
    coefficients of other polynomial semirings, and may appear inside
    tensors and equality atoms).  All arithmetic is delegated to the owning
    :class:`PolynomialSemiring`, which knows the coefficient semiring.
    """

    __slots__ = ("semiring", "_terms", "_hash", "_mul_cache")

    def __init__(self, semiring: "PolynomialSemiring", terms: Mapping[Monomial, Any]):
        coeff = semiring.coefficients
        clean: Dict[Monomial, Any] = {}
        for mono, c in terms.items():
            if not coeff.is_zero(c):
                clean[mono] = c
        self.semiring = semiring
        self._terms = clean
        self._hash: int | None = None
        # single-term products with this polynomial on the left, as
        # id(partner) -> (partner, product) (see PolynomialSemiring.times)
        self._mul_cache: Dict[int, Tuple["Polynomial", "Polynomial"]] | None = None

    @classmethod
    def _from_clean(
        cls, semiring: "PolynomialSemiring", terms: Dict[Monomial, Any]
    ) -> "Polynomial":
        """Trusted constructor: ``terms`` holds no zero coefficients.

        The n-ary kernels normalise as they accumulate, so re-filtering in
        ``__init__`` (and copying the dict) would be pure overhead.  The
        caller hands over ownership of ``terms``.
        """
        self = cls.__new__(cls)
        self.semiring = semiring
        self._terms = terms
        self._hash = None
        self._mul_cache = None
        return self

    def __getstate__(self):
        return self.semiring, self._terms

    def __setstate__(self, state) -> None:
        self.semiring, self._terms = state
        self._hash = None
        self._mul_cache = None

    # -- basic protocol ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.semiring is other.semiring and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            # the support and the coefficients, each a frozenset: one built
            # from a dict reuses the hashes its keys were stored under, so
            # no monomial is rehashed and no (monomial, coefficient) pair
            # is built; equal polynomials still hash alike
            terms = self._terms
            self._hash = hash(
                (self.semiring.name, frozenset(terms), frozenset(terms.values()))
            )
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic sugar ---------------------------------------------------

    def __add__(self, other: Any) -> "Polynomial":
        return self.semiring.plus(self, self.semiring.coerce(other))

    __radd__ = __add__

    def __mul__(self, other: Any) -> "Polynomial":
        return self.semiring.times(self, self.semiring.coerce(other))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        return self.semiring.pow(self, n)

    # -- structure ----------------------------------------------------------

    def terms(self) -> Iterator[Tuple[Monomial, Any]]:
        """Iterate ``(monomial, coefficient)`` pairs in canonical order."""
        return iter(
            sorted(
                self._terms.items(),
                key=lambda kv: (-kv[0].degree, str(kv[0])),
            )
        )

    def monomials(self) -> frozenset:
        """The support: the set of monomials with non-zero coefficient."""
        return frozenset(self._terms)

    def coefficient(self, mono: Monomial) -> Any:
        """The coefficient of ``mono`` (coefficient-semiring zero if absent)."""
        return self._terms.get(mono, self.semiring.coefficients.zero)

    def variables(self) -> frozenset:
        """All indeterminates occurring anywhere in the polynomial."""
        out: set = set()
        for mono in self._terms:
            out |= mono.variables()
        return frozenset(out)

    @property
    def degree(self) -> int:
        """Total degree (0 for constants; 0 for the zero polynomial)."""
        return max((m.degree for m in self._terms), default=0)

    def is_constant(self) -> bool:
        """True iff the polynomial is ``c * 1`` for some coefficient ``c``."""
        terms = self._terms
        return not terms or (len(terms) == 1 and _UNIT_MONOMIAL in terms)

    def constant_value(self) -> Any:
        """The coefficient value of a constant polynomial.

        Raises :class:`SemiringError` when the polynomial has variables.
        This realises the Prop. 4.4 collapse ``K^M = K`` once every
        equality atom has been resolved.
        """
        if not self.is_constant():
            raise SemiringError(f"polynomial {self} is not constant")
        return self._terms.get(_UNIT_MONOMIAL, self.semiring.coefficients.zero)

    def size(self) -> int:
        """A representation-size measure: total monomial length + #terms.

        Used by the poly-size-overhead experiments (E2, E10) to measure
        annotation growth.
        """
        return len(self._terms) + sum(m.degree for m in self._terms)

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return self.semiring.coefficients.format(self.semiring.coefficients.zero)
        coeff = self.semiring.coefficients
        parts = []
        for mono, c in self.terms():
            if not mono:
                parts.append(coeff.format(c))
            elif coeff.is_one(c):
                parts.append(str(mono))
            else:
                parts.append(f"{coeff.format(c)}*{mono}")
        return " + ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.semiring.name}: {self}>"


class PolynomialSemiring(Semiring):
    """The semiring ``K[X]`` of polynomials over coefficient semiring ``K``.

    The variable universe is open-ended: any hashable value can be an
    indeterminate, including the structured :class:`ProvenanceTerm`
    indeterminates (delta-terms, equality atoms).  Structural properties
    are inherited from the coefficient semiring:

    * plus-idempotent  iff the coefficients are (``p + p`` doubles coefficients);
    * positive         iff the coefficients are;
    * hom-to-N         iff the coefficients have one (evaluate all variables at 1).
    """

    def __init__(self, coefficients: Semiring, name: str | None = None):
        self.coefficients = coefficients
        self.name = name if name is not None else f"{coefficients.name}[X]"
        self.idempotent_plus = coefficients.idempotent_plus
        self.idempotent_times = False
        self.positive = coefficients.positive
        self.has_hom_to_nat = coefficients.has_hom_to_nat
        self.has_delta = True
        self._zero = Polynomial(self, {})
        self._one = Polynomial(self, {_UNIT_MONOMIAL: coefficients.one})
        # products of non-zero coefficients stay non-zero over N (no zero
        # divisors) and sums do over any positive carrier; precomputing the
        # two flags lets the kernels hand accumulators to the trusted
        # constructor without a per-result _finish dispatch
        self._trusted_sums = coefficients.positive
        self._trusted_products = coefficients.is_naturals

    # -- constants and constructors ---------------------------------------

    @property
    def zero(self) -> Polynomial:
        return self._zero

    @property
    def one(self) -> Polynomial:
        return self._one

    def variable(self, var: Any, exponent: int = 1) -> Polynomial:
        """The polynomial consisting of the single indeterminate ``var``."""
        if exponent == 0:
            return self._one
        return Polynomial(self, {Monomial({var: exponent}): self.coefficients.one})

    def variables(self, *names: Any) -> Tuple[Polynomial, ...]:
        """Convenience: several single-variable polynomials at once."""
        return tuple(self.variable(name) for name in names)

    def constant(self, c: Any) -> Polynomial:
        """Embed the coefficient ``c`` as a constant polynomial."""
        if not self.coefficients.contains(c):
            raise SemiringError(
                f"{c!r} is not an element of coefficient semiring {self.coefficients.name}"
            )
        return Polynomial(self, {_UNIT_MONOMIAL: c})

    def monomial(self, powers: Mapping[Any, int], coefficient: Any = None) -> Polynomial:
        """Build ``coefficient * prod(var^exp)`` directly."""
        c = self.coefficients.one if coefficient is None else coefficient
        return Polynomial(self, {Monomial(powers): c})

    def coerce(self, value: Any) -> Polynomial:
        """Coerce ``value`` into this semiring.

        Accepts polynomials of this semiring, coefficient elements, and
        (when coefficients are numeric) Python ints via ``from_int``.
        """
        if isinstance(value, Polynomial):
            if value.semiring is not self:
                raise SemiringError(
                    f"polynomial from {value.semiring.name} used in {self.name}"
                )
            return value
        if self.coefficients.contains(value):
            return self.constant(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return self.constant(self.coefficients.from_int(value))
        raise SemiringError(f"cannot coerce {value!r} into {self.name}")

    def contains(self, value: Any) -> bool:
        return isinstance(value, Polynomial) and value.semiring is self

    def is_zero(self, a: Polynomial) -> bool:
        # elements carry no zero coefficients, so zero <=> no terms (the
        # generic `a == self.zero` pays full structural equality per call)
        return not a._terms

    def is_one(self, a: Polynomial) -> bool:
        terms = a._terms
        return (
            len(terms) == 1
            and _UNIT_MONOMIAL in terms
            and self.coefficients.is_one(terms[_UNIT_MONOMIAL])
        )

    # -- semiring operations ----------------------------------------------

    def plus(self, a: Polynomial, b: Polynomial) -> Polynomial:
        coeff = self.coefficients
        merged = dict(a._terms)
        plus = coeff.plus
        for mono, c in b._terms.items():
            if mono in merged:
                merged[mono] = plus(merged[mono], c)
            else:
                merged[mono] = c
        return self._finish(merged)

    def times(self, a: Polynomial, b: Polynomial) -> Polynomial:
        coeff = self.coefficients
        a_terms, b_terms = a._terms, b._terms
        if len(a_terms) == 1 and len(b_terms) == 1:
            # the join hot path: token * token — no cross-term merge at all.
            # The same base annotations meet again on every evaluation of a
            # join, so the product is memoized on the left operand, capped
            # as Monomial.mul's table is (it pins partners and products).
            # Keyed by the partner's identity, so nothing hashes a
            # polynomial (a fresh one would hash all its terms); the entry
            # holds the partner, so its id cannot be reused while cached
            cache = a._mul_cache
            if cache is None:
                cache = a._mul_cache = {}
            else:
                hit = cache.get(id(b))
                if hit is not None:
                    return hit[1]
            (mono_a, ca), = a_terms.items()
            (mono_b, cb), = b_terms.items()
            product = {mono_a.mul(mono_b): coeff.times(ca, cb)}
            if self._trusted_products:
                result = Polynomial._from_clean(self, product)
            else:
                result = self._finish(product, check_products=True)
            if len(cache) < _MUL_CACHE_LIMIT:
                cache[id(b)] = (b, result)
            return result
        out: Dict[Monomial, Any] = {}
        plus, times = coeff.plus, coeff.times
        for mono_a, ca in a_terms.items():
            for mono_b, cb in b_terms.items():
                mono = mono_a.mul(mono_b)
                c = times(ca, cb)
                if mono in out:
                    out[mono] = plus(out[mono], c)
                else:
                    out[mono] = c
        return self._finish(out, check_products=True)

    # -- n-ary kernels ------------------------------------------------------
    #
    # The pairwise fold rebuilds an intermediate ``Polynomial`` (dict copy +
    # zero filter) per element — O(n^2) dict entries for an n-way sum of
    # single-term annotations, which is exactly the GROUP BY shape.  The
    # kernels accumulate every input into ONE coefficient dict and
    # materialise a single polynomial through the trusted constructor.

    def sum_many(self, items: Iterable[Polynomial]) -> Polynomial:
        coeff = self.coefficients
        plus = coeff.plus
        merged: Dict[Monomial, Any] = {}
        for poly in items:
            for mono, c in poly._terms.items():
                if mono in merged:
                    merged[mono] = plus(merged[mono], c)
                else:
                    merged[mono] = c
        return self._finish(merged)

    def prod_many(self, items: Iterable[Polynomial]) -> Polynomial:
        # starts from the first factor, not from 1: ``times`` memoizes on
        # its left operand, and the shared unit would collect every product
        result = None
        for poly in items:
            if not poly._terms:
                return self._zero
            result = poly if result is None else self.times(result, poly)
        return self._one if result is None else result

    def dot(self, pairs: Iterable[Any]) -> Polynomial:
        """``sum(a * b)`` accumulated into a single coefficient dict."""
        coeff = self.coefficients
        plus, times = coeff.plus, coeff.times
        merged: Dict[Monomial, Any] = {}
        for a, b in pairs:
            for mono_a, ca in a._terms.items():
                for mono_b, cb in b._terms.items():
                    mono = mono_a.mul(mono_b)
                    c = times(ca, cb)
                    if mono in merged:
                        merged[mono] = plus(merged[mono], c)
                    else:
                        merged[mono] = c
        return self._finish(merged, check_products=True)

    def _finish(
        self, terms: Dict[Monomial, Any], *, check_products: bool = False
    ) -> Polynomial:
        """Zero-filter an accumulator dict in place and wrap it trusted.

        Over positive coefficients a sum of non-zero coefficients is never
        zero, so plus-only accumulators skip the filter entirely;
        accumulators that multiplied coefficients (``check_products``) are
        scanned unless the coefficient semiring is one of the canonical
        zero-divisor-free carriers (``N``: products of non-zeros stay
        non-zero).
        """
        if self._trusted_sums and (not check_products or self._trusted_products):
            return Polynomial._from_clean(self, terms)
        is_zero = self.coefficients.is_zero
        dead = [mono for mono, c in terms.items() if is_zero(c)]
        for mono in dead:
            del terms[mono]
        return Polynomial._from_clean(self, terms)

    def from_int(self, n: int) -> Polynomial:
        return self.constant(self.coefficients.from_int(n))

    # -- delta-semiring structure (free construction, Definition 3.6) ------

    def delta(self, a: Polynomial) -> Polynomial:
        """The delta of the free delta-semiring ``K[X, d]``.

        Constants are handled by the coefficient semiring's own delta when
        it has one (this realises the d-laws ``d(0) = 0``, ``d(n 1) = 1``);
        any polynomial with genuine indeterminates becomes a fresh symbolic
        indeterminate ``d(p)`` (a :class:`~repro.semirings.delta.DeltaTerm`),
        which homomorphisms push inward: ``h(d(p)) = d(h(p))``.
        """
        from repro.semirings.delta import DeltaTerm  # local import: avoid cycle

        if a.is_constant():
            c = a.constant_value()
            if self.coefficients.has_delta:
                return self.constant(self.coefficients.delta(c))
        return self.variable(DeltaTerm(a))

    # -- homomorphism to N (Thm. 3.13 route to compatibility) --------------

    def hom_to_nat(self, a: Polynomial) -> int:
        """Evaluate every indeterminate at 1 and coefficients via their hom.

        This is the canonical homomorphism ``K[X] -> N`` (it exists exactly
        when the coefficient semiring has one).
        """
        if not self.has_hom_to_nat:
            raise SemiringError(f"{self.name} has no homomorphism to N")
        from repro.semirings.homomorphism import valuation_hom  # avoid cycle

        hom = valuation_hom(self, NAT, lambda var: 1)
        return hom(a)


_POLYNOMIAL_CACHE: "weakref.WeakKeyDictionary[Semiring, Any]" = (
    weakref.WeakKeyDictionary()
)


def polynomials_over(coefficients: Semiring) -> PolynomialSemiring:
    """The polynomial semiring over ``coefficients`` (cached per semiring).

    Caching makes ``polynomials_over(NAT) is polynomials_over(NAT)`` hold,
    so polynomials built in different modules interoperate.  The cache is
    weak on *both* sides: an ``id()`` key would survive the semiring's
    collection and could silently alias a recycled id to the wrong
    polynomial structure, and a strong value would pin its key (the
    ``K[X]`` object references its coefficients) making every entry
    immortal.  Identity remains observable-stable: any live polynomial
    holds its ``K[X]`` strongly, which keeps the weak value alive; once
    nothing references the structure or its elements, rebuilding it on
    the next call is indistinguishable.
    """
    ref = _POLYNOMIAL_CACHE.get(coefficients)
    semiring = ref() if ref is not None else None
    if semiring is None:
        semiring = PolynomialSemiring(coefficients)
        _POLYNOMIAL_CACHE[coefficients] = weakref.ref(semiring)
    return semiring


#: The provenance polynomials ``N[X]`` of Green, Karvounarakis & Tannen.
NX = polynomials_over(NAT)

# Z[X] is built here (rather than lazily) because the naive Figure-2
# baseline and the Z-difference comparisons both need it.
from repro.semirings.integers import INT  # noqa: E402  (import placed late by design)

#: Polynomials with integer coefficients; hosts ``p-hat = 1 - p``.
ZX = polynomials_over(INT)

# N[X] runs the encoded tier over ids of single terms; ZX keeps the object
# tier (its coefficients can cancel, so a fold could meet a zero sum)
from repro.semirings.terms import TermStore  # noqa: E402  (needs the classes above)

#: ``N[X]``'s machine representation (:mod:`repro.semirings.terms`): one
#: generation of interned terms, replaced when it fills up.
NX.machine_repr = TermStore(NX)
