"""Commutative semirings: the annotation structures of the paper.

A commutative semiring is a structure ``(K, +, *, 0, 1)`` where ``(K, +, 0)``
and ``(K, *, 1)`` are commutative monoids, ``*`` distributes over ``+``, and
``0`` is absorbing for ``*`` (Section 2.1 of the paper).

Design
------
Semirings are represented by *singleton objects* implementing the
:class:`Semiring` interface, while their **elements are ordinary Python
values** (``bool`` for the boolean semiring, ``int`` for the natural-numbers
semiring, :class:`~repro.semirings.polynomials.Polynomial` for provenance
polynomials, and so on).  This keeps element arithmetic allocation-free for
the concrete semirings while letting every database operator be written once,
generically, against the interface.

The interface also exposes the *structural properties* the paper's theory
keys on:

``idempotent_plus``
    whether ``a + a = a`` (Prop. 3.11: such semirings are only compatible
    with idempotent aggregation monoids);
``positive``
    whether ``a + b = 0`` implies ``a = b = 0`` (Thm. 3.12: positive
    semirings are compatible with every idempotent monoid);
``has_hom_to_nat``
    whether a semiring homomorphism into the naturals exists (Thm. 3.13:
    such "bag-like" semirings are compatible with *every* commutative
    monoid).

Finally, a semiring may be a **delta-semiring** (Definition 3.6): it then
carries a unary ``delta`` with ``delta(0) = 0`` and ``delta(n * 1) = 1`` for
``n >= 1``, used to annotate GROUP BY results.
"""

from __future__ import annotations

import abc
import itertools
from types import SimpleNamespace
from typing import Any, Callable, Iterable, List

from repro.exceptions import SemiringError
from repro.monoids.base import reduce_as_global

__all__ = ["EncodedFallback", "MachineRepr", "Semiring", "ProvenanceTerm", "check_semiring_axioms"]

#: Conservative exact-representability bound for ``int64`` machine reprs.
#: This is the *scan-level* qualification only; the encoded tier
#: additionally tracks an exact per-batch magnitude bound through joins
#: and reductions (``EncodedBatch.ann_bound``) and falls back before any
#: int64 arithmetic could wrap.
_INT64_SAFE = 1 << 31

class MachineRepr:
    """Declares that a semiring's elements have a machine representation.

    The capability contract behind the planner's dictionary-encoded
    execution tier: a semiring carrying a ``MachineRepr`` can
    have its annotations stored in flat NumPy arrays and its ``+``/``*``/
    ``delta`` executed as array kernels.  NumPy is the optional
    accelerator that buys that tier (and the parallel tier on top of it);
    without it the descriptor is inert, every plan runs the object tier,
    and every answer is identical.  The descriptor names

    * ``dtype`` — the array element type (``"int64"``, ``"float64"`` or
      ``"bool"``), used verbatim as the NumPy dtype;
    * ``np_plus`` / ``np_times`` — NumPy ufunc *names* (``"add"``,
      ``"minimum"``, ``"logical_or"``, ...) implementing ``+_K`` / ``*_K``
      elementwise (names, looked up lazily, so declaring a repr never
      imports NumPy).

    and supplies the array kernels the tier calls: :attr:`plus` (a ufunc:
    ``plus.reduceat`` per segment, ``plus.at`` to scatter), :attr:`times`
    (elementwise), :meth:`delta`, and the conversions :meth:`encode` /
    :meth:`decode` / :meth:`code` between elements and array entries.  A
    numeric repr's entries *are* its elements.  A repr whose entries are
    not — an :class:`~repro.semirings.interning.Interner`: circuit gates or
    ``N[X]`` terms as ids into a per-process store — overrides the
    kernels; the gate store's ``plus`` offers ``reduceat`` only, the term
    store has no array ``plus`` at all (:attr:`merges` is false), and
    neither is :attr:`bounded` nor :attr:`portable`.

    ``fits`` is the per-value qualification test: a value that does not
    round-trip *exactly and type-identically* through the dtype
    disqualifies its batch from the encoded tier at encode time — the
    engine silently falls back to the boxed object path rather than ever
    computing approximately.  "Type-identically" is why ``float64`` reprs
    reject Python ints even though many are exactly representable: an
    array round-trip would hand back ``3.0`` where the object path keeps
    ``3``, and the tier's contract is that results are indistinguishable.
    Downstream growth (join products, grouped sums) of a :attr:`bounded`
    repr is guarded separately and exactly by the per-batch magnitude
    bound (the planner's ``check_reduction_bound``).

    The default :meth:`delta` is the support indicator ``a == 0 ? 0 : 1``
    — the delta of every numeric semiring shipped (``N``, ``B``, ``Z``,
    tropical, Viterbi); a repr for a semiring with another delta
    overrides it, as the gate store does (it interns a delta gate).
    """

    __slots__ = ("dtype", "np_plus", "np_times")

    #: Are array entries self-contained values, not ids into a
    #: per-process store?  The parallel tier shards only such reprs, and
    #: names what the entries of any other repr are.
    portable = True
    entry_kind = "machine scalars"
    #: the ``op`` label of the repr's fallbacks on the encoded-kernel counter
    metric_op = "scalars"

    #: Does ``+`` run on the tier?  A repr whose entries are single terms
    #: (:class:`repro.semirings.terms.TermStore`) leaves every sum to one
    #: fold per output: its batches keep their rows unmerged, and δ falls
    #: back to the object tier.
    merges = True

    def __init__(self, dtype: str, np_plus: str, np_times: str):
        if dtype not in ("int64", "float64", "bool"):
            raise SemiringError(f"unsupported machine dtype {dtype!r}")
        self.dtype = dtype
        self.np_plus = np_plus
        self.np_times = np_times

    def fits(self, value: Any) -> bool:
        """Is ``value`` exactly *and type-identically* representable?"""
        if self.dtype == "int64":
            return (
                isinstance(value, int)
                and not isinstance(value, bool)
                and -_INT64_SAFE <= value <= _INT64_SAFE
            )
        if self.dtype == "float64":
            # Python ints are rejected even when exactly representable:
            # the array round-trip would retype them as floats, which the
            # object path can observe (see the class docstring)
            return type(value) is float
        return isinstance(value, bool)

    @property
    def bounded(self) -> bool:
        """Does the int64 magnitude bound guard this repr's arithmetic?"""
        return self.dtype == "int64"

    # -- array kernels -------------------------------------------------------

    @property
    def plus(self):
        """``+_K`` as a NumPy ufunc."""
        return getattr(_np(), self.np_plus)

    @property
    def times(self):
        """``*_K`` as a NumPy ufunc."""
        return getattr(_np(), self.np_times)

    def delta(self, anns, zero, one):
        """Elementwise ``delta`` of ``anns`` given the entries ``zero`` and
        ``one`` of ``0_K`` and ``1_K``: the support indicator."""
        zero, one = anns.dtype.type(zero), anns.dtype.type(one)
        return _np().where(anns == zero, zero, one)

    def unfit(self, value: Any) -> str:
        """Why ``value`` does not :meth:`fits` (``explain`` says so)."""
        return f"annotation {value!r} is not an exact {self.dtype}"

    def code(self, value: Any) -> Any:
        """The array entry of one element (``0_K``, ``1_K``)."""
        return value

    def encode(self, values: List[Any]):
        """The array of the (fitting) elements ``values``."""
        return _np().asarray(values, dtype=_np().dtype(self.dtype))

    def decode(self, array) -> List[Any]:
        """The elements of an array, as native Python values."""
        return array.tolist()

    def fallback(self, cause: str) -> "EncodedFallback":
        """An :class:`EncodedFallback` for ``cause``, counted on the
        encoded-kernel counter under this repr's ``metric_op``."""
        from repro.obs import metrics

        metrics.ENCODED_KERNEL.inc(1, self.metric_op, f"fallback: {cause}")
        return EncodedFallback(cause)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<machine repr {self.dtype} +={self.np_plus} *={self.np_times}>"


class EncodedFallback(Exception):
    """Internal control flow: this input needs the boxed object path.

    Raised by encoded operator kernels when a batch cannot be handled
    exactly (symbolic values in a guarded column, an unknown condition
    class, a code-space overflow, an interning store that rolled over).
    The catching operator materialises the batch and re-runs the object
    implementation — which also reproduces the object path's exact error
    behaviour for inputs that *should* raise.
    """


#: Where the array kernels take NumPy from: the planner's kernels module,
#: the one place NumPy is imported, puts itself here when it loads, so the
#: semiring layer reaches NumPy without importing the planner.  Until
#: then there is none, and whether NumPy is installed is not known yet
#: (``HAVE_NUMPY`` is ``None``, not ``False``).
accelerator: Any = SimpleNamespace(np=None, HAVE_NUMPY=None)


def _np():
    """NumPy (see :data:`accelerator`), read at each kernel call."""
    return accelerator.np


class ProvenanceTerm(abc.ABC):
    """An indeterminate that knows how to map itself under a homomorphism.

    Provenance polynomials admit three kinds of indeterminate: plain tokens
    (any hashable value, typically strings), :class:`~repro.semirings.delta.DeltaTerm`
    wrappers (for the free delta-semiring ``N[X, d]``), and
    :class:`~repro.core.equality.EqualityAtom` comparison tokens (for the
    ``K^M`` construction of Section 4).  The latter two are *structured*: a
    homomorphism does not simply substitute a value for them but recurses
    into their structure (``h(d(e)) = d(h(e))``; equality atoms map their
    tensor sides and may then resolve).  Subclassing this ABC is how a
    structured indeterminate opts into that behaviour.
    """

    @abc.abstractmethod
    def apply_hom(self, hom: "Any") -> Any:
        """Return the image of this indeterminate under ``hom``.

        ``hom`` is a :class:`~repro.semirings.homomorphism.Homomorphism`
        whose source contains this term; the result is an element of
        ``hom.target``.
        """


class Semiring(abc.ABC):
    """Abstract commutative semiring ``(K, +, *, 0, 1)``.

    Concrete subclasses define the carrier (via :meth:`contains`), the two
    operations, and the structural flags.  Elements are plain Python values;
    all operations are pure.
    """

    #: Human-readable name, e.g. ``"N"`` or ``"N[X]"``.
    name: str = "K"

    #: True iff ``a + a = a`` for all elements.
    idempotent_plus: bool = False

    #: True iff ``a * a = a`` for all elements.
    idempotent_times: bool = False

    #: True iff ``a + b = 0`` implies ``a = b = 0`` ("positive w.r.t. +").
    positive: bool = True

    #: True iff a semiring homomorphism ``K -> N`` exists (Thm. 3.13).
    has_hom_to_nat: bool = False

    #: True iff :meth:`delta` is defined (Definition 3.6).
    has_delta: bool = False

    #: True for the canonical naturals semiring (drives ``N (x) M ~ M``).
    is_naturals: bool = False

    #: True for the canonical boolean semiring (drives ``B (x) M ~ M``).
    is_booleans: bool = False

    #: the module-level singletons (``NAT``, ``NX``, ...) pickle by name
    __reduce_ex__ = reduce_as_global

    #: Machine-scalar declaration for the dictionary-encoded execution tier
    #: (:class:`MachineRepr`); ``None`` means elements are structured Python
    #: objects and the planner keeps the boxed object path.
    machine_repr: "MachineRepr | None" = None

    # ------------------------------------------------------------------
    # Carrier and constants
    # ------------------------------------------------------------------

    @property
    @abc.abstractmethod
    def zero(self) -> Any:
        """The additive identity ``0_K`` (also multiplicatively absorbing)."""

    @property
    @abc.abstractmethod
    def one(self) -> Any:
        """The multiplicative identity ``1_K``."""

    @abc.abstractmethod
    def contains(self, value: Any) -> bool:
        """Return ``True`` iff ``value`` is an element of this semiring."""

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def plus(self, a: Any, b: Any) -> Any:
        """Return ``a +_K b``."""

    @abc.abstractmethod
    def times(self, a: Any, b: Any) -> Any:
        """Return ``a *_K b``."""

    def is_zero(self, a: Any) -> bool:
        """Return ``True`` iff ``a`` equals ``0_K``."""
        return a == self.zero

    def is_one(self, a: Any) -> bool:
        """Return ``True`` iff ``a`` equals ``1_K``."""
        return a == self.one

    def sum(self, items: Iterable[Any]) -> Any:
        """Fold ``+_K`` over ``items`` (``0_K`` for the empty iterable)."""
        result = self.zero
        for item in items:
            result = self.plus(result, item)
        return result

    def prod(self, items: Iterable[Any]) -> Any:
        """Fold ``*_K`` over ``items`` (``1_K`` for the empty iterable)."""
        result = self.one
        for item in items:
            result = self.times(result, item)
        return result

    # ------------------------------------------------------------------
    # N-ary kernels
    # ------------------------------------------------------------------
    #
    # ``sum_many``/``prod_many``/``dot`` are the bulk forms of ``+``/``*``:
    # semantically identical to the pairwise folds (associativity +
    # commutativity), but overridable so that semirings with structured
    # carriers (polynomials, tensors, circuits) can build the result in one
    # pass instead of re-normalising an intermediate per element.  Query
    # operators that combine more than two annotations at a time (grouped
    # aggregation, projection merges, polynomial evaluation) call these.

    def sum_many(self, items: Iterable[Any]) -> Any:
        """N-ary ``+_K``: equal to ``sum`` but a single fused reduction.

        Override when the carrier admits a faster-than-pairwise merge (one
        shared accumulator instead of per-step normal forms).
        """
        return self.sum(items)

    def prod_many(self, items: Iterable[Any]) -> Any:
        """N-ary ``*_K``: equal to ``prod`` but a single fused reduction."""
        return self.prod(items)

    def dot(self, pairs: Iterable[Any]) -> Any:
        """Fused scale-and-accumulate: ``sum_K(a *_K b for (a, b) in pairs)``.

        The inner-product shape of projection-after-join and of polynomial
        evaluation; the default composes the two kernels, overrides fuse
        the product into the running accumulator.
        """
        times = self.times
        return self.sum_many(times(a, b) for a, b in pairs)

    def pow(self, a: Any, n: int) -> Any:
        """Return ``a`` multiplied with itself ``n`` times (``a^0 = 1_K``)."""
        if n < 0:
            raise SemiringError(f"negative exponent {n} in semiring {self.name}")
        result = self.one
        for _ in range(n):
            result = self.times(result, a)
        return result

    def from_int(self, n: int) -> Any:
        """The canonical image of the natural number ``n``: ``n * 1_K``.

        Every semiring receives a unique homomorphism-like map from ``N``
        this way (it is a genuine homomorphism exactly when the semiring's
        characteristic permits); it is how polynomial coefficients embed.

        The fallback is O(log n) double-and-add rather than repeated
        addition (``n * 1 = (n//2) * 1 + (n//2) * 1 [+ 1]``), with the
        plus-idempotent collapse ``n * 1 = 1`` for ``n >= 1`` taken first;
        semirings whose carrier makes the embedding trivial override it
        outright (``N``, ``Z``, ``B``, polynomials, circuits).
        """
        if n < 0:
            raise SemiringError(f"cannot embed negative integer {n} into {self.name}")
        if n == 0:
            return self.zero
        if self.idempotent_plus:
            return self.one
        plus = self.plus
        result = None
        addend = self.one
        while True:
            if n & 1:
                result = addend if result is None else plus(result, addend)
            n >>= 1
            if not n:
                return result
            addend = plus(addend, addend)

    # ------------------------------------------------------------------
    # Optional structure
    # ------------------------------------------------------------------

    def delta(self, a: Any) -> Any:
        """The delta operation of Definition 3.6 (GROUP BY annotations).

        Must satisfy ``delta(0) = 0`` and ``delta(n * 1) = 1`` for ``n >= 1``.
        Only available when :attr:`has_delta` is true.
        """
        raise SemiringError(f"semiring {self.name} does not define a delta operation")

    def hom_to_nat(self, a: Any) -> int:
        """Apply a fixed semiring homomorphism ``K -> N`` to ``a``.

        Only available when :attr:`has_hom_to_nat` is true.  The choice of
        homomorphism is canonical per semiring (e.g. "evaluate every
        indeterminate at 1" for provenance polynomials); Theorem 3.13 shows
        its existence suffices for compatibility with every monoid.
        """
        raise SemiringError(f"semiring {self.name} has no homomorphism to N")

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def format(self, a: Any) -> str:
        """Render element ``a`` for display (tables, examples, docs)."""
        return str(a)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<semiring {self.name}>"


def check_semiring_axioms(
    semiring: Semiring,
    samples: Iterable[Any],
    *,
    equal: Callable[[Any, Any], bool] | None = None,
) -> None:
    """Verify the commutative-semiring axioms on a finite sample of elements.

    Exercises associativity, commutativity, identities, distributivity and
    annihilation over every pair/triple drawn from ``samples``.  Raises
    :class:`SemiringError` naming the first violated law.  Used by the unit
    and property-based test suites; exposed publicly so users can sanity
    check semirings of their own.

    Parameters
    ----------
    semiring:
        The structure under test.
    samples:
        Elements to combine.  Axioms are checked on all pairs and triples,
        so keep the sample modest (|samples| <= ~8 gives <= 512 triples).
    equal:
        Optional equality override (useful for semirings whose structural
        equality is finer than semantic equality, e.g. boolean expressions).
    """
    eq = equal if equal is not None else (lambda x, y: x == y)
    elems = list(samples)
    zero, one = semiring.zero, semiring.one

    def _require(condition: bool, law: str, *args: Any) -> None:
        if not condition:
            shown = ", ".join(semiring.format(a) for a in args)
            raise SemiringError(f"{semiring.name}: {law} violated on ({shown})")

    for a in elems:
        _require(eq(semiring.plus(a, zero), a), "additive identity", a)
        _require(eq(semiring.times(a, one), a), "multiplicative identity", a)
        _require(eq(semiring.times(a, zero), zero), "annihilation", a)
        _require(eq(semiring.times(zero, a), zero), "annihilation (left)", a)
        if semiring.idempotent_plus:
            _require(eq(semiring.plus(a, a), a), "plus idempotence", a)
        if semiring.idempotent_times:
            _require(eq(semiring.times(a, a), a), "times idempotence", a)

    for a, b in itertools.product(elems, repeat=2):
        _require(
            eq(semiring.plus(a, b), semiring.plus(b, a)), "plus commutativity", a, b
        )
        _require(
            eq(semiring.times(a, b), semiring.times(b, a)), "times commutativity", a, b
        )
        if semiring.positive and eq(semiring.plus(a, b), zero):
            _require(
                eq(a, zero) and eq(b, zero), "positivity (a+b=0 => a=b=0)", a, b
            )

    for a, b, c in itertools.product(elems, repeat=3):
        _require(
            eq(
                semiring.plus(semiring.plus(a, b), c),
                semiring.plus(a, semiring.plus(b, c)),
            ),
            "plus associativity",
            a, b, c,
        )
        _require(
            eq(
                semiring.times(semiring.times(a, b), c),
                semiring.times(a, semiring.times(b, c)),
            ),
            "times associativity",
            a, b, c,
        )
        _require(
            eq(
                semiring.times(a, semiring.plus(b, c)),
                semiring.plus(semiring.times(a, b), semiring.times(a, c)),
            ),
            "distributivity",
            a, b, c,
        )

    if semiring.has_delta:
        _require(eq(semiring.delta(zero), zero), "delta(0) = 0", zero)
        _require(eq(semiring.delta(one), one), "delta(1) = 1", one)
        _require(
            eq(semiring.delta(semiring.plus(one, one)), one),
            "delta(1+1) = 1",
            one,
        )
