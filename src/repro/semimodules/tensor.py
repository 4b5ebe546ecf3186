"""The tensor product ``K (x) M`` (Section 2.3): annotated aggregate values.

The construction: start from bags of *simple tensors* ``k (x) m``, quotient
by the congruence generated by

====================================  =========================================
``(k + k') (x) m  ~  k(x)m + k'(x)m``  scalars add over a shared value
``0_K (x) m       ~  0``               absent data contributes nothing
``k (x) (m + m')  ~  k(x)m + k(x)m'``  values merge under a shared scalar
``k (x) 0_M       ~  0``               the neutral value contributes nothing
====================================  =========================================

The result is the ``K``-semimodule *freely generated by* ``M`` (Prop. B.2);
an aggregate value like ``p1(x)20 + p2(x)10`` is exactly the paper's formal
expression recording *how* the aggregate is computed from annotated inputs.

Normal form and equality
------------------------
We keep tensors in the canonical form induced by the **left column** of the
congruence: one entry per distinct monoid value, scalars merged by ``+_K``,
zero scalars and the value ``0_M`` dropped.  The right column (merging
*values* under equal scalars) is applied only through the **collapse
isomorphisms**: ``N (x) M ~ M`` (for every ``M``: ``n (x) m ~ 1 (x) n.m``)
and ``B (x) M ~ M`` (for idempotent ``M``).  Where ``iota`` is an
isomorphism, equality is decided exactly by collapsing; elsewhere equality
of normal forms is sound (equal forms => equal tensors) and complete for
the free semiring ``N[X]`` whose coefficients never merge values.  This is
precisely the regime in which the paper itself resolves equality (axiom (*)
of Section 4.2); see DESIGN.md "Substitutions".

Where ``iota`` is an isomorphism a tensor *is* its collapsed value, so
the normal form there is ``iota(c)``: the one entry ``{c: 1_K}``, or no
entry when ``c = 0_M``.  Every constructor ends in one normalising step
(:meth:`TensorSpace._normal`) that folds the *exact* values
(:meth:`CommutativeMonoid.exact`: every grouping of their fold gives the
same value, bit for bit and type for type) into that one entry, so the
sum of two normal forms is ``+_M`` of their values.  A float SUM, PROD or
AVG total is not exact (``fsum(a) + fsum(b) != fsum(a + b)``): it keeps
its own entry beside the exact part, whichever order the values came in,
and the tensor folds on first use, in one order-free pass; so does every
tensor of a space that does not collapse.

The deterministically-ordered presentation is derived only when something
first displays a tensor: equality and hashing never needed it — a dict
compares as a multiset and hashes via ``frozenset`` — so the execution hot
path (fold, scale, aggregate) touches no sort at all.
"""

from __future__ import annotations

import weakref
from itertools import compress, filterfalse
from operator import mul
from typing import Any, Dict, Iterable, Iterator, Tuple

from repro.exceptions import SemimoduleError
from repro.monoids.base import CommutativeMonoid
from repro.semirings.base import Semiring

__all__ = ["Tensor", "TensorSpace", "tensor_space"]


def _value_sort_key(value: Any) -> Tuple[str, str]:
    """Deterministic display ordering for heterogeneous monoid values."""
    return (type(value).__name__, str(value))


class _Unset:
    """"Not collapsed yet".  The class itself is the marker: it pickles
    and copies by name, so it comes back as the same object (an
    ``object()`` would come back a stranger — and be the collapsed value)."""


class Tensor:
    """An element of ``K (x) M`` in canonical normal form.

    Immutable and hashable, so tensors can appear as attribute values
    inside database tuples (which are dictionary keys).  Do not construct
    directly — use :meth:`TensorSpace.simple`, :meth:`TensorSpace.iota`,
    and the arithmetic methods.

    Over a collapsing space a tensor's identity (``==``, ``hash``,
    ``readback``) is its collapsed value, cached in ``_collapsed``; the
    presentation is a function of the values alone (``{c: 1_K}`` where
    they are exact), so equal tensors over exact values print, iterate,
    count and map under homomorphisms alike.  Copies and pickles carry
    the space (by name), the entries and the cache; hash and ordering are
    per-process.
    """

    __slots__ = ("space", "_entries", "_canonical", "_hash", "_collapsed")

    def __init__(self, space: "TensorSpace", items: Dict[Any, Any]):
        self.space = space
        # value -> scalar; normalised by the constructors (no zero scalars,
        # no identity values).  Owned by the tensor: never mutated after.
        self._entries: Dict[Any, Any] = (
            items if type(items) is dict else dict(items)
        )
        self._canonical: Tuple[Tuple[Any, Any], ...] | None = None
        self._hash: int | None = None
        self._collapsed: Any = _Unset

    def __getstate__(self):
        return self.space, self._entries, self._collapsed

    def __setstate__(self, state) -> None:
        self.space, self._entries, self._collapsed = state
        self._canonical = self._hash = None

    # -- protocol ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor) or self.space is not other.space:
            return NotImplemented if not isinstance(other, Tensor) else False
        if self.space.collapses:
            return self.collapse() == other.collapse()
        # dict equality is multiset equality of (value, scalar) pairs —
        # exactly normal-form equality, with no ordering required
        return self._entries == other._entries

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            space = self.space
            if space.collapses:
                h = hash((id(space), _hashable(self.collapse())))
            else:
                # order-independent: agrees with __eq__ without sorting
                h = hash((id(space), frozenset(self._entries.items())))
            self._hash = h
        return h

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator[Tuple[Any, Any]]:
        """Iterate ``(monoid value, scalar)`` pairs in canonical order."""
        return iter(self.items())

    def items(self) -> Tuple[Tuple[Any, Any], ...]:
        """The canonical ``(monoid value, scalar)`` pairs.

        Computed (and cached) on first use: execution folds over the
        backing dict and never pays for the deterministic ordering.
        """
        canonical = self._canonical
        if canonical is None:
            canonical = self._canonical = tuple(
                sorted(self._entries.items(), key=lambda kv: _value_sort_key(kv[0]))
            )
        return canonical

    def __len__(self) -> int:
        return len(self._entries)

    # -- arithmetic sugar ---------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        return self.space.add(self, other)

    def scaled_by(self, scalar: Any) -> "Tensor":
        """The semimodule action ``scalar * self``."""
        return self.space.scalar(scalar, self)

    # -- semantics ----------------------------------------------------------

    def collapse(self) -> Any:
        """Read the tensor back as a monoid value via the iota isomorphism.

        Only legal when :attr:`TensorSpace.collapses` holds (``K = N``, or
        ``K = B`` with idempotent ``M``) — Prop. 3.9's cases.  Known from
        construction where the fold is exact; otherwise computed on first
        use and cached (tensors are immutable).
        """
        value = self._collapsed
        if value is not _Unset:
            return value
        space = self.space
        if not space.collapses:
            raise SemimoduleError(
                f"{space.name} does not collapse onto {space.monoid.name}: "
                "iota is not an isomorphism"
            )
        value = self._collapsed = space._fold(self._entries)
        return value

    def apply_hom(self, hom: Any) -> "Tensor":
        """The lifted homomorphism ``h^M(sum k_i (x) m_i) = sum h(k_i) (x) m_i``,
        the scalars mapped as one batch (:meth:`Homomorphism.map_many`)."""
        return self._mapped(hom.target, hom.map_many(self._entries.values()))

    def _mapped(self, target: Semiring, images: Iterable[Any]) -> "Tensor":
        """The image tensor in ``target (x) M``, given the images of this
        tensor's scalars in entry order (:meth:`TensorSpace.image`)."""
        return tensor_space(target, self.space.monoid).image(self._entries, images)

    def size(self) -> int:
        """Number of simple tensors in the normal form (poly-size metric)."""
        return len(self._entries)

    def grouped_by_scalar(self) -> Tuple[Tuple[Any, Any], ...]:
        """Entries re-grouped by scalar, values merged with ``+_M``.

        The sound congruence rewrite ``k(x)m + k(x)m' ~ k(x)(m + m')``
        applied for *display*: this is how the paper presents Example 3.5
        (``S(x)20 + S(x)30`` as ``S(x)30``) and Example 3.16
        (``S(x)30 + S(x)10`` as ``S(x)40``).  Not a canonical form (it is
        not stable under further addition), hence a read-only view.
        """
        groups: Dict[Any, Any] = {}
        for m, k in self.items():
            if k in groups:
                groups[k] = self.space.monoid.plus(groups[k], m)
            else:
                groups[k] = m
        return tuple(
            sorted(((k, m) for k, m in groups.items()),
                   key=lambda km: _value_sort_key(km[1]))
        )

    def format_grouped(self) -> str:
        """Render via :meth:`grouped_by_scalar` (paper-style presentation)."""
        grouped = self.grouped_by_scalar()
        if not grouped:
            return "0"
        semiring, monoid = self.space.semiring, self.space.monoid
        parts = []
        for k, m in grouped:
            scalar = semiring.format(k)
            if "+" in scalar or " " in scalar:
                scalar = f"({scalar})"
            parts.append(f"{scalar}⊗{monoid.format(m)}")
        return " + ".join(parts)

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        if not self._entries:
            return "0"
        semiring, monoid = self.space.semiring, self.space.monoid
        parts = []
        for m, k in self.items():
            scalar = semiring.format(k)
            if "+" in scalar or " " in scalar:
                scalar = f"({scalar})"
            parts.append(f"{scalar}⊗{monoid.format(m)}")
        return " + ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.space.name}: {self}>"


def _hashable(value: Any) -> Any:
    """Monoid values are hashable by contract; guard exotic ones."""
    hash(value)
    return value


class TensorSpace:
    """The ``K``-semimodule ``K (x) M`` for a semiring ``K`` and monoid ``M``.

    Obtain instances through :func:`tensor_space` (cached, so spaces built
    in different modules are identical objects and their tensors compare).
    """

    def __init__(self, semiring: Semiring, monoid: CommutativeMonoid):
        self.semiring = semiring
        self.monoid = monoid
        self.name = f"{semiring.name}⊗{monoid.name}"
        #: True iff iota : M -> K(x)M is an isomorphism (Prop. 3.9 cases).
        self.collapses = semiring.is_naturals or (
            semiring.is_booleans and monoid.idempotent
        )
        self._zero = Tensor(self, {})
        if self.collapses:
            self._zero._collapsed = monoid.identity

    # -- constants and constructors ---------------------------------------

    @property
    def zero(self) -> Tensor:
        """The empty bag of simple tensors: ``0_{K(x)M}``."""
        return self._zero

    def image(self, values: Iterable[Any], images: Iterable[Any]) -> Tensor:
        """The tensor of this space with the scalars ``images`` on the
        ``values``: a tensor's image under a homomorphism into this
        space's semiring, given its values and its scalars' images in entry
        order.  The values are distinct and none is the identity already,
        so only zero images drop before the normal form (``set_agg``
        without its grouping).  Into ``N``, where every image is an
        ``int`` and every value exact, a monoid that declares a collapse
        kernel folds the normal form's one value straight from them, as
        the encoded tier's collapse does: ``sum k*m`` where ``N`` scales,
        else the fold of the values whose image is not ``0``."""
        monoid = self.monoid
        if self.semiring.is_naturals and monoid.collapse_kernel is not None:
            images = list(images)
            if (set(map(type, images)) <= {int} and min(images, default=0) >= 0
                    and all(map(monoid.exact, values))):
                live = compress(values, images)
                if monoid.collapse_kernel[1]:
                    live = map(mul, filter(None, images), live)
                return self._of(monoid.sum(live))
        is_zero = self.semiring.is_zero
        return self._normal({m: k for m, k in zip(values, images) if not is_zero(k)})

    def simple(self, scalar: Any, value: Any) -> Tensor:
        """The simple tensor ``scalar (x) value`` (normalised)."""
        if self.semiring.is_zero(scalar) or value == self.monoid.identity:
            return self._zero
        return self._normal({value: scalar})

    def iota(self, value: Any) -> Tensor:
        """The embedding ``iota(m) = 1_K (x) m`` of Section 2.3."""
        return self.simple(self.semiring.one, value)

    # -- semimodule operations ---------------------------------------------

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """Bag union with scalar merging: ``(k(x)m) + (k'(x)m) = (k+k')(x)m``."""
        self._check(a)
        self._check(b)
        semiring = self.semiring
        plus, is_zero = semiring.plus, semiring.is_zero
        merged: Dict[Any, Any] = dict(a._entries)
        for m, k in b._entries.items():
            if m in merged:
                combined = plus(merged[m], k)
                if is_zero(combined):
                    del merged[m]
                else:
                    merged[m] = combined
            else:
                merged[m] = k
        return self._normal(merged)

    def scalar(self, k: Any, t: Tensor) -> Tensor:
        """The action ``k * sum(k_i (x) m_i) = sum((k k_i) (x) m_i)``."""
        self._check(t)
        semiring = self.semiring
        if semiring.is_zero(k):
            return self._zero
        times, is_zero = semiring.times, semiring.is_zero
        out: Dict[Any, Any] = {}
        for m, ki in t._entries.items():
            combined = times(k, ki)
            if not is_zero(combined):
                out[m] = combined
        return self._normal(out)

    def sum(self, tensors: Iterable[Tensor]) -> Tensor:
        """N-ary addition (the empty sum is :attr:`zero`).

        Groups every operand's scalars per monoid value and merges each
        group with one :meth:`Semiring.sum_many` call — the semimodule
        face of the n-ary kernels (a fold of :meth:`add` would rebuild the
        accumulator dict per operand).
        """
        groups: Dict[Any, Any] = {}
        for t in tensors:
            self._check(t)
            for m, k in t._entries.items():
                if m in groups:
                    bucket = groups[m]
                    if type(bucket) is list:
                        bucket.append(k)
                    else:
                        groups[m] = [bucket, k]
                else:
                    groups[m] = k
        return self._from_groups(groups)

    sum_many = sum

    def dot(self, scaled: Iterable[Tuple[Any, Tensor]]) -> Tensor:
        """Fused scale-and-accumulate: ``sum(k * t for (k, t) in scaled)``.

        Equal to folding :meth:`scalar` + :meth:`add` pairwise, in one
        accumulation pass (the shape of homomorphic tensor images and of
        Section 4.3 equality-weighted aggregation).
        """
        semiring = self.semiring
        times, is_zero = semiring.times, semiring.is_zero
        groups: Dict[Any, Any] = {}
        for k, t in scaled:
            self._check(t)
            if is_zero(k):
                continue
            for m, ki in t._entries.items():
                combined = times(k, ki)
                if m in groups:
                    bucket = groups[m]
                    if type(bucket) is list:
                        bucket.append(combined)
                    else:
                        groups[m] = [bucket, combined]
                else:
                    groups[m] = combined
        return self._from_groups(groups)

    # -- aggregation of an annotated column (SetAgg, Section 2.2) -----------

    def set_agg(self, annotated_values: Iterable[Tuple[Any, Any]]) -> Tensor:
        """``SetAgg``: aggregate ``(value, annotation)`` pairs into a tensor.

        Implements ``SetAgg_W(S) = k_1 * iota(w_1) + ... + k_n * iota(w_n)``
        for the K-set ``S = {w_i -> k_i}``.  One accumulation dict, one
        ``sum_many`` per distinct monoid value, one tensor at the end —
        there is no per-row simple-tensor or normal-form cost; the empty
        set maps to ``0``.
        """
        identity = self.monoid.identity
        is_zero = self.semiring.is_zero
        groups: Dict[Any, Any] = {}
        for m, k in annotated_values:
            if m == identity or is_zero(k):
                continue
            if m in groups:
                bucket = groups[m]
                if type(bucket) is list:
                    bucket.append(k)
                else:
                    groups[m] = [bucket, k]
            else:
                groups[m] = k
        return self._from_groups(groups)

    def _from_groups(self, groups: Dict[Any, Any]) -> Tensor:
        """Finish an accumulation: merge scalar buckets, drop zero sums.

        ``groups`` maps each monoid value either to a single scalar or to a
        list of scalars awaiting an n-ary merge (the single-scalar fast
        path keeps the common no-duplicate case allocation-free).
        """
        semiring = self.semiring
        sum_many, is_zero = semiring.sum_many, semiring.is_zero
        out: Dict[Any, Any] = {}
        for m, bucket in groups.items():
            combined = sum_many(bucket) if type(bucket) is list else bucket
            if not is_zero(combined):
                out[m] = combined
        return self._normal(out)

    # -- the normal form -----------------------------------------------------

    def _normal(self, entries: Dict[Any, Any]) -> Tensor:
        """The tensor of the (left-column) normalised ``entries``.  Every
        constructor ends here.

        Where ``iota`` is an isomorphism the exact values fold into one
        entry ``1_K (x) c`` and the inexact ones keep theirs, so the form
        depends only on the multiset of values, never on the grouping it
        was built in: ``iota(c)`` when every value is exact.  A float equal
        to ``c`` would share its dictionary key, so it joins ``c``."""
        if not self.collapses:
            return Tensor(self, entries)
        monoid = self.monoid
        inexact = list(filterfalse(monoid.exact, entries))
        if not inexact:
            return self._of(self._fold(entries))
        if len(inexact) == len(entries):
            return Tensor(self, entries)
        kept = {m: entries[m] for m in inexact}
        value = self._fold({m: k for m, k in entries.items() if m not in kept})
        while value in kept:
            value = monoid.plus(value, self._fold({value: kept.pop(value)}))
        if value != monoid.identity:
            kept[value] = self.semiring.one  # last: a NaN never wins MIN/MAX
        return Tensor(self, kept)

    def _of(self, value: Any) -> Tensor:
        """Trusted: the normal form ``iota(value)`` of a tensor whose exact
        collapsed value is ``value``."""
        if value == self.monoid.identity:
            return self._zero
        tensor = Tensor(self, {value: self.semiring.one})
        tensor._collapsed = value
        return tensor

    def _fold(self, entries: Dict[Any, Any]) -> Any:
        """Prop. 3.9's ``sum_M k.m`` over ``entries``: under ``B`` every
        surviving scalar is ``True``, so the values fold alone."""
        monoid = self.monoid
        if self.semiring.is_naturals:
            return monoid.sum(map(monoid.nat_action, entries.values(), entries))
        return monoid.sum(entries)

    # -- helpers -------------------------------------------------------------

    def _check(self, t: Tensor) -> None:
        if t.space is not self:
            raise SemimoduleError(
                f"tensor from {t.space.name} used in {self.name}"
            )

    def __reduce__(self):
        # a copy or an unpickled space is the cached space of its pair
        return tensor_space, (self.semiring, self.monoid)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<tensor space {self.name}>"


_SPACE_CACHE: "weakref.WeakKeyDictionary[Semiring, Any]" = weakref.WeakKeyDictionary()


def tensor_space(semiring: Semiring, monoid: CommutativeMonoid) -> TensorSpace:
    """The tensor space ``K (x) M`` (cached per (semiring, monoid) pair).

    Caching makes spaces built in different modules identical objects so
    their tensors compare.  Keys and values are held *weakly*: an
    ``(id(semiring), id(monoid))`` tuple — the previous scheme — outlives
    the structures it names, and a recycled id would silently hand back a
    cached space for the wrong semiring/monoid pair; a strong value would
    pin its keys (the space references both) and make entries immortal.
    Any live :class:`Tensor` holds its space strongly, so identity stays
    stable for as long as anything can observe it.
    """
    per_monoid = _SPACE_CACHE.get(semiring)
    if per_monoid is None:
        per_monoid = weakref.WeakKeyDictionary()
        _SPACE_CACHE[semiring] = per_monoid
    ref = per_monoid.get(monoid)
    space = ref() if ref is not None else None
    if space is None:
        space = TensorSpace(semiring, monoid)
        per_monoid[monoid] = weakref.ref(space)
    return space
