"""The term store: ``N[X]`` annotations as ids of single terms.

A provenance database annotates each base tuple with one *term* ``c·m``
— a token ``x_t``, a scaled token ``k·x_t`` or a constant — and a join
multiplies terms into terms: every row of an ``N[X]`` batch is one
derivation carrying one monomial (the design of Pintor et al.; ProvSQL's
per-tuple token is its base case).  Only ``+`` makes polynomials.  So the
encoded tier (:mod:`repro.plan.encoded`) keeps ``N[X]`` annotations as
``int64`` ids into this store, and:

* ``times`` is a vectorised pair lookup: each canonical id pair is looked
  up in a sorted mirror of the products taken so far (the mirror of
  :meth:`~repro.circuits.store.GateStore.times_rows`), and only a miss
  interns ``(m₁·m₂, c₁·c₂)`` — a repeated join interns nothing;
* ``+`` never runs on the tier.  A term batch keeps its rows unmerged
  (its ``distinct`` bit off: a tuple's annotation is the sum of its rows'
  terms), and where a sum is due — a grouped aggregation, the hand-over
  of a plan's result — the operator calls :meth:`TermStore.fold` once,
  which builds every canonical polynomial straight from the rows' terms.
  δ and the other operators that need a merged input fall back to the
  object tier (:attr:`MachineRepr.merges` is ``False``).

Ids ``0`` and ``1`` are the pinned terms ``0`` and ``1``.  Coefficients
live here as Python ints, never in an array, so no magnitude bound guards
them.  A value qualifies (:meth:`TermStore.fits`) when it has at most one
term; a table holding a longer polynomial keeps the object tier.

One store is one **generation**, bounded by ``max_terms`` under the rule
of :attr:`~repro.circuits.nodes.CircuitBuilder.max_gates`: a miss that
finds the store full starts a fresh store — the semiring's
``machine_repr`` from then on — and the kernel that missed falls back.  A
retired store still decodes its ids and answers its hits; a scan batch
encoded in it re-encodes on its next scan.  Ids mean nothing to another
process: the store is not ``portable``, and the parallel tier refuses it.
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import chain
from functools import partial
from operator import attrgetter
from typing import Any, Dict, List, Tuple

from repro.semirings.base import MachineRepr, _np
from repro.semirings.polynomials import _UNIT_MONOMIAL, Monomial, Polynomial

__all__ = ["TermStore"]

#: The pinned ids.
ZERO, ONE = 0, 1

#: A term: its monomial and its (positive) coefficient.
Term = Tuple[Monomial, int]


class TermStore(MachineRepr):
    """One generation of interned ``N[X]`` terms (see the module docstring)."""

    __slots__ = ("semiring", "max_terms", "items", "_ids", "_polys", "_pairs",
                 "_wrap", "_lock")

    portable = False
    merges = False
    entry_kind = "term ids into this process's term store"
    metric_op = "terms"

    #: Default cap on the terms of one generation.
    DEFAULT_MAX_TERMS = 1 << 20

    def __init__(self, semiring, max_terms: int = DEFAULT_MAX_TERMS):
        super().__init__("int64", "", "")
        self.semiring = semiring
        #: below ``2**31``: a product key packs two ids into one int64
        self.max_terms = max_terms
        #: term id -> its ``(monomial, coefficient)`` pair
        self.items: List[Term] = [(_UNIT_MONOMIAL, 0), (_UNIT_MONOMIAL, 1)]
        #: base term -> its id (products are found by their pair instead)
        self._ids: Dict[Term, int] = {self.items[ONE]: ONE}
        #: term id -> its polynomial, built on first decode
        self._polys: List[Any] = [semiring.zero, semiring.one]
        #: the product mirror: (keys, ids, recent keys, recent ids)
        self._pairs = None
        self._wrap = partial(Polynomial._from_clean, semiring)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.items)

    def current(self) -> bool:
        """Is this the semiring's live generation (the one that interns)?"""
        return self.semiring.machine_repr is self

    # -- the MachineRepr face --------------------------------------------------

    @property
    def bounded(self) -> bool:
        return False

    def fits(self, value: Any) -> bool:
        """A polynomial of this semiring with at most one term."""
        return (
            type(value) is Polynomial
            and value.semiring is self.semiring
            and len(value._terms) <= 1
        )

    def unfit(self, value: Any) -> str:
        return f"annotation {value} is not a single term"

    def code(self, value: Any) -> int:
        return self._term_ids([value])[0]

    def encode(self, values: List[Any]):
        np = _np()
        return np.asarray(self._term_ids(values), dtype=np.int64)

    def decode(self, array) -> List[Any]:
        ids = array.tolist()
        polys, items = self._polys, self.items
        for tid in set(ids):
            if polys[tid] is None:
                polys[tid] = self._wrap(dict((items[tid],)))
        return list(map(polys.__getitem__, ids))

    @property
    def plus(self):
        raise _fallback("+ over term ids")

    @property
    def times(self):
        return self.times_rows

    def delta(self, anns, zero, one):
        raise _fallback("δ over term ids")

    # -- interning -------------------------------------------------------------

    def _term_ids(self, values: List[Any]) -> List[int]:
        """The ids of the (fitting) polynomials ``values``, interning the
        terms not seen before."""
        get = self._ids.get
        out: List[int] = []
        fresh: List[int] = []
        for poly in values:
            terms = poly._terms
            if not terms:
                out.append(ZERO)
                continue
            tid = get(next(iter(terms.items())), -1)
            if tid < 0:
                fresh.append(len(out))
            out.append(tid)
        if fresh:
            with self._lock:
                made = self._interned([next(iter(values[i]._terms.items())) for i in fresh])
            polys = self._polys
            for i, tid in zip(fresh, made):
                out[i] = tid
                if polys[tid] is None:
                    polys[tid] = values[i]
        return out

    def _interned(self, terms: List[Term]) -> List[int]:
        """Under the lock: the ids of the base terms ``terms``, interned
        where new."""
        self._require_room(len(terms))
        ids, items, polys = self._ids, self.items, self._polys
        out = []
        for term in terms:
            tid = ids.get(term)
            if tid is None:
                tid = ids[term] = len(items)
                items.append(term)
                polys.append(None)
            out.append(tid)
        return out

    def _require_room(self, n: int) -> None:
        """Under the lock: fall back unless this live generation has room
        for ``n`` more terms; a full one first hands over to a fresh
        store (see the module docstring)."""
        if not self.current():
            raise _fallback("term store rolled over")
        if len(self.items) + n > self.max_terms:
            self.semiring.machine_repr = TermStore(self.semiring, self.max_terms)
            raise _fallback("term store rolled over")

    # -- kernels -----------------------------------------------------------------

    def times_rows(self, a, b):
        """Elementwise ``a * b`` (:func:`~repro.circuits.store.pair_times`):
        every canonical id pair not a unit or the annihilator is looked up
        in the product mirror, and the misses intern once per distinct
        pair."""
        return _gates().pair_times(a, b, self._find_products, self._products)

    def _find_products(self, keys):
        np = _np()
        pairs = self._pairs
        if pairs is None:
            return np.full(len(keys), -1, dtype=np.int64)
        return _gates()._lookup(np, pairs, keys)

    def _products(self, lo, hi):
        """The ids of the products of the id pairs ``lo``/``hi``, appended
        once per distinct pair and added to the mirror.  The mirror alone
        dedupes them: two pairs with one product (``x·2y``, ``2x·y``) get
        two ids, which a fold sums like any repeated monomial."""
        np = _np()
        gates = _gates()
        shift = gates._PAIR_SHIFT
        keys, inverse = np.unique((lo << shift) | hi, return_inverse=True)
        pairs = zip((keys >> shift).tolist(), (keys & ((1 << shift) - 1)).tolist())
        items = self.items
        with self._lock:
            self._require_room(len(keys))
            start = len(items)
            items.extend(
                (items[x][0].mul(items[y][0]), items[x][1] * items[y][1])
                for x, y in pairs
            )
            self._polys.extend([None] * len(keys))
            made = np.arange(start, len(items), dtype=np.int64)
            self._pairs = gates.extended(self._pairs, keys, made)
        return made[inverse]

    def fold(self, keys, anns, width: int = 1, labels=None, skip: int = -1):
        """``+`` over term rows: the canonical sums of the terms ``anns``
        per key, in one sort and one pass.

        Rows are sorted by the non-negative ``keys`` once.  A run of equal
        keys is summed as one ``dict`` of its ``(monomial, coefficient)``
        pairs — an accumulating loop only where the run repeats a
        monomial — wrapped as a canonical :class:`Polynomial` (a one-row
        run is its term's own polynomial): no per-row polynomial, no
        ``sum_many``.  Without ``labels`` each run is a group.  Given
        ``labels``, a run of equal ``key // width`` is a group and each of
        its runs an *entry*, labelled ``labels[key % width]`` (entries
        whose ``key % width`` is ``skip`` are left out), and a group's sum
        merges its entries' dicts.  Returns ``(rep, totals, entries)``: per
        group in ascending order, a row of it, the sum of its terms and
        (``None`` without ``labels``) its ``label -> sum`` dict.
        """
        np = _np()
        n = len(keys)
        if not n:
            return np.empty(0, dtype=np.int64), [], (None if labels is None else [])
        if (anns == ZERO).any():
            raise _fallback("zero term")
        order = np.argsort(keys)
        sorted_keys = keys[order]
        ids = anns[order]
        starts = _run_starts(np, sorted_keys)
        sums = self._sums(ids, starts)
        if labels is None:
            return order[starts], sums, None
        run_keys = sorted_keys[starts]
        groups = run_keys // width
        firsts = _run_starts(np, groups)  # the first run of each group
        gstarts = starts[firsts]
        bounds = firsts.tolist() + [len(starts)]
        totals = []
        wrap, terms_of = self._wrap, _terms_of
        for a, b, rows in zip(bounds, bounds[1:], np.diff(gstarts, append=n).tolist()):
            if b - a == 1:
                totals.append(sums[a])
                continue
            total: Dict[Monomial, int] = {}
            # the entries' dicts merge without rehashing a monomial
            deque(map(total.update, map(terms_of, sums[a:b])), 0)
            if len(total) < rows:  # entries share a monomial: accumulate
                total = _accumulated(chain.from_iterable(
                    poly._terms.items() for poly in sums[a:b]
                ))
            totals.append(wrap(total))
        codes = (run_keys - groups * width).tolist()
        entries = []
        for a, b in zip(bounds, bounds[1:]):
            entry = dict(zip(map(labels.__getitem__, codes[a:b]), sums[a:b]))
            if skip >= 0:
                entry.pop(labels[skip], None)
            entries.append(entry)
        return order[gstarts], totals, entries

    def _sums(self, ids, starts) -> List[Polynomial]:
        """The polynomial of each run of the term ids ``ids`` (run ``i``
        from ``starts[i]`` to the next start, the last to the end)."""
        np = _np()
        sizes = np.diff(starts, append=len(ids))
        sums: List[Any] = [None] * len(starts)
        single = np.flatnonzero(sizes == 1)
        # a one-row run is its term: the store's cached polynomial
        deque(map(sums.__setitem__, single.tolist(), self.decode(ids[starts[single]])), 0)
        multi = np.flatnonzero(sizes > 1)
        if len(multi):
            items = self.items
            terms = list(map(items.__getitem__, ids.tolist()))
            runs = list(map(slice, starts[multi].tolist(), (starts + sizes)[multi].tolist()))
            dicts = list(map(dict, map(terms.__getitem__, runs)))
            lengths = np.fromiter(map(len, dicts), np.int64, len(dicts))
            for i in np.flatnonzero(lengths < sizes[multi]).tolist():
                # the run repeats a monomial: accumulate its coefficients
                dicts[i] = _accumulated(terms[runs[i]])
            deque(map(sums.__setitem__, multi.tolist(), map(self._wrap, dicts)), 0)
        return sums

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<term store, {len(self.items)} terms>"


def _accumulated(terms) -> Dict[Monomial, int]:
    """The coefficient-wise sum of ``(monomial, coefficient)`` pairs."""
    out: Dict[Monomial, int] = {}
    get = out.get
    for mono, c in terms:
        out[mono] = get(mono, 0) + c
    return out


_terms_of = attrgetter("_terms")


def _run_starts(np, sorted_keys):
    """The positions where a run of equal ``sorted_keys`` begins."""
    head = np.empty(len(sorted_keys), dtype=bool)
    head[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    return np.flatnonzero(head)


def _gates():
    """The gate store module, whose sorted-mirror helpers the product
    mirror shares (imported at first use: circuits build on semirings)."""
    from repro.circuits import store

    return store


def _fallback(cause: str) -> Exception:
    """An :class:`~repro.plan.encoded.EncodedFallback` for a term-specific
    cause, counted on the encoded-kernel counter (``op="terms"``)."""
    from repro.obs import metrics
    from repro.plan.encoded import EncodedFallback

    metrics.ENCODED_KERNEL.inc(1, TermStore.metric_op, f"fallback: {cause}")
    return EncodedFallback(cause)
