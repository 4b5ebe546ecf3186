"""The term store: ``N[X]`` annotations as ids of single terms.

A provenance database annotates each base tuple with one *term* ``c·m``
— a token ``x_t``, a scaled token ``k·x_t`` or a constant — and a join
multiplies terms into terms: every row of an ``N[X]`` batch is one
derivation carrying one monomial (the design of Pintor et al.; ProvSQL's
per-tuple token is its base case).  Only ``+`` makes polynomials.  So the
planner's encoded tier keeps ``N[X]`` annotations as ``int64`` ids into
this store, an :class:`~repro.semirings.interning.Interner` (the gate
store is the other), and:

* ``times`` is the core's vectorised pair lookup: each canonical id pair
  is looked up in a sorted mirror of the products taken so far, and only
  a miss interns ``(m₁·m₂, c₁·c₂)`` — a repeated join interns nothing;
* ``+`` never runs on the tier.  A term batch keeps its rows unmerged
  (its ``distinct`` bit off: a tuple's annotation is the sum of its rows'
  terms), and where a sum is due — a grouped aggregation, the hand-over
  of a plan's result — the operator calls :meth:`TermStore.fold` once.
  δ and the other operators that need a merged input fall back to the
  object tier (:attr:`MachineRepr.merges` is ``False``).

Coefficients live here as Python ints, never in an array, so no
magnitude bound guards them.  A value qualifies (:meth:`TermStore.fits`)
when it has at most one term; a table holding a longer polynomial keeps
the object tier.  One store is one **generation** of its semiring (its
``machine_repr``), capped by ``max_terms`` under the core's rule.

A fold's result is a :class:`Fold`: arrays, not polynomials.  Its rows'
term ids are sorted by key once, so each sum is a **run** — a slice of
that one id array — and a group's entries and its total are adjacent
slices.  The canonical polynomials are built from the runs only when a
reader asks (:meth:`Fold.totals`, :meth:`Fold.entries`); a homomorphism
into ``N``, ``Z`` or ``B`` maps the runs themselves (:func:`map_folds`):
the store's CSR snapshot holds its terms' monomials over a token table,
so a monomial's image is one ``multiply.reduceat`` over its tokens'
images and a run's one ``add.reduceat`` (``logical_and`` /
``logical_or`` for ``B``).  A retired generation keeps its terms, so a
fold of it still maps.
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import chain
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Dict, List, Tuple

from repro.semirings.base import ProvenanceTerm, _np
from repro.semirings.interning import ONE, ZERO, Interner, distinct, extended, ranges, run_starts
from repro.semirings.interning import _PAIR_SHIFT
from repro.semirings.polynomials import _UNIT_MONOMIAL, Monomial, Polynomial

__all__ = ["Fold", "TermStore", "Unmappable", "map_folds"]

#: A term: its monomial and its (positive) coefficient.
Term = Tuple[Monomial, int]

#: A coefficient past it is kept in the CSR as ``-1`` (no int64 image); an
#: exponent past it as itself or one more, keeping its parity.
_INT64_MAX = (1 << 63) - 1
_BIG_EXP = 1 << 62

#: What an int64 image must be proven to stay below.
_EXACT = 1 << 62


class Unmappable(Exception):
    """Folds :func:`map_folds` cannot map as arrays; the argument is the
    cause (the homomorphism's object walk maps them instead)."""


class TermStore(Interner):
    """One generation of interned ``N[X]`` terms (see the module docstring);
    its owner is the semiring."""

    __slots__ = ("cap", "items", "_ids", "_polys", "_pairs", "_wrap",
                 "_token_vars", "_token_ids")

    merges = False
    entry_kind = "term ids into this process's term store"
    metric_op = "terms"
    live = "machine_repr"
    label = "term store"

    #: Default cap on the terms of one generation.
    DEFAULT_MAX_TERMS = 1 << 20

    def __init__(self, semiring, max_terms: int = DEFAULT_MAX_TERMS):
        self.cap = max_terms
        super().__init__(semiring, threading.Lock())
        #: term id -> its ``(monomial, coefficient)`` pair
        self.items: List[Term] = [(_UNIT_MONOMIAL, 0), (_UNIT_MONOMIAL, 1)]
        #: base term -> its id (products are found by their pair instead)
        self._ids: Dict[Term, int] = {self.items[ONE]: ONE}
        #: term id -> its polynomial, built on first decode
        self._polys: List[Any] = [semiring.zero, semiring.one]
        #: the product mirror: (keys, ids, recent keys, recent ids)
        self._pairs = None
        self._wrap = partial(Polynomial._from_clean, semiring)
        #: the token table: token id -> variable, and back
        self._token_vars: List[Any] = []
        self._token_ids: Dict[Any, int] = {}

    def __len__(self) -> int:
        return len(self.items)

    def successor(self) -> "TermStore":
        return TermStore(self.owner, self.cap)

    # -- the MachineRepr face --------------------------------------------------

    def fits(self, value: Any) -> bool:
        """A polynomial of this semiring with at most one term."""
        return (
            type(value) is Polynomial
            and value.semiring is self.owner
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
        raise self.fallback("+ over term ids")

    def delta(self, anns, zero, one):
        raise self.fallback("δ over term ids")

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
        self.require(len(terms))
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

    # -- kernels -----------------------------------------------------------------

    def _pairs_table(self):
        return self._pairs

    def _made_pairs(self, lo, hi):
        """The ids of the products of the id pairs ``lo``/``hi``, appended
        once per distinct pair and added to the mirror.  The mirror alone
        dedupes them: two pairs with one product (``x·2y``, ``2x·y``) get
        two ids, which a fold sums like any repeated monomial."""
        np = _np()
        keys, inverse = np.unique((lo << _PAIR_SHIFT) | hi, return_inverse=True)
        pairs = zip((keys >> _PAIR_SHIFT).tolist(), (keys & ((1 << _PAIR_SHIFT) - 1)).tolist())
        items = self.items
        with self._lock:
            self.require(len(keys))
            start = len(items)
            items.extend(
                (items[x][0].mul(items[y][0]), items[x][1] * items[y][1])
                for x, y in pairs
            )
            self._polys.extend([None] * len(keys))
            made = np.arange(start, len(items), dtype=np.int64)
            self._pairs = extended(self._pairs, keys, made)
        return made[inverse]

    def fold(self, keys, anns, width: int = 1, labels=None, skip: int = -1) -> "Fold":
        """``+`` over term rows, in one sort: the :class:`Fold` of the
        terms ``anns`` per key.

        Rows are sorted by the non-negative ``keys`` once; a run of equal
        keys is one sum.  Without ``labels`` each run is a group.  Given
        ``labels``, a run of equal ``key // width`` is a group and each of
        its runs an *entry*, labelled ``labels[key % width]`` (entries
        whose ``key % width`` is ``skip`` are left out of the entries but
        not of the group's total).  Nothing is summed here: the fold
        builds polynomials only when asked.
        """
        np = _np()
        if (anns == ZERO).any():
            raise self.fallback("zero term")
        order = np.argsort(keys)
        sorted_keys = keys[order]
        starts = run_starts(np, sorted_keys)
        run_keys = sorted_keys[starts]
        groups = run_keys // width
        firsts = run_starts(np, groups)  # the first run of each group
        return Fold(self, anns[order], starts, firsts, run_keys - groups * width,
                    order[starts[firsts]], labels, skip)

    # -- homomorphisms -----------------------------------------------------------

    def _tail(self, np, snap, n: int) -> Dict[str, Any]:
        """The CSR of the monomials of terms ``snap.n:n``: term ``t``'s
        variables are the token ids ``tokens[ptr[t]:ptr[t + 1]]`` with
        exponents ``exps[...]``, its coefficient ``coeffs[t]`` (``-1`` past
        int64); of each token id ``k``, ``variables[k]`` is the variable
        and ``structured[k]`` says whether it is a structured one (a ``δ``
        term or an atom)."""
        fresh = self.items[snap.n:n]
        powers = [mono._powers for mono, _c in fresh]
        variables = list(chain.from_iterable(powers))
        codes = list(map(self._token_ids.get, variables))
        for i in [i for i, code in enumerate(codes) if code is None]:
            codes[i] = self._token(variables[i])
        added = self._token_vars[snap.filled.get("variables", 0):]
        used = int(snap.ptr[snap.n])
        return {
            "ptr": (np.int64, used + np.cumsum(list(map(len, powers)), dtype=np.int64)),
            "tokens": (np.int64, codes),
            "exps": (np.int64, [e if e < _BIG_EXP else _BIG_EXP + (e & 1)
                                for e in chain.from_iterable(map(dict.values, powers))]),
            "coeffs": (np.int64, [c if c <= _INT64_MAX else -1 for _m, c in fresh]),
            "variables": (object, added),
            "structured": (bool, [
                type(var) is not str and isinstance(var, ProvenanceTerm) for var in added
            ]),
        }

    def _token(self, var: Any) -> int:
        """Under the lock: the id of the variable ``var`` in the token
        table, added where new."""
        code = self._token_ids.get(var)
        if code is None:
            code = self._token_ids[var] = len(self._token_vars)
            self._token_vars.append(var)
        return code

    def images(self, ids, token_images: Callable[[List[Any]], Any], native: type, longest: int):
        """The image of each term of ``ids`` (``coefficient × monomial``)
        under the homomorphism into ``N``/``Z`` (``native`` is ``int``) or
        ``B`` (``bool``) whose token map is ``token_images``: a list of the
        plain tokens the terms reach, each once, to an array of their
        images.  Each distinct term's monomial is one ``multiply.reduceat``
        (``logical_and``) over its tokens' images.  Raises
        :class:`Unmappable` where a term reaches a structured variable, or
        where no int64 bound on a sum of ``longest`` images can be proven:
        the largest coefficient, times the largest token image to the
        highest degree, times ``longest``, must stay below ``2**62``
        (int64 arithmetic, wrapping or not, is then exact)."""
        np = _np()
        snap = self.arrays()
        terms, inverse = distinct(np, ids, snap.n)
        lo = snap.ptr[terms]
        counts = snap.ptr[terms + 1] - lo
        at = ranges(lo, counts)
        reached, slot = distinct(np, snap.tokens[at], snap.filled["variables"])
        if snap.structured[reached].any():
            raise Unmappable("structured variable")
        images = token_images(snap.variables[reached].tolist())
        factors = images[slot]
        live = np.flatnonzero(counts)  # the unit monomial's image is 1
        cuts = (np.cumsum(counts) - counts)[live]
        monos = np.ones(len(terms), dtype=images.dtype)
        if native is bool:
            if len(live):
                monos[live] = np.logical_and.reduceat(factors, cuts)
            return monos[inverse]
        coeffs, exps = snap.coeffs[terms], snap.exps[at]
        # |image| <= max c · max(1, max |x|) ** max degree · longest
        top = max(1, int(images.max()), -int(images.min())) if len(images) else 1
        degree = int(np.add.reduceat(exps, cuts).max()) if len(live) else 0
        if ((coeffs < 0).any() or top.bit_length() * degree > 62
                or int(coeffs.max()) * top ** degree * longest >= _EXACT):
            raise Unmappable("int64 bound")
        if len(live):
            if (exps != 1).any():
                factors = factors ** exps
            monos[live] = np.multiply.reduceat(factors, cuts)
        return (coeffs * monos)[inverse]

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


class Fold:
    """What one :meth:`TermStore.fold` summed, as the arrays of its sort.

    ``ids`` are the rows' term ids in key order; run ``k`` (an entry, or a
    group without labels) sums ``ids[starts[k]:starts[k + 1]]`` and has
    the label code ``codes[k]``; group ``g`` is the runs
    ``firsts[g]:firsts[g + 1]``, and ``rep[g]`` one of its rows in the
    folded batch.  The polynomials are built from these on first read and
    kept; :func:`map_folds` maps the runs without building any.
    """

    __slots__ = ("store", "ids", "starts", "firsts", "codes", "rep", "labels", "skip", "_sums")

    def __init__(self, store: TermStore, ids, starts, firsts, codes, rep, labels, skip: int):
        self.store, self.ids, self.starts, self.firsts = store, ids, starts, firsts
        self.codes, self.rep, self.labels, self.skip = codes, rep, labels, skip
        self._sums = None

    def __len__(self) -> int:
        return len(self.firsts)

    def sums(self) -> List[Polynomial]:
        """The polynomial of each run, in run order: a one-row run is its
        term's own (the store's cached) polynomial, a longer run one
        ``dict`` of its pairs — an accumulating loop only where it repeats
        a monomial."""
        if self._sums is not None:
            return self._sums
        np, store, ids, starts = _np(), self.store, self.ids, self.starts
        sizes = np.diff(starts, append=len(ids))
        sums: List[Any] = [None] * len(starts)
        single = np.flatnonzero(sizes == 1)
        deque(map(sums.__setitem__, single.tolist(), store.decode(ids[starts[single]])), 0)
        multi = np.flatnonzero(sizes > 1)
        if len(multi):
            terms = list(map(store.items.__getitem__, ids.tolist()))
            lows = starts[multi]
            slices = list(map(slice, lows.tolist(), (lows + sizes[multi]).tolist()))
            dicts = list(map(dict, map(terms.__getitem__, slices)))
            lengths = np.fromiter(map(len, dicts), np.int64, len(dicts))
            for i in np.flatnonzero(lengths < sizes[multi]).tolist():
                # the run repeats a monomial: accumulate its coefficients
                dicts[i] = _accumulated(terms[slices[i]])
            deque(map(sums.__setitem__, multi.tolist(), map(store._wrap, dicts)), 0)
        self._sums = sums
        return sums

    def totals(self) -> List[Polynomial]:
        """The polynomial of each group: its runs' dicts merged without
        rehashing a monomial, accumulated where they share one."""
        sums = self.sums()
        if len(self.firsts) == len(sums):  # each run its own group
            return sums
        bounds = self.firsts.tolist() + [len(sums)]
        rows = _np().diff(self.starts[self.firsts], append=len(self.ids)).tolist()
        totals = []
        for a, b, n in zip(bounds, bounds[1:], rows):
            if b - a == 1:
                totals.append(sums[a])
                continue
            total: Dict[Monomial, int] = {}
            deque(map(total.update, map(_terms_of, sums[a:b])), 0)
            if len(total) < n:  # entries share a monomial: accumulate
                total = _accumulated(chain.from_iterable(
                    poly._terms.items() for poly in sums[a:b]
                ))
            totals.append(self.store._wrap(total))
        return totals

    def entries(self) -> List[Dict[Any, Polynomial]]:
        """Per group, its ``label -> sum`` dict in ascending label code,
        the ``skip`` label left out."""
        sums, labels, skip = self.sums(), self.labels, self.skip
        bounds = self.firsts.tolist() + [len(sums)]
        codes = self.codes.tolist()
        entries = []
        for a, b in zip(bounds, bounds[1:]):
            entry = dict(zip(map(labels.__getitem__, codes[a:b]), sums[a:b]))
            if skip >= 0:
                entry.pop(labels[skip], None)
            entries.append(entry)
        return entries


def map_folds(folds: List[Fold], token_images, native: type) -> List[Tuple[List[Any], List[Any]]]:
    """The images of the runs and of the groups of each of ``folds`` under
    the homomorphism of :meth:`TermStore.images`, all their terms in one
    pass (each reached token mapped once), then one ``add.reduceat``
    (``logical_or``) per level — re-reducing the runs' sums is exact, the
    bound covering the longest group.  Raises :class:`Unmappable` where
    :meth:`~TermStore.images` does, and for folds of two generations."""
    np = _np()
    stores = {fold.store for fold in folds}
    if len(stores) != 1:
        raise Unmappable("two generations")
    (store,) = stores
    longest = max(int(np.diff(f.starts[f.firsts], append=len(f.ids)).max()) for f in folds)
    rows = store.images(np.concatenate([f.ids for f in folds]), token_images, native, longest)
    plus = np.logical_or if native is bool else np.add
    out, at = [], 0
    for fold in folds:
        runs = plus.reduceat(rows[at:at + len(fold.ids)], fold.starts)
        at += len(fold.ids)
        out.append((runs.tolist(), plus.reduceat(runs, fold.firsts).tolist()))
    return out
