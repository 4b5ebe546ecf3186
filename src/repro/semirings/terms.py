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
  of a plan's result — the operator calls :meth:`TermStore.fold` once,
  which builds every canonical polynomial straight from the rows' terms.
  δ and the other operators that need a merged input fall back to the
  object tier (:attr:`MachineRepr.merges` is ``False``).

Coefficients live here as Python ints, never in an array, so no
magnitude bound guards them.  A value qualifies (:meth:`TermStore.fits`)
when it has at most one term; a table holding a longer polynomial keeps
the object tier.  One store is one **generation** of its semiring (its
``machine_repr``), capped by ``max_terms`` under the core's rule.

Every polynomial the fold builds keeps its **run** (``Polynomial._run``):
which rows of the fold's sorted id array it sums.  A sum of several rows
points at the fold's one :class:`_Runs`, which finds its slice by the
polynomial's address — a group's entries and its total are slices of one
array, because its rows are adjacent after the sort; a term's own
polynomial (:meth:`TermStore.decode`, a scanned base annotation) has the
run ``(store, id)``.  A run is a derivation, not a value: it is never
compared, hashed or pickled.  It lets a homomorphism into ``N``, ``Z``
or ``B`` map a planned result as arrays (:func:`map_runs`): the store's
CSR snapshot holds its terms' monomials over a token table, so a
monomial's image is one ``multiply.reduceat`` over its tokens' images
and a polynomial's one ``add.reduceat`` over its run (``logical_and`` /
``logical_or`` for ``B``).  A retired generation keeps its terms, so its
runs still map; a batch mixing two generations does not.
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import chain, repeat
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Dict, List, Tuple

from repro.semirings.base import ProvenanceTerm, _np
from repro.semirings.interning import ONE, ZERO, Interner, distinct, extended, ranges, run_starts
from repro.semirings.interning import _PAIR_SHIFT
from repro.semirings.polynomials import _UNIT_MONOMIAL, Monomial, Polynomial

__all__ = ["TermStore", "Unmappable", "map_runs"]

#: A term: its monomial and its (positive) coefficient.
Term = Tuple[Monomial, int]

#: A coefficient past it is kept in the CSR as ``-1`` (no int64 image); an
#: exponent past it as itself or one more, keeping its parity.
_INT64_MAX = (1 << 63) - 1
_BIG_EXP = 1 << 62

#: What an int64 image must be proven to stay below.
_EXACT = 1 << 62


class Unmappable(Exception):
    """A batch :func:`map_runs` cannot map as arrays; the argument is the
    cause (the homomorphism's object walk maps it instead)."""


class _Runs:
    """The runs of the polynomials one :meth:`TermStore.fold` summed from
    several rows: the polynomial at address ``pids[k]`` sums the terms
    ``ids[lows[k]:highs[k]]`` of the fold's sorted id array ``ids``.  Each
    such polynomial's ``_run`` is this one object, so a fold allocates
    nothing per polynomial for it, and reading a batch's runs touches no
    object but the polynomials (addresses are distinct among polynomials
    alive together, and all of a fold's are built while it runs)."""

    __slots__ = ("store", "ids", "_parts", "_index")

    def __init__(self, store: "TermStore", ids):
        self.store, self.ids = store, ids
        self._parts: list = []
        self._index = None  # the parts sorted by address, at first use

    def add(self, np, polys: List[Polynomial], lows, highs) -> None:
        """Record ``polys``, summing rows ``lows[i]:highs[i]`` each."""
        self._parts.append((np.fromiter(map(id, polys), np.int64, len(polys)), lows, highs))

    def spans(self, np, pids):
        """``(lows, highs)`` of the polynomials at addresses ``pids``."""
        index = self._index
        if index is None:
            keys, lows, highs = (np.concatenate(part) for part in zip(*self._parts))
            order = np.argsort(keys)
            index = self._index = (keys[order], lows[order], highs[order])
        keys, lows, highs = index
        at = np.searchsorted(keys, pids)
        return lows[at], highs[at]


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
                polys[tid] = self._wrap(dict((items[tid],)), (self, tid))
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
                    values[i]._run = (self, tid)
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
            raise self.fallback("zero term")
        order = np.argsort(keys)
        sorted_keys = keys[order]
        ids = anns[order]
        starts = run_starts(np, sorted_keys)
        runs = _Runs(self, ids)
        sums = self._sums(ids, starts, runs)
        if labels is None:
            return order[starts], sums, None
        run_keys = sorted_keys[starts]
        groups = run_keys // width
        firsts = run_starts(np, groups)  # the first run of each group
        gstarts = starts[firsts]
        bounds = firsts.tolist() + [len(starts)]
        totals = []
        wrap, terms_of = self._wrap, _terms_of
        merged = []  # the groups of several entries, whose totals are new
        highs = np.append(gstarts[1:], n)
        for g, (a, b, rows) in enumerate(zip(bounds, bounds[1:], (highs - gstarts).tolist())):
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
            totals.append(wrap(total, runs))
            merged.append(g)
        if merged:  # a group's rows are adjacent after the sort
            runs.add(np, list(map(totals.__getitem__, merged)), gstarts[merged], highs[merged])
        codes = (run_keys - groups * width).tolist()
        entries = []
        for a, b in zip(bounds, bounds[1:]):
            entry = dict(zip(map(labels.__getitem__, codes[a:b]), sums[a:b]))
            if skip >= 0:
                entry.pop(labels[skip], None)
            entries.append(entry)
        return order[gstarts], totals, entries

    def _sums(self, ids, starts, runs: "_Runs") -> List[Polynomial]:
        """The polynomial of each run of the term ids ``ids`` (run ``i``
        from ``starts[i]`` to the next start, the last to the end), each
        keeping its run: a term's own polynomial ``(store, id)``, a sum of
        several the fold's ``runs``."""
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
            lows, highs = starts[multi], (starts + sizes)[multi]
            slices = list(map(slice, lows.tolist(), highs.tolist()))
            dicts = list(map(dict, map(terms.__getitem__, slices)))
            lengths = np.fromiter(map(len, dicts), np.int64, len(dicts))
            for i in np.flatnonzero(lengths < sizes[multi]).tolist():
                # the run repeats a monomial: accumulate its coefficients
                dicts[i] = _accumulated(terms[slices[i]])
            made = list(map(self._wrap, dicts, repeat(runs)))
            runs.add(np, made, lows, highs)
            deque(map(sums.__setitem__, multi.tolist(), made), 0)
        return sums

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

    def images(self, ids, starts, token_images: Callable[[List[Any]], Any], native: type):
        """The images of the polynomials summing the runs of the term ids
        ``ids`` (polynomial ``i`` from ``starts[i]`` to the next start),
        under the homomorphism into ``N``/``Z`` (``native`` is ``int``) or
        ``B`` (``bool``) whose token map is ``token_images``: a list of the
        plain tokens the runs reach, each once, to an array of their
        images.  Each distinct term's monomial is one
        ``multiply.reduceat`` (``logical_and``) over its tokens' images, and
        each polynomial one ``add.reduceat`` (``logical_or``) of
        ``coefficient × monomial`` over its run.  Raises :class:`Unmappable`
        where a run reaches a structured variable, or where no int64 bound
        on the images can be proven: the largest coefficient, times the
        largest token image to the highest degree, times the longest run,
        must stay below ``2**62`` (int64 arithmetic, wrapping or not, is
        then exact)."""
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
            return np.logical_or.reduceat(monos[inverse], starts).tolist()
        coeffs, exps = snap.coeffs[terms], snap.exps[at]
        # |image| <= max c · max(1, max |x|) ** max degree · longest run
        top = max(1, int(images.max()), -int(images.min())) if len(images) else 1
        degree = int(np.add.reduceat(exps, cuts).max()) if len(live) else 0
        longest = int(np.diff(starts, append=len(ids)).max())
        if ((coeffs < 0).any() or top.bit_length() * degree > 62
                or int(coeffs.max()) * top ** degree * longest >= _EXACT):
            raise Unmappable("int64 bound")
        if len(live):
            if (exps != 1).any():
                factors = factors ** exps
            monos[live] = np.multiply.reduceat(factors, cuts)
        return np.add.reduceat((coeffs * monos)[inverse], starts).tolist()

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


def map_runs(polys: List[Polynomial], runs: List[Any], token_images, native: type,
             semiring) -> List[Any]:
    """The images of the polynomials ``polys`` of ``semiring``, whose runs
    are ``runs``, as :meth:`TermStore.images` of their store: each run is a
    term's own ``(store, id)`` or a fold's :class:`_Runs`.  Raises
    :class:`Unmappable` for runs of two generations or of another
    semiring's store (and where :meth:`~TermStore.images` does)."""
    np = _np()
    n = len(runs)
    lows = np.empty(n, dtype=np.int64)
    counts = np.ones(n, dtype=np.int64)
    single = np.fromiter(map(isinstance, runs, repeat(tuple)), bool, n)
    owner = np.full(n, -1, dtype=np.int64)  # which fold's ids; -1: a term's own
    stores, bases = set(), []
    ones = np.flatnonzero(single)
    if len(ones):  # a term's own polynomial: one row, its id
        owners, tids = zip(*map(runs.__getitem__, ones.tolist()))
        lows[ones] = tids
        stores.update(owners)
    folded = np.flatnonzero(~single)
    if len(folded):
        at = folded.tolist()
        folds = list(map(runs.__getitem__, at))
        keys = np.fromiter(map(id, folds), np.int64, len(at))
        pids = np.fromiter(map(id, map(polys.__getitem__, at)), np.int64, len(at))
        for fold in set(folds):
            mine = keys == id(fold)
            low, high = fold.spans(np, pids[mine])
            lows[folded[mine]], counts[folded[mine]] = low, high - low
            owner[folded[mine]] = len(bases)
            bases.append(fold.ids)
            stores.add(fold.store)
    if len(stores) != 1:
        raise Unmappable("two generations")
    (store,) = stores
    if store.owner is not semiring:
        raise Unmappable("no term runs")
    rows = ranges(lows, counts)
    ids = rows.copy()  # a term's own row is its id
    owner = np.repeat(owner, counts)
    for k, base in enumerate(bases):
        mine = owner == k
        ids[mine] = base[rows[mine]]
    return store.images(ids, np.cumsum(counts) - counts, token_images, native)
