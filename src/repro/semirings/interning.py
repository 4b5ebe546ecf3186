"""The interning core: hash-consed values as ``int64`` ids, one core with
two renderings — ``N[X]`` terms (:mod:`repro.semirings.terms`) and
circuit gates (the circuit gate store).  An :class:`Interner` is the
machine representation of either and holds what both share:

* the pinned ids ``0`` and ``1``, the zero and the one of every
  generation;
* the **generation rule**: a store is one generation of its *owner* (the
  semiring, the circuit builder), whose attribute :attr:`Interner.live`
  names the live one.  :meth:`Interner.claim` takes ``n`` more ids under
  the owner's lock while the generation is live and below its ``cap``; a
  live one without room first hands its owner a fresh generation.  A
  kernel that cannot claim falls back, counted (:meth:`Interner.require`,
  :meth:`~repro.semirings.base.MachineRepr.fallback`),
  and its plan re-encodes into the fresh generation on its next scan; a
  retired generation still decodes its ids.  The cap is checked here, at
  most ``2**31`` ids, as a pair key packs two ids into one int64;
* the **sorted mirror** of products (:meth:`Interner.pair_times`), the
  **CSR snapshot** of the rows (:meth:`Interner.arrays`), and the array
  helpers :func:`ranges`, :func:`distinct` and :func:`run_starts`.

Ids mean nothing to another process: a store is not ``portable``.  The
kernels are NumPy; the core imports without it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict

from repro.semirings.base import MachineRepr, _np

__all__ = ["Interner", "Snapshot", "distinct", "extended", "ranges", "run_starts"]

#: The pinned ids: the zero and the one of every generation.
ZERO, ONE = 0, 1

#: A pair key packs a canonical id pair into one int64.
_PAIR_SHIFT = 31

#: A mirror's new keys are spliced into a small sorted table of recent
#: keys, folded into the main table once it holds this many: a splice
#: copies at most this many entries, and the main table is copied once per
#: this many new keys rather than once per query that interns.
_RECENT = 1 << 14


class Snapshot:
    """NumPy arrays of a store's first ``n`` rows (row ``r``'s entries are
    ``ptr[r]:ptr[r + 1]``), grown by doubling: ``filled`` maps an array's
    name to the entries it holds, a later snapshot fills the tail in
    place, and held entries are never rewritten."""

    def __init__(self, n: int, filled: Dict[str, int], arrays: Dict[str, Any]):
        self.n, self.filled = n, filled
        self.__dict__.update(arrays)


class Interner(MachineRepr):
    """One generation of an interning store (see the module docstring).

    A subclass has a ``cap`` and a ``__len__`` (ids so far), and supplies
    ``successor()`` (a fresh generation of the owner), ``_tail(np, snap,
    n)`` (under the lock: array name -> ``(dtype, entries)`` appending rows
    ``snap.n:n`` to the snapshot), and, behind :meth:`pair_times`,
    ``_pairs_table()`` (its product mirror, see :func:`extended`, or
    ``None``) and ``_made_pairs(lo, hi)`` (the ids of the products missed).
    """

    __slots__ = ("owner", "_lock", "_csr")

    portable = False
    #: the owner's attribute that holds its live generation
    live = ""
    #: what the store interns, as its fallbacks name it
    label = ""

    def __init__(self, owner, lock):
        super().__init__("int64", "", "")
        self.owner = owner
        self._lock = lock
        self._csr = None
        if self.cap > 1 << _PAIR_SHIFT:
            raise ValueError(f"a {self.label} generation holds at most 2**31 ids, not {self.cap}")

    bounded = False

    @property
    def times(self):
        return self.pair_times

    # -- the generation rule ---------------------------------------------------

    def current(self) -> bool:
        """Is this its owner's live generation (the one that interns)?"""
        return getattr(self.owner, self.live) is self

    def claim(self, n: int) -> bool:
        """Under the owner's lock: may this generation take ``n`` more ids?
        Only while live with room; a live one without room first hands its
        owner a fresh generation."""
        if not self.current():
            return False
        if len(self) + n > self.cap:
            setattr(self.owner, self.live, self.successor())
            return False
        return True

    def require(self, n: int = 0) -> None:
        """Fall back unless this generation is live and — for ``n`` more
        ids, under the lock — has room (:meth:`claim`)."""
        if not (self.claim(n) if n else self.current()):
            raise self.fallback(f"{self.label} rolled over")

    # -- kernels ---------------------------------------------------------------

    def pair_times(self, a, b):
        """Elementwise ``a * b`` over ids whose ``0`` and ``1`` are the
        pinned zero and one: the units and the annihilator by rule; every
        other pair, canonically ordered and packed into one int64 key, is
        looked up in the store's product mirror; only the misses are made."""
        np = _np()
        out = np.where(a == ONE, b, a)
        out = np.where(b == ONE, a, out)
        out[(a == ZERO) | (b == ZERO)] = ZERO
        need = np.flatnonzero((a > ONE) & (b > ONE))
        if not len(need):
            return out
        lo = np.minimum(a[need], b[need])
        hi = np.maximum(a[need], b[need])
        res = _lookup(np, self._pairs_table(), (lo << _PAIR_SHIFT) | hi)
        miss = np.flatnonzero(res < 0)
        if len(miss):
            res[miss] = self._made_pairs(lo[miss], hi[miss])
        out[need] = res
        return out

    # -- the CSR snapshot ------------------------------------------------------

    def arrays(self) -> Snapshot:
        """The rows as a :class:`Snapshot` (cached; the rows interned since
        the last call are appended under the lock: a consistent cut)."""
        snap = self._csr
        if snap is not None and snap.n == len(self):
            return snap
        np = _np()
        with self._lock:
            snap = self._csr
            if snap is None:
                snap = Snapshot(0, {"ptr": 1}, {"ptr": np.zeros(1, np.int64)})
            n = len(self)
            filled, arrays = dict(snap.filled), {}
            for name, (dtype, values) in self._tail(np, snap, n).items():
                used = filled.get(name, 0)
                end = filled[name] = used + len(values)
                held = getattr(snap, name, None)
                array = arrays[name] = _grown(
                    np, np.empty(0, dtype) if held is None else held, used, end
                )
                if array.dtype == object:  # one by one: a tuple is one object
                    deque(map(array.__setitem__, range(used, end), values), 0)
                else:
                    array[used:end] = values
            snap = self._csr = Snapshot(n, filled, arrays)
        return snap


# -- the sorted mirrors -------------------------------------------------------


def extended(tables, add_keys, add_rows):
    """A mirror ``(keys, rows, recent keys, recent rows)`` — or ``None``,
    none yet — with the unsorted ``add_*`` spliced into its recent table,
    which is merged into the main one once it holds :data:`_RECENT`."""
    np = _np()
    if tables is None:
        keys = rows = np.empty(0, dtype=np.int64)
    else:
        keys, rows, recent_keys, recent_rows = tables
        add_keys, add_rows = _spliced(np, recent_keys, recent_rows, add_keys, add_rows)
    if len(add_keys) >= _RECENT or tables is None:
        keys, rows = _spliced(np, keys, rows, add_keys, add_rows)
        add_keys = add_rows = np.empty(0, dtype=np.int64)
    return keys, rows, add_keys, add_rows


def _spliced(np, keys, rows, add_keys, add_rows):
    """The sorted ``(keys, rows)`` with the unsorted ``add_*`` merged in
    (only the additions are sorted)."""
    if not len(add_keys):
        return keys, rows
    order = np.argsort(add_keys)
    add_keys, add_rows = add_keys[order], add_rows[order]
    at = np.searchsorted(keys, add_keys)
    return np.insert(keys, at, add_keys), np.insert(rows, at, add_rows)


def _lookup(np, tables, queries):
    """:func:`_find` over a mirror's main table, then its recent one
    (``-1`` everywhere while there is no mirror)."""
    if tables is None:
        return np.full(len(queries), -1, dtype=np.int64)
    keys, rows, recent_keys, recent_rows = tables
    found = _find(np, keys, rows, queries)
    miss = np.flatnonzero(found < 0)
    if len(miss) and len(recent_keys):
        found[miss] = _find(np, recent_keys, recent_rows, queries[miss])
    return found


def _find(np, keys, rows, queries):
    """For each query, the row stored under it in the sorted ``keys``
    (``-1`` where absent).  The queries are sorted first: ``searchsorted``
    is several times faster on sorted needles."""
    out = np.full(len(queries), -1, dtype=np.int64)
    if not len(keys) or not len(queries):
        return out
    order = np.argsort(queries)
    wanted = queries[order]
    pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    hit = keys[pos] == wanted
    out[order[hit]] = rows[pos[hit]]
    return out


# -- array helpers ------------------------------------------------------------


def _grown(np, arr, used: int, need: int):
    """``arr`` if it holds ``need`` entries, else a copy twice as large
    with its first ``used`` entries."""
    if len(arr) >= need:
        return arr
    grown = np.empty(max(need, 2 * len(arr)), dtype=arr.dtype)
    grown[:used] = arr[:used]
    return grown


def ranges(starts, counts):
    """The concatenation of ``arange(s, s + c)`` over ``zip(starts,
    counts)``: the flat positions of CSR segments."""
    np = _np()
    total = int(counts.sum())
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(total, dtype=np.int64)


def run_starts(np, sorted_keys):
    """The positions where a run of equal ``sorted_keys`` begins."""
    head = np.empty(len(sorted_keys), dtype=bool)
    head[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    return np.flatnonzero(head)


def distinct(np, values, space: int, inverse: bool = True):
    """The distinct entries of ``values`` (each in ``range(space)``),
    ascending, and (with ``inverse``) the position of each entry among
    them: one scatter over the space where it is not much larger than
    ``values``, else a sort."""
    if space > 8 * len(values) + 4096:
        if inverse:
            return np.unique(values, return_inverse=True)
        values = np.sort(values)
        return values[run_starts(np, values)]
    seen = np.zeros(space, dtype=bool)
    seen[values] = True
    found = np.flatnonzero(seen)
    if not inverse:
        return found
    where = np.empty(space, dtype=np.int64)
    where[found] = np.arange(len(found))
    return found, where[values]
