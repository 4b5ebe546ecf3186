"""The gate store: a builder's gates as rows of flat arrays.

Every gate a :class:`~repro.circuits.nodes.CircuitBuilder` interns also
appends one row here — its kind (``int8``), its children as CSR row
numbers (``ptr``/``kids``), and its *level* (0 for inputs, else one more
than its deepest child) — and the ``nodes`` list maps a row back to its
node.  Rows are gate ids: they grow with creation order, so a gate's
children always sit on lower rows (ids are topological) and row order is
node-id order, the order the builder sorts commutative children in.

One store holds one **generation**.  The builder's ``max_gates`` cap is
the memory bound: when the intern table reaches it, the builder starts a
new generation (a fresh store and fresh intern tables) instead of
growing, and the old store is dropped with whatever still references it.
Rows 0 and 1 are always the pinned ``zero`` and ``one`` gates.  A gate
built on children of an older generation records each such child as row
``-1`` (*stale*); anything that would have to read a stale child leaves
the arrays: the evaluator runs its id-order loop, an encoded kernel
raises :class:`~repro.plan.encoded.EncodedFallback`.

The store is also the circuit semiring's
:class:`~repro.semirings.base.MachineRepr`: the encoded tier
(:mod:`repro.plan.encoded`) keeps circuit annotations as ``int64`` arrays
of these ids and calls the kernels below, which *intern* — a batch
``times`` looks every canonical child pair up in a sorted mirror of the
binary ``times`` gates, ``plus`` flattens each segment one level (as
:meth:`~repro.circuits.nodes.CircuitBuilder.plus_many` does), sorts it and
looks it up by fingerprint in a sorted mirror of the ``plus`` gates; misses
go through the builder like any other gate, so the tier returns the very
gate objects the object tier does.  Gate ids mean nothing to another process: the
store is not ``portable`` and the parallel tier refuses it.
"""

from __future__ import annotations

from array import array
from operator import attrgetter, is_
from typing import Any, Dict, List, Optional

from repro.semirings.base import MachineRepr, _np

__all__ = ["GateStore"]

#: Row kind codes (``int8``), in :class:`CircuitNode` ``kind`` spelling.
KIND_CODES = {
    "zero": 0, "one": 1, "const": 2, "var": 3, "plus": 4, "times": 5, "delta": 6,
}
ZERO, ONE, CONST, VAR, PLUS, TIMES, DELTA = range(7)

#: The pinned ``zero`` and ``one`` gates keep their ids for ever; they are
#: rows 0 and 1 of every generation.
_PINNED = 2

#: Batch ``times`` packs a canonical row pair into one int64 key.
_PAIR_SHIFT = 31

#: A mirror's new keys are spliced into a small sorted table of recent
#: gates, folded into the main table once it holds this many: a splice
#: copies at most this many entries, and the main table is copied once per
#: this many new gates rather than once per query that interns.
_RECENT = 1 << 14

_by_id = attrgetter("_id")


def ranges(starts, counts):
    """The concatenation of ``arange(s, s + c)`` over ``zip(starts,
    counts)``: the flat positions of CSR segments."""
    np = _np()
    total = int(counts.sum())
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(total, dtype=np.int64)


class _Snapshot:
    """NumPy copies of the store's first ``n`` rows (arrays may be longer:
    they grow by doubling, and a later snapshot fills their tail in
    place — rows below ``n`` are never rewritten)."""

    __slots__ = ("n", "kinds", "ptr", "kids", "levels")

    def __init__(self, n, kinds, ptr, kids, levels):
        self.n, self.kinds, self.ptr, self.kids, self.levels = n, kinds, ptr, kids, levels


class _SegmentPlus:
    """The gate store's ``+``: the ``reduceat`` half of a ufunc."""

    __slots__ = ("store",)

    def __init__(self, store: "GateStore"):
        self.store = store

    def reduceat(self, values, starts):
        return self.store.plus_segments(values, starts)


class GateStore(MachineRepr):
    """One generation of a builder's gates (see the module docstring)."""

    __slots__ = (
        "builder", "nodes", "_first", "_offset",
        "_kinds", "_ptr", "_kids", "_levels", "_snap", "_mirrors", "_scratch",
    )

    portable = False
    entry_kind = "gate ids into this process's gate store"
    metric_op = "gates"

    def __init__(self, builder, first_id: int, pinned=()):
        super().__init__("int64", "", "")
        self.builder = builder
        self.nodes: List[Any] = []
        #: the first id of this generation's own gates, and ``id - row``
        self._first = first_id
        self._offset = first_id - len(pinned)
        self._kinds = array("b")
        self._ptr = array("q", [0])
        self._kids = array("q")
        self._levels = array("q")
        self._snap: Optional[_Snapshot] = None
        #: lookup tables of the binary ``times`` and the ``plus`` gates:
        #: kind -> (rows scanned, (keys, rows, recent keys, recent rows))
        self._mirrors = {TIMES: (0, None), PLUS: (0, None)}
        #: dtype -> arrays lent out by :meth:`borrow`
        self._scratch: Dict[Any, List[Any]] = {}
        for node in pinned:
            self.append(node)

    # -- rows ------------------------------------------------------------------

    def append(self, node) -> None:
        """Add ``node`` as the next row (the builder calls this under its
        lock, once per interned gate)."""
        first, offset, levels, kids = self._first, self._offset, self._levels, self._kids
        level = 0
        for child in node.children:
            cid = child._id
            row = cid - offset if cid >= first else (cid - 1 if cid <= _PINNED else -1)
            kids.append(row)
            if row >= 0 and levels[row] >= level:
                level = levels[row] + 1
        self._kinds.append(KIND_CODES[node.kind])
        self._ptr.append(len(kids))
        levels.append(level)
        self.nodes.append(node)

    def row(self, node) -> int:
        """``node``'s row, or ``-1`` if it is not a gate of this store."""
        cid = getattr(node, "_id", None)
        if cid is None:
            return -1
        row = cid - self._offset if cid >= self._first else cid - 1
        nodes = self.nodes
        return row if 0 <= row < len(nodes) and nodes[row] is node else -1

    def rows(self, nodes: List[Any]):
        """The rows of ``nodes`` (gates of some builder) as an array, or
        ``None`` if one of them is not a gate of this store."""
        np = _np()
        ids = np.fromiter(map(_by_id, nodes), np.int64, len(nodes))
        rows = ids - self._offset
        if self._offset != 1:
            rows = np.where(ids < self._first, ids - 1, rows)
        table = self.nodes
        if len(rows) and (rows.min() < 0 or rows.max() >= len(table)):
            return None
        if not all(map(is_, map(table.__getitem__, rows.tolist()), nodes)):
            return None
        return rows

    def current(self) -> bool:
        """Is this the builder's live generation (the one that interns)?"""
        return self.builder.store is self

    def arrays(self) -> _Snapshot:
        """The rows as NumPy arrays (cached; extended as the store grows)."""
        snap = self._snap
        if snap is not None and snap.n == len(self.nodes):
            return snap
        np = _np()
        with self.builder._mutex:  # appends run under it: a consistent cut
            n = len(self.nodes)
            m = self._ptr[n]
            old = snap if snap is not None else _Snapshot(
                0, *(np.empty(0, dtype=t) for t in (np.int8, np.int64, np.int64, np.int64))
            )
            old_m = int(old.ptr[old.n]) if old.n else 0
            kinds = _grown(np, old.kinds, old.n, n)
            ptr = _grown(np, old.ptr, old.n + 1 if old.n else 0, n + 1)
            kids = _grown(np, old.kids, old_m, m)
            levels = _grown(np, old.levels, old.n, n)
            start = old.n
            kinds[start:n] = np.frombuffer(self._kinds, np.int8, n)[start:]
            ptr[start:n + 1] = np.frombuffer(self._ptr, np.int64, n + 1)[start:]
            kids[old_m:m] = np.frombuffer(self._kids, np.int64, m)[old_m:]
            levels[start:n] = np.frombuffer(self._levels, np.int64, n)[start:]
            snap = self._snap = _Snapshot(n, kinds, ptr, kids, levels)
        return snap

    def borrow(self, n: int, dtype):
        """A ``dtype`` array of at least ``n`` entries, lent to one caller
        (concurrent callers get different arrays) until it hands it to
        :meth:`give_back`.  A fresh array is all zero; a borrower that
        relies on that (a ``bool`` mask) clears the entries it set before
        giving it back.  An array is allocated when the store has outgrown
        the ones lent before, not once per call."""
        np = _np()
        dtype = np.dtype(dtype)
        pool = self._scratch.setdefault(dtype, [])
        try:
            array = pool.pop()
        except IndexError:
            array = None
        if array is None or len(array) < n:
            size = max(n, 2 * len(array)) if array is not None else n
            array = np.zeros(size, dtype=dtype)
        return array

    def give_back(self, array) -> None:
        self._scratch[array.dtype].append(array)

    def children(self, snap: _Snapshot, rows):
        """``(child rows, per-row counts)`` of ``rows``, CSR-concatenated."""
        starts = snap.ptr[rows]
        counts = snap.ptr[rows + 1] - starts
        return snap.kids[ranges(starts, counts)], counts

    # -- the MachineRepr face --------------------------------------------------

    @property
    def bounded(self) -> bool:
        return False

    def fits(self, value: Any) -> bool:
        """A gate of this generation (the only nodes with an id here)."""
        return self.row(value) >= 0

    def code(self, value: Any) -> int:
        return self.row(value)

    def encode(self, values: List[Any]):
        return self.rows(values)

    def decode(self, array) -> List[Any]:
        return list(map(self.nodes.__getitem__, array.tolist()))

    @property
    def plus(self) -> _SegmentPlus:
        return _SegmentPlus(self)

    @property
    def times(self):
        return self.times_rows

    # -- interning kernels -------------------------------------------------------

    def times_rows(self, a, b):
        """Elementwise ``a * b`` with the builder's unit/annihilator rules
        (:func:`pair_times`): every other canonical pair is looked up in
        the binary-``times`` mirror, and only the misses intern one by
        one."""
        return pair_times(a, b, self._find_times, self._make_times)

    def _find_times(self, keys):
        if len(self.nodes) >= 1 << _PAIR_SHIFT:
            raise _fallback("gate id range")
        return _lookup(_np(), self._mirror(TIMES), keys)

    def _make_times(self, lo, hi):
        self._require_current()
        nodes, times = self.nodes, self.builder.times
        pairs = zip(lo.tolist(), hi.tolist())
        return self._own_rows([times(nodes[x], nodes[y]) for x, y in pairs])

    def plus_segments(self, values, starts):
        """``plus_many`` of every segment ``values[starts[i]:starts[i+1]]``
        (a one-row segment is its row, as ``sum_many`` of one item is).

        Each longer segment is flattened one level and sorted, then looked
        up by the fingerprint of its child rows in the ``plus`` mirror;
        a candidate counts only if its CSR children equal the segment, so
        a fingerprint collision is just a miss.  Misses intern one by one.
        """
        np = _np()
        counts = np.diff(starts, append=len(values))
        out = values[starts]
        multi = np.flatnonzero(counts > 1)
        if not len(multi):
            return out
        self._require_current()
        table = self._mirror(PLUS)
        snap = self.arrays()
        mcounts = counts[multi]
        members = values[ranges(starts[multi], mcounts)]
        segment = np.repeat(np.arange(len(multi), dtype=np.int64), mcounts)
        if (members == ZERO).any():
            raise _fallback("zero gate")
        nested = snap.kinds[members] == PLUS
        if nested.any():  # flatten one level, as plus_many does
            kids, kid_counts = self.children(snap, members[nested])
            lengths = np.ones(len(members), dtype=np.int64)
            lengths[nested] = kid_counts
            flat = np.repeat(members, lengths)
            flat[np.repeat(nested, lengths)] = kids
            members, segment = flat, np.repeat(segment, lengths)
            if (members < 0).any():
                raise _fallback("stale gate")
        if len(multi) * snap.n < 1 << 62:  # one int64 key: a plain argsort
            members = members[np.argsort(segment * snap.n + members)]
        else:
            members = members[np.lexsort((members, segment))]
        counts = np.bincount(segment, minlength=len(multi))
        offsets = np.cumsum(counts) - counts
        found = _lookup(np, table, _fingerprints(np, members, counts))
        hit = np.flatnonzero(found >= 0)
        cand = found[hit]
        same = snap.ptr[cand + 1] - snap.ptr[cand] == counts[hit]
        hit, cand = hit[same], cand[same]
        if len(hit):
            width = counts[hit]
            differ = (
                snap.kids[ranges(snap.ptr[cand], width)]
                != members[ranges(offsets[hit], width)]
            )
            wrong = np.add.reduceat(differ.astype(np.int64), np.cumsum(width) - width)
            found[hit[wrong > 0]] = -1
        miss = np.flatnonzero(found < 0)
        if len(miss):
            rows = members.tolist()
            bounds = zip(offsets[miss].tolist(), (offsets + counts)[miss].tolist())
            builder, nodes = self.builder, self.nodes
            make = builder._make
            made = [
                make("plus", None, tuple(map(nodes.__getitem__, rows[a:b])))
                for a, b in bounds
            ]
            found[miss] = self._own_rows(made)
        out[multi] = found
        return out

    def delta(self, anns, zero, one):
        """Elementwise ``delta``: one builder call per distinct gate."""
        np = _np()
        unique, inverse = np.unique(anns, return_inverse=True)
        self._require_current()
        nodes, delta = self.nodes, self.builder.delta
        return self._own_rows([delta(nodes[r]) for r in unique.tolist()])[inverse]

    def _own_rows(self, made: List[Any]):
        """Rows of gates just returned by the builder — which are this
        generation's unless the builder rolled over meanwhile."""
        self._require_current()
        np = _np()
        first, offset = self._first, self._offset
        return np.fromiter(
            (n._id - offset if n._id >= first else n._id - 1 for n in made),
            np.int64,
            len(made),
        )

    def _require_current(self) -> None:
        if not self.current():
            raise _fallback("gate store rolled over")

    def _mirror(self, kind: int):
        """The sorted lookup tables of this store's binary ``times`` gates
        (key: the packed child-row pair) or ``plus`` gates (key: the
        fingerprint of the child rows), extended by the rows added since
        they were last read: ``(keys, rows, recent keys, recent rows)``.
        Only the new rows are sorted; they are spliced into the recent
        table, which is merged into the main one every :data:`_RECENT`
        gates.  Gates with a stale child are left out — no lookup can name
        it."""
        scanned, tables = self._mirrors[kind]
        if tables is not None and scanned == len(self.nodes):
            return tables
        np = _np()
        snap = self.arrays()
        new = np.arange(scanned, snap.n, dtype=np.int64)
        new = new[snap.kinds[new] == kind]
        if kind == TIMES:
            first = snap.ptr[new]
            binary = snap.ptr[new + 1] - first == 2
            new, first = new[binary], first[binary]
            lo, hi = snap.kids[first], snap.kids[first + 1]
            fresh = (lo >= 0) & (hi >= 0)
            add_keys, add_rows = (lo[fresh] << _PAIR_SHIFT) | hi[fresh], new[fresh]
        elif len(new):
            kids, counts = self.children(snap, new)
            stale = np.add.reduceat((kids < 0).astype(np.int64), np.cumsum(counts) - counts)
            add_keys, add_rows = _fingerprints(np, kids, counts)[stale == 0], new[stale == 0]
        else:
            add_keys = add_rows = new
        tables = extended(tables, add_keys, add_rows)
        self._mirrors[kind] = (snap.n, tables)
        return tables

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<gate store from id {self._first}, {len(self.nodes)} rows>"


def pair_times(a, b, find, make):
    """Elementwise ``a * b`` over ids whose ``0`` and ``1`` are the pinned
    zero and one (gate rows, ``N[X]`` term ids): the units and the
    annihilator by rule; every other pair, canonically ordered and packed
    into one int64 key, is looked up by ``find(keys)`` (``-1`` where
    absent), and ``make(lo, hi)`` gives the ids of the misses."""
    np = _np()
    out = np.where(a == ONE, b, a)
    out = np.where(b == ONE, a, out)
    out[(a == ZERO) | (b == ZERO)] = ZERO
    need = np.flatnonzero((a > ONE) & (b > ONE))
    if not len(need):
        return out
    lo = np.minimum(a[need], b[need])
    hi = np.maximum(a[need], b[need])
    res = find((lo << _PAIR_SHIFT) | hi)
    miss = np.flatnonzero(res < 0)
    if len(miss):
        res[miss] = make(lo[miss], hi[miss])
    out[need] = res
    return out


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
    """:func:`_find` over a mirror's main table, then its recent one."""
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


#: Odd multipliers of the segment fingerprint (any would do: a candidate
#: is verified against its children before it is used).
_BASE, _GOLDEN = 0x100000001B3, 0x9E3779B97F4A7C15


def _fingerprints(np, members, counts):
    """One 64-bit hash per CSR segment of the rows ``members`` (segment
    ``i`` has ``counts[i] >= 1`` rows): ``sum_j (row_j + 1) * B**j`` mixed
    with the length, in wrapping uint64 arithmetic, viewed as int64."""
    starts = np.cumsum(counts) - counts
    position = np.arange(len(members), dtype=np.int64) - np.repeat(starts, counts)
    powers = np.cumprod(np.full(int(counts.max()), _BASE, dtype=np.uint64))
    terms = (members.astype(np.uint64) + np.uint64(1)) * powers[position]
    mixed = np.add.reduceat(terms, starts) ^ (counts.astype(np.uint64) * np.uint64(_GOLDEN))
    return mixed.view(np.int64)


def _grown(np, arr, used: int, need: int):
    """``arr`` if it holds ``need`` entries, else a copy twice as large
    with its first ``used`` entries."""
    if len(arr) >= need:
        return arr
    grown = np.empty(max(need, 2 * len(arr)), dtype=arr.dtype)
    grown[:used] = arr[:used]
    return grown


def _fallback(cause: str) -> Exception:
    """An :class:`~repro.plan.encoded.EncodedFallback` for a gate-specific
    cause, counted on the encoded-kernel counter (``op="gates"``)."""
    from repro.obs import metrics
    from repro.plan.encoded import EncodedFallback

    metrics.ENCODED_KERNEL.inc(1, "gates", f"fallback: {cause}")
    return EncodedFallback(cause)
