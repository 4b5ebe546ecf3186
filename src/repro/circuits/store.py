"""The gate store: a builder's gates as rows of flat arrays.

Every gate a :class:`~repro.circuits.nodes.CircuitBuilder` interns also
appends one row here — its kind (``int8``), its children as CSR row
numbers (``ptr``/``kids``), and its *level* (0 for inputs, else one more
than its deepest child) — and ``nodes`` maps a row back to its node.
Rows grow with creation order, so children sit on lower rows and row
order is node-id order, the order the builder sorts commutative children
in.

The store is the circuit semiring's machine representation, a rendering
of the interning core (:class:`~repro.semirings.interning.Interner`) the
term store shares: one store is one **generation** of its builder, capped
by ``max_gates``; a full one hands the builder a fresh store and fresh
intern tables, and is dropped with whatever still references it.  Rows 0
and 1 are the pinned ``zero`` and ``one``.  A gate built on children of
an older generation records each such child as row ``-1`` (*stale*), and
whatever would read one leaves the arrays: the evaluator runs its loop,
an encoded kernel falls back.  The kernels *intern*: ``times`` is the
core's pair lookup in a mirror of the binary ``times`` gates; ``plus``
flattens each segment one level (as
:meth:`~repro.circuits.nodes.CircuitBuilder.plus_many` does), sorts it
and looks it up by fingerprint in a mirror of the ``plus`` gates; misses
go through the builder, so the tier returns the very gates the object
tier does.
"""

from __future__ import annotations

from array import array
from operator import attrgetter, is_
from types import SimpleNamespace
from typing import Any, Dict, List

from repro.semirings.base import _np
from repro.semirings.interning import _PAIR_SHIFT, Interner, Snapshot, _lookup, extended, ranges

__all__ = ["GateStore"]

#: Row kind codes (``int8``), in :class:`CircuitNode` ``kind`` spelling.
KIND_CODES = {
    "zero": 0, "one": 1, "const": 2, "var": 3, "plus": 4, "times": 5, "delta": 6,
}
ZERO, ONE, CONST, VAR, PLUS, TIMES, DELTA = range(7)

#: The pinned ``zero`` and ``one`` gates keep their ids for ever; they are
#: rows 0 and 1 of every generation.
_PINNED = 2

_by_id = attrgetter("_id")


class GateStore(Interner):
    """One generation of a builder's gates (see the module docstring); its
    owner is the builder, its cap the builder's ``_max_gates``."""

    __slots__ = (
        "nodes", "_first", "_offset", "_kinds", "_ptr", "_kids", "_levels",
        "_mirrors", "_scratch",
    )

    entry_kind = "gate ids into this process's gate store"
    metric_op = "gates"
    live = "store"
    label = "gate store"

    def __init__(self, builder, first_id: int, pinned=()):
        super().__init__(builder, builder._mutex)
        self.nodes: List[Any] = []
        #: the first id of this generation's own gates, and ``id - row``
        self._first = first_id
        self._offset = first_id - len(pinned)
        self._kinds = array("b")
        self._ptr = array("q", [0])
        self._kids = array("q")
        self._levels = array("q")
        #: lookup tables of the binary ``times`` and the ``plus`` gates:
        #: kind -> (rows scanned, (keys, rows, recent keys, recent rows))
        self._mirrors = {TIMES: (0, None), PLUS: (0, None)}
        #: dtype -> arrays lent out by :meth:`borrow`
        self._scratch: Dict[Any, List[Any]] = {}
        for node in pinned:
            self.append(node)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def cap(self) -> int:
        return self.owner._max_gates

    def successor(self) -> "GateStore":
        return self.owner._next_generation()

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

    def _tail(self, np, snap: Snapshot, n: int) -> Dict[str, Any]:
        """Row ``r``'s kind, children (CSR) and level."""
        old_m, m = int(snap.ptr[snap.n]), self._ptr[n]
        return {
            "kinds": (np.int8, np.frombuffer(self._kinds, np.int8, n)[snap.n:]),
            "ptr": (np.int64, np.frombuffer(self._ptr, np.int64, n + 1)[snap.n + 1:]),
            "kids": (np.int64, np.frombuffer(self._kids, np.int64, m)[old_m:]),
            "levels": (np.int64, np.frombuffer(self._levels, np.int64, n)[snap.n:]),
        }

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

    def children(self, snap: Snapshot, rows):
        """``(child rows, per-row counts)`` of ``rows``, CSR-concatenated."""
        starts = snap.ptr[rows]
        counts = snap.ptr[rows + 1] - starts
        return snap.kids[ranges(starts, counts)], counts

    # -- the MachineRepr face --------------------------------------------------

    def fits(self, value: Any) -> bool:
        """A gate of this generation (the only nodes with an id here)."""
        return self.row(value) >= 0

    code, encode = row, rows

    def decode(self, array) -> List[Any]:
        return list(map(self.nodes.__getitem__, array.tolist()))

    @property
    def plus(self):
        """The ``reduceat`` half of a ufunc."""
        return SimpleNamespace(reduceat=self.plus_segments)

    # -- interning kernels -------------------------------------------------------

    def _pairs_table(self):
        return self._mirror(TIMES)

    def _made_pairs(self, lo, hi):
        """The misses intern one by one, through the builder."""
        self.require()
        nodes, times = self.nodes, self.owner.times
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
        self.require()
        table = self._mirror(PLUS)
        snap = self.arrays()
        mcounts = counts[multi]
        members = values[ranges(starts[multi], mcounts)]
        segment = np.repeat(np.arange(len(multi), dtype=np.int64), mcounts)
        if (members == ZERO).any():
            raise self.fallback("zero gate")
        nested = snap.kinds[members] == PLUS
        if nested.any():  # flatten one level, as plus_many does
            kids, kid_counts = self.children(snap, members[nested])
            lengths = np.ones(len(members), dtype=np.int64)
            lengths[nested] = kid_counts
            flat = np.repeat(members, lengths)
            flat[np.repeat(nested, lengths)] = kids
            members, segment = flat, np.repeat(segment, lengths)
            if (members < 0).any():
                raise self.fallback("stale gate")
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
            nodes, make = self.nodes, self.owner._make
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
        self.require()
        nodes, delta = self.nodes, self.owner.delta
        return self._own_rows([delta(nodes[r]) for r in unique.tolist()])[inverse]

    def _own_rows(self, made: List[Any]):
        """Rows of gates just returned by the builder — which are this
        generation's unless the builder rolled over meanwhile."""
        self.require()
        return self.rows(made)

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
