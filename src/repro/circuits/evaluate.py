"""Circuit evaluation into arbitrary semirings: one bottom-up pass.

Evaluating a circuit under a valuation is the circuit analogue of applying
a freely-extended homomorphism to a provenance polynomial: each distinct
gate is computed once (the point of sharing), in any target semiring.
Gate ids are topological — a gate is created after its children — so
one pass in id order is a valid schedule, and so is one pass level by
level over the builder's gate store (:mod:`repro.circuits.store`).

:func:`evaluate_gates` finds the gates reachable from all its roots at
once, then either

* runs **the array pass** — one NumPy reduction per (level, kind): when
  the circuit is wide enough to pay for its levels (see
  :data:`_GATES_PER_LEVEL`), the target declares an exact numeric
  :class:`~repro.semirings.base.MachineRepr` (``int64`` or ``bool``),
  the valuation's images are of its type, every gate sits in the
  builder's current generation, and, for ``int64``, the exact magnitude
  bound carried level by level stays inside int64; or
* runs **the id-order loop** — the target's own ``plus`` / ``times`` /
  ``sum_many`` / ``prod_many`` / ``delta``, one gate at a time, exact in
  every semiring (``N[X]`` lowering, security, ``N`` past int64,
  ``float64`` targets, whose re-associated sums would round differently).

Both give the identical answer; NumPy only decides which one runs.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, List, Mapping, Sequence

from repro.circuits.nodes import CircuitNode
from repro.circuits.store import CONST, DELTA, ONE, PLUS, VAR, ZERO
from repro.exceptions import HomomorphismError
from repro.semirings.base import Semiring, _np
from repro.semirings.interning import distinct

__all__ = ["evaluate_circuit", "evaluate_gates", "reachable_count"]

#: Fewest reached gates per level for which the gate store is walked.
#: Reachability and the array pass each cost a dozen NumPy calls per level
#: whatever its width; the loop costs one Python step per gate.  Timed over
#: layered circuits of width 1-512 and depth 4-256 (2-core x86 host, exact
#: bool target), the array route cost 30-50 us per level and the loop
#: 0.5-0.75 us per gate: the two broke even at 80-140 gates per level at
#: every depth, and the array route won 2-4.6x at 512.
_GATES_PER_LEVEL = 100

_INT64_MAX = (1 << 63) - 1

_by_id = attrgetter("_id")
_payload = attrgetter("payload")


def evaluate_gates(
    roots: Sequence[CircuitNode],
    target: Semiring,
    valuation: Mapping[Any, Any] | Callable[[Any], Any],
    *,
    builder=None,
) -> List[Any]:
    """The values of ``roots`` in ``target`` under a token valuation.

    ``valuation`` maps tokens to target elements (mapping or callable).
    ``builder`` is the roots' :class:`~repro.circuits.nodes.CircuitBuilder`:
    with it, roots that reach at least :data:`_GATES_PER_LEVEL` gates are
    walked over the gate store and the array pass can run; fewer gates, or
    no builder, and the loop walks the nodes.
    """
    image = _image(valuation)
    order = None
    if builder is not None:
        # fewer gates than one level's worth never pay for the store
        order = _reachable(roots, {}, _GATES_PER_LEVEL)
        reached = _reach(builder.store, roots) if order is None else None
        if reached is not None:
            values = _array_pass(reached, target, image)
            if values is not None:
                return values
            nodes = reached.store.nodes
            order = [nodes[r] for r in reached.rows.tolist()]
    memo: Dict[int, Any] = {}
    if order is None:
        order = _reachable(roots, memo)
    _loop(order, target, image, memo)
    return [memo[root._id] for root in roots]


def evaluate_circuit(
    node: CircuitNode,
    target: Semiring,
    valuation: Mapping[Any, Any] | Callable[[Any], Any],
) -> Any:
    """Evaluate one circuit in ``target`` (see :func:`evaluate_gates`)."""
    return evaluate_gates((node,), target, valuation)[0]


def reachable_count(roots: Sequence[CircuitNode], builder=None) -> int:
    """Distinct gates reachable from ``roots`` (the circuit-size metric)."""
    order = _reachable(roots, {}, _GATES_PER_LEVEL if builder is not None else None)
    if order is not None:
        return len(order)
    reached = _reach(builder.store, roots)
    if reached is not None:
        return len(reached.rows)
    return len(_reachable(roots, {}))


def _image(valuation) -> Callable[[Any], Any]:
    if not isinstance(valuation, Mapping):
        return valuation
    mapping = dict(valuation)

    def image(token: Any) -> Any:
        try:
            return mapping[token]
        except KeyError:
            raise HomomorphismError(
                f"valuation does not cover token {token!r}"
            ) from None

    return image


# ---------------------------------------------------------------------------
# the id-order loop
# ---------------------------------------------------------------------------


def _reachable(
    roots: Sequence[CircuitNode], memo: Dict[int, Any], limit: int | None = None
) -> List[CircuitNode] | None:
    """The gates reachable from ``roots`` and not in ``memo``, in id order
    (``None`` once there are ``limit`` of them)."""
    seen: set = set()
    out: List[CircuitNode] = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node._id in seen or node._id in memo:
            continue
        if len(out) == limit:
            return None
        seen.add(node._id)
        out.append(node)
        stack.extend(node.children)
    out.sort(key=_by_id)
    return out


def _loop(order: List[CircuitNode], target: Semiring, image, memo: Dict[int, Any]) -> None:
    """Evaluate ``order`` (children before parents) into ``memo``."""
    for node in order:
        kind = node.kind
        children = node.children
        if kind == "var":
            value = image(node.payload)
        elif kind == "plus":
            if len(children) == 2:
                value = target.plus(memo[children[0]._id], memo[children[1]._id])
            else:  # flattened n-ary gate: one fused reduction
                value = target.sum_many([memo[c._id] for c in children])
        elif kind == "times":
            if len(children) == 2:
                value = target.times(memo[children[0]._id], memo[children[1]._id])
            else:
                value = target.prod_many([memo[c._id] for c in children])
        elif kind == "delta":
            value = target.delta(memo[children[0]._id])
        elif kind == "const":
            value = target.from_int(node.payload)
        elif kind == "zero":
            value = target.zero
        elif kind == "one":
            value = target.one
        else:  # pragma: no cover - builder only produces the kinds above
            raise HomomorphismError(f"unknown circuit gate {kind!r}")
        memo[node._id] = value


# ---------------------------------------------------------------------------
# the array pass
# ---------------------------------------------------------------------------


class _Reached:
    __slots__ = ("store", "snap", "root_rows", "rows")

    def __init__(self, store, snap, root_rows, rows):
        self.store, self.snap, self.root_rows, self.rows = store, snap, root_rows, rows


def _reach(store, roots: Sequence[CircuitNode]):
    """The store rows reachable from ``roots``, found level by level over
    the CSR children — or ``None`` when the store should not answer: no
    NumPy, a root or a reachable child outside this generation, or a
    circuit too narrow to pay for its levels.  Every level walked after the
    first must bring :data:`_GATES_PER_LEVEL` reached gates with it; below
    that the walk stops and the loop, cheaper per narrow level, runs."""
    from repro.plan.kernels import HAVE_NUMPY

    if not HAVE_NUMPY:
        return None
    np = _np()
    root_rows = store.rows(roots)
    if root_rows is None:
        return None
    snap = store.arrays()
    frontier = distinct(np, root_rows, snap.n, inverse=False)
    found = [frontier]
    total = len(frontier)
    seen = store.borrow(snap.n, bool)
    try:
        seen[frontier] = True
        while len(frontier):
            if total < _GATES_PER_LEVEL * (len(found) - 1):
                return None
            kids, _counts = store.children(snap, frontier)
            if len(kids) and kids.min() < 0:
                return None
            frontier = distinct(np, kids[~seen[kids]], snap.n, inverse=False)
            found.append(frontier)
            seen[frontier] = True
            total += len(frontier)
        rows = np.concatenate(found)
    finally:
        for part in found:
            seen[part] = False
        store.give_back(seen)
    rows.sort()
    return _Reached(store, snap, root_rows, rows)


def _array_pass(reached: _Reached, target: Semiring, image):
    """The values of the roots as one NumPy pass per (level, kind), or
    ``None`` where the loop must run instead (see the module docstring)."""
    machine = target.machine_repr
    if machine is None or not machine.portable or machine.dtype == "float64":
        return None
    np = _np()
    store, snap, rows = reached.store, reached.snap, reached.rows
    if not len(rows):
        return []
    dtype = np.dtype(machine.dtype)
    kind = snap.kinds[rows]
    level = snap.levels[rows]
    order = np.lexsort((kind, level))
    kind, level = kind[order], level[order]
    cuts = np.flatnonzero((np.diff(kind) != 0) | (np.diff(level) != 0)) + 1
    bounds = [0, *cuts.tolist(), len(rows)]
    values = np.empty(len(rows), dtype=dtype)  # values[i] is row rows[i]'s
    index = store.borrow(snap.n, np.int64)  # row -> i, read only where set
    index[rows] = np.arange(len(rows))
    nodes = store.nodes
    bounded = machine.bounded
    below = done = 1  # exact magnitude bounds: levels below / up to here
    try:
        for start, end in zip(bounds[:-1], bounds[1:]):
            at = order[start:end]
            part = rows[at]
            code = int(kind[start])
            if start and level[start] != level[start - 1]:
                below = done
            if code == VAR or code == CONST:
                payloads = map(_payload, map(nodes.__getitem__, part.tolist()))
                items = list(map(image if code == VAR else target.from_int, payloads))
                leaf = _leaf_array(np, items, dtype)
                if leaf is None:
                    return None
                if bounded and len(leaf):
                    done = max(done, int(leaf.max()), -int(leaf.min()))
                values[at] = leaf
            elif code == ZERO or code == ONE:
                values[at] = machine.code(target.zero if code == ZERO else target.one)
            elif code == DELTA:
                values[at] = machine.delta(
                    values[index[snap.kids[snap.ptr[part]]]],
                    machine.code(target.zero),
                    machine.code(target.one),
                )
            else:
                kids, counts = store.children(snap, part)
                if bounded:
                    arity = int(counts.max())
                    if code == PLUS:
                        grown = below * arity
                    elif (below - 1).bit_length() * arity > 126:
                        return None
                    else:
                        grown = below ** arity
                    if grown > _INT64_MAX:
                        return None
                    done = max(done, grown)
                ufunc = machine.plus if code == PLUS else machine.times
                values[at] = ufunc.reduceat(values[index[kids]], np.cumsum(counts) - counts)
        return values[index[reached.root_rows]].tolist()
    finally:
        store.give_back(index)


def _leaf_array(np, items: List[Any], dtype):
    """``items`` as an array of ``dtype`` if each is of the dtype's exact
    Python type (``int`` — never ``bool`` — or ``bool``), else ``None``."""
    kinds = set(map(type, items))
    if kinds - ({bool} if dtype.kind == "b" else {int}):
        return None
    try:
        return np.array(items, dtype=dtype)
    except OverflowError:
        return None
