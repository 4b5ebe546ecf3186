"""Provenance circuits: hash-consed DAGs of semiring operations.

Expanded polynomials can blow up (a chain of ``n`` self-joins squares the
term count each step), while the *circuit* that produced them stays linear
in the number of operator applications.  Production systems (ProvSQL,
Orchestra-style implementations the paper cites as its intended execution
substrate) therefore store provenance as circuits and evaluate them under
each valuation.  This subpackage provides that representation as a
drop-in annotation semiring: run the very same query engine with
:class:`~repro.circuits.semiring.CircuitSemiring` and every annotation is
a shared node instead of an expanded polynomial (experiment E15 measures
the gap).

Nodes are interned per builder ("hash-consing"): structurally identical
subcircuits are the same Python object, so common subexpressions are
stored and evaluated once.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, Tuple

from repro.circuits.store import GateStore

__all__ = ["CircuitNode", "CircuitBuilder"]


class CircuitNode:
    """One gate of a provenance circuit.

    ``kind`` is one of ``"zero"``, ``"one"``, ``"const"`` (a natural
    number), ``"var"`` (a provenance token), ``"plus"``, ``"times"``,
    ``"delta"``.  Children are other interned nodes.  Instances are
    created only through :class:`CircuitBuilder`; identity equality is
    object equality thanks to interning.
    """

    __slots__ = ("kind", "payload", "children", "_id")

    def __init__(self, kind: str, payload: Any, children: Tuple["CircuitNode", ...], node_id: int):
        self.kind = kind
        self.payload = payload
        self.children = children
        self._id = node_id

    def __hash__(self) -> int:
        return self._id

    # identity equality is correct because of interning; defining __eq__
    # explicitly documents the invariant.
    def __eq__(self, other: object) -> bool:
        return self is other

    # -- structure ----------------------------------------------------------

    def iter_nodes(self) -> Iterator["CircuitNode"]:
        """All distinct nodes reachable from this one (DAG traversal)."""
        seen: set = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if node._id in seen:
                continue
            seen.add(node._id)
            yield node
            stack.extend(node.children)

    def dag_size(self) -> int:
        """Number of distinct gates (the honest circuit-size measure)."""
        return sum(1 for _ in self.iter_nodes())

    def tree_size(self) -> int:
        """Size of the fully-expanded expression tree (can be exponential)."""
        if not self.children:
            return 1
        return 1 + sum(child.tree_size() for child in self.children)

    def variables(self) -> frozenset:
        """All provenance tokens appearing in the circuit."""
        return frozenset(
            node.payload for node in self.iter_nodes() if node.kind == "var"
        )

    # -- display --------------------------------------------------------------

    def render(self, max_chars: int = 120) -> str:
        """Render the expression, truncated at ``max_chars`` characters.

        ``str()`` expands the shared DAG into its expression *tree*, which
        is exponential in circuit depth (a chain of squarings doubles the
        text per gate); this walker emits left-to-right and abandons the
        traversal the moment the budget is spent, so rendering cost is
        bounded regardless of circuit size.
        """
        pieces: list = []
        used = 0
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                text = item
            elif not item.children:
                text = str(item)
            elif item.kind == "delta":
                stack.append(")")
                stack.append(item.children[0])
                text = "δ("
            else:
                sep = " + " if item.kind == "plus" else "*"
                stack.append(")")
                children = item.children
                for idx in range(len(children) - 1, -1, -1):
                    stack.append(children[idx])
                    if idx:
                        stack.append(sep)
                text = "("
            pieces.append(text)
            used += len(text)
            if used > max_chars:
                return "".join(pieces)[:max_chars] + "…"
        return "".join(pieces)

    def __str__(self) -> str:
        if self.kind == "zero":
            return "0"
        if self.kind == "one":
            return "1"
        if self.kind == "const":
            return str(self.payload)
        if self.kind == "var":
            return str(self.payload)
        if self.kind == "delta":
            return f"δ({self.children[0]})"
        op = " + " if self.kind == "plus" else "*"
        return "(" + op.join(str(c) for c in self.children) + ")"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<circuit #{self._id} {self.kind} size={self.dag_size()}>"


class CircuitBuilder:
    """Interning factory for circuit nodes (one per CircuitSemiring).

    Every interned gate is also a row of the builder's gate store
    (:attr:`store`, :mod:`repro.circuits.store`), which the evaluator and
    the encoded tier run over.  Interning is **bounded**: a long-lived
    builder serves many distinct queries, and unbounded hash-consing
    grows memory with the workload forever.  When the store holds
    ``max_gates`` gates the builder starts a new *generation* — a fresh
    store and fresh intern tables (the two binary-operation memos map to
    gates, so they are bounded by the same count), by the interning
    core's rule (:meth:`~repro.semirings.interning.Interner.claim`) —
    checked only on *misses*, so the hot-path hit stays a single C-level
    ``dict.get``.
    A retired generation costs only sharing: a re-requested shape is
    rebuilt as a fresh, structurally identical gate; live gates stay
    reachable from whatever references them (children hold strong
    references) and evaluate by the id-order loop; and the pinned
    ``zero``/``one`` attributes — rows 0 and 1 of every generation — keep
    the identity-based ``is_zero``/``is_one`` tests sound forever.
    """

    #: Default cap on distinct interned gates per generation.
    DEFAULT_MAX_GATES = 1 << 20

    def __init__(self, max_gates: int = DEFAULT_MAX_GATES) -> None:
        self._max_gates = max_gates
        self._intern: Dict[Tuple, CircuitNode] = {}
        # memo in front of _make for the two binary hot paths: the key is
        # two ints instead of a nested (kind, payload, child-ids) tuple
        self._plus2: Dict[Tuple[int, int], CircuitNode] = {}
        self._times2: Dict[Tuple[int, int], CircuitNode] = {}
        self._counter = 0
        self._mutex = threading.Lock()
        self.store = GateStore(self, 1)
        self.zero = self._make("zero", None, ())
        self.one = self._make("one", None, ())

    def _next_generation(self):
        """Under the mutex: fresh intern tables, and the fresh store that
        holds the pinned gates as its rows 0 and 1."""
        self._intern, self._plus2, self._times2 = {}, {}, {}
        return GateStore(self, self._counter + 1, (self.zero, self.one))

    def _make(self, kind: str, payload: Any, children: Tuple[CircuitNode, ...]) -> CircuitNode:
        key = (kind, payload, tuple(c._id for c in children))
        node = self._intern.get(key)
        if node is None:
            # the miss path serialises: gate ids must be unique (the
            # binary memos key on id pairs, so a duplicated id would
            # alias distinct gates), the counter bump is a
            # read-modify-write, and a store row is an append.  Hits
            # above stay one lock-free dict.get.
            with self._mutex:
                node = self._intern.get(key)
                if node is None:
                    self.store.claim(1)  # a full store hands over a fresh one
                    self._counter += 1
                    node = CircuitNode(kind, payload, children, self._counter)
                    self._intern[key] = node
                    self.store.append(node)
        return node

    # -- constructors with local simplification --------------------------------

    def var(self, token: Any) -> CircuitNode:
        """A provenance-token input gate."""
        return self._make("var", token, ())

    def const(self, n: int) -> CircuitNode:
        """A natural-number constant gate."""
        if n == 0:
            return self.zero
        if n == 1:
            return self.one
        return self._make("const", n, ())

    def plus(self, a: CircuitNode, b: CircuitNode) -> CircuitNode:
        """Addition gate with unit simplification (0 + x = x)."""
        if a is self.zero:
            return b
        if b is self.zero:
            return a
        # canonical child order maximises sharing of commutative gates
        if b._id < a._id:
            a, b = b, a
        key = (a._id, b._id)
        node = self._plus2.get(key)
        if node is None:
            node = self._plus2[key] = self._make("plus", None, (a, b))
        return node

    def times(self, a: CircuitNode, b: CircuitNode) -> CircuitNode:
        """Multiplication gate with unit/annihilator simplification."""
        if a is self.zero or b is self.zero:
            return self.zero
        if a is self.one:
            return b
        if b is self.one:
            return a
        if b._id < a._id:
            a, b = b, a
        key = (a._id, b._id)
        node = self._times2.get(key)
        if node is None:
            node = self._times2[key] = self._make("times", None, (a, b))
        return node

    def delta(self, a: CircuitNode) -> CircuitNode:
        """Delta gate (Definition 3.6) with constant folding."""
        if a is self.zero:
            return self.zero
        if a is self.one:
            return self.one
        if a.kind == "const":
            return self.one
        return self._make("delta", None, (a,))

    # -- n-ary gates ------------------------------------------------------------

    def plus_many(self, items) -> CircuitNode:
        """One flattened n-ary addition gate for a whole ``sum``.

        A fold of binary :meth:`plus` represents an n-way sum as a comb of
        n-1 gates, each interned and each traversed separately during
        evaluation; GROUP BY over 10k rows builds 10k-deep combs.  The
        n-ary gate stores the same sum as *one* node: children are
        flattened through nested plus gates, zeros dropped, and sorted by
        id so commutatively-equal sums intern to the same gate.
        """
        children: list = []
        extend = children.extend
        append = children.append
        zero = self.zero
        for item in items:
            if item is zero:
                continue
            if item.kind == "plus":
                extend(item.children)
            else:
                append(item)
        if not children:
            return zero
        if len(children) == 1:
            return children[0]
        children.sort(key=lambda node: node._id)
        return self._make("plus", None, tuple(children))

    def times_many(self, items) -> CircuitNode:
        """One flattened n-ary multiplication gate (see :meth:`plus_many`).

        Annihilates on any zero child and drops unit children.
        """
        children: list = []
        extend = children.extend
        append = children.append
        zero, one = self.zero, self.one
        for item in items:
            if item is zero:
                return zero
            if item is one:
                continue
            if item.kind == "times":
                extend(item.children)
            else:
                append(item)
        if not children:
            return one
        if len(children) == 1:
            return children[0]
        children.sort(key=lambda node: node._id)
        return self._make("times", None, tuple(children))

    def interned_count(self) -> int:
        """Number of gates interned in the current generation (sharing /
        memory metric; gates of retired generations no longer count,
        though they stay alive while referenced)."""
        return len(self._intern)
