"""The circuit semiring: annotations as shared DAG nodes.

``CircuitSemiring`` satisfies the :class:`~repro.semirings.base.Semiring`
interface with circuit nodes as elements, so the entire query engine —
operators, aggregation, GROUP BY, tensors — runs over it unchanged.  The
resulting annotations have size proportional to the *work performed by the
query*, not to the expanded polynomial (experiment E15).

Caveat: circuit equality is structural-after-simplification (interning),
which is finer than semantic polynomial equality; circuits are an
execution representation, not a canonical form.  Convert to ``N[X]`` with
:func:`~repro.circuits.convert.circuit_to_polynomial` when canonical
comparison is needed.
"""

from __future__ import annotations

from typing import Any

from repro.circuits.nodes import CircuitBuilder, CircuitNode
from repro.circuits.store import GateStore
from repro.semirings.base import Semiring

__all__ = ["CircuitSemiring"]


class CircuitSemiring(Semiring):
    """Free semiring over tokens, represented as hash-consed circuits."""

    idempotent_plus = False
    idempotent_times = False
    positive = True
    has_hom_to_nat = True
    has_delta = True

    def __init__(self, name: str = "Circ[X]"):
        self.name = name
        self.builder = CircuitBuilder()
        # Bind the hot operations straight to the builder: annotation
        # arithmetic in circuit mode is one gate-intern per operation, so
        # a wrapper frame per call would be a measurable share of the
        # work.  These instance attributes SHADOW the identically-named
        # class methods below (kept only to satisfy the Semiring ABC) —
        # behaviour changes belong in CircuitBuilder, not in the methods.
        self.plus = self.builder.plus
        self.times = self.builder.times
        self.sum_many = self.builder.plus_many
        self.prod_many = self.builder.times_many
        self.delta = self.builder.delta

    @property
    def machine_repr(self) -> GateStore:
        """Gate ids into the builder's current gate store (the encoded
        tier's annotation arrays; :mod:`repro.circuits.store`)."""
        return self.builder.store

    @property
    def zero(self) -> CircuitNode:
        return self.builder.zero

    @property
    def one(self) -> CircuitNode:
        return self.builder.one

    def contains(self, value: Any) -> bool:
        return isinstance(value, CircuitNode)

    def is_zero(self, a: CircuitNode) -> bool:
        # gates are interned: identity comparison, no property hop
        return a is self.builder.zero

    def is_one(self, a: CircuitNode) -> bool:
        return a is self.builder.one

    def variable(self, token: Any) -> CircuitNode:
        """The input gate for a provenance token."""
        return self.builder.var(token)

    # The arithmetic methods below are shadowed per instance by direct
    # builder bindings (see __init__) and exist to satisfy the Semiring
    # ABC's abstract-method checks; edit CircuitBuilder, not these.

    def plus(self, a: CircuitNode, b: CircuitNode) -> CircuitNode:
        return self.builder.plus(a, b)

    def times(self, a: CircuitNode, b: CircuitNode) -> CircuitNode:
        return self.builder.times(a, b)

    # n-ary kernels: one flattened gate per bulk reduction, so the circuit
    # mirrors the query's aggregation structure (a single wide plus gate
    # per group) instead of a comb of binary gates

    def sum_many(self, items) -> CircuitNode:
        return self.builder.plus_many(items)

    def prod_many(self, items) -> CircuitNode:
        return self.builder.times_many(items)

    def dot(self, pairs) -> CircuitNode:
        times = self.builder.times
        return self.builder.plus_many(times(a, b) for a, b in pairs)

    def delta(self, a: CircuitNode) -> CircuitNode:
        return self.builder.delta(a)

    def from_int(self, n: int) -> CircuitNode:
        return self.builder.const(n)

    def hom_to_nat(self, a: CircuitNode) -> int:
        from repro.circuits.evaluate import evaluate_gates  # avoid cycle
        from repro.semirings.natural import NAT

        return evaluate_gates((a,), NAT, lambda token: 1, builder=self.builder)[0]

    def format(self, a: CircuitNode) -> str:
        # full expansion is exponential in depth; render within a budget
        # (the budgeted walker never expands more than it prints)
        text = a.render(120)
        return text if len(text) <= 120 else f"<circuit: {a.dag_size()} gates>"
