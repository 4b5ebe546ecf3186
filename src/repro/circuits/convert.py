"""Conversions between circuits and provenance polynomials.

``circuit -> polynomial`` is just evaluation in ``N[X]`` (tokens map to
themselves), i.e. full expansion; ``polynomial -> circuit`` re-encodes the
canonical form as gates.  Round-tripping through ``N[X]`` canonicalises a
circuit; the size comparison between the two representations is
experiment E15.

:data:`NX_CIRCUITS` is the circuit representation of ``N[X]`` that
``annotations="circuit"`` plans compute in: one semiring, and so one gate
builder, for the whole process, as ``NX.machine_repr`` is one term store.
Its builder's ``max_gates`` generations bound its memory.  A circuit
plan's scans lift the stored polynomials into it (:func:`lifter`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.circuits.evaluate import evaluate_circuit
from repro.circuits.nodes import CircuitNode
from repro.circuits.semiring import CircuitSemiring
from repro.exceptions import SemiringError
from repro.semimodules.tensor import Tensor, tensor_space
from repro.semirings.polynomials import NX, Polynomial

__all__ = ["NX_CIRCUITS", "circuit_to_polynomial", "lifter", "polynomial_to_circuit"]

#: The circuit semiring of ``N[X]`` (see the module docstring).
NX_CIRCUITS = CircuitSemiring(name=f"Circ[{NX.name}]")


def circuit_to_polynomial(node: CircuitNode) -> Polynomial:
    """Expand a circuit into a canonical ``N[X]`` polynomial.

    Delta gates expand into the free delta-semiring (``DeltaTerm``
    indeterminates), matching what the polynomial engine itself produces.
    """
    return evaluate_circuit(node, NX, NX.variable)


def polynomial_to_circuit(poly: Polynomial, semiring: CircuitSemiring) -> CircuitNode:
    """Encode an ``N[X]`` polynomial as a circuit over ``semiring``.

    Each monomial becomes a chain of multiplication gates; interning
    shares repeated sub-monomials across terms.
    """
    if poly.semiring is not NX:
        raise SemiringError(
            f"polynomial_to_circuit expects N[X] elements, got {poly.semiring.name}"
        )
    builder = semiring.builder
    total = builder.zero
    for mono, coeff in poly.terms():
        acc = builder.const(coeff)
        for var, exp in mono:
            gate = _var_gate(var, semiring)
            for _ in range(exp):
                acc = builder.times(acc, gate)
        total = builder.plus(total, acc)
    return total


def _var_gate(var, semiring: CircuitSemiring) -> CircuitNode:
    from repro.semirings.delta import DeltaTerm

    if isinstance(var, DeltaTerm):
        return semiring.builder.delta(
            polynomial_to_circuit(var.argument, semiring)
        )
    return semiring.builder.var(var)


def lifter() -> Tuple[Callable[[Polynomial], CircuitNode], Callable[[Any], Any]]:
    """``(gate, value)``: the per-value lifts of ``N[X]`` rows into
    :data:`NX_CIRCUITS`, sharing one memo.  ``gate`` maps a polynomial to its
    circuit, built once per distinct polynomial; ``value`` maps a tensor
    over ``N[X]`` to the tensor over gates, scalar by scalar, and any
    other value to itself."""
    gates: Dict[Polynomial, CircuitNode] = {}

    def gate(poly: Polynomial) -> CircuitNode:
        node = gates.get(poly)
        if node is None:
            node = gates[poly] = polynomial_to_circuit(poly, NX_CIRCUITS)
        return node

    def value(v: Any) -> Any:
        if not isinstance(v, Tensor):
            return v
        space = tensor_space(NX_CIRCUITS, v.space.monoid)
        return space.set_agg((m, gate(k)) for m, k in v.items())

    return gate, value
