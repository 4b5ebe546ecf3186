"""Provenance circuits: shared-DAG annotations (the ProvSQL-style substrate)."""

from repro.circuits.convert import NX_CIRCUITS, circuit_to_polynomial, polynomial_to_circuit
from repro.circuits.evaluate import evaluate_circuit, evaluate_gates
from repro.circuits.nodes import CircuitBuilder, CircuitNode
from repro.circuits.semiring import CircuitSemiring

__all__ = [
    "NX_CIRCUITS",
    "CircuitNode",
    "CircuitBuilder",
    "CircuitSemiring",
    "evaluate_circuit",
    "evaluate_gates",
    "circuit_to_polynomial",
    "polynomial_to_circuit",
]
