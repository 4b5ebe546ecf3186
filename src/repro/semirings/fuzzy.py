"""The Viterbi / fuzzy semiring: confidence propagation.

``V = ([0, 1], max, *, 0, 1)``.  Annotations are confidence scores;
alternative derivations keep the best score, joint use multiplies scores.
Evaluating provenance polynomials in ``V`` yields the confidence of each
query answer under the *most likely derivation* reading — one of the
standard specialisations of the semiring framework.
"""

from __future__ import annotations

from typing import Any

from repro.semirings.base import MachineRepr, Semiring

__all__ = ["FuzzySemiring", "FUZZY"]


class FuzzySemiring(Semiring):
    """Max-times algebra on the unit interval."""

    name = "V"
    idempotent_plus = True
    idempotent_times = False
    positive = True
    has_hom_to_nat = False
    has_delta = True
    machine_repr = MachineRepr("float64", "maximum", "multiply")

    @property
    def zero(self) -> float:
        return 0.0

    @property
    def one(self) -> float:
        return 1.0

    def contains(self, value: Any) -> bool:
        return (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and 0 <= value <= 1
        )

    def plus(self, a: float, b: float) -> float:
        return a if a >= b else b

    def times(self, a: float, b: float) -> float:
        return a * b

    def delta(self, a: float) -> float:
        # n * 1 = max(1, ..., 1) = 1 for n >= 1; the support indicator
        # satisfies the laws and gives GROUP BY its intended reading.
        return 0.0 if a == 0 else 1.0

    def format(self, a: float) -> str:
        return f"{a:g}"


#: Singleton instance used throughout the library.
FUZZY = FuzzySemiring()
