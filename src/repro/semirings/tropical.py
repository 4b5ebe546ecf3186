"""The tropical (min-plus) semiring: cost provenance.

``T = (R>=0 ∪ {inf}, min, +, inf, 0)``.  Annotating tuples with costs and
evaluating provenance polynomials in ``T`` answers "what is the cheapest way
to derive this answer?": alternatives take the minimum, joint use adds.
This is one of the specialisations the semiring framework is designed to
factor through (Section 1 of the paper lists cost among the applications).
"""

from __future__ import annotations

import math
from typing import Any

from repro.semirings.base import MachineRepr, Semiring

__all__ = ["TropicalSemiring", "TROPICAL"]


class TropicalSemiring(Semiring):
    """Min-plus algebra over non-negative reals with infinity."""

    name = "Trop"
    idempotent_plus = True
    idempotent_times = False
    positive = True
    has_hom_to_nat = False
    has_delta = True
    machine_repr = MachineRepr("float64", "minimum", "add")

    @property
    def zero(self) -> float:
        return math.inf

    @property
    def one(self) -> float:
        return 0.0

    def contains(self, value: Any) -> bool:
        return (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and (value >= 0 or math.isinf(value))
        )

    def plus(self, a: float, b: float) -> float:
        return a if a <= b else b

    def times(self, a: float, b: float) -> float:
        return a + b

    def delta(self, a: float) -> float:
        # n * 1 = min(0, ..., 0) = 0 for n >= 1, so delta must fix 0 and inf;
        # the identity satisfies the laws, but collapsing every finite cost
        # to 0 ("existence is free") is the delta that GROUP BY wants: the
        # aggregated tuple exists as soon as any derivation exists.
        return math.inf if math.isinf(a) else 0.0

    def format(self, a: float) -> str:
        return "∞" if math.isinf(a) else f"{a:g}"


#: Singleton instance used throughout the library.
TROPICAL = TropicalSemiring()
