"""The natural-numbers semiring ``N = (N, +, *, 0, 1)``.

``N``-relations are *bags* (multisets): the annotation of a tuple is its
multiplicity.  ``N`` is the initial object among commutative semirings — the
unique homomorphism ``N -> K`` sends ``n`` to ``n * 1_K`` — and, dually, the
existence of a homomorphism *into* ``N`` is the paper's sufficient condition
(Thm. 3.13) for a semiring to be compatible with every aggregation monoid.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import SemiringError
from repro.semirings.base import MachineRepr, Semiring

__all__ = ["NaturalSemiring", "NAT"]


class NaturalSemiring(Semiring):
    """Bag semantics: ordinary addition and multiplication of multiplicities."""

    name = "N"
    idempotent_plus = False
    idempotent_times = False
    positive = True
    has_hom_to_nat = True
    has_delta = True
    is_naturals = True
    machine_repr = MachineRepr("int64", "add", "multiply")

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def contains(self, value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) and value >= 0

    def plus(self, a: int, b: int) -> int:
        return a + b

    def times(self, a: int, b: int) -> int:
        return a * b

    def delta(self, a: int) -> int:
        # Definition 3.6 fully determines delta on N: 0 -> 0, n>=1 -> 1.
        return 0 if a == 0 else 1

    def hom_to_nat(self, a: int) -> int:
        return a

    def from_int(self, n: int) -> int:
        if n < 0:
            raise SemiringError(f"cannot embed negative integer {n} into N")
        return n


#: Singleton instance used throughout the library.
NAT = NaturalSemiring()
