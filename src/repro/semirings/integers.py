"""The ring of integers ``Z = (Z, +, *, 0, 1)`` viewed as a semiring.

``Z`` supports "negative multiplicities" and is the annotation structure of
the *Reconcilable Differences* semantics for relational difference ([22] in
the paper, Green/Ives/Tannen ICDT 2009), which Section 5.2 contrasts with
the paper's own aggregation-derived difference.  ``Z`` is **not** positive
(``1 + (-1) = 0``), so the positivity-based compatibility route of
Thm. 3.12 does not apply to it; it does retain the identity homomorphism
into ``Z`` but none into ``N``.

It also hosts the ``p-hat = 1 - p`` trick of the naive tuple-level
aggregation baseline (Figure 2 / ``repro.naive``).
"""

from __future__ import annotations

from typing import Any

from repro.semirings.base import MachineRepr, Semiring

__all__ = ["IntegerRing", "INT"]


class IntegerRing(Semiring):
    """Integers with ordinary arithmetic; a commutative ring, hence semiring."""

    name = "Z"
    idempotent_plus = False
    idempotent_times = False
    positive = False
    has_hom_to_nat = False
    has_delta = True
    machine_repr = MachineRepr("int64", "add", "multiply")

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def contains(self, value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    def plus(self, a: int, b: int) -> int:
        return a + b

    def times(self, a: int, b: int) -> int:
        return a * b

    def negate(self, a: int) -> int:
        """Additive inverse — the extra *ring* structure beyond semirings."""
        return -a

    def minus(self, a: int, b: int) -> int:
        """Ring subtraction ``a - b`` (used by the Z-difference semantics)."""
        return a - b

    def delta(self, a: int) -> int:
        # The delta-laws only constrain delta on {0, 1, 2, ...}; we extend it
        # to all of Z as the support indicator, which satisfies them.
        return 0 if a == 0 else 1

    def from_int(self, n: int) -> int:
        return n


#: Singleton instance used throughout the library.
INT = IntegerRing()
