"""The numeric aggregation monoids: SUM, PROD, MIN, MAX (Section 2.2).

``SUM = (R, +, 0)`` and ``PROD = (R, *, 1)`` are non-idempotent — they
need bag-like annotation semirings (Thm. 3.13).  ``MIN = (R∪{±∞}, min, +∞)``
and ``MAX`` are idempotent — they are compatible with every positive
semiring, including the set semiring ``B`` (Thm. 3.12).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Iterable

from repro.exceptions import MonoidError
from repro.monoids.base import CommutativeMonoid


def _check_nat(n: int) -> None:
    if n < 0:
        raise MonoidError(f"natural action requires n >= 0, got {n}")

__all__ = ["SumMonoid", "ProdMonoid", "MinMonoid", "MaxMonoid",
           "SUM", "PROD", "MIN", "MAX"]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float, Fraction)) and not isinstance(value, bool)


class SumMonoid(CommutativeMonoid):
    """Summation: ``(R, +, 0)``.  COUNT is SUM over the constant 1."""

    name = "SUM"
    idempotent = False
    collapse_kernel = ("add", True)

    @property
    def identity(self) -> int:
        return 0

    def plus(self, a: Any, b: Any) -> Any:
        return a + b

    def sum(self, items: Iterable[Any]) -> Any:
        """Order-free: float ``+`` is not associative, and a tensor's
        entries come in row order on one tier and code order on another,
        so a fold with a float among its operands is the correctly rounded
        ``math.fsum``; ints and ``Fraction``s are exact and fold as ever."""
        items = list(items)
        if any(isinstance(item, float) for item in items):
            try:
                return math.fsum(items)
            except OverflowError:  # past float range: the fold's inf
                pass
        return super().sum(items)

    def contains(self, value: Any) -> bool:
        return _is_number(value) and not (isinstance(value, float) and math.isinf(value))

    def nat_action(self, n: int, a: Any) -> Any:
        _check_nat(n)
        return n * a


class ProdMonoid(CommutativeMonoid):
    """Product: ``(R, *, 1)``."""

    name = "PROD"
    idempotent = False

    @property
    def identity(self) -> int:
        return 1

    def plus(self, a: Any, b: Any) -> Any:
        return a * b

    def sum(self, items: Iterable[Any]) -> Any:
        """Order-free like SUM's: a product with a float among its
        operands folds in sorted order, which the multiset alone fixes;
        ints and ``Fraction``s are exact and fold as ever."""
        items = list(items)
        if any(isinstance(item, float) for item in items):
            items.sort()
        return super().sum(items)

    def contains(self, value: Any) -> bool:
        return _is_number(value) and not (isinstance(value, float) and math.isinf(value))

    def nat_action(self, n: int, a: Any) -> Any:
        _check_nat(n)
        return a ** n


class MinMonoid(CommutativeMonoid):
    """Minimum: ``(R∪{+∞}, min, +∞)``.  Idempotent, hence set-friendly."""

    name = "MIN"
    idempotent = True
    collapse_kernel = ("minimum", False)

    @property
    def identity(self) -> float:
        return math.inf

    def plus(self, a: Any, b: Any) -> Any:
        return a if a <= b else b

    def contains(self, value: Any) -> bool:
        return _is_number(value)

    def nat_action(self, n: int, a: Any) -> Any:
        _check_nat(n)
        return self.identity if n == 0 else a


class MaxMonoid(CommutativeMonoid):
    """Maximum: ``(R∪{-∞}, max, -∞)``.  Idempotent, hence set-friendly."""

    name = "MAX"
    idempotent = True
    collapse_kernel = ("maximum", False)

    @property
    def identity(self) -> float:
        return -math.inf

    def plus(self, a: Any, b: Any) -> Any:
        return a if a >= b else b

    def contains(self, value: Any) -> bool:
        return _is_number(value)

    def nat_action(self, n: int, a: Any) -> Any:
        _check_nat(n)
        return self.identity if n == 0 else a


#: Singleton instances used throughout the library.
SUM = SumMonoid()
PROD = ProdMonoid()
MIN = MinMonoid()
MAX = MaxMonoid()
