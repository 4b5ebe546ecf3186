"""COUNT and AVG support.

The paper (footnote 6): "COUNT is a particular case of summation and AVG is
obtained from summation and COUNT".  We follow that recipe:

* COUNT aggregates the constant 1 through SUM — see
  :func:`repro.core.aggregates.count_aggregate`;
* AVG aggregates ``(value, 1)`` pairs through the componentwise-sum *pair
  monoid* defined here and finalises with a division.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable, NamedTuple

from repro.exceptions import MonoidError
from repro.monoids.base import CommutativeMonoid
from repro.monoids.numeric import SUM

__all__ = ["AvgPair", "AvgMonoid", "AVG"]


class AvgPair(NamedTuple):
    """A partial average: running total and running count."""

    total: Any
    count: int

    def finalize(self) -> Any:
        """The average ``total / count`` (exact for int totals).

        Raises :class:`MonoidError` on the empty aggregate (count 0) —
        SQL would return NULL; we insist the caller decide.
        """
        if self.count == 0:
            raise MonoidError("average of an empty aggregation is undefined")
        if isinstance(self.total, int):
            result = Fraction(self.total, self.count)
            return int(result) if result.denominator == 1 else result
        return self.total / self.count

    def __str__(self) -> str:
        return f"⟨{self.total}/{self.count}⟩"


class AvgMonoid(CommutativeMonoid):
    """Componentwise addition on ``(total, count)`` pairs."""

    name = "AVG"
    idempotent = False

    @property
    def identity(self) -> AvgPair:
        return AvgPair(0, 0)

    def plus(self, a: AvgPair, b: AvgPair) -> AvgPair:
        return AvgPair(a.total + b.total, a.count + b.count)

    def sum(self, items: Iterable[AvgPair]) -> AvgPair:
        """Order-free: the totals add through :meth:`SumMonoid.sum` (the
        correctly rounded ``math.fsum`` once a float is among them), the
        counts exactly."""
        items = list(items)
        return AvgPair(SUM.sum(p.total for p in items), sum(p.count for p in items))

    def exact(self, value: AvgPair) -> bool:
        """Exact where :meth:`SumMonoid.exact` is, on the total."""
        return SUM.exact(value.total)

    def contains(self, value: Any) -> bool:
        return (
            isinstance(value, AvgPair)
            and isinstance(value.count, int)
            and value.count >= 0
        )

    def nat_action(self, n: int, a: AvgPair) -> AvgPair:
        return AvgPair(n * a.total, n * a.count)

    def lift(self, value: Any) -> AvgPair:
        """Embed a raw value as the pair ``(value, 1)`` before aggregation."""
        return AvgPair(value, 1)


#: Singleton instance used throughout the library.
AVG = AvgMonoid()
