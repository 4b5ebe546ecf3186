"""Boolean aggregation monoids, including the difference-encoding ``B-hat``.

``B-hat = ({F, T}, or, F)`` is the monoid Section 5 aggregates over to
encode relational difference: tuples of ``S`` contribute ``T``, tuples of
``R`` contribute ``F``, and the aggregated bit answers "does t appear in
S?".  ``B-hat`` is idempotent, so every positive semiring is compatible
with it (Thm. 3.12) — this is why the difference encoding works for
arbitrary positive ``K``.
"""

from __future__ import annotations

from typing import Any

from repro.monoids.base import CommutativeMonoid

__all__ = ["OrMonoid", "AndMonoid", "BHAT", "ALL"]


class OrMonoid(CommutativeMonoid):
    """Logical-or aggregation (the paper's ``B-hat``): EXISTS / ANY."""

    name = "B̂"
    idempotent = True

    @property
    def identity(self) -> bool:
        return False

    def plus(self, a: bool, b: bool) -> bool:
        return a or b

    def exact(self, value: Any) -> bool:
        return True

    def contains(self, value: Any) -> bool:
        return isinstance(value, bool)

    def nat_action(self, n: int, a: bool) -> bool:
        return False if n == 0 else a

    def format(self, a: bool) -> str:
        return "⊤" if a else "⊥"


class AndMonoid(CommutativeMonoid):
    """Logical-and aggregation: FORALL / EVERY."""

    name = "ALL"
    idempotent = True

    @property
    def identity(self) -> bool:
        return True

    def plus(self, a: bool, b: bool) -> bool:
        return a and b

    def exact(self, value: Any) -> bool:
        return True

    def contains(self, value: Any) -> bool:
        return isinstance(value, bool)

    def nat_action(self, n: int, a: bool) -> bool:
        return True if n == 0 else a

    def format(self, a: bool) -> str:
        return "⊤" if a else "⊥"


#: Singleton instances used throughout the library.
BHAT = OrMonoid()
ALL = AndMonoid()
