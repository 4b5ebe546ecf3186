"""The boolean semiring ``B = ({False, True}, or, and, False, True)``.

``B``-relations are ordinary *set-semantics* relations: a tuple is either
present (annotated ``True``) or absent (``False``).  Every semiring admits a
unique homomorphism-like support map onto ``B`` when positive, which is how
"which tuples exist" questions are answered from richer provenance.
"""

from __future__ import annotations

from typing import Any

from repro.semirings.base import MachineRepr, Semiring

__all__ = ["BooleanSemiring", "BOOL"]


class BooleanSemiring(Semiring):
    """Set semantics: disjunction as ``+``, conjunction as ``*``.

    The paper's Prop. 3.11 applies: ``B`` is plus-idempotent, so it is only
    compatible with idempotent aggregation monoids (MIN/MAX) — the algebraic
    root of "SUM needs bags".  There is no homomorphism ``B -> N`` (it would
    need ``1 + 1 = 1`` to map to ``1 + 1 = 2``).
    """

    name = "B"
    idempotent_plus = True
    idempotent_times = True
    positive = True
    has_hom_to_nat = False
    has_delta = True
    is_booleans = True
    machine_repr = MachineRepr("bool", "logical_or", "logical_and")

    @property
    def zero(self) -> bool:
        return False

    @property
    def one(self) -> bool:
        return True

    def contains(self, value: Any) -> bool:
        return isinstance(value, bool)

    def plus(self, a: bool, b: bool) -> bool:
        return a or b

    def times(self, a: bool, b: bool) -> bool:
        return a and b

    def delta(self, a: bool) -> bool:
        # The delta-laws fully determine delta on B: it is the identity.
        return a

    def from_int(self, n: int) -> bool:
        return n > 0

    def format(self, a: bool) -> str:
        return "⊤" if a else "⊥"


#: Singleton instance used throughout the library.
BOOL = BooleanSemiring()
