"""Aggregation monoids (Section 2.2 of the paper).

``SUM``/``PROD`` are non-idempotent (bag aggregations); ``MIN``/``MAX``/
``BHAT``/``ALL`` are idempotent (set-friendly); ``AVG`` is the pair monoid
derived from SUM and COUNT.
"""

from repro.monoids.base import CommutativeMonoid, check_monoid_axioms
from repro.monoids.boolmonoid import ALL, BHAT, AndMonoid, OrMonoid
from repro.monoids.counting import AVG, AvgMonoid, AvgPair
from repro.monoids.numeric import (
    MAX,
    MIN,
    PROD,
    SUM,
    MaxMonoid,
    MinMonoid,
    ProdMonoid,
    SumMonoid,
)

__all__ = [
    "CommutativeMonoid", "check_monoid_axioms",
    "SUM", "PROD", "MIN", "MAX", "SumMonoid", "ProdMonoid", "MinMonoid", "MaxMonoid",
    "BHAT", "ALL", "OrMonoid", "AndMonoid",
    "AVG", "AvgMonoid", "AvgPair",
]
