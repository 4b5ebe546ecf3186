"""Every registered aggregation monoid keeps the laws the algebra relies on.

``MONOID_REGISTRY`` is the set of monoids a stored tensor may name, and so
the set a query, a view or the server can aggregate with.  Each one must
be a commutative monoid whose ``N``-action is repeated addition (Section
2.2), fold to one value whatever order its operands come in (a tensor's
entries come in row order on one tier and code order on another), collapse
a bag the way Prop. 3.9 says on both engines, and survive persistence.
"""

import itertools
import math

import pytest

from repro.core import Aggregate, KDatabase, KRelation, Table
from repro.io import MONOID_REGISTRY, tensor_from_jsonable, tensor_to_jsonable
from repro.monoids import AvgPair, check_monoid_axioms
from repro.semimodules import tensor_space
from repro.semirings import NAT

NAMES = sorted(MONOID_REGISTRY)

#: Exact samples: associativity holds on them without rounding.
AXIOM_SAMPLES = {
    "SUM": [0, 1, 2, -3, 0.5],
    "PROD": [1, 2, 3, 0.5],
    "MIN": [math.inf, 0, 1, 5, -2.5],
    "MAX": [-math.inf, 0, 1, 5, -2.5],
    "B̂": [False, True],
    "ALL": [False, True],
    "AVG": [AvgPair(0, 0), AvgPair(10, 2), AvgPair(5, 1), AvgPair(0.5, 1)],
}

#: Operands whose left-to-right fold depends on their order.
ORDER_SAMPLES = {
    "SUM": [0.1, 0.2, 0.3, 1e16, -1e16, 3],
    "PROD": [0.1, 0.7, 3.3, 1.1, 2],
    "MIN": [0.1, -2.5, math.inf, 3],
    "MAX": [0.1, -2.5, -math.inf, 3],
    "B̂": [False, True, False],
    "ALL": [True, False, True],
    "AVG": [AvgPair(0.1, 1), AvgPair(0.2, 1), AvgPair(0.3, 1), AvgPair(1e16, 2),
            AvgPair(-1e16, 1)],
}

#: ``(value, multiplicity)`` rows of one bag, values distinct.
BAG_SAMPLES = {
    "SUM": [(4, 2), (7, 3), (-1, 1)],
    "PROD": [(2, 3), (5, 1), (3, 2)],
    "MIN": [(4, 2), (7, 3), (-1, 1)],
    "MAX": [(4, 2), (7, 3), (-1, 1)],
    "B̂": [(False, 2), (True, 1)],
    "ALL": [(True, 3), (False, 1)],
    "AVG": [(AvgPair(10, 1), 2), (AvgPair(4, 1), 1)],
}


def test_the_samples_cover_the_registry():
    for samples in (AXIOM_SAMPLES, ORDER_SAMPLES, BAG_SAMPLES):
        assert sorted(samples) == NAMES


@pytest.mark.parametrize("name", NAMES)
class TestRegisteredMonoid:
    def test_axioms_hold(self, name):
        monoid = MONOID_REGISTRY[name]
        assert all(monoid.contains(a) for a in AXIOM_SAMPLES[name])
        check_monoid_axioms(monoid, AXIOM_SAMPLES[name])

    def test_empty_sum_is_the_identity(self, name):
        monoid = MONOID_REGISTRY[name]
        assert monoid.contains(monoid.identity)
        assert monoid.sum([]) == monoid.identity
        assert monoid.nat_action(0, AXIOM_SAMPLES[name][-1]) == monoid.identity

    def test_sum_ignores_operand_order(self, name):
        monoid = MONOID_REGISTRY[name]
        folds = {monoid.sum(p) for p in itertools.permutations(ORDER_SAMPLES[name])}
        assert len(folds) == 1

    @pytest.mark.parametrize("engine", ["interpreted", "planned"])
    def test_collapse_of_a_bag_is_the_nat_action_fold(self, name, engine):
        monoid = MONOID_REGISTRY[name]
        rows = BAG_SAMPLES[name]
        db = KDatabase(NAT, {"R": KRelation.from_rows(NAT, ("v",), [((v,), k) for v, k in rows])})
        out = Aggregate(Table("R"), "v", monoid).evaluate(db, engine=engine)
        ((t, k),) = out.items()
        assert k == 1
        assert t["v"].collapse() == monoid.sum(monoid.nat_action(k, v) for v, k in rows)

    def test_tensor_round_trips_through_json(self, name):
        monoid = MONOID_REGISTRY[name]
        space = tensor_space(NAT, monoid)
        a, b = AXIOM_SAMPLES[name][-2:]
        t = space.add(space.simple(2, a), space.simple(3, b))
        restored = tensor_from_jsonable(tensor_to_jsonable(t))
        assert restored == t
        assert restored.collapse() == t.collapse()
