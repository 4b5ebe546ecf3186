"""Property suite: circuit provenance on the encoded tier, gate for gate.

Randomized SPJU queries (the shared ``spju`` generator, under the planner
suite's optional aggregation head) over tagged ``N[X]`` databases run
in circuit mode twice: on the encoded tier, where
annotations are int64 gate ids and every operator interns its gates a
batch at a time, and pinned to the object tier, one builder call per
gate.  Hash-consing makes each result annotation one interned gate, so
the two tiers must return the *same gate objects*, not merely equal
polynomials.  The result then lowers to the interpreter's ``N[X]``
relation, and ``specialise`` — the level-wise array pass into ``N`` and
``B``, the id-order loop into tropical and past int64 — equals the
valuation homomorphism applied to the expanded result (Thm. 3.3).
These circuits are a few gates wide, which the evaluator would leave to
the loop; the specialisation tests lift its width rule so that the array
pass and its magnitude bound are what decide the route.
"""

from unittest import mock

import pytest

pytest.importorskip("numpy")  # the encoded tier exists only with NumPy

from hypothesis import given, settings, strategies as st

from repro.circuits import evaluate
from repro.circuits.evaluate import _array_pass, _reach
from repro.circuits import NX_CIRCUITS
from repro.plan import CircuitResult, compile_plan
from repro.semirings import BOOL, NAT, NX, TROPICAL
from repro.semirings.homomorphism import valuation_hom

from test_planner_equivalence import spju_agb_query, tagged_database


def both_tiers(db, query):
    encoded = compile_plan(query, db, annotations="circuit")
    pinned = compile_plan(query, db, annotations="circuit", tier="object")
    assert encoded.tier == "encoded"
    return NX_CIRCUITS, encoded.execute(), pinned.execute()


def any_width():
    return mock.patch.object(evaluate, "_GATES_PER_LEVEL", 0)


def assert_same_gates(left, right):
    assert left.schema == right.schema
    assert set(left.support()) == set(right.support())
    for tup, annotation in left.rows():
        assert annotation is right.annotation(tup)
    assert left == right  # tensor scalars too: gates compare by identity


@settings(max_examples=100, deadline=None)
@given(db=tagged_database(), query=spju_agb_query())
def test_encoded_and_object_tiers_intern_the_same_gates(db, query):
    circ, encoded, pinned = both_tiers(db, query)
    assert_same_gates(encoded, pinned)
    assert CircuitResult(encoded, circ).lower() == query.evaluate(db, engine="interpreted")


@settings(max_examples=60, deadline=None)
@given(db=tagged_database(), query=spju_agb_query(), data=st.data())
def test_specialise_equals_the_hom_of_the_expanded_result(db, query, data):
    circ, encoded, _pinned = both_tiers(db, query)
    result = CircuitResult(encoded, circ)
    expanded = query.evaluate(db, engine="interpreted")
    tokens = sorted({v for _name, rel in db for _t, k in rel.rows() for v in k.variables()})
    roots = result._roots()
    for target, values in ((NAT, st.integers(0, 3)), (BOOL, st.booleans()),
                           (TROPICAL, st.sampled_from([0.0, 1.0, 2.5, float("inf")]))):
        weights = {t: data.draw(values, label=f"{target.name}[{t}]") for t in tokens}
        with any_width():
            specialised = result.specialise(weights, target)
            ran_arrays = _array_pass(
                _reach(circ.builder.store, roots), target, weights.__getitem__
            )
        assert specialised == expanded.apply_hom(valuation_hom(NX, target, weights))
        assert (ran_arrays is not None) == (target is not TROPICAL)


@settings(max_examples=40, deadline=None)
@given(db=tagged_database(), query=spju_agb_query())
def test_an_overflowing_valuation_stays_exact_through_the_loop(db, query):
    circ, encoded, _pinned = both_tiers(db, query)
    result = CircuitResult(encoded, circ)
    expanded = query.evaluate(db, engine="interpreted")
    huge = (1 << 62) + 3  # any sum or product of two leaves leaves int64

    def weight(token):
        return huge

    with any_width():
        specialised = result.specialise(weight, NAT)
    assert specialised == expanded.apply_hom(valuation_hom(NX, NAT, weight))
