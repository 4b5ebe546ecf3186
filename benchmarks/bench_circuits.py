"""E15 — annotation representation ablation: polynomials vs circuits.

Repeated self-joins square the provenance annotation at every step
(``a -> a^2 -> a^4 -> ...``).  The expanded polynomial for ``a^(2^d)``
over w tokens has ``C(2^d + w - 1, w - 1)`` monomials, while the
hash-consed circuit adds **one** multiplication gate per squaring.  Same
engine, different annotation semiring — the size and timing gap
quantifies the representation choice DESIGN.md calls out (ProvSQL stores
circuits for exactly this reason).
"""

import pytest

from benchmarks.conftest import print_series
from repro.circuits import (
    CircuitSemiring,
    circuit_to_polynomial,
    evaluate_circuit,
    evaluate_gates,
)
from repro.core import KDatabase, KRelation, NaturalJoin, Project, Table
from repro.core.query import Query
from repro.semirings import NAT, NX, valuation_hom

WIDTH = 4


def squaring_query(depth: int) -> Query:
    """Project to the key, then self-join d times: annotation a^(2^d)."""
    q: Query = Project(Table("R"), ["k"])
    for _ in range(depth):
        q = NaturalJoin(q, q)
    return q


def make_dbs(width: int = WIDTH):
    rel_nx = KRelation.from_rows(
        NX, ("k", "v"), [((1, i), NX.variable(f"t{i}")) for i in range(width)]
    )
    cs = CircuitSemiring()
    rel_c = KRelation.from_rows(
        cs, ("k", "v"), [((1, i), cs.variable(f"t{i}")) for i in range(width)]
    )
    return KDatabase(NX, {"R": rel_nx}), KDatabase(cs, {"R": rel_c}), cs


def annotation_of(result):
    (t,) = result.support()
    return result.annotation(t)


def test_circuit_vs_polynomial_size_shape():
    rows = []
    for depth in (1, 2, 3, 4):
        db_nx, db_c, _cs = make_dbs()
        q = squaring_query(depth)
        poly = annotation_of(q.evaluate(db_nx))
        circ = annotation_of(q.evaluate(db_c))
        rows.append((depth, len(list(poly.terms())), poly.size(), circ.dag_size()))
    print_series(
        "E15: expanded polynomial vs circuit DAG (a^(2^d), 4 tokens)",
        ("depth d", "poly terms", "poly size", "circuit gates"),
        rows,
    )
    # shape: polynomial representation explodes with 2^d, the circuit
    # adds exactly one gate per squaring level
    sizes = [r[2] for r in rows]
    gates = [r[3] for r in rows]
    assert sizes[-1] > 1000 * gates[-1]
    assert sizes[-1] / sizes[0] > 100
    assert gates[-1] - gates[0] == len(rows) - 1


def test_circuit_expands_to_the_same_polynomial():
    db_nx, db_c, _cs = make_dbs()
    q = squaring_query(2)
    poly = annotation_of(q.evaluate(db_nx))
    circ = annotation_of(q.evaluate(db_c))
    assert circuit_to_polynomial(circ) == poly


def test_circuit_and_polynomial_evaluate_identically():
    db_nx, db_c, _cs = make_dbs()
    q = squaring_query(3)
    poly = annotation_of(q.evaluate(db_nx))
    circ = annotation_of(q.evaluate(db_c))
    h = valuation_hom(NX, NAT, lambda token: 2)
    assert evaluate_circuit(circ, NAT, lambda token: 2) == h(poly)


@pytest.mark.parametrize("depth", [3, 4])
def test_bench_polynomial_annotations(benchmark, depth):
    db_nx, _db_c, _cs = make_dbs()
    q = squaring_query(depth)
    benchmark(lambda: q.evaluate(db_nx))


@pytest.mark.parametrize("depth", [3, 4])
def test_bench_circuit_annotations(benchmark, depth):
    _db_nx, db_c, _cs = make_dbs()
    q = squaring_query(depth)
    benchmark(lambda: q.evaluate(db_c))


@pytest.mark.parametrize("width", [16, 64])
def test_bench_circuit_evaluation(benchmark, width):
    _db_nx, db_c, cs = make_dbs(width)
    q = squaring_query(3)
    node = annotation_of(q.evaluate(db_c))
    # through the builder's gate store, as a circuit result's apply_hom runs it
    benchmark(lambda: evaluate_gates([node], NAT, lambda token: 2, builder=cs.builder))
