"""Bounded path queries: one ⋈/Π/∪ query read in many semirings.

Edges joined with themselves, projected to their end points and unioned
with the edges is the query of "paths of at most two hops".  Its meaning
is fixed by the semiring the edges are annotated in (Green et al., and
Section 2 of the paper): reachability in ``B``, path counts in ``N``,
shortest paths in the tropical semiring, best confidence in the fuzzy
one, required clearance in ``S``, minimal witnesses in ``PosBool[X]``.
Every case runs on both engines and is checked against an enumeration of
the walks: the annotation of ``(x, y)`` is the semiring sum, over every
walk from ``x`` to ``y``, of the product of its edges' annotations.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AttrEq,
    AttrEqAttr,
    KDatabase,
    KRelation,
    NaturalJoin,
    Project,
    Rename,
    Select,
    Table,
    Tup,
    Union,
)
from repro.semirings import (
    BOOL,
    BX,
    CONFIDENTIAL,
    FUZZY,
    INT,
    LIN,
    NAT,
    NX,
    POSBOOL,
    PUBLIC,
    SEC,
    SECBAG,
    SECRET,
    TOP_SECRET,
    TRIO,
    TROPICAL,
    WHY,
)

ENGINES = ("interpreted", "planned")


def hop(first, second):
    """``Π_{src,dst}(first ⋈_{first.dst = second.src} second)``."""
    return Project(
        NaturalJoin(
            Rename(first, {"dst": "mid"}), Rename(second, {"src": "mid"})
        ),
        ["src", "dst"],
    )


def paths_upto(hops):
    """Walks of 1..``hops`` edges, one union branch per length."""
    query, walk = Table("E"), Table("E")
    for _ in range(hops - 1):
        walk = hop(walk, Table("E"))
        query = Union(query, walk)
    return query


def edge_db(semiring, edges):
    """``edges`` maps ``(src, dst)`` to its annotation."""
    rel = KRelation.from_rows(
        semiring, ("src", "dst"), [(pair, k) for pair, k in edges.items()]
    )
    return KDatabase(semiring, {"E": rel})


def walk_oracle(semiring, edges, hops):
    """``{(x, y): annotation}`` by enumerating every walk of 1..``hops``
    edges; zero-annotated end points are left out, as a K-relation does."""
    out = {}
    for length in range(1, hops + 1):
        for walk in itertools.product(edges, repeat=length):
            if any(a[1] != b[0] for a, b in zip(walk, walk[1:])):
                continue
            k = semiring.one
            for pair in walk:
                k = semiring.times(k, edges[pair])
            key = (walk[0][0], walk[-1][1])
            out[key] = semiring.plus(out.get(key, semiring.zero), k)
    return {key: k for key, k in out.items() if not semiring.is_zero(k)}


def annotations(rel):
    return {(t["src"], t["dst"]): k for t, k in rel.items()}


def at(rel, src, dst):
    return rel.annotation(Tup({"src": src, "dst": dst}))


#: One graph with a cycle (b → c → b), a self loop (d → d) and two
#: routes from a to c, annotated with one token per edge.
GRAPH = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "b"), ("c", "d"), ("d", "d")]
TOKENS = ["p", "q", "r", "s", "t", "u"]


def symbolic(semiring):
    return {e: semiring.variable(x) for e, x in zip(GRAPH, TOKENS)}


SEMIRING_EDGES = {
    "B": (BOOL, dict(zip(GRAPH, [True, True, False, True, True, True]))),
    "N": (NAT, dict(zip(GRAPH, [2, 3, 1, 1, 4, 2]))),
    "Z": (INT, dict(zip(GRAPH, [2, -3, 1, 1, -1, 2]))),
    "Trop": (TROPICAL, dict(zip(GRAPH, [1.0, 2.0, 5.0, 0.5, 1.0, 0.0]))),
    "V": (FUZZY, dict(zip(GRAPH, [0.5, 0.5, 0.2, 1.0, 0.75, 0.25]))),
    "S": (SEC, dict(zip(GRAPH, [PUBLIC, SECRET, TOP_SECRET, PUBLIC,
                                CONFIDENTIAL, SECRET]))),
    "SN": (SECBAG, dict(zip(GRAPH, [SECBAG.level(SECRET), SECBAG.from_int(2),
                                    SECBAG.level(PUBLIC), SECBAG.one,
                                    SECBAG.level(TOP_SECRET), SECBAG.one]))),
    "PosBool": (POSBOOL, symbolic(POSBOOL)),
    "Why": (WHY, symbolic(WHY)),
    "Lin": (LIN, symbolic(LIN)),
    "Trio": (TRIO, symbolic(TRIO)),
    "BX": (BX, symbolic(BX)),
    "NX": (NX, symbolic(NX)),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(SEMIRING_EDGES))
def test_paths_match_the_walk_enumeration(name, engine):
    semiring, edges = SEMIRING_EDGES[name]
    out = paths_upto(3).evaluate(edge_db(semiring, edges), engine=engine)
    assert annotations(out) == walk_oracle(semiring, edges, 3)


@pytest.mark.parametrize("engine", ENGINES)
class TestPathSemantics:
    def test_boolean_reachability_ignores_false_edges(self, engine):
        edges = {("a", "b"): True, ("b", "c"): True, ("c", "d"): False}
        out = paths_upto(3).evaluate(edge_db(BOOL, edges), engine=engine)
        assert set(annotations(out)) == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_nat_annotations_multiply_along_a_path(self, engine):
        edges = {("a", "b"): 2, ("b", "c"): 3}
        out = hop(Table("E"), Table("E")).evaluate(edge_db(NAT, edges), engine=engine)
        assert annotations(out) == {("a", "c"): 6}

    def test_nat_counts_parallel_routes(self, engine):
        edges = {("a", "b"): 1, ("a", "c"): 1, ("b", "d"): 1, ("c", "d"): 1}
        out = hop(Table("E"), Table("E")).evaluate(edge_db(NAT, edges), engine=engine)
        assert at(out, "a", "d") == 2

    def test_tropical_is_the_shortest_path_within_the_hop_bound(self, engine):
        edges = {("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "d"): 1.0, ("a", "d"): 10.0}
        db = edge_db(TROPICAL, edges)
        # Bellman-Ford after h rounds: the cheapest walk of at most h edges
        assert at(paths_upto(2).evaluate(db, engine=engine), "a", "d") == 10.0
        assert at(paths_upto(3).evaluate(db, engine=engine), "a", "d") == 3.0
        assert at(paths_upto(3).evaluate(db, engine=engine), "d", "a") == math.inf

    def test_fuzzy_is_the_best_derivation_confidence(self, engine):
        edges = {("a", "b"): 0.9, ("b", "c"): 0.5, ("a", "c"): 0.4}
        out = paths_upto(2).evaluate(edge_db(FUZZY, edges), engine=engine)
        assert at(out, "a", "c") == pytest.approx(0.45)

    def test_security_clearance_is_the_cheapest_route(self, engine):
        # a route needs its highest edge level; the fact needs its lowest route
        edges = {("a", "b"): PUBLIC, ("b", "c"): SECRET, ("a", "c"): TOP_SECRET}
        out = paths_upto(2).evaluate(edge_db(SEC, edges), engine=engine)
        assert at(out, "a", "c") == SECRET

    def test_posbool_witnesses_are_minimal(self, engine):
        # the direct edge's token p absorbs the route {p, q}
        p, q = POSBOOL.variable("p"), POSBOOL.variable("q")
        edges = {("a", "b"): p, ("b", "c"): q, ("a", "c"): p}
        out = paths_upto(2).evaluate(edge_db(POSBOOL, edges), engine=engine)
        assert at(out, "a", "c") == p
        assert at(out, "a", "c") == POSBOOL.plus(p, POSBOOL.times(p, q))

    def test_a_constant_selects_the_paths_from_one_source(self, engine):
        edges = {e: True for e in GRAPH}
        q = Select(paths_upto(2), [AttrEq("src", "a")])
        out = q.evaluate(edge_db(BOOL, edges), engine=engine)
        assert {dst for _src, dst in annotations(out)} == {"b", "c", "d"}

    def test_attribute_equality_keeps_the_closed_walks(self, engine):
        edges = {e: True for e in GRAPH}
        q = Select(paths_upto(2), [AttrEqAttr("src", "dst")])
        out = q.evaluate(edge_db(BOOL, edges), engine=engine)
        assert set(annotations(out)) == {("b", "b"), ("c", "c"), ("d", "d")}


graph_edges = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(1, 3), max_size=8
)


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=30, deadline=None)
@given(edges=graph_edges)
def test_random_graph_path_counts(engine, edges):
    out = paths_upto(3).evaluate(edge_db(NAT, edges), engine=engine)
    assert annotations(out) == walk_oracle(NAT, edges, 3)


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=30, deadline=None)
@given(edges=graph_edges)
def test_random_graph_shortest_paths(engine, edges):
    costs = {e: float(w) for e, w in edges.items()}
    out = paths_upto(3).evaluate(edge_db(TROPICAL, costs), engine=engine)
    assert annotations(out) == walk_oracle(TROPICAL, costs, 3)
