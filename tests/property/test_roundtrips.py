"""Property-based round-trips: serialisation and parsing."""

from hypothesis import given, settings, strategies as st

from repro.core import KRelation
from repro.io import loads, dumps, relation_from_jsonable, relation_to_jsonable
from repro.semirings import NAT, NX
from repro.semirings.parsing import parse_polynomial

TOKENS = ["x", "y", "z"]


@st.composite
def nx_polynomials(draw, max_terms=4):
    p = NX.zero
    for _ in range(draw(st.integers(0, max_terms))):
        coeff = draw(st.integers(1, 5))
        term = NX.from_int(coeff)
        for token in TOKENS:
            exp = draw(st.integers(0, 2))
            if exp:
                term = term * NX.variable(token) ** exp
        p = p + term
    return p


@st.composite
def nx_delta_polynomials(draw):
    base = draw(nx_polynomials(max_terms=2))
    outer = draw(nx_polynomials(max_terms=2))
    return NX.delta(base) * outer + draw(nx_polynomials(max_terms=1))


@st.composite
def nat_relations(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.sampled_from(["a", "b", "c"]),
                st.integers(1, 4),
            ),
            min_size=0,
            max_size=6,
        )
    )
    return KRelation.from_rows(
        NAT, ("k", "g"), [((k, g), m) for k, g, m in rows]
    )


class TestSerializationRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(p=nx_polynomials())
    def test_polynomial_json(self, p):
        from repro.io import annotation_from_jsonable, annotation_to_jsonable

        assert annotation_from_jsonable(NX, annotation_to_jsonable(NX, p)) == p

    @settings(max_examples=40, deadline=None)
    @given(p=nx_delta_polynomials())
    def test_delta_polynomial_json(self, p):
        from repro.io import annotation_from_jsonable, annotation_to_jsonable

        assert annotation_from_jsonable(NX, annotation_to_jsonable(NX, p)) == p

    @settings(max_examples=40, deadline=None)
    @given(rel=nat_relations())
    def test_relation_json(self, rel):
        assert relation_from_jsonable(relation_to_jsonable(rel)) == rel
        assert loads(dumps(rel)) == rel


class TestParserRoundTrips:
    @settings(max_examples=80, deadline=None)
    @given(p=nx_polynomials())
    def test_display_syntax_parses_back(self, p):
        assert parse_polynomial(str(p)) == p

    @settings(max_examples=40, deadline=None)
    @given(p=nx_delta_polynomials())
    def test_delta_display_syntax_parses_back(self, p):
        assert parse_polynomial(str(p)) == p

