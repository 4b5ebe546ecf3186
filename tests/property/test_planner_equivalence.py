"""Property suite: the planned engine computes the interpreter's annotations.

Randomized SPJU-AGB queries over abstractly-tagged ``N[X]`` databases are
evaluated with ``engine="interpreted"`` and ``engine="planned"`` and the
*annotated* results compared for equality (same schema, same support, same
``N[X]`` polynomials / tensors).  Equality over the free semiring implies
equality under every homomorphic specialisation (Theorem 3.3's commutation
plus freeness), so passing here certifies the physical layer for bags,
sets, probabilities, security levels — every valuation at once.

The generator is schema-aware: base relations R(g, v), S(g), T(g, w); the
SPJU fragment composes freely, aggregation comes last (standard-mode
scope).
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    Aggregate,
    AttrEqAttr,
    Cartesian,
    CountAgg,
    Difference,
    GroupBy,
    KDatabase,
    KRelation,
    Project,
    Table,
)
from repro.monoids import MAX, MIN, SUM
from repro.semirings import NAT, NX

from strategies import GROUPS, VALUES, WEIGHTS, spju


# ---------------------------------------------------------------------------
# database strategy
# ---------------------------------------------------------------------------


@st.composite
def tagged_database(draw):
    """A small N[X] database: R(g, v), S(g), T(g, w)."""
    counter = [0]

    def tag():
        counter[0] += 1
        return NX.variable(f"t{counter[0]}")

    rows_r = draw(
        st.lists(st.tuples(st.sampled_from(GROUPS), st.sampled_from(VALUES)),
                 min_size=0, max_size=6, unique=True)
    )
    rows_s = draw(st.lists(st.sampled_from(GROUPS), min_size=0, max_size=3,
                           unique=True))
    rows_t = draw(
        st.lists(st.tuples(st.sampled_from(GROUPS), st.sampled_from(WEIGHTS)),
                 min_size=0, max_size=4, unique=True)
    )
    r = KRelation.from_rows(NX, ("g", "v"), [(row, tag()) for row in rows_r])
    s = KRelation.from_rows(NX, ("g",), [((g,), tag()) for g in rows_s])
    t = KRelation.from_rows(NX, ("g", "w"), [(row, tag()) for row in rows_t])
    return KDatabase(NX, {"R": r, "S": s, "T": t})


# ---------------------------------------------------------------------------
# query strategy: the shared SPJU core + an optional aggregation head
# ---------------------------------------------------------------------------


@st.composite
def spju_agb_query(draw):
    """An SPJU tree optionally topped by one aggregation operator."""
    query, attrs = draw(
        spju(draw(st.integers(min_value=0, max_value=2)),
             without=("self_compared",))
    )
    top = draw(st.sampled_from(["none", "group", "agg", "count"]))
    numeric = sorted(a for a in attrs if a.startswith(("v", "w")))
    if top == "group" and "g" in attrs and numeric:
        agg_attr = draw(st.sampled_from(numeric))
        monoid = draw(st.sampled_from([SUM, MIN, MAX]))
        count = draw(st.booleans())
        return GroupBy(query, ["g"], {agg_attr: monoid},
                       count_attr="n" if count else None)
    if top == "agg" and numeric:
        agg_attr = draw(st.sampled_from(numeric))
        monoid = draw(st.sampled_from([SUM, MIN, MAX]))
        return Aggregate(Project(query, (agg_attr,)), agg_attr, monoid)
    if top == "count":
        return CountAgg(query, "n")
    return query


# ---------------------------------------------------------------------------
# the equivalence properties
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(db=tagged_database(), query=spju_agb_query())
def test_planned_equals_interpreted_over_free_semiring(db, query):
    interpreted = query.evaluate(db, engine="interpreted")
    planned = query.evaluate(db, engine="planned")
    assert planned == interpreted


@settings(max_examples=40, deadline=None)
@given(db=tagged_database(), query=spju_agb_query())
def test_plan_cache_is_stable_across_reexecution(db, query):
    first = query.evaluate(db, engine="planned")
    second = query.evaluate(db, engine="planned")  # cached plan + build sides
    assert first == second == query.evaluate(db)


@settings(max_examples=40, deadline=None)
@given(query=spju_agb_query(), data=st.data())
def test_planned_equals_interpreted_over_bags(query, data):
    """Same property under N: the bag specialisation, evaluated directly."""
    db_nx = data.draw(tagged_database())
    relations = {}
    for i, (name, rel) in enumerate(db_nx):
        rows = [
            (tuple(t[a] for a in rel.schema.attributes), 1 + (j + i) % 3)
            for j, (t, _k) in enumerate(rel.items())
        ]
        relations[name] = KRelation.from_rows(NAT, rel.schema.attributes, rows)
    db = KDatabase(NAT, relations)
    assert query.evaluate(db, engine="planned") == query.evaluate(db)


@settings(max_examples=30, deadline=None)
@given(db=tagged_database())
def test_difference_routes_through_planned_engine(db):
    query = Difference(Project(Table("R"), ("g",)), Table("S"))
    assert query.evaluate(db, engine="planned") == query.evaluate(db)


# ---------------------------------------------------------------------------
# circuit-backed execution lowers to the interpreter's polynomials
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(db=tagged_database(), query=spju_agb_query())
def test_circuit_mode_lowers_to_interpreted_polynomials(db, query):
    """annotations="circuit" runs the plan over shared gates; expanding the
    result must reproduce the interpreter's canonical N[X] relation
    exactly (annotations and tensor values both)."""
    interpreted = query.evaluate(db, engine="interpreted")
    circuit = query.evaluate(db, engine="planned", annotations="circuit")
    assert circuit.lower() == interpreted
    # the KRelation-compatible face delegates to the lowered form
    assert circuit == interpreted


@settings(max_examples=40, deadline=None)
@given(db=tagged_database(), query=spju_agb_query(), data=st.data())
def test_circuit_specialisation_equals_hom_of_expanded_result(db, query, data):
    """Batch-evaluating the gates under a valuation == applying the freely
    extended homomorphism to the expanded result (Thm. 3.3 commutation,
    realised on circuits without materialising N[X])."""
    from repro.semirings import NAT
    from repro.semirings.homomorphism import valuation_hom

    interpreted = query.evaluate(db, engine="interpreted")
    circuit = query.evaluate(db, engine="planned", annotations="circuit")
    weights = {}

    def weight(token):
        if token not in weights:
            weights[token] = data.draw(
                st.integers(min_value=0, max_value=3), label=f"weight[{token}]"
            )
        return weights[token]

    specialised = circuit.specialise(weight, NAT)
    expected = interpreted.apply_hom(valuation_hom(NX, NAT, weight))
    assert specialised == expected
