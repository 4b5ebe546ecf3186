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
    AttrCompare,
    AttrEq,
    AttrEqAttr,
    AvgAgg,
    Cartesian,
    CountAgg,
    Difference,
    GroupBy,
    KDatabase,
    KRelation,
    NaturalJoin,
    Project,
    Rename,
    Select,
    Table,
)
from repro.core.rewrites import optimize
from repro.monoids import MAX, MIN, SUM
from repro.plan import compile_plan
from repro.semirings import BOOL, NAT, NX
from repro.semirings.homomorphism import valuation_hom

from strategies import GROUPS, VALUES, WEIGHTS, spju


# ---------------------------------------------------------------------------
# database strategy
# ---------------------------------------------------------------------------


@st.composite
def tagged_database(draw):
    """A small N[X] database: R(g, v), S(g), T(g, w).  Annotations are
    mostly single terms — a token, ``k·x_t`` or a constant, the shapes
    the encoded tier's term store takes — and now and then a sum, which
    keeps its table on the object tier."""
    counter = [0]

    def tag():
        counter[0] += 1
        token = NX.variable(f"t{counter[0]}")
        shape = draw(st.sampled_from(["token"] * 4 + ["scaled", "constant", "sum"]))
        if shape == "scaled":
            return NX.from_int(draw(st.integers(2, 3))) * token
        if shape == "constant":
            return NX.from_int(draw(st.integers(1, 3)))
        if shape == "sum":
            return token + NX.variable(f"t{counter[0]}b")
        return token

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
    top = draw(st.sampled_from(["none", "group", "empty-key", "agg", "count", "avg"]))
    numeric = sorted(a for a in attrs if a.startswith(("v", "w")))
    if (top == "empty-key" or top == "group" and "g" in attrs) and numeric:
        agg_attr = draw(st.sampled_from(numeric))
        monoid = draw(st.sampled_from([SUM, MIN, MAX]))
        count = draw(st.booleans())
        return GroupBy(query, ["g"] if top == "group" else [], {agg_attr: monoid},
                       count_attr="n" if count else None)
    if top == "agg" and numeric:
        agg_attr = draw(st.sampled_from(numeric))
        monoid = draw(st.sampled_from([SUM, MIN, MAX]))
        return Aggregate(Project(query, (agg_attr,)), agg_attr, monoid)
    if top == "avg" and numeric:
        agg_attr = draw(st.sampled_from(numeric))
        return AvgAgg(Project(query, (agg_attr,)), agg_attr)
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


def _valuation(target):
    """A valuation of the tokens ``t<n>``/``t<n>b`` into ``N`` (some 0:
    deletions) or ``B``."""
    def value(token):
        n = int(token[1:].rstrip("b")) + token.endswith("b")
        return n % 3 if target is NAT else n % 2 == 0
    return valuation_hom(NX, target, value)


@settings(max_examples=120, deadline=None)
@given(db=tagged_database(), query=spju_agb_query())
def test_term_tier_equals_object_tier_and_commutes(db, query):
    """The default tier (term ids wherever a table's annotations are
    single terms), the object tier and the interpreter agree, and the
    default tier's result commutes with valuations into N and B."""
    result = compile_plan(query, db).execute()
    assert result == compile_plan(query, db, tier="object").execute()
    assert result == query.evaluate(db)
    for target in (NAT, BOOL):
        hom = _valuation(target)
        assert result.apply_hom(hom) == query.evaluate(db.apply_hom(hom))


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
# the rewrite oracle: Π over ⋈ and ×, σ in between
# ---------------------------------------------------------------------------


@st.composite
def projected_join(draw):
    """``Π_A([σ](q1 ⋈ q2))`` or ``Π_A([σ](q1 × ρ(q2)))`` over SPJU operands:
    the shapes the Π-below-⋈ rule rewrites."""
    q1, a1 = draw(spju(1, without=("self_compared",)))
    q2, a2 = draw(spju(1, without=("self_compared",)))
    renames = {a: f"{a}x" for a in a2}
    if draw(st.booleans()) and not set(renames.values()) & set(a1):
        query, attrs = Cartesian(q1, Rename(q2, renames)), set(a1) | set(renames.values())
    else:
        query, attrs = NaturalJoin(q1, q2), set(a1) | set(a2)
    attrs = sorted(attrs)
    if draw(st.booleans()):
        attr = draw(st.sampled_from(attrs))
        if attr.startswith("g"):
            condition = AttrEq(attr, draw(st.sampled_from(GROUPS)))
        else:
            op = draw(st.sampled_from(["<", "<=", ">", ">="]))
            condition = AttrCompare(attr, op, draw(st.sampled_from(VALUES + WEIGHTS)))
        query = Select(query, [condition])
    keep = draw(st.sets(st.sampled_from(attrs), min_size=1))
    return Project(query, tuple(sorted(keep)))


@settings(max_examples=80, deadline=None)
@given(db=tagged_database(), query=projected_join())
def test_rewriting_preserves_annotations_on_both_engines(db, query):
    """``optimize(q)`` against ``q`` over ``N[X]``: equality in the free
    semiring implies equality under every specialisation."""
    rewritten = optimize(query, {name: rel.schema for name, rel in db})
    want = query.evaluate(db, engine="interpreted")
    assert rewritten.evaluate(db, engine="interpreted") == want
    assert rewritten.evaluate(db, engine="planned") == want


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
