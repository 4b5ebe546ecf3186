"""The differential oracle: every engine, tier and annotation mode against
the interpreter, and every specialisation through the paper's law.

Evaluation commutes with every semiring homomorphism (Thm. 3.3), and
``N[X]`` is free, so a result equal to the interpreter's over ``N[X]`` is
equal under every specialisation.  Each property draws a (semiring,
database, query) from :mod:`strategies`, computes the interpreter's
result once, and holds every other path to it:

* the default tier (encoded, over term ids where a table's annotations
  are single terms), the object tier and a re-executed cached plan;
* over ``N[X]``, circuit mode: its encoded and object tiers intern the
  same gate objects, the result lowers to the interpreter's polynomials,
  and ``specialise`` — the level-wise array pass into ``N`` and ``B``,
  the id-order loop into tropical and past int64 — equals the
  homomorphism of the expanded result;
* for every registered homomorphism ``h``: ``h(Q(D)) == Q(h(D))`` on
  both engines, where the planned result maps as arrays over the term
  store and the interpreted one by the walk, and both equal the
  per-annotation reference fold below;
* in extended mode (σ over aggregates, difference), commutation into
  ``N`` and ``B`` and the planned engine's fallback.

The same checks run on drawn queries and on a fixed list of each
fragment's small shapes, which a draw need not reach.

Concrete semirings are exercised directly as well: the encoded tier
specialises per dtype and per ``+``/``*`` kernel pair, and annotations
outside the machine dtype must fall back transparently.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import NX_CIRCUITS, evaluate
from repro.circuits.evaluate import _array_pass, _reach
from repro.core import (
    Aggregate,
    AttrCompare,
    AttrEq,
    Cartesian,
    Difference,
    GroupBy,
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
from repro.core.comparisons import ComparisonAtom, comparison_annotation
from repro.core.equality import EqualityAtom, equality_annotation
from repro.core.rewrites import optimize
from repro.exceptions import SemiringError
from repro.monoids import MAX, MIN, SUM
from repro.plan import compile_plan
from repro.plan.kernels import HAVE_NUMPY
from repro.semimodules.tensor import Tensor, tensor_space
from repro.semirings import BOOL, FUZZY, INT, NAT, NX, TROPICAL, valuation_hom
from repro.semirings.delta import DeltaTerm

from strategies import GROUPS, HOMS, VALUES, WEIGHTS, database, drawn_hom, query, spju

try:
    import numpy as np
except ImportError:  # the object tier alone: every path but the encoded one
    np = None


# ---------------------------------------------------------------------------
# the reference fold: one annotation at a time, the target's own operations
# ---------------------------------------------------------------------------


def fold(poly, target, token_image):
    """``poly``'s image, folded term by term with ``target``'s operations."""
    total = target.zero
    for mono, c in poly._terms.items():
        term = target.from_int(c)
        for var, exp in mono._powers.items():
            image = var_image(var, target, token_image)
            for _ in range(exp):
                term = target.times(term, image)
        total = target.plus(total, term)
    return total


def var_image(var, target, token_image):
    if isinstance(var, DeltaTerm):
        return target.delta(fold(var.argument, target, token_image))
    if isinstance(var, EqualityAtom):
        lhs, rhs = (tensor_image(t, target, token_image) for t in (var.lhs, var.rhs))
        return equality_annotation(target, lhs, rhs)
    if isinstance(var, ComparisonAtom):
        lhs, rhs = (tensor_image(t, target, token_image) for t in (var.lhs, var.rhs))
        return comparison_annotation(target, var.op, lhs, rhs)
    return token_image(var)


def tensor_image(tensor, target, token_image):
    space = tensor_space(target, tensor.space.monoid)
    return space.set_agg(
        (m, fold(k, target, token_image)) for m, k in tensor._entries.items()
    )


def reference(rel, target, token_image):
    """``rel``'s image, one row at a time."""
    rows = {}
    for tup, annotation in rel.rows():
        image = fold(annotation, target, token_image)
        if target.is_zero(image):
            continue
        values = {
            a: tensor_image(v, target, token_image) if isinstance(v, Tensor) else v
            for a, v in tup.items()
        }
        rows[Tup(values)] = image
    return KRelation(target, rel.schema, rows)


# ---------------------------------------------------------------------------
# N[X]: engines, tiers, circuits and every registered homomorphism
# ---------------------------------------------------------------------------


def assert_tiers_agree(db, q, want):
    """The default tier, the object tier and a cached plan re-executed (its
    scan encodings, build sides and key-row memos must not leak state)
    each equal the interpreter's ``want``; the default is ``encoded``
    wherever NumPy is."""
    plan = compile_plan(q, db)
    assert plan.tier == ("encoded" if HAVE_NUMPY else "object")
    assert plan.execute() == want
    assert compile_plan(q, db, tier="object").execute() == want
    first = q.evaluate(db, engine="planned")
    assert q.evaluate(db, engine="planned") == first == want
    return first


def any_width():
    """Lift the circuit evaluator's width rule: these circuits are a few
    gates wide, which it would leave to the loop."""
    return mock.patch.object(evaluate, "_GATES_PER_LEVEL", 0)


def assert_circuits_agree(db, q, want, images):
    """Circuit mode over the encoded tier (gate ids, interned a batch at a
    time) and pinned to the object tier (one builder call per gate) return
    the *same gate objects*; the result lowers to ``want`` and specialises
    as the homomorphism of ``want`` (``images``: target -> (token image,
    reference image))."""
    circuit = q.evaluate(db, engine="planned", annotations="circuit")
    assert q._cached_plan(db, "circuit").tier == ("encoded" if HAVE_NUMPY else "object")
    pinned = compile_plan(q, db, annotations="circuit", tier="object").execute().circuit_relation
    gates = circuit.circuit_relation
    assert gates.schema == pinned.schema
    assert set(gates.support()) == set(pinned.support())
    for tup, annotation in gates.rows():
        assert annotation is pinned.annotation(tup)
    assert gates == pinned  # tensor scalars too: gates compare by identity
    assert circuit.lower() == want
    assert circuit == want  # the KRelation-compatible face lowers too

    roots = circuit.circuit_relation._scalars()[0]
    for target, (image, expected) in images.items():
        with any_width():
            specialised = circuit.specialise(image, target)
            reached = _reach(NX_CIRCUITS.builder.store, roots)
            ran_arrays = reached is not None and _array_pass(reached, target, image) is not None
        assert specialised == expected
        assert ran_arrays == (HAVE_NUMPY and target is not TROPICAL)

    huge = (1 << 62) + 3  # any sum or product of two leaves leaves int64
    with any_width():
        specialised = circuit.specialise(lambda _token: huge, NAT)
    assert specialised == want.apply_hom(valuation_hom(NX, NAT, lambda _token: huge))


def assert_every_path_agrees(db, tokens, q, data):
    """Tiers, every registered homomorphism and circuit mode against the
    interpreter's result, computed once."""
    want = q.evaluate(db)
    planned = assert_tiers_agree(db, q, want)
    specialisable = {}
    for name in HOMS:
        hom, target, image = drawn_hom(data, name, tokens)
        expected = reference(want, target, image)
        assert want.apply_hom(hom) == expected  # the walk
        assert planned.apply_hom(hom) == expected  # arrays over the term store
        mapped = db.apply_hom(hom)
        assert q.evaluate(mapped) == expected  # h(Q(D)) == Q(h(D))
        assert q.evaluate(mapped, engine="planned") == expected
        if target in (NAT, BOOL, TROPICAL):
            specialisable[target] = image, expected
    assert_circuits_agree(db, q, want, specialisable)


@settings(max_examples=120, deadline=None)
@given(drawn=database(NX), data=st.data())
def test_every_path_equals_the_interpreter_over_free_provenance(drawn, data):
    db, tokens = drawn
    assert_every_path_agrees(db, tokens, data.draw(query(NX), label="query"), data)


@st.composite
def projected_join(draw):
    """``Π_A([σ](q1 ⋈ q2))`` or ``Π_A([σ](q1 × ρ(q2)))`` over SPJU operands:
    the shapes the Π-below-⋈ rule rewrites."""
    q1, a1 = draw(spju(1, without=("self_compared",)))
    q2, a2 = draw(spju(1, without=("self_compared",)))
    renames = {a: f"{a}x" for a in a2}
    if draw(st.booleans()) and not set(renames.values()) & set(a1):
        q, attrs = Cartesian(q1, Rename(q2, renames)), set(a1) | set(renames.values())
    else:
        q, attrs = NaturalJoin(q1, q2), set(a1) | set(a2)
    attrs = sorted(attrs)
    if draw(st.booleans()):
        attr = draw(st.sampled_from(attrs))
        if attr.startswith("g"):
            condition = AttrEq(attr, draw(st.sampled_from(GROUPS)))
        else:
            op = draw(st.sampled_from(["<", "<=", ">", ">="]))
            condition = AttrCompare(attr, op, draw(st.sampled_from(VALUES + WEIGHTS)))
        q = Select(q, [condition])
    keep = draw(st.sets(st.sampled_from(attrs), min_size=1))
    return Project(q, tuple(sorted(keep)))


@settings(max_examples=80, deadline=None)
@given(drawn=database(NX), q=projected_join())
def test_rewriting_preserves_annotations_on_both_engines(drawn, q):
    """``optimize(q)`` against ``q`` over ``N[X]``: equality in the free
    semiring implies equality under every specialisation."""
    db, _tokens = drawn
    rewritten = optimize(q, {name: rel.schema for name, rel in db})
    want = q.evaluate(db)
    assert rewritten.evaluate(db) == want
    assert rewritten.evaluate(db, engine="planned") == want


def assert_extended_mode_agrees(db, tokens, q, data):
    """σ over a GROUP BY result and difference (Sections 4.3 and 5): the
    planned engine answers through the interpreter, equality and
    comparison atoms resolve through the batch, and the result commutes
    with valuations into ``N`` and ``B`` and with deletion."""
    want = q.evaluate(db, mode="extended")
    assert q.evaluate(db, engine="planned", mode="extended") == want
    if isinstance(q, Difference):
        assert q.evaluate(db, engine="planned") == q.evaluate(db)
    # B ⊗ SUM does not collapse, so a SUM's atoms would stay open in B
    over_sum = isinstance(q, Select) and SUM in q.child.aggregations.values()
    for name in ("N", "delete") if over_sum else ("N", "B", "delete"):
        hom, target, image = drawn_hom(data, name, tokens)
        assert want.apply_hom(hom) == reference(want, target, image)
        if target is not NX:
            assert want.apply_hom(hom) == q.evaluate(db.apply_hom(hom), mode="extended")


@settings(max_examples=160, deadline=None)
@given(drawn=database(NX), data=st.data())
def test_extended_mode_commutes_and_the_planner_falls_back(drawn, data):
    db, tokens = drawn
    q = data.draw(query(NX, mode="extended"), label="query")
    assert_extended_mode_agrees(db, tokens, q, data)


# ---------------------------------------------------------------------------
# fixed query shapes: each fragment's small cases, whatever the draw favours
# ---------------------------------------------------------------------------

R, S = Table("R"), Table("S")
GB_SUM = GroupBy(R, ["g"], {"v": SUM})
GB_MAX = GroupBy(R, ["g"], {"v": MAX})

#: SPJU, then SPJU followed by one aggregation (Thm. 3.3's scope)
STANDARD_SHAPES = {
    "R": R,
    "proj-g": Project(R, ("g",)),
    "proj-v": Project(R, ("v",)),
    "union": Union(Project(R, ("g",)), S),
    "join": NaturalJoin(R, S),
    "select": Select(R, [AttrEq("g", "g1")]),
    "proj-v-join": Project(NaturalJoin(R, S), ("v",)),
    "agg-sum": Aggregate(Project(R, ("v",)), "v", SUM),
    "agg-min": Aggregate(Project(R, ("v",)), "v", MIN),
    "agg-sum-join": Aggregate(Project(NaturalJoin(R, S), ("v",)), "v", SUM),
    "gb-sum": GB_SUM,
    "gb-max": GB_MAX,
    "gb-sum-join": GroupBy(NaturalJoin(R, S), ["g"], {"v": SUM}),
}

#: comparisons over aggregate results (Section 4.3) and difference
EXTENDED_SHAPES = {
    "sum-eq-20": Select(GB_SUM, [AttrEq("v", 20)]),
    "max-eq-20": Select(GB_MAX, [AttrEq("v", 20)]),
    "sum-eq-30": Select(GB_SUM, [AttrEq("v", 30)]),
    "difference": Difference(Project(R, ("g",)), S),
}


@pytest.mark.parametrize("q", STANDARD_SHAPES.values(), ids=STANDARD_SHAPES.keys())
@settings(max_examples=15, deadline=None)
@given(drawn=database(NX), data=st.data())
def test_every_path_holds_on_a_fixed_query_shape(q, drawn, data):
    db, tokens = drawn
    assert_every_path_agrees(db, tokens, q, data)


@pytest.mark.parametrize("q", EXTENDED_SHAPES.values(), ids=EXTENDED_SHAPES.keys())
@settings(max_examples=15, deadline=None)
@given(drawn=database(NX), data=st.data())
def test_extended_mode_holds_on_a_fixed_query_shape(q, drawn, data):
    db, tokens = drawn
    assert_extended_mode_agrees(db, tokens, q, data)


# ---------------------------------------------------------------------------
# concrete semirings: the encoded tier per dtype and kernel pair
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("semiring, pool", [
    (NAT, None), (BOOL, None), (INT, None), (TROPICAL, None), (FUZZY, None),
    # a > 2^31 multiplicity: the compile-time choice stands, the run falls back
    (NAT, [1, 2, 1 << 40]),
], ids=["N", "B", "Z", "Trop", "V", "N-wide"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_tier_equals_the_interpreter_over_machine_semirings(semiring, pool, data):
    db, _tokens = data.draw(database(semiring, pool), label="db")
    q = data.draw(query(semiring), label="query")
    assert_tiers_agree(db, q, q.evaluate(db))


# ---------------------------------------------------------------------------
# the exact-type rule and the merging discipline of the batch
# ---------------------------------------------------------------------------


def grouped_db():
    rows = [((f"g{i % 3}", 5 * (1 + i % 4)), NX.variable(f"t{i}")) for i in range(12)]
    return KDatabase(NX, {"R": KRelation.from_rows(NX, ("g", "v"), rows)})


@pytest.mark.parametrize("image", [
    lambda t: True,                       # a bool is not N's exact type
    pytest.param(lambda t: np.int64(int(t[1:]) % 3),  # nor is a NumPy integer
                 marks=pytest.mark.skipif(np is None, reason="needs NumPy")),
    lambda t: True if t == "t7" else int(t[1:]) % 3,  # the pass switches midway
], ids=["bool", "numpy", "mixed"])
@pytest.mark.parametrize("engine", ["interpreted", "planned"])
def test_an_image_outside_the_native_type_folds_with_the_targets_operations(image, engine):
    result = GroupBy(Table("R"), ["g"], {"v": SUM}).evaluate(grouped_db(), engine=engine)
    hom = valuation_hom(NX, NAT, image)
    got, want = result.apply_hom(hom), reference(result, NAT, image)
    assert got == want
    for tup, annotation in got.rows():
        assert type(annotation) is type(want.annotation(tup))
    for _tup, annotation in result.rows():
        assert type(hom(annotation)) is type(fold(annotation, NAT, image))


def test_merging_images_must_agree():
    x, y, p, q = NX.variables("x", "y", "p", "q")
    space = tensor_space(NX, SUM)
    rel = KRelation(NX, ("g", "s"), [
        (Tup({"g": 1, "s": space.simple(p, 5)}), x),
        (Tup({"g": 1, "s": space.simple(q, 5)}), y),
    ])
    # both tensors map to 1⊗5: equal annotations merge into one row ...
    merged = rel.apply_hom(valuation_hom(NX, NAT, {"x": 2, "y": 2, "p": 1, "q": 1}))
    assert len(merged) == 1 and next(iter(dict(merged.rows()).values())) == 2
    # ... unequal ones make the image ambiguous
    with pytest.raises(SemiringError, match="ambiguous homomorphic image"):
        rel.apply_hom(valuation_hom(NX, NAT, {"x": 1, "y": 2, "p": 1, "q": 1}))
