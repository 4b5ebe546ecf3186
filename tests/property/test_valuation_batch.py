"""Property suite: a relation's specialisation is one batch, and it is exact.

``KRelation.apply_hom`` maps every annotation and tensor scalar of a
relation in one ``Homomorphism.map_many`` call; ``valuation_hom`` answers
that call with one pass that maps each distinct token, structured term and
monomial once, folding with Python's own operators over ``N``, ``Z`` and
``B`` — as arrays over the term store where the relation is a planned
result (each scalar carries its run of term ids).  The oracle here is
written out in full: each annotation folded by itself with the target's
own ``plus`` / ``times`` / ``delta``, ``δ`` terms and atoms re-resolved
from their folded sides, tensors rebuilt scalar by scalar.  It is checked on GROUP BY results (``δ`` terms, tensors), on
extended-mode ``K^M`` results (equality and comparison atoms), and through
the paper's law ``h(Q(R)) == Q(h(R))`` on both engines.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AttrCompare,
    AttrEq,
    GroupBy,
    KDatabase,
    KRelation,
    Select,
    Table,
    Tup,
)
from repro.core.comparisons import ComparisonAtom, comparison_annotation
from repro.core.equality import EqualityAtom, equality_annotation
from repro.exceptions import SemiringError
from repro.monoids import MAX, MIN, SUM
from repro.semimodules.tensor import Tensor, tensor_space
from repro.semirings import BOOL, INT, NAT, NX, TROPICAL, deletion_hom, valuation_hom
from repro.semirings.delta import DeltaTerm
from repro.semirings.security import SEC, SecurityLevel

from strategies import GROUPS, VALUES, WEIGHTS, spju


# ---------------------------------------------------------------------------
# the oracle: one annotation at a time, the target's own operations
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
# strategies: the shared SPJU generator under a GROUP BY head
# ---------------------------------------------------------------------------


@st.composite
def tagged_database(draw):
    """A small N[X] database R(g, v), S(g), T(g, w) and its token names."""
    counter = [0]

    def tag():
        counter[0] += 1
        return NX.variable(f"t{counter[0]}")

    rows_r = draw(st.lists(st.tuples(st.sampled_from(GROUPS), st.sampled_from(VALUES)),
                           max_size=6, unique=True))
    rows_s = draw(st.lists(st.sampled_from(GROUPS), max_size=3, unique=True))
    rows_t = draw(st.lists(st.tuples(st.sampled_from(GROUPS), st.sampled_from(WEIGHTS)),
                           max_size=4, unique=True))
    db = KDatabase(NX, {
        "R": KRelation.from_rows(NX, ("g", "v"), [(row, tag()) for row in rows_r]),
        "S": KRelation.from_rows(NX, ("g",), [((g,), tag()) for g in rows_s]),
        "T": KRelation.from_rows(NX, ("g", "w"), [(row, tag()) for row in rows_t]),
    })
    return db, [f"t{i + 1}" for i in range(counter[0])]


@st.composite
def grouped_query(draw, monoids=(SUM, MIN, MAX)):
    """An SPJU tree under a GROUP BY whenever its schema allows one."""
    query, attrs = draw(spju(draw(st.integers(0, 2)), without=("self_compared",)))
    numeric = sorted(a for a in attrs if a.startswith(("v", "w")))
    if "g" in attrs and numeric:
        return GroupBy(query, ["g"], {draw(st.sampled_from(numeric)): draw(st.sampled_from(monoids))})
    return query


LEVELS = list(SecurityLevel)

#: target -> images a token may take there
TARGETS = {
    "N": (NAT, st.integers(0, 3)),
    "Z": (INT, st.integers(-2, 3)),
    "B": (BOOL, st.booleans()),
    "Trop": (TROPICAL, st.sampled_from([0.0, 1.0, 2.5, float("inf")])),
    "S": (SEC, st.sampled_from(LEVELS)),
}


def drawn_hom(data, name, tokens):
    """A homomorphism out of N[X] and the token map it extends."""
    if name == "delete":
        deleted = data.draw(st.sets(st.sampled_from(tokens)) if tokens else st.just(set()))
        image = lambda t: NX.zero if t in deleted else NX.variable(t)  # noqa: E731
        return deletion_hom(NX, deleted), NX, image
    target, values = TARGETS[name]
    valuation = {t: data.draw(values, label=t) for t in tokens}
    return valuation_hom(NX, target, valuation), target, valuation.__getitem__


# ---------------------------------------------------------------------------
# the properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["N", "Z", "B", "delete", "Trop", "S"])
@settings(max_examples=40, deadline=None)
@given(db=tagged_database(), query=grouped_query(), data=st.data())
def test_the_batch_equals_the_per_annotation_fold(name, db, query, data):
    db, tokens = db
    hom, target, image = drawn_hom(data, name, tokens)
    result = query.evaluate(db)
    assert result.apply_hom(hom) == reference(result, target, image)
    # the planned result's scalars carry their term-store runs: into N, Z
    # and B the batch maps as arrays, and must meet the same oracle
    planned = query.evaluate(db, engine="planned")
    assert planned.apply_hom(hom) == reference(planned, target, image)
    for engine in ("interpreted", "planned"):  # h(Q(R)) == Q(h(R))
        assert query.evaluate(db, engine=engine).apply_hom(hom) == query.evaluate(
            db.apply_hom(hom), engine=engine)


EXTENDED = [
    Select(GroupBy(Table("R"), ["g"], {"v": SUM}), [AttrEq("v", 20)]),
    Select(GroupBy(Table("R"), ["g"], {"v": SUM}), [AttrCompare("v", ">", 10)]),
    Select(GroupBy(Table("R"), ["g"], {"v": MAX}), [AttrEq("v", 10)]),
]


@pytest.mark.parametrize("name", ["N", "B", "delete"])
@settings(max_examples=40, deadline=None)
@given(db=tagged_database(), data=st.data())
def test_atoms_resolve_through_the_batch(name, db, data):
    db, tokens = db
    # B ⊗ SUM does not collapse, so its atoms would stay open in B
    query = data.draw(st.sampled_from(EXTENDED[2:] if name == "B" else EXTENDED))
    hom, target, image = drawn_hom(data, name, tokens)
    result = query.evaluate(db, mode="extended")
    assert result.apply_hom(hom) == reference(result, target, image)
    if target is not NX:
        assert result.apply_hom(hom) == query.evaluate(db.apply_hom(hom), mode="extended")


# ---------------------------------------------------------------------------
# the exact-type rule and the merging discipline
# ---------------------------------------------------------------------------


def grouped_db():
    rows = [((f"g{i % 3}", 5 * (1 + i % 4)), NX.variable(f"t{i}")) for i in range(12)]
    return KDatabase(NX, {"R": KRelation.from_rows(NX, ("g", "v"), rows)})


@pytest.mark.parametrize("image", [
    lambda t: True,                       # a bool is not N's exact type
    lambda t: np.int64(int(t[1:]) % 3),   # nor is a NumPy integer
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
