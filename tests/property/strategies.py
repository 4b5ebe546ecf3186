"""The one generator behind the property suites.

Base relations are R(g, v), S(g), T(g, w).  This module draws all of it:
the schema-aware SPJU core (:func:`spju`), a database annotated in any
semiring the suites exercise (:func:`database`), one query head limited
to what the semiring admits (:func:`query`), one grouped reduction's
rows (:func:`keyed_rows`), the homomorphisms out of
``N[X]`` the oracle specialises through (:data:`TARGETS`,
:func:`drawn_hom`), and IVM's row and delta streams (:func:`initial_rows`,
:func:`insert_stream`).  Suites import it as a sibling
(``tests/property`` has no ``__init__.py``, so pytest puts the directory
itself on ``sys.path``); no test module imports another.
"""

import math

from hypothesis import strategies as st

from repro.core import (
    Aggregate,
    AttrCompare,
    AttrEq,
    AttrEqAttr,
    AvgAgg,
    CountAgg,
    Difference,
    Distinct,
    GroupBy,
    KDatabase,
    KRelation,
    NaturalJoin,
    Project,
    Rename,
    Select,
    Table,
    Union,
    ValueJoin,
)
from repro.monoids import MAX, MIN, SUM
from repro.semimodules.compatibility import compatibility_reason
from repro.semirings import BOOL, FUZZY, INT, NAT, NX, TROPICAL, deletion_hom, valuation_hom
from repro.semirings.security import SEC, SecurityLevel

GROUPS = ["g1", "g2", "g3"]
VALUES = [5, 10, 20]
WEIGHTS = [1, 2, 7]
SCHEMAS = {"R": ("g", "v"), "S": ("g",), "T": ("g", "w")}


def spju(depth: int, without=()):
    """Queries paired with their output attribute sets.

    ``without`` names the stages a suite leaves out (``"self_compared"``,
    ``"distinct"``); it applies at every depth."""
    base = st.sampled_from(
        [
            (Table("R"), ("g", "v")),
            (Table("S"), ("g",)),
            (Table("T"), ("g", "w")),
        ]
    )
    if depth == 0:
        return base

    sub = spju(depth - 1, without)

    @st.composite
    def selected(draw):
        query, attrs = draw(sub)
        attr = draw(st.sampled_from(sorted(attrs)))
        if attr.startswith("g"):
            condition = AttrEq(attr, draw(st.sampled_from(GROUPS)))
        else:
            op = draw(st.sampled_from(["<", "<=", ">", ">="]))
            condition = AttrCompare(attr, op, draw(st.sampled_from(VALUES + WEIGHTS)))
        return Select(query, [condition]), attrs

    @st.composite
    def self_compared(draw):
        query, attrs = draw(sub)
        if "v" not in attrs or "w" not in attrs:
            return query, attrs
        return Select(query, [AttrEqAttr("v", "w")]), attrs

    @st.composite
    def projected(draw):
        query, attrs = draw(sub)
        keep = tuple(
            sorted(draw(st.sets(st.sampled_from(sorted(attrs)), min_size=1)))
        )
        return Project(query, keep), keep

    @st.composite
    def unioned(draw):
        q1, a1 = draw(sub)
        q2, a2 = draw(sub)
        if "g" not in a1 or "g" not in a2:
            return q1, a1  # a side projected g away: skip the union
        return Union(Project(q1, ("g",)), Project(q2, ("g",))), ("g",)

    @st.composite
    def joined(draw):
        q1, a1 = draw(sub)
        q2, a2 = draw(sub)
        return NaturalJoin(q1, q2), tuple(sorted(set(a1) | set(a2)))

    @st.composite
    def value_joined(draw):
        q1, a1 = draw(sub)
        q2, a2 = draw(base)  # base table on the renamed side keeps schemas disjoint
        renames = {a: f"{a}2" for a in a2}
        if "g" not in a1:
            return q1, a1  # left side projected the join key away: skip
        if any(f"{a}2" in a1 for a in a2):
            return q1, a1  # nested rename collision: skip the join
        return (
            ValueJoin(q1, Rename(q2, renames), [("g", "g2")]),
            tuple(sorted(set(a1) | {f"{a}2" for a in a2})),
        )

    @st.composite
    def distinct(draw):
        query, attrs = draw(sub)
        return Distinct(query), attrs

    stages = [selected, self_compared, projected, unioned, joined,
              value_joined, distinct]
    return st.one_of(
        base, *(stage() for stage in stages if stage.__name__ not in without)
    )


# ---------------------------------------------------------------------------
# databases
# ---------------------------------------------------------------------------

#: Annotation pools of the machine-representable semirings.
POOLS = {
    NAT: [1, 2, 3],
    BOOL: [True],
    INT: [-2, -1, 1, 3],
    TROPICAL: [0.0, 1.5, 2.5, math.inf],
    FUZZY: [0.25, 0.5, 1.0],
}


def _row(name):
    if name == "R":
        return st.tuples(st.sampled_from(GROUPS), st.sampled_from(VALUES))
    if name == "S":
        return st.tuples(st.sampled_from(GROUPS))
    return st.tuples(st.sampled_from(GROUPS), st.sampled_from(WEIGHTS))


@st.composite
def initial_rows(draw, sizes=None):
    """Distinct rows for each of R, S and T, at most ``sizes[name]`` (5)."""
    return {
        name: draw(st.lists(_row(name), max_size=(sizes or {}).get(name, 5), unique=True))
        for name in SCHEMAS
    }


@st.composite
def insert_stream(draw):
    """1–3 delta batches, each touching a subset of the base tables."""
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        names = draw(st.sets(st.sampled_from(sorted(SCHEMAS)), min_size=1, max_size=2))
        batches.append(
            {name: draw(st.lists(_row(name), max_size=3)) for name in sorted(names)}
        )
    return batches


@st.composite
def database(draw, semiring, pool=None):
    """``(db, tokens)``: R(g, v), S(g), T(g, w) annotated in ``semiring``.

    Over ``N[X]`` the annotations are mostly single terms — a token,
    ``k·x_t`` or a constant, the shapes the encoded tier's term store
    takes — and now and then a sum, which keeps its table on the object
    tier; ``tokens`` names every variable.  Over a machine semiring they
    come from ``pool`` (default :data:`POOLS`) and ``tokens`` is empty."""
    tokens = []

    def tag():
        if semiring is not NX:
            return draw(st.sampled_from(pool or POOLS[semiring]))
        tokens.append(f"t{len(tokens) + 1}")
        token = NX.variable(tokens[-1])
        shape = draw(st.sampled_from(["token"] * 4 + ["scaled", "constant", "sum"]))
        if shape == "scaled":
            return NX.from_int(draw(st.integers(2, 3))) * token
        if shape == "constant":
            return NX.from_int(draw(st.integers(1, 3)))
        if shape == "sum":
            tokens.append(f"{tokens[-1]}b")
            return token + NX.variable(tokens[-1])
        return token

    rows = draw(initial_rows({"R": 6, "S": 3, "T": 4}))
    db = KDatabase(semiring, {
        name: KRelation.from_rows(semiring, SCHEMAS[name], [(row, tag()) for row in rows[name]])
        for name in SCHEMAS
    })
    return db, tokens


@st.composite
def keyed_rows(draw, semiring):
    """``(keys, annotations, values, space)``: up to 12 rows keyed below
    ``space`` (1–8), annotated from :data:`POOLS` or ``0_K``, each with a
    value of 0, below or above — one grouped reduction's input."""
    space = draw(st.integers(1, 8))
    rows = draw(st.lists(st.tuples(st.integers(0, space - 1),
                                   st.sampled_from(POOLS[semiring] + [semiring.zero]),
                                   st.sampled_from([-5, 0] + VALUES)), max_size=12))
    keys, annotations, values = map(list, zip(*rows)) if rows else ([], [], [])
    return keys, annotations, values, space


# ---------------------------------------------------------------------------
# the query head
# ---------------------------------------------------------------------------


def monoids(semiring):
    """The aggregation monoids ``semiring`` is compatible with (Section
    3.4): all of them with a homomorphism to ``N``, the idempotent ones
    over a positive semiring, none over ``Z``."""
    return [m for m in (SUM, MIN, MAX)
            if compatibility_reason(semiring, m) in ("hom-to-N", "idempotent-positive")]


@st.composite
def query(draw, semiring, mode="standard", without=()):
    """An SPJU core under one head ``semiring`` admits: none, GROUP BY g
    (with an optional COUNT column), GROUP BY over the empty key, AGG,
    COUNT(*), AVG or DISTINCT; COUNT and AVG need a homomorphism to
    ``N``.  ``mode="extended"`` draws σ over a GROUP BY result or a
    difference instead (Sections 4.3 and 5).  A head that aggregates a
    core without ``g`` or a value column joins it with R first."""
    core, attrs = draw(spju(draw(st.integers(0, 2)), without))
    admitted = monoids(semiring)
    if mode == "extended":
        heads = ["select", "difference"]
    else:  # Hypothesis favours the front of a sample: GROUP BY and none
        heads = ["group", "none", "distinct"] if admitted else ["none", "distinct"]
        heads += ["empty-key", "agg"] if admitted else []
        heads += ["count", "avg"] if semiring.has_hom_to_nat else []
    head = draw(st.sampled_from(heads))
    numeric = sorted(a for a in attrs if a.startswith(("v", "w")))
    if head in ("select", "group", "empty-key", "agg", "avg") and (
            not numeric or head in ("select", "group") and "g" not in attrs):
        core, numeric = NaturalJoin(core, Table("R")), sorted({*numeric, "v"})
    if head == "select":
        attr, monoid = draw(st.sampled_from(numeric)), draw(st.sampled_from(admitted))
        value = draw(st.sampled_from(VALUES + WEIGHTS + [15, 30]))
        op = draw(st.sampled_from(["=", "<", ">="]))
        condition = AttrEq(attr, value) if op == "=" else AttrCompare(attr, op, value)
        return Select(GroupBy(core, ["g"], {attr: monoid}), [condition])
    if head == "difference":
        other, other_attrs = draw(spju(1, without))
        if "g" in attrs and "g" in other_attrs:
            return Difference(Project(core, ("g",)), Project(other, ("g",)))
        return Difference(Project(Table("R"), ("g",)), Table("S"))
    if head in ("group", "empty-key"):
        count = semiring.has_hom_to_nat and draw(st.booleans())
        return GroupBy(core, ["g"] if head == "group" else [],
                       {draw(st.sampled_from(numeric)): draw(st.sampled_from(admitted))},
                       count_attr="n" if count else None)
    if head == "agg":
        attr = draw(st.sampled_from(numeric))
        return Aggregate(Project(core, (attr,)), attr, draw(st.sampled_from(admitted)))
    if head == "avg":
        attr = draw(st.sampled_from(numeric))
        return AvgAgg(Project(core, (attr,)), attr)
    if head == "count":
        return CountAgg(core, "n")
    if head == "distinct":
        return Distinct(core)
    return core


# ---------------------------------------------------------------------------
# homomorphisms out of N[X]
# ---------------------------------------------------------------------------

#: target -> (semiring, the images a token may take there)
TARGETS = {
    "N": (NAT, st.integers(0, 3)),
    "Z": (INT, st.integers(-2, 3)),
    "B": (BOOL, st.booleans()),
    "Trop": (TROPICAL, st.sampled_from([0.0, 1.0, 2.5, float("inf")])),
    "S": (SEC, st.sampled_from(list(SecurityLevel))),
}

#: Every registered homomorphism: a valuation into each target, and
#: deletion propagation (the endomorphism zeroing a set of tokens).
HOMS = [*TARGETS, "delete"]


def drawn_hom(data, name, tokens):
    """``(hom, target, image)``: a homomorphism out of N[X] and the token
    map it extends."""
    if name == "delete":
        deleted = data.draw(st.sets(st.sampled_from(tokens)) if tokens else st.just(set()),
                            label="deleted")
        image = lambda t: NX.zero if t in deleted else NX.variable(t)  # noqa: E731
        return deletion_hom(NX, deleted), NX, image
    target, values = TARGETS[name]
    valuation = {t: data.draw(values, label=f"{name}[{t}]") for t in tokens}
    return valuation_hom(NX, target, valuation), target, valuation.__getitem__
