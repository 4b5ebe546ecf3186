"""The schema-aware SPJU query generator shared by the property suites.

Base relations are R(g, v), S(g), T(g, w).  Each suite keeps its own
query head and database strategy and imports this module as a sibling
(``tests/property`` has no ``__init__.py``, so pytest puts the directory
itself on ``sys.path`` — the way ``test_parallel_tier`` imports
``test_encoded_tier``).
"""

from hypothesis import strategies as st

from repro.core import (
    AttrCompare,
    AttrEq,
    AttrEqAttr,
    Distinct,
    NaturalJoin,
    Project,
    Rename,
    Select,
    Table,
    Union,
    ValueJoin,
)

GROUPS = ["g1", "g2", "g3"]
VALUES = [5, 10, 20]
WEIGHTS = [1, 2, 7]


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
