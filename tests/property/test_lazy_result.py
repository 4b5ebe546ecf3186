"""A planned result compares, hashes and counts as its lowered relation.

Over a machine semiring a plan whose root batch is encoded returns a
:class:`~repro.plan.term_result.TermResult` holding the root's arrays;
``len`` reads them and ``==`` compares them before it compares rows.
Each property draws a (semiring, database, query) from :mod:`strategies`
and a second database with the same relations written in another row
order (other dictionaries, the same value), so both the array comparison
and the row comparison are reached: ``a == b`` must answer as
``a.lower() == b.lower()`` does, both ways, and equal the interpreter's
result.
"""

from hypothesis import given, settings, strategies as st

from repro.core import KDatabase, KRelation
from repro.semirings import BOOL, INT, NAT, TROPICAL

from strategies import database, query

SEMIRINGS = [NAT, INT, BOOL, TROPICAL]


def lowered(rel):
    return rel.lower() if hasattr(rel, "lower") else rel


def reversed_db(db):
    """``db`` with every relation's rows written in reverse order."""
    return KDatabase(db.semiring, {
        name: KRelation._from_clean(rel.semiring, rel.schema, dict(reversed(rel._rows.items())))
        for name, rel in db
    })


@settings(max_examples=150, deadline=None)
@given(data=st.data(), semiring=st.sampled_from(SEMIRINGS))
def test_equality_hash_and_len_answer_as_the_lowered_relation(data, semiring):
    db, _tokens = data.draw(database(semiring), label="db")
    q = data.draw(query(semiring), label="query")
    other = data.draw(st.sampled_from(["same version", "reversed", "one more row"]))
    if other == "reversed":
        db2 = reversed_db(db)
    else:
        db2 = KDatabase(db.semiring, dict(db))
        if other == "one more row":
            db2.update({"R": KRelation.from_rows(semiring, ("g", "v"), [(("g9", 5), semiring.one)])})
    want = q.evaluate(db)
    a, b = q.evaluate(db, engine="planned"), q.evaluate(db2, engine="planned")
    assert len(a) == len(want)
    got = (a == b, b == a)
    assert got == (lowered(a) == lowered(b),) * 2
    assert a == want and hash(a) == hash(want)
    if other != "one more row":
        assert got == (True, True)
