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

A circuit plan's answer over ``N[X]`` is the same class holding the
gates: a valuation into ``N``, ``B`` or tropical evaluates them without
lowering and equals the expanded answer's image, two evaluations compare
equal without lowering, and any other homomorphism lowers first.
"""

from hypothesis import given, settings, strategies as st

from repro.core import KDatabase, KRelation
from repro.obs.metrics import ENCODED_KERNEL
from repro.semirings import BOOL, INT, NAT, NX, TROPICAL
from repro.semirings.homomorphism import deletion_hom, valuation_hom

from strategies import TARGETS, database, query

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


def gate_lowerings():
    return ENCODED_KERNEL.values().get(("lower", "gates"), 0)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_circuit_answer_specialises_as_the_expanded_one_without_lowering(data):
    db, tokens = data.draw(database(NX), label="db")
    q = data.draw(query(NX), label="query")
    circuit = q.evaluate(db, engine="planned", annotations="circuit")
    expanded = q.evaluate(db, engine="planned")
    assert isinstance(circuit, KRelation) and circuit.semiring is NX
    before = gate_lowerings()
    assert len(circuit) == len(circuit.circuit_relation)
    assert circuit == q.evaluate(db, engine="planned", annotations="circuit")
    valuations = {}
    for name in ("N", "B", "Trop"):
        target, values = TARGETS[name]
        valuation = {t: data.draw(values, label=f"{name}[{t}]") for t in tokens}
        hom = valuation_hom(NX, target, valuation)
        assert circuit.apply_hom(hom) == expanded.apply_hom(hom)
        valuations[name] = valuation
    assert gate_lowerings() == before and circuit._lowered is None
    walked = valuation_hom(NX, NAT, valuations["N"], coeff_hom=lambda c: c)
    composite = deletion_hom(NX, set(tokens[:1])).then(walked)
    for hom in (walked, composite):
        assert circuit.apply_hom(hom) == expanded.apply_hom(hom)
    assert gate_lowerings() == before + 1
    assert len(circuit) == len(circuit.lower()) and circuit == expanded
