"""Property suite: a relation version is a value, however it is stored.

``KDatabase.update`` folds a delta in with ``union`` — pointwise ``+_K``
— and a small delta leaves the new version *layered* over its
predecessor's rows (shared, never mutated) with a small overlay of
inserted, re-summed and cancelled rows.  Random streams of 1–60 deltas
over ``N`` and ``Z`` — fresh keys, collisions, exact cancellations to
``0_Z``, re-inserts of cancelled keys, deltas larger than their table —
drive a database; after every step the new version must answer ``len``,
``in`` and ``annotation`` from its layers as an eager dict-merge
reference does, and — on the steps that read the whole map, which
flattens it — compare equal to the reference; every version pinned by
``db.snapshot()`` along the way must still equal its own reference at
the end.  With NumPy the table's encoding is warm in the cache, so pure
inserts carry it forward: the cached batch must decode to the version's
rows in the version's own order, across overlay flattens too.
"""

from hypothesis import given, settings, strategies as st

from strategies import GROUPS, VALUES

from repro.core import KDatabase, KRelation, Schema, Tup
from repro.obs.metrics import RELATION_FLATTENS
from repro.plan.kernels import HAVE_NUMPY
from repro.semirings import INT, NAT

ATTRS = ("k", "g", "v")
SCHEMA = Schema(ATTRS)
BASE_ROWS = 160  # a delta of a few rows stays well under the overlay share


def tup(key):
    return Tup(dict(zip(ATTRS, key)))


def key_of(k):
    return (k, GROUPS[k % len(GROUPS)], VALUES[k % len(VALUES)])


def merged(reference, rows):
    """The eager dict-merge: ``reference`` with ``rows`` added pointwise."""
    out = dict(reference)
    for key, annotation in rows:
        total = out.get(key, 0) + annotation
        if total == 0:
            out.pop(key, None)
        else:
            out[key] = total
    return out


def as_relation(semiring, reference):
    return KRelation.from_rows(semiring, ATTRS, list(reference.items()))


@st.composite
def delta_spec(draw, deletes):
    """Counts per row kind; ``big`` makes the delta outgrow its table."""
    return {
        "fresh": draw(st.integers(0, 4)),
        "collide": draw(st.integers(0, 3)),
        "cancel": draw(st.integers(0, 3)) if deletes else 0,
        "reinsert": draw(st.integers(0, 2)) if deletes else 0,
        "big": draw(st.integers(0, 9)) == 0,
        "look": draw(st.booleans()),
        "rng": draw(st.randoms(use_true_random=False)),
    }


def delta_rows(spec, reference, cancelled, fresh_keys):
    """The delta's ``(key, annotation)`` rows; updates ``cancelled``."""
    rng = spec["rng"]
    present = sorted(reference)
    rows = [(key_of(next(fresh_keys)), rng.choice([1, 2])) for _ in range(spec["fresh"])]
    if spec["big"]:
        # every stored key collides, plus one fresh row: |Δ| > |R|
        rows += [(key, 1) for key in present]
        rows.append((key_of(next(fresh_keys)), 1))
    else:
        rows += [(key, rng.choice([1, 3])) for key in rng.sample(present, min(spec["collide"], len(present)))]
    doomed = rng.sample(present, min(spec["cancel"], len(present)))
    # cancel exactly: the delta's other rows for the key count too
    pending = merged({}, rows)
    rows += [(key, -(reference[key] + pending.get(key, 0))) for key in doomed
             if reference[key] + pending.get(key, 0) != 0]
    back = rng.sample(sorted(cancelled), min(spec["reinsert"], len(cancelled)))
    rows += [(key, rng.choice([1, 2])) for key in back]
    after = merged(reference, rows)
    cancelled |= {key for key in reference if key not in after}
    cancelled -= set(after)
    return rows


def check_version(rel, reference, cancelled, absent, look=True):
    """``len``, ``in`` and ``annotation`` (they read the layers), then,
    if ``look``, the whole map against the reference — a read that
    flattens the version, so the next one layers over a flat map."""
    assert len(rel) == len(reference)
    assert bool(rel) == bool(reference)
    for key, annotation in list(reference.items())[-8:]:
        assert tup(key) in rel
        assert rel.annotation(tup(key)) == annotation
    for key in list(cancelled)[:8] + [absent]:
        assert tup(key) not in rel
        assert rel.annotation(tup(key)) == 0
    if not look:
        return
    assert {t.values_by(rel.schema): k for t, k in rel.rows()} == reference
    assert rel == as_relation(rel.semiring, reference)


def check_carried_batch(db, rel):
    """The table's cached encoding decodes to ``rel``'s rows, in order."""
    from repro.plan.encoded import encode_relation, encoded_scan

    def decoded(batch):
        columnar = batch.to_columnar()
        return list(zip(columnar.key_rows(ATTRS), columnar.annotations))

    cached = encoded_scan(db, "R", rel)
    assert decoded(cached) == [(t.values_by(SCHEMA), k) for t, k in rel.rows()]
    assert decoded(cached) == decoded(encode_relation(rel))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_version_equals_its_eager_reference(data):
    semiring, deletes = data.draw(st.sampled_from([(NAT, False), (INT, True)]))
    fresh_keys = iter(range(BASE_ROWS, 10**9))
    reference = {key_of(k): 1 + k % 2 for k in range(BASE_ROWS)}
    db = KDatabase(semiring, {"R": as_relation(semiring, reference)})
    if HAVE_NUMPY:
        check_carried_batch(db, db.relation("R"))  # warm: inserts now carry
    pinned = [(db.snapshot(), reference)]
    cancelled = set()
    specs = data.draw(st.lists(delta_spec(deletes), min_size=1, max_size=60))
    for spec in specs:
        rows = delta_rows(spec, reference, cancelled, fresh_keys)
        db.update({"R": KRelation.from_rows(semiring, ATTRS, rows)})
        reference = merged(reference, rows)
        check_version(db.relation("R"), reference, cancelled, key_of(-1), spec["look"])
        if HAVE_NUMPY and spec["look"]:
            check_carried_batch(db, db.relation("R"))
        pinned.append((db.snapshot(), reference))
    for snapshot, expected in pinned:
        assert snapshot.relation("R") == as_relation(semiring, expected)


def test_pure_inserts_carry_the_encoding_across_overlay_flattens():
    """A long run of small inserts layers, flattens on overlay growth and
    layers again; the carried batch keeps matching, and no write reads
    (flattens) the version it wrote."""
    reference = {key_of(k): 1 for k in range(BASE_ROWS)}
    db = KDatabase(NAT, {"R": as_relation(NAT, reference)})
    if HAVE_NUMPY:
        check_carried_batch(db, db.relation("R"))
    before = RELATION_FLATTENS.values()
    fresh_keys = iter(range(BASE_ROWS, 10**9))
    for _ in range(40):
        rows = [(key_of(next(fresh_keys)), 1) for _ in range(3)]
        db.update({"R": KRelation.from_rows(NAT, ATTRS, rows)})
        reference = merged(reference, rows)
        assert len(db.relation("R")) == len(reference)
    after = RELATION_FLATTENS.values()
    assert after[("overlay",)] > before[("overlay",)]
    assert after[("read",)] == before[("read",)]
    check_version(db.relation("R"), reference, set(), key_of(-1))
    if HAVE_NUMPY:
        check_carried_batch(db, db.relation("R"))
