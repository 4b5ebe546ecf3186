"""Property suite: an encoding carried across ``KDatabase.update`` is the
encoding a from-scratch build would give.

An update *is* a delta — ``(R ∪ ΔR)(t) = R(t) +_K ΔR(t)`` — so after a
pure insert the cached batch of a table is the old batch followed by the
encoded delta (:func:`repro.plan.encoded.carry_forward`).  Random streams
of pure inserts, key collisions, ``Z``-deletions, disqualifying and
re-qualifying deltas, multi-table batches and ``add``\\ s drive a database
whose tables are warm in the cache; after every step the cached batch
must decode to the rows of ``encode_relation`` on the new relation, and
the interpreter, the object tier, the encoded tier and the parallel tier
must agree.  Old batches are immutable: a snapshot pinned before the
stream, and a plan compiled against it, still give the original answer
at the end.
"""

import sys
import threading

import pytest

pytest.importorskip("numpy")  # the encoded tier exists only with NumPy

from hypothesis import given, settings, strategies as st

from repro.core import GroupBy, KDatabase, KRelation, NaturalJoin, Project, Table
from repro.monoids import SUM
from repro.plan import compile_plan
from repro.plan.encoded import EncodedColumn, encode_relation, encoded_scan
from repro.semirings import INT, NAT

GROUPS = ["g1", "g2", "g3", "g4"]
REGIONS = ["EU", "US"]
UNFIT = 1 << 40  # outside the int64-safe range: disqualifies the table

JOIN = NaturalJoin(Table("R"), Table("S"))
#: (semiring, the join+group-by each tier answers, whether deltas may delete).
#: ``Z`` aggregates through no compatibility witness, so its stream checks
#: the join + projection (a sum of products) and carries the deletions.
STREAMS = [
    (NAT, GroupBy(JOIN, ["r"], {"v": SUM}), False),
    (INT, Project(JOIN, ("r",)), True),
]


def _decoded(batch):
    """The ``(row, annotation)`` pairs a batch holds, in batch order (a
    carried batch is positionally the from-scratch one: ``union`` stores a
    pure insert's rows after the old ones)."""
    columnar = batch.to_columnar()
    attrs = columnar.schema.attributes
    return list(zip(columnar.key_rows(attrs), columnar.annotations))


def check_cache_matches_fresh_encode(db):
    for name, rel in db:
        cached = encoded_scan(db, name, rel)
        fresh = encode_relation(rel)
        assert (cached is None) == (fresh is None), name
        if fresh is None:
            continue
        assert _decoded(cached) == _decoded(fresh), name
        assert cached.anns_one == fresh.anns_one, name
        assert cached.ann_bound >= fresh.ann_bound, name


def check_tiers_agree(db, query, live_plan):
    interpreted = query.evaluate(db, engine="interpreted")
    assert compile_plan(query, db, tier="object").execute() == interpreted
    assert compile_plan(query, db, tier="encoded").execute() == interpreted
    assert compile_plan(query, db, tier="parallel").execute() == interpreted
    # a plan prepared before the stream: its scan and join-build caches
    # must notice every replaced batch
    assert live_plan.execute() == interpreted


@st.composite
def step(draw, deletes):
    kinds = ["insert", "insert", "collide", "disqualify", "requalify", "multi", "add"]
    if deletes:
        kinds.append("delete")
    return (
        draw(st.sampled_from(kinds)),
        draw(st.integers(1, 4)),
        draw(st.randoms(use_true_random=False)),
    )


def apply_step(db, semiring, kind, size, rng, fresh_keys):
    """One write of ``kind`` against ``db`` (tables R(k, g, v), S(g, r))."""
    r = db.relation("R")
    stored = list(r.rows())

    def fresh_rows(annotation=1):
        return [
            ((next(fresh_keys), rng.choice(GROUPS), rng.choice([5, 10, 20])), annotation)
            for _ in range(size)
        ]

    def delta(rows):
        return KRelation.from_rows(semiring, ("k", "g", "v"), rows)

    if kind == "insert":
        db.update({"R": delta(fresh_rows(rng.choice([1, 2])))})
    elif kind == "collide" and stored:
        tup, _ann = rng.choice(stored)
        db.update({"R": delta(fresh_rows() + [(tup.values_by(r.schema), 1)])})
    elif kind == "delete" and stored:
        tup, ann = rng.choice(stored)
        db.update({"R": delta([(tup.values_by(r.schema), -ann)])})
    elif kind == "disqualify":
        db.update({"R": delta(fresh_rows() + fresh_rows(UNFIT)[:1])})
    elif kind == "requalify":
        # replacing the table is the one way to drop an unfit row in N
        fit = [(t.values_by(r.schema), a) for t, a in stored if abs(a) < UNFIT]
        db.add("R", delta(fit))
    elif kind == "multi":
        new_group = f"g{next(fresh_keys)}"
        db.update({
            "R": delta([((next(fresh_keys), new_group, 10), 1)]),
            "S": KRelation.from_rows(
                semiring, ("g", "r"), [((new_group, rng.choice(REGIONS)), 1)]
            ),
        })
    elif kind == "add":
        db.add("S", db.relation("S"))  # same rows, new version
    else:  # nothing stored to collide with or delete
        db.update({"R": delta(fresh_rows())})


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_carried_encoding_equals_fresh_encoding_after_every_step(data):
    semiring, query, deletes = data.draw(st.sampled_from(STREAMS))
    fresh_keys = iter(range(1000, 10**9))
    base = [((k, GROUPS[k % 3], 5 * (1 + k % 4)), 1 + k % 2) for k in range(12)]
    db = KDatabase(semiring, {
        "R": KRelation.from_rows(semiring, ("k", "g", "v"), base),
        "S": KRelation.from_rows(
            semiring, ("g", "r"), [((g, REGIONS[i % 2]), 1) for i, g in enumerate(GROUPS)]
        ),
    })
    live_plan = compile_plan(query, db, tier="encoded")
    pinned = db.snapshot()
    pinned_plan = compile_plan(query, pinned, tier="encoded")
    original = query.evaluate(pinned, engine="interpreted")
    assert pinned_plan.execute() == original  # warms the cache and the build
    steps = data.draw(st.lists(step(deletes), min_size=1, max_size=6))
    for kind, size, rng in steps:
        apply_step(db, semiring, kind, size, rng, fresh_keys)
        check_cache_matches_fresh_encode(db)
        check_tiers_agree(db, query, live_plan)
    # the old batches were never touched
    assert pinned_plan.execute() == original
    assert query.evaluate(pinned, engine="planned") == original


def test_unread_column_stays_a_thunk_and_folds_without_recursion():
    rows = [((k, GROUPS[k % 4]), 1) for k in range(50)]
    db = KDatabase(NAT, {"R": KRelation.from_rows(NAT, ("k", "g"), rows)})
    encoded_scan(db, "R", db.relation("R"))
    for k in range(1000):
        db.update({"R": KRelation.from_rows(NAT, ("k", "g"), [((10_000 + k, "g1"), 1)])})
        batch = encoded_scan(db, "R", db.relation("R"))
        batch.col("g")  # the read column extends write by write
    assert not isinstance(batch.cols["k"], EncodedColumn)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(400)  # far below the 1 000 pending writes
    try:
        keys = batch.col("k")
    finally:
        sys.setrecursionlimit(limit)
    assert len(keys.values) == len(keys) == 1050
    assert _decoded(batch) == _decoded(encode_relation(db.relation("R")))


def test_readers_on_fresh_snapshots_agree_with_the_interpreter():
    """Four readers pin fresh snapshots while a writer inserts (and now and
    then collides): each planned answer equals the interpreter's on the
    same pinned version."""
    query = GroupBy(JOIN, ["r"], {"v": SUM})
    db = KDatabase(NAT, {
        "R": KRelation.from_rows(
            NAT, ("k", "g", "v"), [((k, GROUPS[k % 4], 10), 1) for k in range(200)]
        ),
        "S": KRelation.from_rows(
            NAT, ("g", "r"), [((g, REGIONS[i % 2]), 1) for i, g in enumerate(GROUPS)]
        ),
    })
    query.evaluate(db, engine="planned")  # warm
    done = threading.Event()
    errors = []
    reads = [0] * 4

    def reader(i):
        try:
            while not done.is_set():
                snap = db.snapshot()
                planned = query.evaluate(snap, engine="planned")
                assert planned == query.evaluate(snap, engine="interpreted")
                reads[i] += 1
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)
            done.set()

    def writer():
        try:
            for k in range(150):
                key = k // 2 if k % 10 == 9 else 1000 + k  # every tenth collides
                db.update({"R": KRelation.from_rows(
                    NAT, ("k", "g", "v"), [((key, GROUPS[key % 4], 10), 1)])})
        except BaseException as exc:
            errors.append(exc)
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    threads.append(threading.Thread(target=writer))
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    assert all(reads)
    check_cache_matches_fresh_encode(db)
