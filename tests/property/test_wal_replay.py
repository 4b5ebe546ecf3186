"""Property suite: WAL replay reconstructs the in-memory database.

The durability contract, stated as an algebraic property: for *any*
stream of ``add``/``update`` operations over *any* supported semiring,
closing the manager and re-opening the directory yields a database whose
contents, value and annotation types included, equal the in-memory
one's — whatever mix of
checkpoints and WAL tail recovery finds, and wherever checkpoints were
interleaved into the stream.  Replay coalescing (runs of update records
folded into one union per relation) makes this worth randomising: the
recovered state must be *identical*, not merely equivalent, under every
interleaving of adds, updates, deletions (Z's additive inverses,
``N[X]``'s token cancellation) and checkpoint boundaries.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import KRelation
from repro.core.schema import Schema
from repro.semirings import INT, NAT, NX
from repro.wal import DurabilityManager

GROUPS = ["g1", "g2", "g3"]
#: 3.0 equals an int: a replay that stored it back as 3 would pass ``==``
VALUES = [1, 2, 5, 3.0]

SCHEMA = Schema(("g", "v"))


def _annotation(semiring, token, sign):
    if semiring is NAT:
        return 1
    if semiring is INT:
        return sign
    # N[X]: a fresh token per insertion; deletion is its additive
    # inverse at the Z[X]-like level — NX has no inverses, so deletions
    # in NX re-add (cancellation is exercised through INT instead)
    return NX.variable(f"x{token}")


def _ops_strategy():
    """A stream of (kind, relation, rows) operations."""
    row = st.tuples(st.sampled_from(GROUPS), st.sampled_from(VALUES))
    update = st.tuples(
        st.just("update"),
        st.sampled_from(["R", "S"]),
        st.lists(row, min_size=1, max_size=4),
    )
    add = st.tuples(
        st.just("add"),
        st.sampled_from(["R", "S"]),
        st.lists(row, min_size=0, max_size=3),
    )
    checkpoint = st.tuples(st.just("checkpoint"), st.just(""), st.just([]))
    return st.lists(
        st.one_of(update, update, add, checkpoint), min_size=1, max_size=14
    )


def _drive(manager, semiring, ops, *, signs):
    """Apply a random op stream to ``manager``."""
    token = 0
    for kind, name, rows in ops:
        if kind == "checkpoint":
            manager.checkpoint()
            continue
        pairs = []
        for row in rows:
            sign = signs[token % len(signs)] if semiring is INT else 1
            pairs.append((row, _annotation(semiring, token, sign)))
            token += 1
        relation = KRelation.from_rows(semiring, SCHEMA, pairs)
        if kind == "add" or name not in manager.db:
            manager.add(name, relation)
        else:
            manager.update({name: relation})


@pytest.mark.parametrize("semiring", [NAT, INT, NX], ids=["N", "Z", "N[X]"])
@given(ops=_ops_strategy(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_replay_reconstructs_the_database_exactly(tmp_path_factory, typed_contents,
                                                  semiring, ops, data):
    directory = tmp_path_factory.mktemp("wal")
    signs = data.draw(
        st.lists(st.sampled_from([1, 1, 1, -1]), min_size=4, max_size=4)
    )
    manager = DurabilityManager.open(directory, semiring=semiring,
                                     fsync="none")
    try:
        _drive(manager, semiring, ops, signs=signs)
        expected = typed_contents(manager.db)
    finally:
        manager.close()

    recovered = DurabilityManager.open(directory)
    try:
        assert typed_contents(recovered.db) == expected
        # recovery is idempotent: a second boot sees the same state
        stats = recovered.stats()
        assert stats["unwritable"] is False
    finally:
        recovered.close()

    again = DurabilityManager.open(directory)
    try:
        assert typed_contents(again.db) == expected
    finally:
        again.close()


@given(ops=_ops_strategy())
@settings(max_examples=10, deadline=None)
def test_z_deletion_to_empty_support_round_trips(tmp_path_factory, typed_contents, ops):
    """Insert-then-cancel in Z: replay must preserve exact cancellation."""
    directory = tmp_path_factory.mktemp("walz")
    manager = DurabilityManager.open(directory, semiring=INT, fsync="none")
    try:
        manager.add("R", KRelation.from_rows(INT, SCHEMA, []))
        inserted = []
        for kind, name, rows in ops:
            if kind != "update" or not rows:
                continue
            manager.update(
                {"R": KRelation.from_rows(INT, SCHEMA, [(r, 1) for r in rows])}
            )
            inserted.extend(rows)
        # cancel everything, one inverse per insertion
        if inserted:
            manager.update(
                {"R": KRelation.from_rows(INT, SCHEMA, [(r, -1) for r in inserted])}
            )
        assert len(manager.db.relation("R")) == 0
        expected = typed_contents(manager.db)
    finally:
        manager.close()
    recovered = DurabilityManager.open(directory)
    try:
        assert len(recovered.db.relation("R")) == 0
        assert typed_contents(recovered.db) == expected
    finally:
        recovered.close()
