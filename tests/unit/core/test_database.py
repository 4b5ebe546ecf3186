"""Unit tests for KDatabase."""

import pytest

from repro.core import KDatabase, KRelation, Tup
from repro.exceptions import QueryError, SemiringError
from repro.semirings import BOOL, NAT, NX, valuation_hom


def sample_db():
    db = KDatabase(NAT)
    db.add("R", KRelation.from_rows(NAT, ("a",), [((1,), 2)]))
    db.add("S", KRelation.from_rows(NAT, ("b",), [(("x",), 1)]))
    return db


class TestDatabase:
    def test_lookup(self):
        db = sample_db()
        assert db["R"].annotation(Tup({"a": 1})) == 2
        assert db.relation("S") is db["S"]

    def test_missing_relation(self):
        with pytest.raises(QueryError):
            sample_db()["nope"]

    def test_contains_and_names(self):
        db = sample_db()
        assert "R" in db and "nope" not in db
        assert db.names() == ("R", "S")

    def test_semiring_mismatch_rejected(self):
        db = sample_db()
        with pytest.raises(SemiringError):
            db.add("T", KRelation.from_rows(BOOL, ("a",), [((1,), True)]))

    def test_replacement_allowed(self):
        db = sample_db()
        db.add("R", KRelation.from_rows(NAT, ("a",), [((9,), 1)]))
        assert db["R"].annotation(Tup({"a": 9})) == 1

    def test_iteration_sorted(self):
        db = sample_db()
        assert [name for name, _rel in db] == ["R", "S"]

    def test_apply_hom_maps_every_relation(self):
        x = NX.variable("x")
        db = KDatabase(NX)
        db.add("R", KRelation.from_rows(NX, ("a",), [((1,), x)]))
        db.add("S", KRelation.from_rows(NX, ("b",), [((2,), x * x)]))
        image = db.apply_hom(valuation_hom(NX, NAT, {"x": 3}))
        assert image.semiring is NAT
        assert image["R"].annotation(Tup({"a": 1})) == 3
        assert image["S"].annotation(Tup({"b": 2})) == 9

    def test_pretty_mentions_all_relations(self):
        text = sample_db().pretty()
        assert "R:" in text and "S:" in text


class TestVersionStamps:
    def test_add_bumps_version(self):
        db = KDatabase(NAT)
        v0 = db.version
        db.add("R", KRelation.from_rows(NAT, ("a",), [((1,), 2)]))
        assert db.version > v0
        v1 = db.version
        db.add("R", KRelation.from_rows(NAT, ("a",), [((1,), 3)]))
        assert db.version > v1

    def test_update_unions_and_bumps(self):
        db = sample_db()
        v0 = db.version
        db.update({"R": KRelation.from_rows(NAT, ("a",), [((1,), 1), ((5,), 4)])})
        assert db.version > v0
        assert db["R"].annotation(Tup({"a": 1})) == 3  # 2 + 1
        assert db["R"].annotation(Tup({"a": 5})) == 4

    def test_update_accepts_a_database(self):
        db = sample_db()
        deltas = KDatabase(NAT, {"R": KRelation.from_rows(NAT, ("a",), [((7,), 1)])})
        db.update(deltas)
        assert db["R"].annotation(Tup({"a": 7})) == 1

    def test_update_requires_existing_relation(self):
        db = sample_db()
        with pytest.raises(QueryError):
            db.update({"nope": KRelation.from_rows(NAT, ("a",), [((1,), 1)])})

    def test_update_with_negative_annotations_deletes(self):
        from repro.semirings import INT

        db = KDatabase(INT, {"R": KRelation.from_rows(INT, ("a",), [((1,), 1), ((2,), 1)])})
        db.update({"R": KRelation.from_rows(INT, ("a",), [((1,), 1)]).negated()})
        assert len(db["R"]) == 1
        assert db["R"].annotation(Tup({"a": 1})) == 0

    def test_negated_requires_a_ring(self):
        rel = KRelation.from_rows(NAT, ("a",), [((1,), 1)])
        with pytest.raises(SemiringError):
            rel.negated()

    def test_update_is_atomic_on_bad_deltas(self):
        db = sample_db()
        before_r = db["R"]
        before_version = db.version
        with pytest.raises(Exception):
            db.update({
                "R": KRelation.from_rows(NAT, ("a",), [((1,), 1)]),
                "S": KRelation.from_rows(NAT, ("wrong",), [((1,), 1)]),
            })
        # nothing was folded and the version did not move
        assert db["R"] is before_r
        assert db.version == before_version

    def test_adopt_takes_the_folded_versions_themselves(self):
        """A clone that adopts what the root folded equals a clone that
        folds the batch itself, and holds the root's very versions."""
        root = sample_db()
        clone = KDatabase(NAT, dict(iter(root)))
        twin = KDatabase(NAT, dict(iter(root)))
        delta = {"R": KRelation.from_rows(NAT, ("a",), [((1,), 1), ((7,), 3)])}
        root.update(delta)
        version = clone.version
        clone.adopt(root, delta)
        twin.update(delta)
        assert clone.version == version + 1
        assert clone["R"] is root["R"] and clone["R"] == twin["R"]
        assert clone["S"] is twin["S"]
        clone.adopt(root, {})
        assert clone.version == version + 1
        with pytest.raises(QueryError):
            root.snapshot().adopt(root, delta)
