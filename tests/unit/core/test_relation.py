"""Unit tests for K-relations."""

import copy
import pickle

import pytest

from repro.core import KRelation, Tup
from repro.core.operators import union
from repro.exceptions import SchemaError, SemiringError
from repro.io.serialize import relation_from_jsonable, relation_to_jsonable
from repro.monoids import SUM
from repro.obs.metrics import RELATION_FLATTENS
from repro.semimodules import tensor_space
from repro.semirings import BOOL, INT, NAT, NX, deletion_hom, valuation_hom


class TestConstruction:
    def test_from_rows(self):
        r = KRelation.from_rows(NAT, ("a", "b"), [((1, "x"), 2), ((2, "y"), 3)])
        assert len(r) == 2
        assert r.annotation(Tup({"a": 1, "b": "x"})) == 2

    def test_zero_annotations_dropped(self):
        r = KRelation.from_rows(NAT, ("a",), [((1,), 0), ((2,), 5)])
        assert len(r) == 1
        assert Tup({"a": 1}) not in r

    def test_duplicate_tuples_merge_with_plus(self):
        r = KRelation.from_rows(NAT, ("a",), [((1,), 2), ((1,), 3)])
        assert r.annotation(Tup({"a": 1})) == 5

    def test_schema_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            KRelation(NAT, ("a",), [(Tup({"b": 1}), 1)])

    def test_empty(self):
        r = KRelation.empty(NAT, ("a",))
        assert not r
        assert len(r) == 0

    def test_unsupported_annotation_is_zero(self):
        r = KRelation.from_rows(NAT, ("a",), [((1,), 2)])
        assert r.annotation(Tup({"a": 99})) == 0


class TestAccess:
    def test_support_deterministic(self):
        r = KRelation.from_rows(NAT, ("a",), [((3,), 1), ((1,), 1), ((2,), 1)])
        assert r.support() == tuple(sorted(r.support(), key=str))

    def test_equality(self):
        r1 = KRelation.from_rows(NAT, ("a",), [((1,), 2)])
        r2 = KRelation.from_rows(NAT, ("a",), [((1,), 2)])
        r3 = KRelation.from_rows(NAT, ("a",), [((1,), 3)])
        assert r1 == r2
        assert r1 != r3
        assert hash(r1) == hash(r2)

    def test_contains_and_iter(self):
        r = KRelation.from_rows(NAT, ("a",), [((1,), 2)])
        assert Tup({"a": 1}) in r
        assert list(r) == [Tup({"a": 1})]


class TestApplyHom:
    def test_annotations_mapped(self):
        x, y = NX.variables("x", "y")
        r = KRelation.from_rows(NX, ("a",), [((1,), x), ((2,), y)])
        h = valuation_hom(NX, NAT, {"x": 3, "y": 0})
        image = r.apply_hom(h)
        assert image.semiring is NAT
        assert image.annotation(Tup({"a": 1})) == 3
        assert len(image) == 1  # y-tuple dropped

    def test_source_mismatch_rejected(self):
        r = KRelation.from_rows(NAT, ("a",), [((1,), 2)])
        with pytest.raises(SemiringError):
            r.apply_hom(valuation_hom(NX, NAT, {}))

    def test_tensor_values_lifted(self):
        sp = tensor_space(NX, SUM)
        x = NX.variable("x")
        value = sp.simple(x, 20)
        r = KRelation(NX, ("v",), [(Tup({"v": value}), NX.one)])
        h = valuation_hom(NX, NAT, {"x": 2})
        image = r.apply_hom(h)
        (t,) = image.support()
        assert t["v"].collapse() == 40

    def test_merging_duplicates_ignored_not_summed(self):
        # two tuples whose tensor values become equal after the hom and whose
        # annotations agree merge into one tuple ("duplicates are ignored")
        sp = tensor_space(NX, SUM)
        x, y = NX.variables("x", "y")
        r = KRelation(
            NX,
            ("v",),
            [
                (Tup({"v": sp.simple(x, 20)}), NX.from_int(2)),
                (Tup({"v": sp.simple(y, 10)}), NX.from_int(2)),
            ],
        )
        h = valuation_hom(NX, NAT, {"x": 1, "y": 2})  # both become 20
        image = r.apply_hom(h)
        assert len(image) == 1
        assert image.annotation(Tup({"v": tensor_space(NAT, SUM).simple(1, 20)})) == 2

    def test_merging_with_disagreeing_annotations_raises(self):
        sp = tensor_space(NX, SUM)
        x, y = NX.variables("x", "y")
        r = KRelation(
            NX,
            ("v",),
            [
                (Tup({"v": sp.simple(x, 20)}), NX.from_int(2)),
                (Tup({"v": sp.simple(y, 10)}), NX.from_int(3)),
            ],
        )
        h = valuation_hom(NX, NAT, {"x": 1, "y": 2})
        with pytest.raises(SemiringError):
            r.apply_hom(h)

    def test_deletion_propagation_figure1(self):
        p1, p2, p3 = NX.variables("p1", "p2", "p3")
        r = KRelation.from_rows(NX, ("Dept",), [(("d1",), p1 + p2 + p3)])
        image = r.apply_hom(deletion_hom(NX, ["p3"]))
        assert image.annotation(Tup({"Dept": "d1"})) == p1 + p2


class TestMeasuresAndDisplay:
    def test_annotation_size(self):
        x, y = NX.variables("x", "y")
        r = KRelation.from_rows(NX, ("a",), [((1,), x * y + x), ((2,), NX.one)])
        # x*y + x: 2 terms, degrees 2+1 -> 5; constant 1 -> 1
        assert r.annotation_size() == 5 + 1

    def test_value_size_counts_tensors(self):
        sp = tensor_space(NX, SUM)
        x = NX.variable("x")
        value = sp.add(sp.simple(x, 20), sp.iota(10))
        r = KRelation(NX, ("v",), [(Tup({"v": value}), NX.one)])
        assert r.value_size() >= 2

    def test_pretty_renders_table(self):
        r = KRelation.from_rows(BOOL, ("a",), [((1,), True)])
        text = r.pretty()
        assert "a" in text and "@B" in text and "⊤" in text

    def test_pretty_max_rows(self):
        r = KRelation.from_rows(NAT, ("a",), [((i,), 1) for i in range(10)])
        text = r.pretty(max_rows=3)
        assert "..." in text


def _table(semiring, n, start=0):
    return KRelation.from_rows(semiring, ("k", "v"), [((i, i % 7), 1) for i in range(start, start + n)])


def _flat_copy(rel):
    """The same relation, built flat from scratch."""
    return KRelation(rel.semiring, rel.schema, dict(rel.rows()))


class TestVersions:
    """A union layers the smaller operand over the larger one's rows."""

    def test_small_insert_shares_the_old_map_unflattened(self):
        old = _table(NAT, 10_000)
        new = union(old, _table(NAT, 20, start=10_000))
        assert new._flat is None
        assert new._base is old._rows
        assert len(new) == 10_020 and len(old) == 10_000

    def test_layered_version_answers_from_its_layers(self):
        old = _table(INT, 1_000)
        gone, kept = Tup({"k": 3, "v": 3}), Tup({"k": 4, "v": 4})
        delta = KRelation(INT, ("k", "v"), [(gone, -1), (kept, 2), (Tup({"k": -1, "v": 0}), 5)])
        before = RELATION_FLATTENS.values()
        new = union(old, delta)
        assert len(new) == 1_000
        assert gone not in new and new.annotation(gone) == 0
        assert kept in new and new.annotation(kept) == 3
        assert new.annotation(Tup({"k": -1, "v": 0})) == 5
        assert RELATION_FLATTENS.values() == before
        # the first whole-map read flattens: base order, new keys, no tombstones
        rows = list(new.rows())
        assert RELATION_FLATTENS.values()[("read",)] == before[("read",)] + 1
        assert new._flat is not None and new._base is None and new._overlay is None
        assert rows[-1] == (Tup({"k": -1, "v": 0}), 5)
        assert (kept, 3) in rows and gone not in dict(rows)
        assert old == _table(INT, 1_000)

    def test_overlay_past_its_share_flattens_at_the_write(self):
        before = RELATION_FLATTENS.values()
        rel = _table(NAT, 1_000)
        for step in range(200):
            rel = union(rel, _table(NAT, 1, start=1_000 + step))
        after = RELATION_FLATTENS.values()
        assert after[("overlay",)] > before[("overlay",)]
        assert after[("read",)] == before[("read",)]
        assert rel == _table(NAT, 1_200)

    def test_a_large_merge_flattens_at_once_in_flat_merge_order(self):
        # the larger side is itself layered (a cancelled key, a collided
        # key, a new key); the smaller side collides, cancels, re-inserts
        # and adds keys, far past the overlay share
        def layered():
            return union(_table(INT, 1_000), KRelation(INT, ("k", "v"), [
                (Tup({"k": 1, "v": 1}), -1), (Tup({"k": 2, "v": 2}), 5),
                (Tup({"k": -1, "v": 0}), 1)]))

        old = layered()
        assert old._flat is None
        delta = KRelation(INT, ("k", "v"), [
            (Tup({"k": 1, "v": 1}), 4), (Tup({"k": -1, "v": 0}), -1),
            (Tup({"k": 2, "v": 2}), -6)]
            + [(Tup({"k": i, "v": i % 7}), 1 if i % 3 else -1) for i in range(3, 700)])
        reference = dict(layered().rows())
        for tup, annotation in delta.rows():
            total = reference.get(tup, 0) + annotation
            if total:
                reference[tup] = total
            else:
                del reference[tup]
        before = RELATION_FLATTENS.values()
        new = union(delta, old)
        after = RELATION_FLATTENS.values()
        assert after[("overlay",)] == before[("overlay",)] + 1
        assert new._flat is not None and new._base is None
        assert list(new.rows()) == list(reference.items())
        assert len(new) == len(reference)

    def test_a_reinserted_key_moves_after_the_old_rows(self):
        old = _table(INT, 1_000)
        key = Tup({"k": 5, "v": 5})
        gone = union(old, KRelation(INT, ("k", "v"), [(key, -1)]))
        back = union(gone, KRelation(INT, ("k", "v"), [(key, 1)]))
        assert list(back.rows()) == list(gone.rows()) + [(key, 1)]

    @pytest.mark.parametrize("clone", [
        lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy,
        lambda r: relation_from_jsonable(relation_to_jsonable(r)),
    ], ids=["pickle", "copy", "deepcopy", "serialize"])
    def test_layered_version_round_trips_as_a_flat_relation(self, clone):
        old = _table(INT, 2_000)
        delta = KRelation.from_rows(INT, ("k", "v"), [((i, i % 7), -1) for i in range(100)])
        new = union(old, delta)
        assert new._flat is None
        copied = clone(new)
        assert copied == _flat_copy(new) and len(copied) == 1_900
        assert copied._flat is not None

    def test_a_pickle_carries_no_base(self):
        old = _table(INT, 2_000)
        delta = KRelation.from_rows(INT, ("k", "v"), [((i, i % 7), -1) for i in range(100)])
        new = union(old, delta)
        assert len(pickle.dumps(new)) == len(pickle.dumps(_flat_copy(new)))
        assert len(pickle.dumps(new)) < len(pickle.dumps(old))
