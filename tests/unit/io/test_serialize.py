"""Unit tests for JSON serialisation round-trips."""

import math

import pytest

from repro.core import KDatabase, KRelation, Tup, aggregate, group_by
from repro.io import (
    SerializationError,
    annotation_from_jsonable,
    annotation_to_jsonable,
    dumps,
    loads,
    relation_from_jsonable,
    relation_to_jsonable,
    tensor_from_jsonable,
    tensor_to_jsonable,
)
from repro.monoids import AVG, MAX, MIN, SUM, AvgPair
from repro.semimodules import tensor_space
from repro.semirings import (
    BOOL,
    INT,
    NAT,
    NX,
    SEC,
    SECBAG,
    SECRET,
    TOP_SECRET,
    TROPICAL,
    ZX,
)


def roundtrip_annotation(semiring, value):
    return annotation_from_jsonable(semiring, annotation_to_jsonable(semiring, value))


class TestAnnotationRoundTrips:
    def test_concrete_semirings(self):
        cases = [
            (BOOL, True), (BOOL, False),
            (NAT, 0), (NAT, 42),
            (INT, -7),
            (SEC, SECRET),
            (TROPICAL, 2.5), (TROPICAL, math.inf),
        ]
        for semiring, value in cases:
            assert roundtrip_annotation(semiring, value) == value

    def test_secbag(self):
        v = SECBAG.plus(SECBAG.level(SECRET), SECBAG.from_int(3))
        assert roundtrip_annotation(SECBAG, v) == v

    def test_polynomials(self):
        x, y = NX.variables("x", "y")
        p = 2 * x * x * y + y + NX.from_int(3)
        assert roundtrip_annotation(NX, p) == p

    def test_delta_terms(self):
        x, y = NX.variables("x", "y")
        p = NX.delta(x + y) * x
        assert roundtrip_annotation(NX, p) == p

    def test_zx(self):
        x = ZX.variable("x")
        p = ZX.constant(-2) * x + ZX.one
        assert roundtrip_annotation(ZX, p) == p

    def test_equality_atoms_rejected(self):
        from repro.core.equality import EqualityAtom

        sp = tensor_space(NX, SUM)
        atom = EqualityAtom(sp.iota(1), sp.zero)
        with pytest.raises(SerializationError):
            annotation_to_jsonable(NX, NX.variable(atom))


class TestTensorRoundTrips:
    def test_symbolic_sum_tensor(self):
        sp = tensor_space(NX, SUM)
        x, y = NX.variables("x", "y")
        t = sp.add(sp.simple(x, 20), sp.simple(y + x, 10))
        assert tensor_from_jsonable(tensor_to_jsonable(t)) == t

    def test_min_tensor_with_infinity(self):
        sp = tensor_space(BOOL, MIN)
        t = sp.iota(5.0)
        assert tensor_from_jsonable(tensor_to_jsonable(t)) == t

    def test_avg_pairs(self):
        sp = tensor_space(NAT, AVG)
        t = sp.simple(2, AvgPair(30, 3))
        assert tensor_from_jsonable(tensor_to_jsonable(t)) == t


class TestRelationRoundTrips:
    def test_plain_relation(self):
        rel = KRelation.from_rows(
            NAT, ("a", "b"), [((1, "x"), 2), ((2, "y"), 3)]
        )
        assert relation_from_jsonable(relation_to_jsonable(rel)) == rel

    def test_aggregated_relation_with_tensor_values(self):
        x, y = NX.variables("x", "y")
        rel = KRelation.from_rows(
            NX, ("g", "v"), [(("a", 1), x), (("a", 2), y)]
        )
        grouped = group_by(rel, ["g"], {"v": SUM})
        assert relation_from_jsonable(relation_to_jsonable(grouped)) == grouped

    def test_dumps_loads_relation(self):
        rel = KRelation.from_rows(BOOL, ("a",), [((1,), True)])
        assert loads(dumps(rel)) == rel

    def test_dumps_loads_database(self):
        db = KDatabase(NAT)
        db.add("R", KRelation.from_rows(NAT, ("a",), [((1,), 2)]))
        db.add("S", KRelation.from_rows(NAT, ("b",), [(("x",), 1)]))
        restored = loads(dumps(db))
        assert restored["R"] == db["R"]
        assert restored["S"] == db["S"]

    def test_bad_payload(self):
        from repro.core import GroupBy, Table
        from repro.ivm import MaterializedView

        with pytest.raises(SerializationError):
            loads('{"kind": "mystery", "data": {}}')
        # a view's state is not persisted: a view does not dump, and the
        # kind earlier builds wrote for it is unknown
        db = KDatabase(NAT, {"R": KRelation.from_rows(NAT, ("g", "v"), [(("a", 1), 1)])})
        view = MaterializedView.create(db, GroupBy(Table("R"), ["g"], {"v": SUM}))
        with pytest.raises(SerializationError, match="cannot serialise MaterializedView"):
            dumps(view)
        with pytest.raises(SerializationError, match="unknown payload kind 'view_state'"):
            loads('{"kind": "view_state", "data": {"head": "group", "semiring": "N", '
                  '"query": "GB[g; SUM(v)](R)", "state": []}}')

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '"x"',
            "3",
            "null",
            "not json",
            '{"data": {}}',
            '{"kind": ["relation"], "data": {}}',
            '{"kind": "relation"}',
            '{"kind": "relation", "data": []}',
            '{"kind": "relation", "data": {"semiring": "N", "schema": ["a"]}}',
            '{"kind": "database", "data": {"semiring": "nope", "relations": {}}}',
            '{"kind": "view_state", "data": {"semiring": "N", "state": {}}}',
            '{"kind": "view_state", "data": {"semiring": "N", "state": [{"key": []}]}}',
        ],
    )
    def test_malformed_payloads_raise_serialization_error(self, text):
        with pytest.raises(SerializationError):
            loads(text)

    def test_full_workflow_survives_persistence(self):
        # aggregate, persist, restore, THEN specialise — the stored
        # provenance is still live
        from repro.semirings import valuation_hom

        x, y = NX.variables("x", "y")
        rel = KRelation.from_rows(NX, ("v",), [((10,), x), ((20,), y)])
        agg = aggregate(rel, "v", SUM)
        restored = loads(dumps(agg))
        (t,) = restored.support()
        h = valuation_hom(NX, NAT, {"x": 3, "y": 1})
        assert t["v"].apply_hom(h).collapse() == 50
