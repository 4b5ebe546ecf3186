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
        with pytest.raises(SerializationError):
            loads('{"kind": "mystery", "data": {}}')

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


class TestViewStateRoundTrips:
    """Materialised-view snapshots: schema + per-group tensors round-trip."""

    def make_view(self, semiring=NX, annotations="expanded"):
        from repro.core import GroupBy, Table
        from repro.ivm import MaterializedView

        def tag(i):
            return NX.variable(f"p{i}") if semiring is NX else 1 + i

        emp = KRelation.from_rows(
            semiring,
            ("EmpId", "Dept", "Sal"),
            [((1, "d1", 20), tag(1)), ((2, "d1", 10), tag(2)), ((3, "d2", 15), tag(3))],
        )
        db = KDatabase(semiring, {"Emp": emp})
        query = GroupBy(Table("Emp"), ["Dept"], {"Sal": SUM}, count_attr="n")
        return db, query, MaterializedView.create(db, query, annotations=annotations)

    def test_grouped_view_roundtrip(self):
        from repro.ivm import MaterializedView, ViewSnapshot

        db, query, view = self.make_view()
        view.apply(
            {"Emp": KRelation.from_rows(
                NX, ("EmpId", "Dept", "Sal"), [((4, "d1", 30), NX.variable("q1"))])}
        )
        snap = loads(dumps(view))
        assert isinstance(snap, ViewSnapshot)
        assert snap.head == "group" and snap.semiring_name == "N[X]"
        restored = MaterializedView.create(db, query, snapshot=snap)
        assert restored.result() == view.result() == query.evaluate(db)

    def test_restored_view_keeps_maintaining(self):
        from repro.ivm import MaterializedView

        db, query, view = self.make_view()
        restored = MaterializedView.create(db, query, snapshot=loads(dumps(view)))
        restored.apply(
            {"Emp": KRelation.from_rows(
                NX, ("EmpId", "Dept", "Sal"), [((5, "d3", 7), NX.variable("q2"))])}
        )
        assert restored.result() == query.evaluate(db)

    def test_concrete_semiring_view_roundtrip(self):
        from repro.ivm import MaterializedView

        db, query, view = self.make_view(semiring=NAT)
        restored = MaterializedView.create(db, query, snapshot=loads(dumps(view)))
        assert restored.result() == query.evaluate(db)

    def test_circuit_view_lowers_on_dump_and_reinterns_on_restore(self):
        from repro.ivm import MaterializedView

        db, query, view = self.make_view(annotations="circuit")
        snap = loads(dumps(view))
        assert snap.semiring_name == "N[X]"  # gates are lowered for storage
        restored = MaterializedView.create(db, query, snapshot=snap,
                                           annotations="circuit")
        assert restored.result() == query.evaluate(db)
        restored.apply(
            {"Emp": KRelation.from_rows(
                NX, ("EmpId", "Dept", "Sal"), [((6, "d1", 2), NX.variable("q3"))])}
        )
        assert restored.result() == query.evaluate(db)

    def test_singleton_and_relation_heads_roundtrip(self):
        from repro.core import CountAgg, Project, Table
        from repro.ivm import MaterializedView

        db, _query, _view = self.make_view()
        for query in (CountAgg(Table("Emp"), "n"), Project(Table("Emp"), ("Dept",))):
            view = MaterializedView.create(db, query)
            restored = MaterializedView.create(db, query, snapshot=loads(dumps(view)))
            assert restored.result() == query.evaluate(db)

    def test_head_mismatch_rejected(self):
        from repro.core import Project, Table
        from repro.ivm import MaterializedView
        from repro.exceptions import QueryError

        db, query, view = self.make_view()
        snap = loads(dumps(view))
        with pytest.raises(QueryError):
            MaterializedView.create(db, Project(Table("Emp"), ("Dept",)),
                                    snapshot=snap)

    def test_restore_rejects_a_mutated_database(self):
        from repro.ivm import MaterializedView
        from repro.exceptions import QueryError

        db, query, view = self.make_view()
        text = dumps(view)
        db.add(
            "Emp",
            KDatabase(NX, {"Emp": db["Emp"]})["Emp"],
        )  # replace (version bump) with identical contents: still accepted
        MaterializedView.create(db, query, snapshot=loads(text))
        db.update(
            {"Emp": KRelation.from_rows(
                NX, ("EmpId", "Dept", "Sal"), [((9, "d9", 1), NX.variable("m"))])}
        )
        with pytest.raises(QueryError):
            MaterializedView.create(db, query, snapshot=loads(text))

    def test_restore_rejects_a_different_query(self):
        from repro.core import GroupBy, Table
        from repro.ivm import MaterializedView
        from repro.exceptions import QueryError

        db, query, view = self.make_view()
        snap = loads(dumps(view))
        other = GroupBy(Table("Emp"), ["Dept"], {"Sal": SUM})  # no count column
        with pytest.raises(QueryError):
            MaterializedView.create(db, other, snapshot=snap)
