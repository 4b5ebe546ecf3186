"""Unit tests for the columnar batch representation."""

import pytest

from repro.core import KRelation, Tup
from repro.exceptions import SchemaError
from repro.plan import ColumnarKRelation
from repro.semirings import NAT, NX


def nx_rel():
    p1, p2, p3 = NX.variables("p1", "p2", "p3")
    return KRelation.from_rows(
        NX,
        ("Dept", "Sal"),
        [(("d1", 20), p1), (("d1", 10), p2), (("d2", 10), p3)],
    )


class TestRoundTrip:
    def test_krelation_round_trips_exactly(self):
        rel = nx_rel()
        assert ColumnarKRelation.from_krelation(rel).to_krelation() == rel

    def test_round_trip_preserves_annotations_and_schema(self):
        rel = nx_rel()
        back = ColumnarKRelation.from_krelation(rel).to_krelation()
        assert back.schema == rel.schema
        assert back.semiring is rel.semiring
        for tup, annotation in rel.items():
            assert back.annotation(tup) == annotation

    def test_columns_follow_schema_order_and_storage_order(self):
        """The one-``zip`` transpose must place every value exactly where
        the per-row ``values_by`` decomposition does, for a schema that is
        not in sorted attribute order."""
        rel = KRelation.from_rows(
            NAT, ("z", "a", "m"), [((i, f"a{i % 3}", -i), 1 + i) for i in range(7)]
        )
        batch = ColumnarKRelation.from_krelation(rel)
        stored = list(rel.rows())
        assert list(batch.columns) == ["z", "a", "m"]
        assert batch.key_rows(("z", "a", "m")) == [
            t.values_by(rel.schema) for t, _k in stored
        ]
        assert batch.annotations == [k for _t, k in stored]

    def test_empty_relation_round_trips(self):
        rel = KRelation.empty(NAT, ("x", "y"))
        batch = ColumnarKRelation.from_krelation(rel)
        assert len(batch) == 0
        assert batch.to_krelation() == rel

    def test_duplicate_rows_merge_with_plus_on_export(self):
        batch = ColumnarKRelation(
            NAT, ("x",), {"x": [1, 1, 2]}, [2, 3, 4]
        )
        rel = batch.to_krelation()
        assert rel.annotation(Tup({"x": 1})) == 5
        assert rel.annotation(Tup({"x": 2})) == 4

    def test_zero_annotations_drop_on_export(self):
        batch = ColumnarKRelation(NAT, ("x",), {"x": [1, 2]}, [0, 7])
        rel = batch.to_krelation()
        assert len(rel) == 1
        assert rel.annotation(Tup({"x": 2})) == 7


class TestValidationAndAccess:
    def test_columns_must_match_schema(self):
        with pytest.raises(SchemaError):
            ColumnarKRelation(NAT, ("x",), {"y": [1]}, [1])

    def test_column_lengths_must_match_annotations(self):
        with pytest.raises(SchemaError):
            ColumnarKRelation(NAT, ("x",), {"x": [1, 2]}, [1])

    def test_unknown_column_access_raises(self):
        batch = ColumnarKRelation.from_krelation(nx_rel())
        with pytest.raises(SchemaError):
            batch.column("Nope")

    def test_key_rows_restricts_in_given_order(self):
        batch = ColumnarKRelation(
            NAT, ("a", "b"), {"a": [1, 2], "b": ["x", "y"]}, [1, 1]
        )
        assert batch.key_rows(("b", "a")) == [("x", 1), ("y", 2)]
        assert batch.key_rows(()) == [(), ()]


class TestConsolidate:
    def test_consolidate_merges_duplicates_in_place_representation(self):
        batch = ColumnarKRelation(
            NAT, ("x",), {"x": [1, 1, 2, 1]}, [1, 2, 5, 3]
        )
        merged = batch.consolidate()
        assert len(merged) == 2
        assert merged.to_krelation().annotation(Tup({"x": 1})) == 6

    def test_consolidate_is_identity_on_distinct_rows(self):
        batch = ColumnarKRelation.from_krelation(nx_rel())
        assert len(batch.consolidate()) == len(batch)
