"""Unit tests for schemas and tuples (named perspective)."""

import pytest

from repro.core import Schema, Tup
from repro.exceptions import SchemaError


class TestSchema:
    def test_construction_and_order(self):
        s = Schema(["b", "a"])
        assert s.attributes == ("b", "a")
        assert list(s) == ["b", "a"]
        assert len(s) == 2

    def test_duplicates_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["a", "a"])

    def test_bad_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([""])
        with pytest.raises(SchemaError):
            Schema([3])

    def test_set_equality(self):
        assert Schema(["a", "b"]) == Schema(["b", "a"])
        assert hash(Schema(["a", "b"])) == hash(Schema(["b", "a"]))
        assert Schema(["a"]) != Schema(["a", "b"])

    def test_restrict_preserves_order(self):
        s = Schema(["c", "a", "b"])
        assert s.restrict(["b", "a"]).attributes == ("a", "b")

    def test_restrict_unknown_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["a"]).restrict(["z"])

    def test_union_for_joins(self):
        s = Schema(["a", "b"]).union(Schema(["b", "c"]))
        assert s.attributes == ("a", "b", "c")

    def test_intersection(self):
        assert Schema(["a", "b", "c"]).intersection(Schema(["c", "b"])) == ("b", "c")

    def test_disjointness(self):
        assert Schema(["a"]).is_disjoint(Schema(["b"]))
        assert not Schema(["a", "b"]).is_disjoint(Schema(["b"]))

    def test_rename(self):
        s = Schema(["a", "b"]).rename({"a": "x"})
        assert s.attributes == ("x", "b")
        with pytest.raises(SchemaError):
            Schema(["a"]).rename({"z": "y"})

    def test_extend(self):
        assert Schema(["a"]).extend("b", "c").attributes == ("a", "b", "c")

    def test_index_of(self):
        s = Schema(["a", "b"])
        assert s.index_of("b") == 1
        with pytest.raises(SchemaError):
            s.index_of("z")


class TestTup:
    def test_mapping_protocol(self):
        t = Tup({"a": 1, "b": "x"})
        assert t["a"] == 1
        assert len(t) == 2
        assert set(t) == {"a", "b"}
        assert dict(t.items()) == {"a": 1, "b": "x"}

    def test_missing_attribute(self):
        with pytest.raises(SchemaError):
            Tup({"a": 1})["z"]

    def test_equality_hash(self):
        assert Tup({"a": 1, "b": 2}) == Tup({"b": 2, "a": 1})
        assert hash(Tup({"a": 1})) == hash(Tup({"a": 1}))
        assert Tup({"a": 1}) != Tup({"a": 2})

    def test_attribute_names_canonical_and_shared(self):
        # sorted whatever the key order; one object for all the tuples
        # built with the same key order, not an allocation per tuple
        a, b, c = Tup({"y": 1, "x": 2}), Tup({"y": 3, "x": 4}), Tup({"x": 2, "y": 1})
        assert a._attrs == c._attrs == ("x", "y")
        assert a._attrs is b._attrs
        assert a == c and hash(a) == hash(c)

    def test_from_values_positional(self):
        s = Schema(["x", "y"])
        t = Tup.from_values(s, [1, 2])
        assert t["x"] == 1 and t["y"] == 2
        with pytest.raises(SchemaError):
            Tup.from_values(s, [1])

    def test_restrict(self):
        t = Tup({"a": 1, "b": 2, "c": 3})
        assert t.restrict(["a", "c"]) == Tup({"a": 1, "c": 3})

    def test_merge_compatible(self):
        merged = Tup({"a": 1, "b": 2}).merge(Tup({"b": 2, "c": 3}))
        assert merged == Tup({"a": 1, "b": 2, "c": 3})

    def test_merge_conflicting_rejected(self):
        with pytest.raises(SchemaError):
            Tup({"a": 1}).merge(Tup({"a": 2}))

    def test_replace(self):
        assert Tup({"a": 1}).replace(a=9) == Tup({"a": 9})
        with pytest.raises(SchemaError):
            Tup({"a": 1}).replace(z=9)

    def test_rename(self):
        assert Tup({"a": 1}).rename({"a": "x"}) == Tup({"x": 1})

    def test_values_by_schema_order(self):
        t = Tup({"a": 1, "b": 2})
        assert t.values_by(Schema(["b", "a"])) == (2, 1)

    def test_views_keep_mapping_semantics(self):
        # the reads go straight to the aligned tuples, but each view is
        # still sized and re-iterable (a one-shot zip is not), answers
        # `in`, and keys() takes set operations
        t = Tup({"b": "x", "a": 1, "c": None})
        keys, items, values = t.keys(), t.items(), t.values()
        for view in (keys, items, values):
            assert len(view) == 3
            assert list(view) == list(view)
        assert list(keys) == ["a", "b", "c"]
        assert list(items) == [("a", 1), ("b", "x"), ("c", None)]
        assert list(values) == [1, "x", None]
        assert "b" in keys and "z" not in keys
        assert ("b", "x") in items and ("b", "y") not in items
        assert "x" in values and 2 not in values
        assert keys & {"a", "z"} == {"a"}
        assert keys | {"z"} == {"a", "b", "c", "z"}
        assert keys - {"a"} == {"b", "c"}
        assert keys == {"a", "b", "c"}
        assert dict(t) == dict(items) == {"a": 1, "b": "x", "c": None}
        assert "a" in t and "z" not in t
        assert t.get("b") == "x" and t.get("c", 0) is None
        assert t.get("z") is None and t.get("z", 7) == 7
        # tuples over the same attributes share one key view's mapping
        assert Tup({"a": 2, "c": 3, "b": 4}).keys() == keys
