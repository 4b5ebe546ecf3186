"""Unit tests for the dictionary-encoded execution tier.

Covers the capability plumbing the property suite does not pin directly:
tier selection and EXPLAIN reporting, the encoding kept on each relation
version, per-operator fallback (symbolic values, incomparable types,
foreign aggregation values), the exactness qualification, lazy column
gathering, and the bounded caches (plan LRU, circuit interning caps).
"""

import math

import pytest

pytest.importorskip("numpy")  # the encoded tier exists only with NumPy

from repro.caching import LRUDict
from repro.core import (
    AttrCompare,
    AttrEq,
    GroupBy,
    KDatabase,
    KRelation,
    NaturalJoin,
    Project,
    Select,
    Table,
    Union,
)
from repro.exceptions import QueryError
from repro.monoids import MAX, MIN, SUM
from repro.obs.metrics import ENCODED_CACHE_EVENTS
from repro.plan import compile_plan
from repro.plan.encoded import EncodedBatch, encode_relation, encoded_scan
from repro.semirings import BOOL, NAT, NX, TROPICAL, ZX


def bag_db(n=60):
    emp = KRelation.from_rows(
        NAT,
        ("EmpId", "Dept", "Sal"),
        [((i, f"d{i % 4}", 10 * (1 + i % 5)), 1 + i % 3) for i in range(n)],
    )
    dept = KRelation.from_rows(
        NAT,
        ("Dept", "Region"),
        [((f"d{j}", "EU" if j % 2 else "US"), 1) for j in range(4)],
    )
    return KDatabase(NAT, {"Emp": emp, "Dept": dept})


def emp_delta(key, annotation=1):
    return KRelation.from_rows(
        NAT, ("EmpId", "Dept", "Sal"), [((key, f"d{key % 4}", 10), annotation)]
    )


def cache_events():
    return {
        event: ENCODED_CACHE_EVENTS.value(event)
        for event in ("extend", "rebuild", "disqualify")
    }


JOIN_GROUP = GroupBy(
    Select(NaturalJoin(Table("Emp"), Table("Dept")), [AttrEq("Region", "EU")]),
    ["Dept"],
    {"Sal": SUM},
)


class TestTierSelection:
    def test_machine_semiring_selects_encoded_tier(self):
        plan = compile_plan(JOIN_GROUP, bag_db())
        assert plan.tier == "encoded"
        assert "tier: encoded" in plan.explain()

    def test_symbolic_semiring_keeps_object_tier(self):
        # Z[X] declares no machine representation (N[X] has its term ids)
        emp = KRelation.from_rows(
            ZX, ("EmpId",), [((i,), ZX.variable(f"t{i}")) for i in range(3)]
        )
        db = KDatabase(ZX, {"Emp": emp})
        plan = compile_plan(Table("Emp"), db)
        assert plan.tier == "object"
        assert "tier: object" in plan.explain()

    def test_nx_selects_encoded_tier_over_term_ids(self):
        emp = KRelation.from_rows(
            NX, ("EmpId",), [((i,), NX.variable(f"t{i}")) for i in range(3)]
        )
        plan = compile_plan(Table("Emp"), KDatabase(NX, {"Emp": emp}))
        assert plan.tier == "encoded"
        plan.execute()
        assert "[last run: encoded]" in plan.explain()

    def test_nx_table_with_a_multi_term_annotation_stays_boxed(self):
        x, y = NX.variables("x", "y")
        emp = KRelation.from_rows(NX, ("EmpId",), [((1,), x + y), ((2,), 3 * x)])
        db = KDatabase(NX, {"Emp": emp})
        plan = compile_plan(Table("Emp"), db)
        assert plan.tier == "encoded"
        assert plan.execute() == emp
        text = plan.explain()
        assert "[last run: object]" in text
        assert "boxed: table Emp (annotation x + y is not a single term)" in text

    def test_forcing_parallel_on_nx_names_the_term_store(self):
        db = KDatabase(NX, {"R": KRelation.from_rows(NX, ("a",), [])})
        with pytest.raises(QueryError, match="term ids into this process's term store"):
            compile_plan(Table("R"), db, tier="parallel")

    def test_fallback_plans_keep_object_tier(self):
        plan = compile_plan(Table("Missing"), bag_db())
        assert plan.tier == "object"

    def test_explain_reports_last_run_tier(self):
        db = bag_db()
        plan = compile_plan(JOIN_GROUP, db)
        assert "last run" not in plan.explain()
        plan.execute()
        assert "[last run: encoded]" in plan.explain()

    def test_explain_reports_partial_fallback(self):
        """Scans encode but the projection's annotation sum would leave
        int64 → the run is reported as encoded+object fallback, not as a
        clean encoded run."""
        big = 1 << 31
        r = KRelation.from_rows(NAT, ("g", "a"), [(("x", 1), big), (("x", 2), big)])
        s = KRelation.from_rows(NAT, ("g",), [(("x",), big)])
        db = KDatabase(NAT, {"R": r, "S": s})
        plan = compile_plan(Project(NaturalJoin(Table("R"), Table("S")), ("g",)), db)
        plan.execute()
        assert "[last run: encoded+object fallback]" in plan.explain()

    def test_delta_plans_run_the_object_tier_at_any_size(self):
        """A delta plan is compiled for the object tier, which runs every
        apply: a 1-row and a 300-row delta are both exact."""
        from repro.ivm.delta import compile_delta_plan

        db = bag_db(400)
        core = NaturalJoin(Table("Emp"), Table("Dept"))
        plan = compile_delta_plan(core, db, ["Emp"])
        assert plan.plan.tier == "object"
        assert "tier: object" in plan.explain()
        for size in (1, 300):
            rows = [((9000 + i, f"d{i % 4}", 10), 1 + i % 2) for i in range(size)]
            delta = KRelation.from_rows(NAT, ("EmpId", "Dept", "Sal"), rows)
            result = plan.execute(db, {"Emp": delta})
            assert plan.plan._last_tier == "object"
            assert result == core.evaluate(
                KDatabase(NAT, {"Emp": delta, "Dept": db.relation("Dept")})
            )

    def test_forced_object_tier_skips_encoding(self):
        db = bag_db()
        plan = compile_plan(JOIN_GROUP, db, tier="object")
        plan.execute()
        assert plan._last_tier == "object"

    def test_forcing_encoded_on_symbolic_semiring_raises(self):
        db = KDatabase(ZX, {"R": KRelation.from_rows(ZX, ("a",), [])})
        with pytest.raises(QueryError):
            compile_plan(Table("R"), db, tier="encoded")


class TestEncodingCache:
    def test_encoding_is_kept_on_the_relation_version(self):
        db = bag_db()
        first = encoded_scan(db, "Emp", db.relation("Emp"))
        again = encoded_scan(db, "Emp", db.relation("Emp"))
        assert first is again

    def test_mutated_table_reencodes_others_survive(self):
        db = bag_db()
        emp = encoded_scan(db, "Emp", db.relation("Emp"))
        dept = encoded_scan(db, "Dept", db.relation("Dept"))
        db.update(
            {"Emp": KRelation.from_rows(NAT, ("EmpId", "Dept", "Sal"),
                                        [((999, "d0", 10), 1)])}
        )
        assert encoded_scan(db, "Emp", db.relation("Emp")) is not emp
        assert encoded_scan(db, "Dept", db.relation("Dept")) is dept

    def test_disqualified_table_is_cached_as_none(self):
        rel = KRelation.from_rows(NAT, ("a",), [((1,), 1 << 40)])
        db = KDatabase(NAT, {"R": rel})
        assert encoded_scan(db, "R", rel) is None
        assert encoded_scan(db, "R", rel) is None  # cached, not re-scanned

    def test_insert_query_rounds_extend_and_never_rebuild(self):
        """The deterministic guard on O(Δ) read-after-write: on a warmed
        table every insert carries the encoding forward, so no read after
        a write re-encodes the table."""
        db = bag_db()
        expected = JOIN_GROUP.evaluate(db, engine="planned")  # warms both tables
        before = cache_events()
        for k in range(50):
            db.update({"Emp": emp_delta(1000 + k)})
            expected = JOIN_GROUP.evaluate(db.snapshot(), engine="planned")
        after = cache_events()
        assert after["extend"] - before["extend"] == 50
        assert after["rebuild"] == before["rebuild"]
        assert after["disqualify"] == before["disqualify"]
        assert expected == JOIN_GROUP.evaluate(db, engine="interpreted")

    def test_disqualifying_insert_is_decided_at_write_time(self):
        db = bag_db()
        assert encoded_scan(db, "Emp", db.relation("Emp")) is not None
        before = cache_events()
        db.update({"Emp": emp_delta(1000, annotation=1 << 40)})
        db.update({"Emp": emp_delta(1001)})  # stays disqualified in O(1)
        assert encoded_scan(db, "Emp", db.relation("Emp")) is None
        after = cache_events()
        assert after["disqualify"] - before["disqualify"] == 1
        assert after["extend"] - before["extend"] == 1
        assert after["rebuild"] == before["rebuild"]

    def test_stale_reader_does_not_evict_the_newer_entry(self):
        """A reader pinned on an older snapshot that misses encodes its own
        version, which leaves the newer version's encoding in place: the
        writer's next insert still carries it, and the read after it pays
        no rebuild."""
        db = bag_db()
        pinned = db.snapshot()  # an old version, never scanned
        db.update({"Emp": emp_delta(1000)})
        current = encoded_scan(db, "Emp", db.relation("Emp"))
        stale = encoded_scan(pinned, "Emp", pinned.relation("Emp"))
        assert len(stale) == len(current) - 1
        assert encoded_scan(db, "Emp", db.relation("Emp")) is current
        before = cache_events()
        db.update({"Emp": emp_delta(1001)})  # the writer
        second = db.snapshot()  # the second reader
        assert len(encoded_scan(second, "Emp", second.relation("Emp"))) == len(current) + 1
        after = cache_events()
        assert after["extend"] - before["extend"] == 1
        assert after["rebuild"] == before["rebuild"]

    def test_int64_growth_falls_back_before_wrapping(self):
        """Annotations of 2^31 pass the scan-level fits() bound, but their
        join products and sums leave int64: the magnitude-bound guard must
        fall back to the object path instead of letting NumPy wrap
        (regression: a 3-way join used to wrap the product to 0 and
        silently drop the row)."""
        big = 1 << 31
        r = KRelation.from_rows(NAT, ("g", "a"), [(("x", 1), big), (("x", 2), big)])
        s = KRelation.from_rows(NAT, ("g",), [(("x",), big)])
        t = KRelation.from_rows(NAT, ("g", "b"), [(("x", 7), big)])
        db = KDatabase(NAT, {"R": r, "S": s, "T": t})
        queries = [
            Project(NaturalJoin(Table("R"), Table("S")), ("g",)),  # sum of products
            NaturalJoin(NaturalJoin(Table("R"), Table("S")), Table("T")),
            GroupBy(Table("R"), ["g"], {"a": SUM}),
        ]
        for query in queries:
            assert compile_plan(query, db).execute() == query.evaluate(db)

    def test_annotations_must_roundtrip_exactly(self):
        assert encode_relation(
            KRelation.from_rows(NAT, ("a",), [((1,), (1 << 31) + 1)])
        ) is None
        assert encode_relation(
            KRelation.from_rows(NAT, ("a",), [((1,), 3)])
        ) is not None

    def test_float64_semirings_reject_int_annotations(self):
        """TROPICAL.contains admits ints, but an array round-trip would
        retype them as floats (3 -> 3.0, observable); such tables must
        fall back rather than drift."""
        rel = KRelation.from_rows(TROPICAL, ("a",), [((1,), 3), ((2,), 0.5)])
        assert encode_relation(rel) is None
        db = KDatabase(TROPICAL, {"R": rel})
        planned = compile_plan(Table("R"), db).execute()
        for _tup, annotation in planned.items():
            assert type(annotation) in (int, float)
        assert planned == Table("R").evaluate(db)
        anns = {t["a"]: k for t, k in planned.items()}
        assert type(anns[1]) is int and type(anns[2]) is float


class TestRuntimeFallback:
    def test_symbolic_column_raises_object_paths_error(self):
        """A stored relation can carry tensor values; selecting on such a
        column must raise the interpreter's QueryError, not crash the
        encoded kernels."""
        db = bag_db()
        inner = GroupBy(Table("Emp"), ["Dept"], {"Sal": SUM})
        db.add("Agg", inner.evaluate(db))
        bad = Select(Table("Agg"), [AttrEq("Sal", 5)])
        with pytest.raises(QueryError, match="symbolic aggregate"):
            compile_plan(bad, db).execute()

    def test_incomparable_selection_matches_object_path(self):
        rel = KRelation.from_rows(NAT, ("a",), [(("x",), 1), ((2,), 1)])
        db = KDatabase(NAT, {"R": rel})
        query = Select(Table("R"), [AttrCompare("a", "<", 5)])
        # a mistyped order predicate is a typed error naming the pair (it
        # was a bare TypeError, which the serving layer answered with 500)
        with pytest.raises(QueryError, match="cannot decide 'x' < 5"):
            query.evaluate(db, engine="interpreted")
        with pytest.raises(QueryError, match="cannot decide 'x' < 5"):
            compile_plan(query, db).execute()

    def test_foreign_aggregation_value_raises_interpreter_error(self):
        rel = KRelation.from_rows(NAT, ("g", "v"), [(("a", "oops"), 1)])
        db = KDatabase(NAT, {"R": rel})
        query = GroupBy(Table("R"), ["g"], {"v": SUM})
        with pytest.raises(QueryError) as planned:
            compile_plan(query, db).execute()
        with pytest.raises(QueryError) as interpreted:
            query.evaluate(db)
        assert str(planned.value) == str(interpreted.value)

    def test_non_collapsing_tensor_space_matches_interpreter(self):
        """B ⊗ SUM does not collapse (Prop. 3.11 denies a readback), but
        the tensors themselves are still well-defined — the encoded tier
        must build the identical ones."""
        rel = KRelation.from_rows(
            BOOL, ("g", "v"), [(("a", 1), True), (("a", 2), True), (("b", 1), True)]
        )
        db = KDatabase(BOOL, {"R": rel})
        query = GroupBy(Table("R"), ["g"], {"v": SUM})
        assert compile_plan(query, db).execute() == query.evaluate(db)


class TestEncodedBatches:
    def test_tropical_floats_roundtrip(self):
        rel = KRelation.from_rows(
            TROPICAL, ("a",), [((i,), [0.5, 2.0, math.inf][i % 3]) for i in range(9)]
        )
        db = KDatabase(TROPICAL, {"R": rel})
        assert compile_plan(Project(Table("R"), ("a",)), db).execute() == Project(
            Table("R"), ("a",)
        ).evaluate(db)

    def test_join_columns_gather_lazily(self):
        db = bag_db()
        plan = compile_plan(
            GroupBy(NaturalJoin(Table("Emp"), Table("Dept")), ["Dept"], {"Sal": SUM}),
            db,
        )
        batch = plan.execute_batch()
        # the aggregate reads Dept + Sal; EmpId/Region of the join output
        # are never materialised — observable only as "it still works"
        assert set(batch.schema.attributes) == {"Dept", "Sal"}

    def test_union_merges_dictionaries(self):
        r = KRelation.from_rows(NAT, ("g",), [(("a",), 1), (("b",), 2)])
        s = KRelation.from_rows(NAT, ("g",), [(("b",), 1), (("c",), 3)])
        db = KDatabase(NAT, {"R": r, "S": s})
        query = Union(Table("R"), Table("S"))
        assert compile_plan(query, db).execute() == query.evaluate(db)

    def test_decode_boundary_yields_native_python_scalars(self):
        db = bag_db()
        encoded = compile_plan(Table("Emp"), db).execute_batch()
        assert isinstance(encoded, EncodedBatch)
        assert all(type(a) is int for a in encoded.to_columnar().annotations)


class TestBoundedCaches:
    def test_plan_cache_is_lru(self):
        query = Table("R")
        dbs = [
            KDatabase(NAT, {"R": KRelation.from_rows(NAT, ("a",), [((i,), 1)])})
            for i in range(6)
        ]
        for db in dbs:
            query.evaluate(db, engine="planned")
        assert len(query._plan_cache) <= query._PLAN_CACHE_SLOTS
        # most recently used databases survive
        assert (id(dbs[-1]), dbs[-1].version, "expanded") in query._plan_cache

    def test_lru_dict_evicts_least_recently_used(self):
        cache = LRUDict(2)
        cache["a"] = 1
        cache["b"] = 2
        assert cache.get("a") == 1  # refresh "a"
        cache["c"] = 3  # evicts "b"
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_circuit_builder_interning_is_bounded(self):
        from repro.circuits.nodes import CircuitBuilder

        builder = CircuitBuilder(max_gates=64)
        gates = [builder.var(f"x{i}") for i in range(500)]
        assert builder.interned_count() <= 64
        # evicted shapes rebuild fresh but equivalent; pinned constants hold
        assert builder.var("x0") is not gates[0]
        assert builder.plus(builder.zero, gates[3]) is gates[3]
        assert builder.times(builder.one, gates[4]) is gates[4]


class TestColumnarSatellites:
    def test_key_rows_memoized_per_attrs(self):
        from repro.plan.columnar import ColumnarKRelation

        rel = KRelation.from_rows(NAT, ("a", "b"), [((1, 2), 1), ((3, 4), 2)])
        batch = ColumnarKRelation.from_krelation(rel)
        assert batch.key_rows(("a",)) is batch.key_rows(("a",))
        assert batch.key_rows(("a", "b")) is batch.key_rows(("a", "b"))

    def test_from_clean_skips_validation_but_matches_init(self):
        from repro.core.schema import Schema
        from repro.plan.columnar import ColumnarKRelation

        schema = Schema(("a",))
        checked = ColumnarKRelation(NAT, schema, {"a": [1, 2]}, [1, 1])
        trusted = ColumnarKRelation._from_clean(NAT, schema, {"a": [1, 2]}, [1, 1])
        assert trusted.to_krelation() == checked.to_krelation()


class TestIvmOnEncodedScans:
    def test_delta_plan_rejects_stale_catalog_across_databases(self):
        """The execution catalog is built per apply from the database it
        is given: executing against a different database must not serve
        relations left over from the previous one."""
        from repro.ivm.delta import compile_delta_plan

        db1 = bag_db()
        plan = compile_delta_plan(NaturalJoin(Table("Emp"), Table("Dept")), db1, ["Emp"])
        delta = {"Emp": KRelation.from_rows(
            NAT, ("EmpId", "Dept", "Sal"), [((9000, "d1", 10), 1)]
        )}
        plan.execute(db1, delta)
        db2 = KDatabase(NAT, {"Emp": db1.relation("Emp")})  # no Dept table
        with pytest.raises(QueryError, match="Dept"):
            plan.execute(db2, delta)

    def test_view_maintenance_over_encoded_delta_plans(self):
        from repro.ivm import MaterializedView

        db = bag_db()
        view = MaterializedView.create(db, JOIN_GROUP)
        delta = KRelation.from_rows(
            NAT, ("EmpId", "Dept", "Sal"), [((1000, "d1", 70), 2)]
        )
        view.apply({"Emp": delta})
        assert view.result() == JOIN_GROUP.evaluate(db)
        view.apply({"Emp": KRelation.from_rows(
            NAT, ("EmpId", "Dept", "Sal"), [((1001, "d3", 20), 1)]
        )})
        assert view.result() == JOIN_GROUP.evaluate(db)
