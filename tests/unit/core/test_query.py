"""Unit tests for the query AST and its two evaluation modes."""

import inspect

import pytest

from repro.core import (
    Aggregate,
    AttrCompare,
    AttrEq,
    AttrEqAttr,
    AvgAgg,
    Cartesian,
    CountAgg,
    Difference,
    Distinct,
    GroupBy,
    KDatabase,
    KRelation,
    NaturalJoin,
    Project,
    Rename,
    Select,
    Table,
    Tup,
    Union,
    ValueJoin,
)
from repro.core.query import Query
from repro.core.rewrites import optimize
from repro.exceptions import QueryError, SchemaError
from repro.ivm import MaterializedView
from repro.ivm.delta import delta_rewrite, new_rewrite
from repro.monoids import MAX, SUM, AvgPair
from repro.plan.compiler import compile_plan
from repro.semirings import NAT, NX, valuation_hom
from repro.sql.compiler import compile_sql


def nat_db():
    r = KRelation.from_rows(
        NAT, ("Dept", "Sal"), [(("d1", 20), 1), (("d1", 10), 2), (("d2", 10), 1)]
    )
    s = KRelation.from_rows(NAT, ("Dept",), [(("d1",), 1)])
    return KDatabase(NAT, {"R": r, "S": s})


class TestStandardMode:
    def test_table(self):
        db = nat_db()
        assert Table("R").evaluate(db) == db["R"]

    def test_missing_table(self):
        with pytest.raises(QueryError):
            Table("nope").evaluate(nat_db())

    def test_union_project_select_pipeline(self):
        db = nat_db()
        q = Select(Project(Table("R"), ["Dept"]), [AttrEq("Dept", "d1")])
        out = q.evaluate(db)
        assert out.annotation(Tup({"Dept": "d1"})) == 3

    def test_natural_join(self):
        db = nat_db()
        q = NaturalJoin(Table("R"), Table("S"))
        out = q.evaluate(db)
        assert len(out) == 2
        assert all(t["Dept"] == "d1" for t in out)

    def test_value_join(self):
        db = nat_db()
        q = ValueJoin(
            Rename(Table("S"), {"Dept": "D2"}), Table("R"), [("D2", "Dept")]
        )
        out = q.evaluate(db)
        assert len(out) == 2

    def test_cartesian(self):
        db = nat_db()
        q = Cartesian(Rename(Table("S"), {"Dept": "D2"}), Table("S"))
        assert len(q.evaluate(db)) == 1

    def test_aggregate(self):
        db = nat_db()
        q = Aggregate(Project(Table("R"), ["Sal"]), "Sal", SUM)
        (t,) = q.evaluate(db).support()
        # projection merges the two Sal=10 tuples (annotation 3): 20 + 3*10
        assert t["Sal"].collapse() == 50

    def test_group_by(self):
        db = nat_db()
        q = GroupBy(Table("R"), ["Dept"], {"Sal": SUM})
        out = q.evaluate(db)
        vals = {t["Dept"]: t["Sal"].collapse() for t in out}
        assert vals == {"d1": 40, "d2": 10}

    def test_group_by_with_count(self):
        db = nat_db()
        q = GroupBy(Table("R"), ["Dept"], {"Sal": SUM}, count_attr="n")
        out = q.evaluate(db)
        counts = {t["Dept"]: t["n"].collapse() for t in out}
        assert counts == {"d1": 3, "d2": 1}  # bag counts

    def test_count(self):
        db = nat_db()
        (t,) = CountAgg(Table("R")).evaluate(db).support()
        assert t["count"].collapse() == 4

    def test_avg(self):
        db = nat_db()
        q = AvgAgg(Project(Table("R"), ["Sal"]), "Sal")
        (t,) = q.evaluate(db).support()
        assert t["Sal"].collapse() == AvgPair(50, 4)

    def test_selection_on_aggregate_rejected_in_standard_mode(self):
        db = nat_db()
        q = Select(GroupBy(Table("R"), ["Dept"], {"Sal": SUM}), [AttrEq("Sal", 40)])
        with pytest.raises(QueryError):
            q.evaluate(db)

    def test_join_on_aggregate_rejected_in_standard_mode(self):
        db = nat_db()
        gb = GroupBy(Table("R"), ["Dept"], {"Sal": SUM})
        q = NaturalJoin(gb, Rename(GroupBy(Table("R"), ["Dept"], {"Sal": SUM}),
                                   {"Dept": "D2"}))
        with pytest.raises(QueryError):
            q.evaluate(db)

    def test_unknown_mode(self):
        with pytest.raises(QueryError):
            Table("R").evaluate(nat_db(), mode="weird")

    def test_str_round_trips_names(self):
        q = Select(GroupBy(Table("R"), ["Dept"], {"Sal": SUM}), [AttrEq("Sal", 20)])
        text = str(q)
        assert "GB" in text and "σ" in text and "R" in text

    def test_attr_eq_attr_condition(self):
        r = KRelation.from_rows(NAT, ("a", "b"), [((1, 1), 1), ((1, 2), 1)])
        db = KDatabase(NAT, {"T": r})
        out = Select(Table("T"), [AttrEqAttr("a", "b")]).evaluate(db)
        assert len(out) == 1


class TestExtendedMode:
    def test_selection_on_aggregate_resolves_for_bags(self):
        # On N-relations every comparison resolves: extended mode returns
        # a plain N-relation (Prop. 4.4 collapse).
        db = nat_db()
        q = Select(GroupBy(Table("R"), ["Dept"], {"Sal": SUM}), [AttrEq("Sal", 40)])
        out = q.evaluate(db, mode="extended")
        assert out.semiring is NAT
        assert len(out) == 1
        (t,) = out.support()
        assert t["Dept"] == "d1"

    def test_join_on_aggregates(self):
        # departments with equal aggregate salary
        r = KRelation.from_rows(
            NAT, ("Dept", "Sal"), [(("d1", 20), 1), (("d2", 10), 2), (("d3", 5), 1)]
        )
        db = KDatabase(NAT, {"R": r})
        gb1 = GroupBy(Table("R"), ["Dept"], {"Sal": SUM})
        gb2 = Rename(GroupBy(Table("R"), ["Dept"], {"Sal": SUM}),
                     {"Dept": "D2", "Sal": "Sal2"})
        q = ValueJoin(gb1, gb2, [("Sal", "Sal2")])
        out = q.evaluate(db, mode="extended")
        pairs = {(t["Dept"], t["D2"]) for t in out.support()}
        # d1 (20) matches d2 (2*10=20) and vice versa; plus self-matches
        assert ("d1", "d2") in pairs and ("d2", "d1") in pairs
        assert ("d1", "d3") not in pairs

    def test_symbolic_pipeline_example_43(self):
        r1, r2, r3 = NX.variables("r1", "r2", "r3")
        rel = KRelation.from_rows(
            NX, ("Dept", "Sal"), [(("d1", 20), r1), (("d1", 10), r2), (("d2", 10), r3)]
        )
        db = KDatabase(NX, {"R": rel})
        q = Select(GroupBy(Table("R"), ["Dept"], {"Sal": SUM}), [AttrEq("Sal", 20)])
        out = q.evaluate(db, mode="extended")
        assert len(out) == 2  # both kept symbolically
        resolved = out.apply_hom(valuation_hom(NX, NAT, {"r1": 1, "r2": 0, "r3": 2}))
        # d1 qualifies (20); d2 qualifies too (2 x 10 = 20 under bags)
        assert len(resolved) == 2

    def test_extended_standard_agree_on_plain_queries(self):
        db = nat_db()
        queries = [
            Project(Table("R"), ["Dept"]),
            Union(Project(Table("R"), ["Dept"]), Table("S")),
            NaturalJoin(Table("R"), Table("S")),
            GroupBy(Table("R"), ["Dept"], {"Sal": MAX}),
        ]
        for q in queries:
            assert q.evaluate(db) == q.evaluate(db, mode="extended"), str(q)

    def test_avg_not_in_extended(self):
        db = nat_db()
        with pytest.raises(QueryError):
            AvgAgg(Project(Table("R"), ["Sal"]), "Sal").evaluate(db, mode="extended")


class TestDifferenceNode:
    def test_difference_standard(self):
        db = nat_db()
        q = Difference(Project(Table("R"), ["Dept"]), Table("S"))
        out = q.evaluate(db)
        assert out.semiring is NAT
        assert len(out) == 1
        (t,) = out.support()
        assert t["Dept"] == "d2"

    def test_difference_encoding_matches_direct(self):
        db = nat_db()
        direct = Difference(Project(Table("R"), ["Dept"]), Table("S"), "direct")
        encoded = Difference(Project(Table("R"), ["Dept"]), Table("S"), "encoding")
        assert direct.evaluate(db) == encoded.evaluate(db)

    def test_unknown_method_rejected(self):
        with pytest.raises(QueryError):
            Difference(Table("R"), Table("S"), "bogus")


# ---------------------------------------------------------------------------
# one grammar: well-formedness is decided on schemas, the same everywhere
# ---------------------------------------------------------------------------

EVALUATION_PATHS = {
    "interpreted-standard": dict(engine="interpreted", mode="standard"),
    "interpreted-extended": dict(engine="interpreted", mode="extended"),
    "planned": dict(engine="planned", mode="standard"),
}

R, S, T = Table("R"), Table("S"), Table("T")

#: id -> (ill-formed query over R(Dept, Sal), S(Dept), T(W); what it raises)
ILL_FORMED = {
    "select-missing-attribute": (Select(R, [AttrEq("Nope", 1)]), SchemaError),
    "project-missing-attribute": (Project(R, ["Nope"]), SchemaError),
    "rename-missing-attribute": (Rename(R, {"Nope": "X"}), SchemaError),
    "group-by-missing-group-attribute": (GroupBy(R, ["Nope"], {"Sal": SUM}), QueryError),
    "group-by-missing-aggregated-attribute": (GroupBy(R, ["Dept"], {"Nope": SUM}), QueryError),
    "value-join-missing-key": (ValueJoin(R, T, [("Nope", "W")]), SchemaError),
    "union-schema-mismatch": (Union(R, S), SchemaError),
    "cartesian-overlap": (Cartesian(R, S), SchemaError),
    "value-join-overlap": (ValueJoin(R, S, [("Sal", "Dept")]), SchemaError),
    "count-attr-collision": (GroupBy(R, ["Dept"], {"Sal": SUM}, count_attr="Sal"), QueryError),
    "agg-over-two-columns": (Aggregate(R, "Sal", SUM), QueryError),
    "grouped-and-aggregated": (GroupBy(R, ["Dept"], {"Dept": MAX}), QueryError),
}


def parity_db(rows: int) -> KDatabase:
    r = KRelation.from_rows(NAT, ("Dept", "Sal"), [(("d1", 20), 1)][:rows])
    s = KRelation.from_rows(NAT, ("Dept",), [(("d1",), 1)][:rows])
    t = KRelation.from_rows(NAT, ("W",), [((20,), 1)][:rows])
    return KDatabase(NAT, {"R": r, "S": s, "T": t})


class TestErrorParity:
    @pytest.mark.parametrize("rows", [0, 1], ids=["empty", "one-row"])
    @pytest.mark.parametrize("path", sorted(EVALUATION_PATHS))
    @pytest.mark.parametrize("case", sorted(ILL_FORMED))
    def test_ill_formed_query_raises_one_class_on_every_path(self, case, path, rows):
        query, expected = ILL_FORMED[case]
        # neither class subclasses the other: a wrong one propagates and fails
        with pytest.raises(expected):
            query.evaluate(parity_db(rows), **EVALUATION_PATHS[path])

    @pytest.mark.parametrize("rows", [0, 1], ids=["empty", "one-row"])
    @pytest.mark.parametrize("path", sorted(EVALUATION_PATHS))
    def test_mistyped_order_predicate_is_a_typed_error(self, path, rows):
        """``Dept < 1`` on a string column: nothing to decide on an empty
        relation, a QueryError naming the pair otherwise — never a bare
        TypeError (which the serving layer answers with a 500)."""
        query = Select(R, [AttrCompare("Dept", "<", 1)])
        if rows == 0:
            assert len(query.evaluate(parity_db(0), **EVALUATION_PATHS[path])) == 0
        else:
            with pytest.raises(QueryError, match="cannot decide 'd1' < 1"):
                query.evaluate(parity_db(1), **EVALUATION_PATHS[path])


class TestCountOnlyGroupBy:
    """``SELECT Dept, COUNT(*) FROM R GROUP BY Dept``: the synthesised
    COUNT is the one aggregation (footnote 6), per ``check_group_by``."""

    QUERIES = {
        "ast": GroupBy(R, ["Dept"], {}, count_attr="n"),
        "sql": compile_sql("SELECT Dept, COUNT(*) AS n FROM R GROUP BY Dept"),
    }

    @staticmethod
    def db(semiring):
        if semiring is NAT:
            annotations = [1, 2, 1]
        else:
            annotations = list(NX.variables("a", "b", "c"))
        values = [("d1", 20), ("d1", 10), ("d2", 10)]
        rel = KRelation.from_rows(semiring, ("Dept", "Sal"), list(zip(values, annotations)))
        return KDatabase(semiring, {"R": rel})

    @pytest.mark.parametrize("semiring", [NAT, NX], ids=["N", "N[X]"])
    @pytest.mark.parametrize("form", sorted(QUERIES))
    def test_every_path_answers_it_equally(self, form, semiring):
        query, db = self.QUERIES[form], self.db(semiring)
        results = [query.evaluate(db, **kw) for kw in EVALUATION_PATHS.values()]
        assert results[0] == results[1] == results[2]
        assert len(results[0]) == 2
        if semiring is NX:
            a, b, _c = NX.variables("a", "b", "c")
            d1 = next(t for t in results[0] if t["Dept"] == "d1")
            assert str(d1["n"]) == "(a + b)⊗1"
            assert results[0].annotation(d1) == NX.delta(NX.plus(a, b))

    @pytest.mark.parametrize("semiring", [NAT, NX], ids=["N", "N[X]"])
    def test_view_over_it_stays_equal_to_re_evaluation(self, semiring):
        query, db = self.QUERIES["sql"], self.db(semiring)
        view = MaterializedView.create(db, query)
        assert view.result() == query.evaluate(db)
        view.apply({"R": KRelation.from_rows(
            semiring, ("Dept", "Sal"), [(("d2", 30), semiring.one), (("d3", 5), semiring.one)]
        )})
        assert view.result() == query.evaluate(db)
        assert len(view.result()) == 3

    def test_no_aggregation_at_all_is_still_rejected(self):
        with pytest.raises(QueryError, match="at least one aggregation"):
            GroupBy(R, ["Dept"], {}).evaluate(self.db(NAT))


# ---------------------------------------------------------------------------
# the grammar cannot be half-extended
# ---------------------------------------------------------------------------

#: One well-formed example per node class, over R(Dept, Sal), S(Dept), T(W).
EXAMPLES = {
    Table: R,
    Union: Union(S, Project(R, ["Dept"])),
    Project: Project(R, ["Dept"]),
    Select: Select(R, [AttrEq("Dept", "d1"), AttrCompare("Sal", ">=", 10)]),
    NaturalJoin: NaturalJoin(R, S),
    ValueJoin: ValueJoin(R, T, [("Sal", "W")]),
    Cartesian: Cartesian(S, T),
    Rename: Rename(R, {"Sal": "Pay"}),
    Aggregate: Aggregate(Project(R, ["Sal"]), "Sal", SUM),
    GroupBy: GroupBy(R, ["Dept"], {"Sal": SUM}, count_attr="n"),
    CountAgg: CountAgg(R, "n"),
    AvgAgg: AvgAgg(Project(R, ["Sal"]), "Sal"),
    Distinct: Distinct(Project(R, ["Dept"])),
    Difference: Difference(Project(R, ["Dept"]), S),
}
SPJU = (Table, Union, Project, Select, NaturalJoin, ValueJoin, Cartesian, Rename)
NODE_CLASSES = sorted(Query.__subclasses__(), key=lambda cls: cls.__name__)


def grammar_db() -> KDatabase:
    r = KRelation.from_rows(
        NAT, ("Dept", "Sal"), [(("d1", 20), 1), (("d1", 10), 2), (("d2", 10), 1)]
    )
    s = KRelation.from_rows(NAT, ("Dept",), [(("d1",), 1), (("d3",), 2)])
    t = KRelation.from_rows(NAT, ("W",), [((10,), 1), ((30,), 1)])
    return KDatabase(NAT, {"R": r, "S": s, "T": t})


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
class TestEveryNodeStatesItsGrammar:
    """A fifteenth node class without its three hooks fails here, not in
    whichever tree-walker forgot it."""

    def test_has_an_example(self, cls):
        assert not inspect.isabstract(cls)
        assert cls in EXAMPLES, f"add a well-formed {cls.__name__} to EXAMPLES"

    def test_children_round_trip(self, cls):
        query, db = EXAMPLES[cls], grammar_db()
        operands = [v for v in vars(query).values() if isinstance(v, Query)]
        assert list(query.children) == operands
        query.evaluate(db, engine="planned")  # leaves a compiled plan behind
        rebuilt = query.with_children(*query.children)
        assert rebuilt is not query and type(rebuilt) is cls
        assert "_plan_cache" in vars(query) and "_plan_cache" not in vars(rebuilt)
        assert str(rebuilt) == str(query)
        assert rebuilt.evaluate(db) == query.evaluate(db)

    def test_schema_is_the_schema_of_every_result(self, cls):
        query, db = EXAMPLES[cls], grammar_db()
        schema = query.schema({name: rel.schema for name, rel in db})
        assert schema == query.evaluate(db).schema
        if cls is not AvgAgg:  # AVG is standard-mode only
            assert schema == query.evaluate(db, mode="extended").schema
        assert schema == compile_plan(query, db).root.schema
        assert schema == query.evaluate(db, engine="planned").schema

    def test_walkers_preserve_the_schema(self, cls):
        query, db = EXAMPLES[cls], grammar_db()
        catalog = {name: rel.schema for name, rel in db}
        assert optimize(query, catalog).schema(catalog) == query.schema(catalog)
        if cls in SPJU:
            changed = frozenset({"R", "S", "T"})
            with_deltas = dict(catalog, **{"Δ" + name: schema for name, schema in catalog.items()})
            for rewritten in (
                delta_rewrite(query, changed, "Δ{}".format),
                new_rewrite(query, changed, "Δ{}".format),
            ):
                assert rewritten.schema(with_deltas) == query.schema(catalog)

    def test_one_evaluation_rule_and_one_schema_rule(self, cls):
        rules = [name for name in vars(cls) if name.startswith("_eval")]
        assert rules == ["_eval"]
        assert "schema" in vars(cls)
