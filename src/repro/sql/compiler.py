"""Compile SQL AST into the relational-algebra query AST.

The translation follows textbook SQL semantics specialised to the
annotated setting:

* the FROM clause builds a join tree (natural joins for comma-separated
  tables, value joins for explicit ``JOIN ... ON``);
* WHERE conjuncts become :class:`~repro.core.query.Select` conditions;
* an aggregate-free SELECT list becomes a projection (plus ``Distinct``
  — the delta operator — when ``DISTINCT`` is present);
* aggregates without GROUP BY compile to ``AGG``/``COUNT``/``AVG`` over
  the projected column;
* aggregates with GROUP BY compile to :class:`~repro.core.query.GroupBy`,
  whose output columns may be renamed per the aliases.

Example::

    q = compile_sql("SELECT Dept, SUM(Sal) AS Total FROM R GROUP BY Dept")
    result = q.evaluate(db)
"""

from __future__ import annotations

from typing import Dict, List, Union

from repro.core.query import (
    AttrCompare,
    AttrEq,
    AttrEqAttr,
    Aggregate,
    AvgAgg,
    CountAgg,
    Difference,
    Distinct,
    GroupBy,
    NaturalJoin,
    Project,
    Query,
    Rename,
    Select,
    Table,
    Union as UnionQuery,
    ValueJoin,
)
from repro.exceptions import ParseError
from repro.monoids.base import CommutativeMonoid
from repro.monoids.numeric import MAX, MIN, PROD, SUM
from repro.sql.ast import (
    AggColumn,
    CountStar,
    OutputColumn,
    SelectStatement,
    SetOperation,
    SqlQuery,
)
from repro.sql.parser import parse

__all__ = [
    "compile_sql",
    "compile_statement",
    "execute_sql",
    "explain_sql",
    "materialize_sql",
]

_MONOIDS: Dict[str, CommutativeMonoid] = {
    "SUM": SUM, "MIN": MIN, "MAX": MAX, "PROD": PROD,
}


def compile_sql(source: str) -> Query:
    """Parse and compile a SQL string into an evaluable :class:`Query`."""
    return compile_statement(parse(source))


def execute_sql(source: str, db, *, mode: str = "standard", engine: str = "planned"):
    """Parse, compile, plan, and run a SQL string against ``db``.

    The one-call SQL entry point; it routes through the physical planner
    by default (``engine="planned"``).  Pass ``engine="interpreted"`` for
    the tree-walking reference evaluator.
    """
    return compile_sql(source).evaluate(db, mode=mode, engine=engine)


def explain_sql(source: str, db) -> str:
    """Render the physical plan the planned engine would run for ``source``."""
    from repro.plan import explain  # local: keep the front end importable alone

    return explain(compile_sql(source), db)


def materialize_sql(source: str, db, *, annotations: str = "expanded"):
    """Compile a SQL statement into a maintained materialised view.

    The SQL face of :class:`repro.ivm.MaterializedView`: grouped
    aggregates are maintained group-by-group under ``view.apply(deltas)``
    instead of re-running the statement.  ``CREATE MATERIALIZED VIEW`` as
    a function call::

        view = materialize_sql(
            "SELECT Dept, SUM(Sal) FROM Emp GROUP BY Dept", db)
        view.apply({"Emp": new_rows})
        view.result()
    """
    from repro.ivm import MaterializedView  # local: keep the front end light

    return MaterializedView.create(db, compile_sql(source), annotations=annotations)


def compile_statement(stmt: SqlQuery) -> Query:
    """Compile parsed SQL AST into the algebra AST."""
    if isinstance(stmt, SetOperation):
        left = compile_statement(stmt.left)
        right = compile_statement(stmt.right)
        if stmt.operator == "UNION":
            return UnionQuery(left, right)
        return Difference(left, right)
    return _compile_select(stmt)


def _compile_select(stmt: SelectStatement) -> Query:
    plan: Query = Table(stmt.table.name)
    for extra in stmt.cross_tables:
        plan = NaturalJoin(plan, Table(extra.name))
    for join in stmt.joins:
        plan = ValueJoin(
            plan, Table(join.table.name), [(join.left_column, join.right_column)]
        )

    if stmt.where:
        conditions = []
        for comparison in stmt.where:
            if comparison.right_is_column:
                conditions.append(AttrEqAttr(comparison.left, comparison.right))
            elif comparison.op == "=":
                conditions.append(AttrEq(comparison.left, comparison.right))
            else:
                conditions.append(
                    AttrCompare(comparison.left, comparison.op, comparison.right)
                )
        plan = Select(plan, conditions)

    agg_columns = [c for c in stmt.columns if isinstance(c, (AggColumn, CountStar))]
    plain_columns = [c for c in stmt.columns if isinstance(c, OutputColumn)]

    if not agg_columns:
        if stmt.group_by:
            raise ParseError("GROUP BY without aggregates is not supported")
        plan = Project(plan, [c.column for c in plain_columns])
        plan = _apply_aliases(plan, plain_columns)
        return Distinct(plan) if stmt.distinct else plan

    if stmt.group_by:
        return _compile_group_by(stmt, plan, agg_columns, plain_columns)
    return _compile_plain_aggregate(stmt, plan, agg_columns, plain_columns)


def _compile_group_by(
    stmt: SelectStatement,
    plan: Query,
    agg_columns: List[Union[AggColumn, CountStar]],
    plain_columns: List[OutputColumn],
) -> Query:
    group_attrs = list(stmt.group_by)
    for column in plain_columns:
        if column.column not in group_attrs:
            raise ParseError(
                f"column {column.column!r} appears in SELECT but not in GROUP BY"
            )
    aggregations: Dict[str, CommutativeMonoid] = {}
    count_attr = None
    renames: Dict[str, str] = {}
    for column in agg_columns:
        if isinstance(column, CountStar):
            count_attr = column.output_name
            continue
        if column.function == "AVG":
            raise ParseError("AVG with GROUP BY is not supported; use SUM and COUNT(*)")
        aggregations[column.column] = _MONOIDS[column.function]
        if column.alias:
            renames[column.column] = column.alias
    for column in plain_columns:
        if column.alias:
            renames[column.column] = column.alias
    plan = GroupBy(plan, group_attrs, aggregations, count_attr=count_attr)
    if renames:
        plan = Rename(plan, renames)
    if stmt.having:
        conditions = []
        for comparison in stmt.having:
            if comparison.right_is_column:
                conditions.append(AttrEqAttr(comparison.left, comparison.right))
            elif comparison.op == "=":
                conditions.append(AttrEq(comparison.left, comparison.right))
            else:
                conditions.append(
                    AttrCompare(comparison.left, comparison.op, comparison.right)
                )
        plan = Select(plan, conditions)
    if stmt.distinct:
        plan = Distinct(plan)
    return plan


def _compile_plain_aggregate(
    stmt: SelectStatement,
    plan: Query,
    agg_columns: List[Union[AggColumn, CountStar]],
    plain_columns: List[OutputColumn],
) -> Query:
    if plain_columns:
        raise ParseError(
            "non-aggregated columns alongside aggregates require GROUP BY"
        )
    if len(agg_columns) != 1:
        raise ParseError("multiple whole-relation aggregates are not supported")
    (column,) = agg_columns
    if isinstance(column, CountStar):
        return CountAgg(plan, column.output_name)
    projected = Project(plan, [column.column])
    if column.function == "AVG":
        out: Query = AvgAgg(projected, column.column)
    else:
        out = Aggregate(projected, column.column, _MONOIDS[column.function])
    if column.alias:
        out = Rename(out, {column.column: column.alias})
    return out


def _apply_aliases(plan: Query, columns: List[OutputColumn]) -> Query:
    renames = {c.column: c.alias for c in columns if c.alias}
    return Rename(plan, renames) if renames else plan
