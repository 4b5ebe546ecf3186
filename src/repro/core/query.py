"""A composable query AST over K-databases — the grammar, written once.

The commutation-with-homomorphisms theorems quantify over *queries*: the
same ``Q`` must be evaluable on a ``K``-database and on its homomorphic
image.  This module provides that first-class query object.  A node
states three things about itself, which every tree-walker (rewrites,
delta rules, plan compiler, incremental views) asks for instead of
enumerating the classes: its operands (``children`` / ``with_children``);
its static output schema, which is also its well-formedness check
(``schema(catalog)`` — decided before any row is read); and its one
evaluation rule over an operator table (``_eval(db, ops)``).  The two
tables are the paper's two semantics:

``mode="standard"`` — :class:`~repro.core.aggregates.StandardOps`
    SPJU-AGB (Sections 2.1, 3.2, 3.3): aggregation must come last; value
    comparisons are decided on ordinary domain values, and comparing a
    symbolic aggregate raises :class:`QueryError`.

``mode="extended"`` — :class:`~repro.core.nested.ExtendedOps`
    The Section 4.3 semantics: annotations live in ``K^M``, comparisons on
    symbolic aggregates become equality atoms, and the final result is
    collapsed back to ``K`` whenever every atom resolved (Prop. 4.4).

Example::

    q = GroupBy(Table("R"), ["Dept"], {"Sal": SUM})
    q = Select(q, [AttrEq("Sal", 20)])
    result = q.evaluate(db, mode="extended")
"""

from __future__ import annotations

import abc
from typing import Any, Iterable, Mapping, Tuple

from repro.core import aggregates as agg_ops
from repro.core import nested
from repro.core.comparisons import ORDER_PREDICATES, decide_order
from repro.core.database import KDatabase
from repro.core.equality import km_semiring
from repro.core.relation import KRelation
from repro.core.schema import Schema
from repro.core.tuples import Tup
from repro.exceptions import QueryError, SchemaError
from repro.monoids.base import CommutativeMonoid
from repro.monoids.numeric import SUM
from repro.semirings.polynomials import PolynomialSemiring

__all__ = [
    "Condition",
    "AttrEq",
    "AttrEqAttr",
    "AttrCompare",
    "Query",
    "Table",
    "Union",
    "Project",
    "Select",
    "NaturalJoin",
    "ValueJoin",
    "Cartesian",
    "Rename",
    "Aggregate",
    "GroupBy",
    "CountAgg",
    "AvgAgg",
    "Distinct",
    "Difference",
]


# ---------------------------------------------------------------------------
# selection conditions
# ---------------------------------------------------------------------------


class Condition(abc.ABC):
    """A selection condition (currently: equality comparisons).

    The paper notes its results extend to arbitrary comparison predicates
    decidable on ``M``; equality is the representative case implemented
    throughout.
    """

    @abc.abstractmethod
    def standard_test(self, tup: Tup) -> bool:
        """Decide the condition on plain values (standard mode)."""

    @abc.abstractmethod
    def extended_apply(
        self, rel: KRelation, km: PolynomialSemiring
    ) -> KRelation:
        """Multiply the condition's equality annotation in (extended mode)."""

    @abc.abstractmethod
    def attributes(self) -> Tuple[str, ...]:
        """The attributes the condition reads (for standard-mode guards)."""


class AttrEq(Condition):
    """``attribute = constant``."""

    def __init__(self, attribute: str, value: Any):
        self.attribute = attribute
        self.value = value

    def standard_test(self, tup: Tup) -> bool:
        return tup[self.attribute] == self.value

    def extended_apply(self, rel: KRelation, km: PolynomialSemiring) -> KRelation:
        return nested.ext_selection_const(rel, self.attribute, self.value, km)

    def attributes(self) -> Tuple[str, ...]:
        return (self.attribute,)

    def __str__(self) -> str:
        return f"{self.attribute} = {self.value}"


class AttrCompare(Condition):
    """``attribute op constant`` for an order predicate (<, <=, >, >=).

    The Section-4 extension to arbitrary decidable comparison predicates:
    in extended mode, symbolic aggregates produce
    :class:`~repro.core.comparisons.ComparisonAtom` tokens (HAVING-style
    filtering with provenance).
    """

    def __init__(self, attribute: str, op: str, value: Any):
        if op not in ORDER_PREDICATES:
            raise QueryError(f"unknown comparison operator {op!r}")
        self.attribute = attribute
        self.op = op
        self.value = value

    def standard_test(self, tup: Tup) -> bool:
        try:
            return ORDER_PREDICATES[self.op](tup[self.attribute], self.value)
        except TypeError:  # a mistyped predicate: the typed error names the pair
            return decide_order(self.op, tup[self.attribute], self.value)

    def extended_apply(self, rel: KRelation, km: PolynomialSemiring) -> KRelation:
        return nested.ext_selection_order(rel, self.attribute, self.op, self.value, km)

    def attributes(self) -> Tuple[str, ...]:
        return (self.attribute,)

    def __str__(self) -> str:
        return f"{self.attribute} {self.op} {self.value}"


class AttrEqAttr(Condition):
    """``attribute1 = attribute2`` within one relation."""

    def __init__(self, attribute1: str, attribute2: str):
        self.attribute1 = attribute1
        self.attribute2 = attribute2

    def standard_test(self, tup: Tup) -> bool:
        return tup[self.attribute1] == tup[self.attribute2]

    def extended_apply(self, rel: KRelation, km: PolynomialSemiring) -> KRelation:
        return nested.ext_selection_attrs(rel, self.attribute1, self.attribute2, km)

    def attributes(self) -> Tuple[str, ...]:
        return (self.attribute1, self.attribute2)

    def __str__(self) -> str:
        return f"{self.attribute1} = {self.attribute2}"


# ---------------------------------------------------------------------------
# query nodes
# ---------------------------------------------------------------------------


class Query(abc.ABC):
    """A relational-algebra expression evaluable on any K-database."""

    def evaluate(
        self,
        db: KDatabase,
        mode: str = "standard",
        engine: str = "interpreted",
        annotations: str = "expanded",
        deadline=None,
    ):
        """Run the query.

        ``mode="standard"`` uses the SPJU-AGB semantics of Section 3;
        ``mode="extended"`` the Section 4.3 semantics, collapsing ``K^M``
        back to ``K`` when every equality atom resolved (Prop. 4.4).

        ``engine`` selects *how* the semantics are computed:

        ``"interpreted"``
            the paper-faithful tree-walking interpreter (the default);
        ``"planned"``
            compile to a physical plan (:mod:`repro.plan`) — selection
            pushdown, hash joins with cached build sides, columnar
            pipelines — and execute that.  Annotated results are identical
            by construction (and by the property suite
            ``tests/property/test_oracle.py``).  Where the plan's root
            runs on the encoded tier over a concrete semiring (``N``,
            ``Z``, ``B``, tropical, Viterbi), the result is a
            :class:`~repro.plan.term_result.TermResult`: a
            :class:`~repro.core.relation.KRelation` that keeps the root's
            arrays (key codes, collapsed aggregate values, annotation
            totals) and builds its rows only when read (``lower()``);
            ``len`` reads the arrays and ``==`` compares them first.
            Without NumPy it is a plain ``KRelation``.  The extended
            (Section 4.3) semantics have no physical fast path yet and
            fall back to the interpreter.

        ``annotations`` selects the *representation* symbolic provenance
        is computed in (planned engine, standard mode, ``N[X]`` databases
        only):

        ``"expanded"``
            canonical provenance polynomials — the default, and the only
            choice for concrete semirings.  Where the planned result's
            root folds ``N[X]`` term rows on the encoded tier (a grouped
            or whole-relation aggregation, a projection's merge), it is a
            :class:`~repro.plan.term_result.TermResult`: a
            :class:`~repro.core.relation.KRelation` whose polynomials stay
            in the term store until read — ``apply_hom`` into ``N``,
            ``Z`` or ``B`` maps them as arrays, and any other read builds
            the row map once (``lower()``);
        ``"circuit"``
            run the plan over hash-consed provenance circuits and return
            the same :class:`~repro.plan.term_result.TermResult` (with or
            without NumPy) holding the gates (``circuit_relation``) as an
            ``N[X]`` relation: ``apply_hom`` of a valuation
            evaluates the shared gates once per valuation, in one pass,
            and any other read expands them once to the identical
            canonical ``N[X]`` relation (``lower()``).

        The compiled plan is cached on the query object, one per
        representation, and reused while the database's
        :attr:`~repro.core.database.KDatabase.version` stamp is unchanged
        (any relation mutation recompiles).

        ``deadline`` is an optional wall-clock budget — a
        :class:`repro.deadline.Deadline` or a number of seconds.  The
        planned engine checks it cooperatively at every operator, in both
        annotation representations (and per morsel on the parallel tier);
        the interpreter checks it at evaluation entry and exit.  Expiry raises
        :class:`~repro.exceptions.DeadlineExceeded`.
        """
        if engine not in ("interpreted", "planned"):
            raise QueryError(f"unknown evaluation engine {engine!r}")
        if annotations not in ("expanded", "circuit"):
            raise QueryError(f"unknown annotation representation {annotations!r}")
        if deadline is not None and not hasattr(deadline, "check"):
            from repro.deadline import Deadline  # local: tiny, no cycle

            deadline = Deadline.after(float(deadline))
        if deadline is not None:
            deadline.check("query start")
        if mode not in ("standard", "extended"):
            raise QueryError(f"unknown evaluation mode {mode!r}")
        if annotations == "circuit" and (engine != "planned" or mode != "standard"):
            raise QueryError(
                "annotations='circuit' requires engine='planned' and "
                "mode='standard'"
            )
        if mode == "standard" and engine == "planned":
            return self._cached_plan(db, annotations).execute(db, deadline=deadline)
        self.schema({name: rel.schema for name, rel in db})
        if mode == "standard":
            result = self._eval(db, agg_ops.StandardOps)
        else:
            ops = nested.ExtendedOps(km_semiring(db.semiring))
            result = nested.collapse_km_relation(self._eval(db, ops), db.semiring)
        if deadline is not None:
            deadline.check("query end")
        return result

    #: Per-query plan cache capacity (distinct database versions; a
    #: circuit plan and an expanded plan of one version are two entries).
    _PLAN_CACHE_SLOTS = 4

    def _cached_plan(self, db: KDatabase, annotations: str = "expanded"):
        """Compile (or reuse) the physical plan for this query over ``db``
        in the representation ``annotations`` names.

        The cache keys on the database's *root* identity plus its
        monotonic :attr:`~repro.core.database.KDatabase.version` stamp
        and the representation:
        every :class:`~repro.core.database.DatabaseSnapshot` of the same
        database at the same version shares one compiled plan (that is
        the serving layer's prepared-query reuse), while *any* relation
        mutation (``db.add``, ``db.update``) keys a fresh entry, so a
        refreshed database never serves a plan whose scan and join-build
        caches, cardinality estimates, or build-side choices were taken
        against stale data.  A few ``(database, version, representation)``
        keys are tracked at once with true LRU eviction
        (:class:`repro.caching.LRUDict`, itself thread-safe), so
        alternating the same prepared query between databases, or between
        the expanded and circuit representations, does not thrash the cache,
        and a query object served against many databases stays bounded.
        Concurrent readers may both miss and compile; the plans are
        equivalent and the last store wins.
        """
        from repro.caching import LRUDict
        from repro.plan.compiler import compile_plan  # local: plan imports core

        root = db.root
        key = (id(root), db.version, annotations)
        cache = self.__dict__.get("_plan_cache")
        if cache is None:
            # setdefault: two racing readers end up sharing one cache
            cache = self.__dict__.setdefault(
                "_plan_cache", LRUDict(self._PLAN_CACHE_SLOTS)
            )
        entry = cache.get(key)
        # the entry anchors the root object, so id() recycling cannot
        # alias a dead database's key to a live one
        if entry is not None and entry[0] is root:
            return entry[1]
        plan = compile_plan(self, db, annotations=annotations)
        cache[key] = (root, plan)
        return plan

    @property
    def _operands(self) -> Tuple[str, ...]:
        # a node keeps its operands in ``child``, or in ``left`` and ``right``
        fields = self.__dict__
        return ("child",) if "child" in fields else ("left", "right") if "left" in fields else ()

    @property
    def children(self) -> Tuple["Query", ...]:
        """This node's operand queries, left to right."""
        fields = self.__dict__
        return tuple([fields[name] for name in self._operands])

    def with_children(self, *children: "Query") -> "Query":
        """The same node around new operands (parameters shared, plans not)."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__, **dict(zip(self._operands, children, strict=True)))
        clone.__dict__.pop("_plan_cache", None)  # compiled for the old operands
        return clone

    @abc.abstractmethod
    def schema(self, catalog: Mapping[str, Schema]) -> Schema:
        """The static output schema against base-table schemas.

        Also the node's well-formedness check: an ill-formed query raises
        here (:class:`SchemaError` / :class:`QueryError`), on schemas
        alone — so before any row is read, and for empty input too.
        """

    @abc.abstractmethod
    def _eval(self, db: KDatabase, ops: Any) -> KRelation:
        """This node's rule, over an operator table (``StandardOps`` or ``ExtendedOps``)."""

    @abc.abstractmethod
    def __str__(self) -> str: ...

    def _same_schema(self, catalog: Mapping[str, Schema]) -> Schema:
        left, right = (child.schema(catalog) for child in self.children)
        if left != right:
            raise SchemaError(f"{self}: incompatible schemas {left} and {right}")
        return left

    def _disjoint_schemas(self, catalog: Mapping[str, Schema]) -> Tuple[Schema, Schema]:
        left, right = (child.schema(catalog) for child in self.children)
        if not left.is_disjoint(right):
            raise SchemaError(f"{self}: overlapping schemas {left} / {right}; rename first")
        return left, right


class Table(Query):
    """A base relation reference."""

    def __init__(self, name: str):
        self.name = name

    def schema(self, catalog: Mapping[str, Schema]) -> Schema:
        if self.name not in catalog:
            raise QueryError(f"table {self.name!r} not in catalog")
        return catalog[self.name]

    def _eval(self, db: KDatabase, ops: Any) -> KRelation:
        return ops.table(db.relation(self.name))

    def __str__(self) -> str:
        return self.name


class Union(Query):
    """``left ∪ right`` (annotations add)."""

    def __init__(self, left: Query, right: Query):
        self.left = left
        self.right = right

    def schema(self, catalog: Mapping[str, Schema]) -> Schema:
        return self._same_schema(catalog)

    def _eval(self, db: KDatabase, ops: Any) -> KRelation:
        return ops.union(self.left._eval(db, ops), self.right._eval(db, ops))

    def __str__(self) -> str:
        return f"({self.left} ∪ {self.right})"


class Project(Query):
    """``Π_attrs(child)`` (annotations of merged tuples add)."""

    def __init__(self, child: Query, attributes: Iterable[str]):
        self.child = child
        self.attributes = tuple(attributes)

    def schema(self, catalog: Mapping[str, Schema]) -> Schema:
        return self.child.schema(catalog).restrict(self.attributes)

    def _eval(self, db: KDatabase, ops: Any) -> KRelation:
        return ops.projection(self.child._eval(db, ops), self.attributes)

    def __str__(self) -> str:
        return f"Π[{', '.join(self.attributes)}]({self.child})"


class Select(Query):
    """``σ_conditions(child)`` — a conjunction of equality conditions."""

    def __init__(self, child: Query, conditions: Iterable[Condition]):
        self.child = child
        self.conditions = tuple(conditions)

    def schema(self, catalog: Mapping[str, Schema]) -> Schema:
        schema = self.child.schema(catalog)
        for attr in (a for c in self.conditions for a in c.attributes()):
            schema.index_of(attr)  # SchemaError when absent
        return schema

    def _eval(self, db: KDatabase, ops: Any) -> KRelation:
        return ops.selection(self.child._eval(db, ops), self.conditions)

    def __str__(self) -> str:
        conds = " ∧ ".join(str(c) for c in self.conditions)
        return f"σ[{conds}]({self.child})"


class NaturalJoin(Query):
    """``left ⋈ right`` on the shared attributes."""

    def __init__(self, left: Query, right: Query):
        self.left = left
        self.right = right

    def schema(self, catalog: Mapping[str, Schema]) -> Schema:
        return self.left.schema(catalog).union(self.right.schema(catalog))

    def _eval(self, db: KDatabase, ops: Any) -> KRelation:
        return ops.natural_join(self.left._eval(db, ops), self.right._eval(db, ops))

    def __str__(self) -> str:
        return f"({self.left} ⋈ {self.right})"


class ValueJoin(Query):
    """Value-based join on explicit attribute pairs (disjoint schemas)."""

    def __init__(
        self,
        left: Query,
        right: Query,
        on: Mapping[str, str] | Iterable[Tuple[str, str]],
    ):
        self.left = left
        self.right = right
        self.on = list(on.items()) if isinstance(on, Mapping) else list(on)

    def schema(self, catalog: Mapping[str, Schema]) -> Schema:
        left, right = self._disjoint_schemas(catalog)
        for left_attr, right_attr in self.on:
            left.index_of(left_attr)  # SchemaError when absent
            right.index_of(right_attr)
        return left.union(right)

    def _eval(self, db: KDatabase, ops: Any) -> KRelation:
        return ops.value_join(self.left._eval(db, ops), self.right._eval(db, ops), self.on)

    def __str__(self) -> str:
        conds = ", ".join(f"{a}={b}" for a, b in self.on)
        return f"({self.left} ⋈[{conds}] {self.right})"


class Cartesian(Query):
    """``left × right`` (disjoint schemas)."""

    def __init__(self, left: Query, right: Query):
        self.left = left
        self.right = right

    def schema(self, catalog: Mapping[str, Schema]) -> Schema:
        left, right = self._disjoint_schemas(catalog)
        return left.union(right)

    def _eval(self, db: KDatabase, ops: Any) -> KRelation:
        return ops.cartesian(self.left._eval(db, ops), self.right._eval(db, ops))

    def __str__(self) -> str:
        return f"({self.left} × {self.right})"


class Rename(Query):
    """Attribute renaming."""

    def __init__(self, child: Query, mapping: Mapping[str, str]):
        self.child = child
        self.mapping = dict(mapping)

    def schema(self, catalog: Mapping[str, Schema]) -> Schema:
        return self.child.schema(catalog).rename(self.mapping)

    def _eval(self, db: KDatabase, ops: Any) -> KRelation:
        return ops.rename(self.child._eval(db, ops), self.mapping)

    def __str__(self) -> str:
        pairs = ", ".join(f"{a}→{b}" for a, b in self.mapping.items())
        return f"ρ[{pairs}]({self.child})"


class Aggregate(Query):
    """``AGG_M`` over a single attribute (whole-relation aggregation)."""

    def __init__(self, child: Query, attribute: str, monoid: CommutativeMonoid):
        self.child = child
        self.attribute = attribute
        self.monoid = monoid

    def schema(self, catalog: Mapping[str, Schema]) -> Schema:
        return agg_ops.single_column(self.child.schema(catalog), self.attribute, "AGG")

    def _eval(self, db: KDatabase, ops: Any) -> KRelation:
        return ops.aggregate(self.child._eval(db, ops), self.attribute, self.monoid)

    def __str__(self) -> str:
        return f"AGG[{self.monoid.name}({self.attribute})]({self.child})"


class GroupBy(Query):
    """``GB_{U',U''}`` — grouped aggregation (Definition 3.7 / item 7).

    ``count_attr`` optionally adds a COUNT(*) column implemented per the
    paper's footnote 6: the constant 1 aggregated through SUM.
    """

    def __init__(
        self,
        child: Query,
        group_attributes: Iterable[str],
        aggregations: Mapping[str, CommutativeMonoid] | Iterable[Tuple[str, CommutativeMonoid]],
        count_attr: str | None = None,
    ):
        self.child = child
        self.group_attributes = tuple(group_attributes)
        self.aggregations = agg_ops.normalize_agg_specs(aggregations)
        self.count_attr = count_attr

    def schema(self, catalog: Mapping[str, Schema]) -> Schema:
        child = self.child.schema(catalog)
        agg_ops.check_group_by(
            child, self.group_attributes, self.aggregations, self.count_attr, None
        )
        out = child.restrict(self.group_attributes).extend(*self.aggregations)
        return out if self.count_attr is None else out.extend(self.count_attr)

    def _eval(self, db: KDatabase, ops: Any) -> KRelation:
        rel, specs = self.child._eval(db, ops), dict(self.aggregations)
        if self.count_attr is not None:  # footnote 6: COUNT is SUM over the constant 1
            rel = _with_constant_column(rel, self.count_attr, 1)
            specs[self.count_attr] = SUM
        return ops.group_by(rel, self.group_attributes, specs)

    def __str__(self) -> str:
        aggs = ", ".join(f"{m.name}({a})" for a, m in self.aggregations.items())
        if self.count_attr is not None:
            aggs = aggs + (", " if aggs else "") + f"COUNT→{self.count_attr}"
        return f"GB[{', '.join(self.group_attributes)}; {aggs}]({self.child})"


class CountAgg(Query):
    """COUNT(*) over the whole child relation."""

    def __init__(self, child: Query, attribute: str = "count"):
        self.child = child
        self.attribute = attribute

    def schema(self, catalog: Mapping[str, Schema]) -> Schema:
        self.child.schema(catalog)
        return Schema((self.attribute,))

    def _eval(self, db: KDatabase, ops: Any) -> KRelation:
        return ops.count(self.child._eval(db, ops), self.attribute)

    def __str__(self) -> str:
        return f"COUNT({self.child})"


class AvgAgg(Query):
    """AVG over a single attribute (SUM + COUNT pair monoid)."""

    def __init__(self, child: Query, attribute: str):
        self.child = child
        self.attribute = attribute

    def schema(self, catalog: Mapping[str, Schema]) -> Schema:
        return agg_ops.single_column(self.child.schema(catalog), self.attribute, "AVG")

    def _eval(self, db: KDatabase, ops: Any) -> KRelation:
        return ops.avg(self.child._eval(db, ops), self.attribute)

    def __str__(self) -> str:
        return f"AVG[{self.attribute}]({self.child})"


class Distinct(Query):
    """Duplicate elimination: apply ``delta`` to every annotation.

    The semiring-annotated reading of SQL's ``SELECT DISTINCT``: the
    delta-laws force multiplicity at most 1 under every homomorphism
    while keeping full provenance of *which* alternatives existed.
    """

    def __init__(self, child: Query):
        self.child = child

    def schema(self, catalog: Mapping[str, Schema]) -> Schema:
        return self.child.schema(catalog)

    def _eval(self, db: KDatabase, ops: Any) -> KRelation:
        return ops.distinct(self.child._eval(db, ops))

    def __str__(self) -> str:
        return f"δ({self.child})"


class Difference(Query):
    """``left − right`` via the Section 5 aggregation encoding.

    ``method="direct"`` uses the Prop. 5.1 closed form
    ``[S(t)(x)T = 0] * R(t)``; ``method="encoding"`` runs the literal
    ``GB``/join/projection pipeline through the extended semantics.
    """

    def __init__(self, left: Query, right: Query, method: str = "direct"):
        if method not in ("direct", "encoding"):
            raise QueryError(f"unknown difference method {method!r}")
        self.left = left
        self.right = right
        self.method = method

    def schema(self, catalog: Mapping[str, Schema]) -> Schema:
        return self._same_schema(catalog)

    def _eval(self, db: KDatabase, ops: Any) -> KRelation:
        left, right = self.left._eval(db, ops), self.right._eval(db, ops)
        return ops.difference(left, right, self.method)

    def __str__(self) -> str:
        return f"({self.left} − {self.right})"


def _with_constant_column(rel: KRelation, attribute: str, value: Any) -> KRelation:
    """Extend every tuple with a constant column (COUNT plumbing)."""
    if attribute in rel.schema:
        raise QueryError(f"attribute {attribute!r} already exists in {rel.schema}")
    schema = rel.schema.extend(attribute)
    pairs = [(Tup(dict(t.items()) | {attribute: value}), k) for t, k in rel.rows()]
    return KRelation(rel.semiring, schema, pairs)
