"""A composable query AST over K-databases.

The commutation-with-homomorphisms theorems quantify over *queries*: the
same ``Q`` must be evaluable on a ``K``-database and on its homomorphic
image.  This module provides that first-class query object.  Two
evaluation modes realise the paper's two semantics:

``mode="standard"``
    SPJU-AGB (Sections 2.1, 3.2, 3.3): aggregation must come last; value
    comparisons are decided on ordinary domain values, and comparing a
    symbolic aggregate raises :class:`QueryError`.

``mode="extended"``
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
from typing import Any, Dict, Iterable, Mapping, Tuple

from repro.core import aggregates as agg_ops
from repro.core import nested, operators
from repro.core.database import KDatabase
from repro.core.equality import km_semiring
from repro.core.relation import KRelation
from repro.core.tuples import Tup
from repro.exceptions import QueryError
from repro.monoids.base import CommutativeMonoid
from repro.monoids.numeric import SUM
from repro.semimodules.tensor import tensor_space
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

    _TESTS = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    def __init__(self, attribute: str, op: str, value: Any):
        if op not in self._TESTS:
            raise QueryError(f"unknown comparison operator {op!r}")
        self.attribute = attribute
        self.op = op
        self.value = value

    def standard_test(self, tup: Tup) -> bool:
        return self._TESTS[self.op](tup[self.attribute], self.value)

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
            ``tests/property/test_planner_equivalence.py``).  The extended
            (Section 4.3) semantics have no physical fast path yet and
            fall back to the interpreter.

        ``annotations`` selects the *representation* symbolic provenance
        is computed in (planned engine, standard mode, ``N[X]`` databases
        only):

        ``"expanded"``
            canonical provenance polynomials throughout — every operator
            returns normal forms (the default, and the only choice for
            concrete semirings);
        ``"circuit"``
            run the plan over hash-consed provenance circuits and return a
            :class:`~repro.plan.circuit_exec.CircuitResult` that lowers
            lazily: ``specialise(valuation, target)`` batch-evaluates the
            shared gates once per valuation, ``lower()`` expands to the
            identical canonical ``N[X]`` relation on demand.

        The compiled plan is cached on the query object and reused while
        the database's :attr:`~repro.core.database.KDatabase.version`
        stamp is unchanged (any relation mutation recompiles).

        ``deadline`` is an optional wall-clock budget — a
        :class:`repro.deadline.Deadline` or a number of seconds.  The
        planned engine checks it cooperatively at every operator (and
        per morsel on the parallel tier); the other engines check it at
        evaluation entry and exit.  Expiry raises
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
        if annotations == "circuit":
            if engine != "planned" or mode != "standard":
                raise QueryError(
                    "annotations='circuit' requires engine='planned' and "
                    "mode='standard'"
                )
            from repro.plan.circuit_exec import evaluate_circuit_backed  # local: plan imports core

            result = evaluate_circuit_backed(self, db)
            if deadline is not None:
                deadline.check("query end")
            return result
        if mode == "standard":
            if engine == "planned":
                return self._cached_plan(db).execute(db, deadline=deadline)
            result = self._eval_standard(db)
            if deadline is not None:
                deadline.check("query end")
            return result
        if mode == "extended":
            km = km_semiring(db.semiring)
            result = self._eval_extended(db, km)
            collapsed = nested.collapse_km_relation(result, db.semiring)
            if deadline is not None:
                deadline.check("query end")
            return collapsed
        raise QueryError(f"unknown evaluation mode {mode!r}")

    #: Per-query plan cache capacity (distinct databases; the circuit image
    #: of a database counts as its own entry).
    _PLAN_CACHE_SLOTS = 4

    def _cached_plan(self, db: KDatabase):
        """Compile (or reuse) the physical plan for this query over ``db``.

        The cache keys on the database's *root* identity plus its
        monotonic :attr:`~repro.core.database.KDatabase.version` stamp:
        every :class:`~repro.core.database.DatabaseSnapshot` of the same
        database at the same version shares one compiled plan (that is
        the serving layer's prepared-query reuse), while *any* relation
        mutation (``db.add``, ``db.update``) keys a fresh entry, so a
        refreshed database never serves a plan whose scan and join-build
        caches, cardinality estimates, or build-side choices were taken
        against stale data.  A few ``(database, version)`` pairs are
        tracked at once with true LRU eviction
        (:class:`repro.caching.LRUDict`, itself thread-safe), so
        alternating the same prepared query between databases — e.g. the
        expanded and circuit-backed images — does not thrash the cache,
        and a query object served against many databases stays bounded.
        Concurrent readers may both miss and compile; the plans are
        equivalent and the last store wins.
        """
        from repro.caching import LRUDict
        from repro.plan.compiler import compile_plan  # local: plan imports core

        root = db.root
        key = (id(root), db.version)
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
        plan = compile_plan(self, db)
        cache[key] = (root, plan)
        return plan

    @abc.abstractmethod
    def _eval_standard(self, db: KDatabase) -> KRelation: ...

    @abc.abstractmethod
    def _eval_extended(self, db: KDatabase, km: PolynomialSemiring) -> KRelation: ...

    @abc.abstractmethod
    def __str__(self) -> str: ...


class Table(Query):
    """A base relation reference."""

    def __init__(self, name: str):
        self.name = name

    def _eval_standard(self, db: KDatabase) -> KRelation:
        return db.relation(self.name)

    def _eval_extended(self, db: KDatabase, km: PolynomialSemiring) -> KRelation:
        return nested.lift_to_km(db.relation(self.name), km)

    def __str__(self) -> str:
        return self.name


class Union(Query):
    """``left ∪ right`` (annotations add)."""

    def __init__(self, left: Query, right: Query):
        self.left = left
        self.right = right

    def _eval_standard(self, db: KDatabase) -> KRelation:
        return operators.union(self.left._eval_standard(db), self.right._eval_standard(db))

    def _eval_extended(self, db: KDatabase, km: PolynomialSemiring) -> KRelation:
        return nested.ext_union(
            self.left._eval_extended(db, km), self.right._eval_extended(db, km), km
        )

    def __str__(self) -> str:
        return f"({self.left} ∪ {self.right})"


class Project(Query):
    """``Π_attrs(child)`` (annotations of merged tuples add)."""

    def __init__(self, child: Query, attributes: Iterable[str]):
        self.child = child
        self.attributes = tuple(attributes)

    def _eval_standard(self, db: KDatabase) -> KRelation:
        return operators.projection(self.child._eval_standard(db), self.attributes)

    def _eval_extended(self, db: KDatabase, km: PolynomialSemiring) -> KRelation:
        return nested.ext_projection(self.child._eval_extended(db, km), self.attributes, km)

    def __str__(self) -> str:
        return f"Π[{', '.join(self.attributes)}]({self.child})"


class Select(Query):
    """``σ_conditions(child)`` — a conjunction of equality conditions."""

    def __init__(self, child: Query, conditions: Iterable[Condition]):
        self.child = child
        self.conditions = tuple(conditions)

    def _eval_standard(self, db: KDatabase) -> KRelation:
        rel = self.child._eval_standard(db)
        attrs = [a for c in self.conditions for a in c.attributes()]
        operators.require_plain_values(rel, attrs, f"selection {self}")
        return operators.selection(
            rel, lambda t: all(c.standard_test(t) for c in self.conditions)
        )

    def _eval_extended(self, db: KDatabase, km: PolynomialSemiring) -> KRelation:
        rel = self.child._eval_extended(db, km)
        for condition in self.conditions:
            rel = condition.extended_apply(rel, km)
        return rel

    def __str__(self) -> str:
        conds = " ∧ ".join(str(c) for c in self.conditions)
        return f"σ[{conds}]({self.child})"


class NaturalJoin(Query):
    """``left ⋈ right`` on the shared attributes."""

    def __init__(self, left: Query, right: Query):
        self.left = left
        self.right = right

    def _eval_standard(self, db: KDatabase) -> KRelation:
        l = self.left._eval_standard(db)
        r = self.right._eval_standard(db)
        common = l.schema.intersection(r.schema)
        operators.require_plain_values(l, common, f"join {self}")
        operators.require_plain_values(r, common, f"join {self}")
        return operators.natural_join(l, r)

    def _eval_extended(self, db: KDatabase, km: PolynomialSemiring) -> KRelation:
        return nested.ext_natural_join(
            self.left._eval_extended(db, km), self.right._eval_extended(db, km), km
        )

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

    def _eval_standard(self, db: KDatabase) -> KRelation:
        l = self.left._eval_standard(db)
        r = self.right._eval_standard(db)
        operators.require_plain_values(l, [a for a, _b in self.on], f"join {self}")
        operators.require_plain_values(r, [b for _a, b in self.on], f"join {self}")
        return operators.equijoin(l, r, self.on)

    def _eval_extended(self, db: KDatabase, km: PolynomialSemiring) -> KRelation:
        return nested.ext_value_join(
            self.left._eval_extended(db, km), self.right._eval_extended(db, km),
            self.on, km,
        )

    def __str__(self) -> str:
        conds = ", ".join(f"{a}={b}" for a, b in self.on)
        return f"({self.left} ⋈[{conds}] {self.right})"


class Cartesian(Query):
    """``left × right`` (disjoint schemas)."""

    def __init__(self, left: Query, right: Query):
        self.left = left
        self.right = right

    def _eval_standard(self, db: KDatabase) -> KRelation:
        return operators.cartesian(
            self.left._eval_standard(db), self.right._eval_standard(db)
        )

    def _eval_extended(self, db: KDatabase, km: PolynomialSemiring) -> KRelation:
        return nested.ext_cartesian(
            self.left._eval_extended(db, km), self.right._eval_extended(db, km), km
        )

    def __str__(self) -> str:
        return f"({self.left} × {self.right})"


class Rename(Query):
    """Attribute renaming."""

    def __init__(self, child: Query, mapping: Mapping[str, str]):
        self.child = child
        self.mapping = dict(mapping)

    def _eval_standard(self, db: KDatabase) -> KRelation:
        return operators.rename(self.child._eval_standard(db), self.mapping)

    def _eval_extended(self, db: KDatabase, km: PolynomialSemiring) -> KRelation:
        return operators.rename(self.child._eval_extended(db, km), self.mapping)

    def __str__(self) -> str:
        pairs = ", ".join(f"{a}→{b}" for a, b in self.mapping.items())
        return f"ρ[{pairs}]({self.child})"


class Aggregate(Query):
    """``AGG_M`` over a single attribute (whole-relation aggregation)."""

    def __init__(self, child: Query, attribute: str, monoid: CommutativeMonoid):
        self.child = child
        self.attribute = attribute
        self.monoid = monoid

    def _eval_standard(self, db: KDatabase) -> KRelation:
        return agg_ops.aggregate(
            self.child._eval_standard(db), self.attribute, self.monoid
        )

    def _eval_extended(self, db: KDatabase, km: PolynomialSemiring) -> KRelation:
        return nested.ext_aggregate(
            self.child._eval_extended(db, km), self.attribute, self.monoid, km
        )

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

    def _specs_and_input(self, rel: KRelation) -> Tuple[KRelation, Dict[str, CommutativeMonoid]]:
        specs = dict(self.aggregations)
        if self.count_attr is not None:
            rel = _with_constant_column(rel, self.count_attr, 1)
            specs[self.count_attr] = SUM
        return rel, specs

    def _eval_standard(self, db: KDatabase) -> KRelation:
        rel, specs = self._specs_and_input(self.child._eval_standard(db))
        return agg_ops.group_by(rel, self.group_attributes, specs)

    def _eval_extended(self, db: KDatabase, km: PolynomialSemiring) -> KRelation:
        rel, specs = self._specs_and_input(self.child._eval_extended(db, km))
        return nested.ext_group_by(rel, self.group_attributes, specs, km)

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

    def _eval_standard(self, db: KDatabase) -> KRelation:
        return agg_ops.count_aggregate(self.child._eval_standard(db), self.attribute)

    def _eval_extended(self, db: KDatabase, km: PolynomialSemiring) -> KRelation:
        # COUNT(*) = SUM over the constant 1 (footnote 6): build the
        # one-column relation of 1s directly, preserving each tuple's
        # annotation, then aggregate.
        rel = self.child._eval_extended(db, km)
        space = tensor_space(km, SUM)
        total = space.zero
        for _t, annotation in rel.rows():
            total = space.add(total, space.simple(annotation, 1))
        out = Tup({self.attribute: total})
        return KRelation(km, (self.attribute,), [(out, km.one)])

    def __str__(self) -> str:
        return f"COUNT({self.child})"


class AvgAgg(Query):
    """AVG over a single attribute (SUM + COUNT pair monoid)."""

    def __init__(self, child: Query, attribute: str):
        self.child = child
        self.attribute = attribute

    def _eval_standard(self, db: KDatabase) -> KRelation:
        return agg_ops.avg_aggregate(self.child._eval_standard(db), self.attribute)

    def _eval_extended(self, db: KDatabase, km: PolynomialSemiring) -> KRelation:
        raise QueryError("AVG is available in standard mode only")

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

    def _eval_standard(self, db: KDatabase) -> KRelation:
        rel = self.child._eval_standard(db)
        return rel.map_annotations(rel.semiring, rel.semiring.delta)

    def _eval_extended(self, db: KDatabase, km: PolynomialSemiring) -> KRelation:
        rel = self.child._eval_extended(db, km)
        return rel.map_annotations(km, km.delta)

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

    def _eval_standard(self, db: KDatabase) -> KRelation:
        # local import: avoid import cycle (difference imports nested)
        from repro.core.difference import difference, difference_via_aggregation

        l = self.left._eval_standard(db)
        r = self.right._eval_standard(db)
        if self.method == "direct":
            return difference(l, r)
        return difference_via_aggregation(l, r)

    def _eval_extended(self, db: KDatabase, km: PolynomialSemiring) -> KRelation:
        # local import: avoid import cycle (difference imports nested)
        from repro.core.difference import difference, difference_via_aggregation

        l = self.left._eval_extended(db, km)
        r = self.right._eval_extended(db, km)
        if self.method == "direct":
            result = difference(l, r)
        else:
            result = difference_via_aggregation(l, r)
        return nested.lift_to_km(result, km)

    def __str__(self) -> str:
        return f"({self.left} − {self.right})"


def _with_constant_column(rel: KRelation, attribute: str, value: Any) -> KRelation:
    """Extend every tuple with a constant column (COUNT plumbing)."""
    if attribute in rel.schema:
        raise QueryError(f"attribute {attribute!r} already exists in {rel.schema}")
    schema = rel.schema.extend(attribute)
    pairs = [
        (Tup(dict(t.items()) | {attribute: value}), k) for t, k in rel.rows()
    ]
    return KRelation(rel.semiring, schema, pairs)
