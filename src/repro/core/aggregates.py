"""Aggregation operators for "simple" queries (Sections 3.2-3.3).

``AGG_M(R)`` (Section 3.2)
    Input: a K-relation over one attribute whose values lie in the monoid
    ``M``.  Output: a single tuple, annotated ``1_K``, whose value is the
    tensor ``SetAgg(iota(R)) = k_1 (x) m_1 + ... + k_n (x) m_n``; the empty
    input yields ``0_{K(x)M} = iota(0_M)``.

``GB_{U',U''}(R)`` (Definition 3.7)
    Group on the (plain-valued) attributes ``U'``; for each inhabited group
    emit one tuple whose aggregate attributes hold the group's tensors and
    whose annotation is ``delta_K(sum of the group's annotations)`` — the
    delta-semiring structure (Definition 3.6) makes the output behave like
    "multiplicity at most 1" under every homomorphism.

COUNT and AVG are derived per the paper's footnote 6: COUNT aggregates the
constant 1 through SUM; AVG aggregates ``(value, 1)`` pairs through the
pair monoid and finalises outside the provenance-carrying value.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Tuple

from repro.core import operators
from repro.core.relation import KRelation
from repro.core.tuples import Tup
from repro.exceptions import QueryError, SemiringError
from repro.monoids.base import CommutativeMonoid
from repro.monoids.counting import AVG
from repro.monoids.numeric import SUM
from repro.semimodules.tensor import Tensor, tensor_space

__all__ = [
    "aggregate",
    "group_by",
    "count_aggregate",
    "avg_aggregate",
    "AggSpec",
    "normalize_agg_specs",
    "monoid_value",
    "check_group_by",
]

#: One aggregation request: attribute name -> monoid.
AggSpec = Mapping[str, CommutativeMonoid]


def aggregate(r: KRelation, attribute: str, monoid: CommutativeMonoid) -> KRelation:
    """``AGG_M(R)``: whole-relation aggregation of one attribute.

    ``R`` must have exactly the one attribute (project first otherwise),
    with values in ``M``.  The output is always a singleton relation — even
    on empty input, where the tensor value is ``0 = iota(0_M)`` (the paper
    notes this explicitly: SQL agrees for SUM over an empty bag).
    """
    single_column(r.schema, attribute, "AGG")
    space = tensor_space(r.semiring, monoid)
    value = space.set_agg(_monoid_values(r, attribute, monoid))
    out_tuple = Tup({attribute: value})
    return KRelation(r.semiring, r.schema, [(out_tuple, r.semiring.one)])


def group_by(
    r: KRelation,
    group_attributes: Iterable[str],
    aggregations: AggSpec | Iterable[Tuple[str, CommutativeMonoid]],
) -> KRelation:
    """``GB_{U',U''}(R)`` of Definition 3.7, with multi-aggregate support.

    ``group_attributes`` is ``U'`` (plain values required — grouping on
    symbolic aggregates needs the Section 4.3 semantics);  ``aggregations``
    maps each aggregated attribute in ``U''`` to its monoid.  Attributes in
    neither set are dropped (as in SQL's GROUP BY projection).
    """
    group_attrs = tuple(group_attributes)
    agg_specs = normalize_agg_specs(aggregations)
    check_group_by(r.schema, group_attrs, agg_specs, None, r.semiring)
    operators.require_plain_values(r, group_attrs, "GROUP BY")

    semiring = r.semiring
    spaces = {
        attr: tensor_space(semiring, monoid) for attr, monoid in agg_specs.items()
    }

    # Bucket the support on the group key (the T of Definition 3.7).
    buckets: Dict[Tup, list] = {}
    for tup, annotation in r.rows():
        key = tup.restrict(group_attrs)
        buckets.setdefault(key, []).append((tup, annotation))

    out_schema = r.schema.restrict(group_attrs).extend(
        *(a for a in agg_specs if a not in group_attrs)
    )
    pairs = []
    for key, members in buckets.items():
        values = dict(key.items())
        for attr, monoid in agg_specs.items():
            space = spaces[attr]
            values[attr] = space.set_agg(
                (monoid_value(t[attr], monoid, attr), k) for t, k in members
            )
        annotation = semiring.delta(semiring.sum_many(k for _t, k in members))
        pairs.append((Tup(values), annotation))
    return KRelation(semiring, out_schema, pairs)


def count_aggregate(r: KRelation, attribute: str = "count") -> KRelation:
    """COUNT(*): replace every tuple's value by 1 and SUM-aggregate.

    The result is a singleton relation over ``(attribute,)`` whose value is
    the tensor ``sum of R(t) (x) 1`` — e.g. ``(x + y) (x) 1`` for a
    two-tuple ``N[X]``-relation, specialising to the bag cardinality.
    """
    space = tensor_space(r.semiring, SUM)
    value = space.set_agg((1, k) for _t, k in r.rows())
    return KRelation(
        r.semiring, (attribute,), [(Tup({attribute: value}), r.semiring.one)]
    )


def avg_aggregate(r: KRelation, attribute: str) -> KRelation:
    """AVG: aggregate ``(value, 1)`` pairs through the AVG pair monoid.

    The resulting tensor keeps full provenance of both the running total
    and the running count; ``AvgPair.finalize`` divides after a valuation
    has collapsed the tensor.
    """
    single_column(r.schema, attribute, "AVG")
    space = tensor_space(r.semiring, AVG)
    value = space.set_agg((AVG.lift(t[attribute]), k) for t, k in r.rows())
    return KRelation(r.semiring, r.schema, [(Tup({attribute: value}), r.semiring.one)])


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def normalize_agg_specs(
    aggregations: AggSpec | Iterable[Tuple[str, CommutativeMonoid]],
) -> Dict[str, CommutativeMonoid]:
    """Accept dicts, pair lists, and single pairs; return a dict."""
    if isinstance(aggregations, Mapping):
        specs = dict(aggregations)
    else:
        items = list(aggregations)
        if items and isinstance(items[0], str):
            # a single ("attr", monoid) pair passed bare
            attr, monoid = items  # type: ignore[misc]
            specs = {attr: monoid}
        else:
            specs = dict(items)  # type: ignore[arg-type]
    return specs


def check_group_by(
    schema: Any,
    group_attributes: Iterable[str],
    aggregations: Mapping[str, Any],
    count_attr: str | None,
    semiring: Any,
) -> None:
    """The static ``GB_{U',U''}`` well-formedness guards (Defs. 3.6/3.7).

    The single source of truth shared by the static check
    (:meth:`repro.core.query.GroupBy.schema`), the interpreter
    (:func:`group_by`), the physical operator
    (:class:`repro.plan.physical.GroupedAggregate`) and the incremental
    head (:mod:`repro.ivm.state`): COUNT-column collision, ``U'``/``U''``
    disjointness, at-least-one-aggregation (the synthesised COUNT
    counts), attribute membership, and the delta-semiring requirement.
    ``schema`` is anything supporting ``attr in schema`` with a readable
    ``str``; ``semiring`` is ``None`` where only schemas are known (the
    static check), which leaves the delta requirement to the operator.
    """
    if count_attr is not None and count_attr in schema:
        raise QueryError(f"attribute {count_attr!r} already exists in {schema}")
    overlap = set(group_attributes) & set(aggregations)
    if overlap:
        raise QueryError(
            f"attributes {sorted(overlap)} cannot be both grouped and aggregated "
            "(Definition 3.7 requires U' and U'' disjoint)"
        )
    if not aggregations and count_attr is None:
        raise QueryError("GROUP BY requires at least one aggregation")
    for attr in tuple(group_attributes) + tuple(aggregations):
        if attr not in schema:
            raise QueryError(f"attribute {attr!r} not in schema {schema}")
    if semiring is not None and not semiring.has_delta:
        raise SemiringError(
            f"GROUP BY needs a delta-semiring; {semiring.name} has no delta "
            "(Definition 3.6)"
        )


def single_column(schema: Any, attribute: str, what: str) -> Any:
    """The one-column rule of ``AGG``/``AVG``: ``schema`` is exactly ``(attribute,)``."""
    if tuple(schema.attributes) != (attribute,):
        raise QueryError(
            f"{what} expects a relation over exactly ({attribute!r},); got {schema}. "
            "Project the aggregation column first."
        )
    return schema


def _monoid_values(r: KRelation, attribute: str, monoid: CommutativeMonoid):
    for tup, annotation in r.rows():
        yield monoid_value(tup[attribute], monoid, attribute), annotation


def monoid_value(value: Any, monoid: CommutativeMonoid, attribute: str) -> Any:
    if isinstance(value, Tensor):
        raise QueryError(
            f"attribute {attribute!r} already holds the symbolic aggregate "
            f"{value}; nested aggregation needs the Section 4.3 semantics"
        )
    if not monoid.contains(value):
        raise QueryError(
            f"value {value!r} of attribute {attribute!r} is not an element "
            f"of monoid {monoid.name}"
        )
    return value


# ---------------------------------------------------------------------------
# the Section 3 operator table
# ---------------------------------------------------------------------------


class StandardOps:
    """One rule per ``Query`` node under the SPJU-AGB semantics (Section 3).

    :meth:`repro.core.query.Query.evaluate` walks the tree once over this
    table or over :class:`repro.core.nested.ExtendedOps` (Section 4.3, of
    which this is the restriction to plain values).  Comparisons are
    decided on ordinary domain values here, so the three comparing rules
    guard their inputs first — with the physical operators' own contexts,
    so both engines raise one message.
    """

    table = staticmethod(lambda rel: rel)
    union = staticmethod(operators.union)
    projection = staticmethod(operators.projection)
    cartesian = staticmethod(operators.cartesian)
    rename = staticmethod(operators.rename)
    aggregate = staticmethod(aggregate)
    group_by = staticmethod(group_by)
    count = staticmethod(count_aggregate)
    avg = staticmethod(avg_aggregate)

    @staticmethod
    def selection(rel: KRelation, conditions: Any) -> KRelation:
        context = "selection σ[" + " ∧ ".join(map(str, conditions)) + "]"
        attrs = [a for c in conditions for a in c.attributes()]
        operators.require_plain_values(rel, attrs, context)
        return operators.selection(
            rel, lambda t: all(c.standard_test(t) for c in conditions)
        )

    @staticmethod
    def natural_join(left: KRelation, right: KRelation) -> KRelation:
        common = left.schema.intersection(right.schema)
        operators.require_plain_values(left, common, "join (⋈)")
        operators.require_plain_values(right, common, "join (⋈)")
        return operators.natural_join(left, right)

    @staticmethod
    def value_join(left: KRelation, right: KRelation, on: Any) -> KRelation:
        operators.require_plain_values(left, [a for a, _b in on], "join (⋈ on pairs)")
        operators.require_plain_values(right, [b for _a, b in on], "join (⋈ on pairs)")
        return operators.equijoin(left, right, on)

    @staticmethod
    def distinct(rel: KRelation) -> KRelation:
        return rel.map_annotations(rel.semiring, rel.semiring.delta)

    @staticmethod
    def difference(left: KRelation, right: KRelation, method: str) -> KRelation:
        # local import: difference imports nested, which imports this module
        from repro.core.difference import difference, difference_via_aggregation

        return (difference if method == "direct" else difference_via_aggregation)(
            left, right
        )
