"""The extended semantics for nested aggregation queries (Section 4.3).

When selections, joins or further aggregations consume *symbolic* aggregate
values, tuple existence becomes conditional on comparisons that cannot yet
be decided.  The paper's semantics keeps every candidate tuple and
multiplies its ``K^M`` annotation by equality atoms; a later homomorphism
resolves the atoms (axiom (*)) and the conditional tuples collapse to the
classical answer.

Every operator below implements the corresponding item of Section 4.3
with **eager atom resolution**: comparisons whose truth value is already
determined (plain values, or tensors over collapsing spaces, or identical
normal forms) contribute ``1``/``0`` immediately, so on ordinary inputs the
extended operators reduce to the standard SPJU-AGB semantics — exactly the
reduction the paper's definitions perform implicitly.  Only genuinely
undetermined comparisons leave symbolic ``[a = b]`` tokens behind.

The candidate sums of items 2, 3, 5 and 7 weight every support tuple by
``prod over u of [t'(u) = t(u)]``.  A factor between two plain values is
decided by hashing, so :func:`_match_index` partitions the support on its
plain key positions and runs :func:`value_match` only where a symbolic
aggregate sits in a key: plain inputs cost the same as the standard
operators up to constant factors, and the sums are quadratic only in the
tuples whose keys are symbolic.  Every sum is commutative, so iteration
order is never part of a result and nothing here sorts or renders.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from repro.core.aggregates import StandardOps, normalize_agg_specs, single_column
from repro.core.comparisons import comparison_annotation, decide_order
from repro.core.operators import cartesian
from repro.core.equality import (
    coerce_annotation,
    collapse_constant,
    equality_annotation,
    km_semiring,
)
from repro.core.relation import KRelation
from repro.core.schema import Schema
from repro.core.tuples import Tup
from repro.exceptions import QueryError, SchemaError
from repro.monoids.base import CommutativeMonoid
from repro.semimodules.tensor import Tensor, tensor_space
from repro.semirings.base import Semiring
from repro.semirings.homomorphism import semiring_hom
from repro.semirings.polynomials import Polynomial, PolynomialSemiring

__all__ = [
    "lift_to_km",
    "collapse_km_relation",
    "value_match",
    "tuple_match",
    "ext_union",
    "ext_projection",
    "ext_selection_const",
    "ext_selection_attrs",
    "ext_natural_join",
    "ext_value_join",
    "ext_cartesian",
    "ext_aggregate",
    "ext_group_by",
]


# ---------------------------------------------------------------------------
# K <-> K^M plumbing
# ---------------------------------------------------------------------------


def lift_to_km(r: KRelation, km: PolynomialSemiring) -> KRelation:
    """Coerce a ``K``-relation into a ``K^M``-relation (annotations embed)."""
    if r.semiring is km:
        return r
    return r.map_annotations(km, lambda k: coerce_annotation(km, k))


def collapse_km_relation(r: KRelation, base: Semiring) -> KRelation:
    """The Prop. 4.4 collapse ``K^M = K`` applied to a whole relation.

    If every annotation is a *constant* ``K^M`` polynomial (every equality
    atom resolved) the relation is re-expressed over the base semiring,
    with tensor values retargeted accordingly.  Otherwise the relation is
    returned unchanged — symbols genuinely remain.
    """
    km = r.semiring
    if km is base or not isinstance(km, PolynomialSemiring):
        return r

    def symbolic(scalar: Any) -> bool:
        return isinstance(scalar, Polynomial) and not scalar.is_constant()

    for tup, annotation in r.rows():
        if symbolic(annotation):
            return r
        for value in tup.values():
            if isinstance(value, Tensor) and any(map(symbolic, value._entries.values())):
                return r

    collapse = semiring_hom(
        km, base, lambda p: collapse_constant(km, p), name=f"{km.name}⇒{base.name}"
    )
    return r.apply_hom(collapse)


def _retarget_tensor(value: Tensor, km: PolynomialSemiring) -> Tensor:
    """Re-express a ``K (x) M`` tensor over ``K^M (x) M`` (scalars embed)."""
    if value.space.semiring is km:
        return value
    source = value.space.semiring
    embed = semiring_hom(
        source, km, lambda k: coerce_annotation(km, k), name=f"{source.name}↪{km.name}"
    )
    return value.apply_hom(embed)


# ---------------------------------------------------------------------------
# value and tuple comparison (the heart of Section 4.3)
# ---------------------------------------------------------------------------


def value_match(km: PolynomialSemiring, a: Any, b: Any) -> Polynomial:
    """The ``K^M`` annotation of the comparison ``a = b``.

    * two plain values: decided by ordinary equality;
    * a tensor against a plain value: the plain value embeds via ``iota``
      when it belongs to the tensor's monoid, else the comparison is
      definitely false (a tensor denotes a monoid element);
    * two tensors: :func:`~repro.core.equality.equality_annotation`
      (eager resolution, symbolic atom when undetermined).
    """
    return _compare(km, a, b, operator.eq, equality_annotation)


def order_match(km: PolynomialSemiring, a: Any, b: Any, op: str) -> Polynomial:
    """The ``K^M`` annotation of the ordered comparison ``a op b``."""
    return _compare(km, a, b, decide_order, comparison_annotation, op)


def _compare(
    km: PolynomialSemiring, a: Any, b: Any, decide: Callable, annotate: Callable, *op: str
) -> Polynomial:
    """The case analysis shared by ``=`` and the order predicates:
    ``decide(*op, a, b)`` on two plain values, ``annotate(km, *op, a, b)``
    on two tensors of one ``K^M (x) M`` (operand order is kept)."""
    a_tensor = isinstance(a, Tensor)
    b_tensor = isinstance(b, Tensor)
    if not a_tensor and not b_tensor:
        return km.one if decide(*op, a, b) else km.zero
    if a_tensor and b_tensor:
        if a.space.monoid is not b.space.monoid:
            return km.zero
        a, b = _retarget_tensor(a, km), _retarget_tensor(b, km)
    elif a_tensor:
        if not a.space.monoid.contains(b):
            return km.zero
        a = _retarget_tensor(a, km)
        b = a.space.iota(b)
    else:
        if not b.space.monoid.contains(a):
            return km.zero
        b = _retarget_tensor(b, km)
        a = b.space.iota(a)
    return annotate(km, *op, a, b)


def tuple_match(
    km: PolynomialSemiring, t1: Tup, t2: Tup, attributes: Iterable[str]
) -> Polynomial:
    """``prod over u of [t1(u) = t2(u)]`` with zero short-circuiting."""
    result = km.one
    for attr in attributes:
        factor = value_match(km, t1[attr], t2[attr])
        if km.is_zero(factor):
            return km.zero
        result = km.times(result, factor)
    return result


# ---------------------------------------------------------------------------
# Section 4.3 operators
# ---------------------------------------------------------------------------


def _match_index(
    km: PolynomialSemiring, keyed_rows: Iterable[Tuple[Tuple[Any, ...], Any]]
) -> Callable[[Tuple[Any, ...]], Iterator[Tuple[Any, Polynomial]]]:
    """Index ``(key, payload)`` rows for the Section 4.3 candidate sums.

    Returns ``probe(key)``, which yields ``(payload, match)`` for every
    indexed row whose ``match = prod over i of [row_key[i] = key[i]]`` is
    non-zero — the rows a brute-force :func:`tuple_match` scan would keep,
    with the same weights.  Rows are grouped by *signature* (the key
    positions holding plain values).  For each signature a probe is
    answered from a hash index on the positions plain on **both** sides
    (built on first use), and :func:`value_match` runs only on the other
    positions: plain against plain costs one dict lookup, while a tensor
    on either side is still compared with everything it could equal.
    """
    by_signature: Dict[Tuple[int, ...], List[Tuple[Tuple[Any, ...], Any]]] = {}
    for row in keyed_rows:
        by_signature.setdefault(_plain_positions(row[0]), []).append(row)
    # (row signature, probe signature) -> (shared, other positions, hash index)
    indexes: Dict[Any, Any] = {}
    one, times, is_zero = km.one, km.times, km.is_zero

    def probe(key: Tuple[Any, ...]) -> Iterator[Tuple[Any, Polynomial]]:
        plain = _plain_positions(key)
        for signature, rows in by_signature.items():
            entry = indexes.get((signature, plain))
            if entry is None:
                shared = tuple(i for i in signature if i in plain)
                others = tuple(i for i in range(len(key)) if i not in shared)
                index: Dict[Tuple[Any, ...], list] = {}
                for row in rows:
                    index.setdefault(tuple(row[0][i] for i in shared), []).append(row)
                entry = indexes[(signature, plain)] = (shared, others, index)
            shared, others, index = entry
            for row_key, payload in index.get(tuple(key[i] for i in shared), ()):
                match = one
                for i in others:
                    match = times(match, value_match(km, row_key[i], key[i]))
                    if is_zero(match):
                        break
                else:
                    yield payload, match

    return probe


def _plain_positions(key: Tuple[Any, ...]) -> Tuple[int, ...]:
    return tuple(i for i, value in enumerate(key) if not isinstance(value, Tensor))


def _weighted(
    km: PolynomialSemiring, annotation: Polynomial, match: Polynomial
) -> Polynomial:
    """``annotation * match``; an all-plain match is ``km.one`` itself."""
    return annotation if match is km.one else km.times(annotation, match)


def _candidate_sums(
    km: PolynomialSemiring, schema: Schema, rows: Iterable[Tuple[Tup, Polynomial]]
) -> KRelation:
    """Items 2-3: the relation of candidates over ``schema``.

    Each distinct restriction of a row to ``schema`` is a candidate; its
    annotation sums every row's annotation times the row's match against
    the candidate.
    """
    keyed = [(t.values_by(schema), k) for t, k in rows]
    probe = _match_index(km, keyed)
    pairs = [
        (
            Tup(zip(schema.attributes, key)),
            km.sum_many(_weighted(km, k, match) for k, match in probe(key)),
        )
        for key in dict.fromkeys(key for key, _k in keyed)
    ]
    return KRelation(km, schema, pairs)


def _joined(
    km: PolynomialSemiring,
    r1: KRelation,
    left_attrs: Sequence[str],
    r2: KRelation,
    right_attrs: Sequence[str],
) -> Iterator[Tuple[Tup, Tup, Polynomial]]:
    """Item 5: ``(t1, t2, R1(t1) * R2(t2) * prod [t1(l) = t2(r)])``, where non-zero."""
    probe = _match_index(
        km, ((tuple(t2[a] for a in right_attrs), (t2, k2)) for t2, k2 in r2.rows())
    )
    for t1, k1 in r1.rows():
        for (t2, k2), match in probe(tuple(t1[a] for a in left_attrs)):
            annotation = _weighted(km, km.times(k1, k2), match)
            if not km.is_zero(annotation):
                yield t1, t2, annotation


def ext_union(r1: KRelation, r2: KRelation, km: PolynomialSemiring) -> KRelation:
    """Item 2: candidate tuples drawn from both supports, matched symbolically."""
    if r1.schema != r2.schema:
        raise SchemaError(f"union of incompatible schemas {r1.schema} / {r2.schema}")
    r1, r2 = lift_to_km(r1, km), lift_to_km(r2, km)
    return _candidate_sums(km, r1.schema, chain(r1.rows(), r2.rows()))


def ext_projection(
    r: KRelation, attributes: Iterable[str], km: PolynomialSemiring
) -> KRelation:
    """Item 3: project, matching every support tuple against each candidate."""
    r = lift_to_km(r, km)
    return _candidate_sums(km, r.schema.restrict(attributes), r.rows())


def _ext_selection(
    r: KRelation, factor: Callable[[Tup], Polynomial], km: PolynomialSemiring
) -> KRelation:
    """Item 4: ``sigma_P(R)(t) = R(t) * [P(t)]`` — every tuple stays a candidate."""
    r = lift_to_km(r, km)
    pairs = [(t, km.times(annotation, factor(t))) for t, annotation in r.rows()]
    return KRelation(km, r.schema, pairs)


def ext_selection_const(
    r: KRelation, attribute: str, value: Any, km: PolynomialSemiring
) -> KRelation:
    """Item 4: ``sigma_{u = m}(R)(t) = R(t) * [t(u) = iota(m)]``."""
    return _ext_selection(r, lambda t: value_match(km, t[attribute], value), km)


def ext_selection_attrs(
    r: KRelation, attr1: str, attr2: str, km: PolynomialSemiring
) -> KRelation:
    """Selection comparing two attributes of the same relation."""
    return _ext_selection(r, lambda t: value_match(km, t[attr1], t[attr2]), km)


def ext_selection_order(
    r: KRelation, attribute: str, op: str, value: Any, km: PolynomialSemiring
) -> KRelation:
    """Order-predicate selection ``sigma_{u op m}`` (paper's extension note).

    Symbolic aggregate values yield :class:`ComparisonAtom` tokens that
    resolve under homomorphisms exactly like equality atoms — the HAVING
    use case.
    """
    return _ext_selection(r, lambda t: order_match(km, t[attribute], value, op), km)


def ext_value_join(
    r1: KRelation,
    r2: KRelation,
    on: Mapping[str, str] | Iterable[Tuple[str, str]],
    km: PolynomialSemiring,
) -> KRelation:
    """Item 5 (value-based join): disjoint schemas, atoms per join pair.

    Output tuples keep **both** compared columns, exactly as the paper's
    definition does; the annotation carries the equality constraints.
    """
    pairs_on = list(on.items()) if isinstance(on, Mapping) else list(on)
    if not r1.schema.is_disjoint(r2.schema):
        raise SchemaError("value-based join requires disjoint schemas")
    r1, r2 = lift_to_km(r1, km), lift_to_km(r2, km)
    out_schema = r1.schema.union(r2.schema)
    left_attrs = [left for left, _right in pairs_on]
    right_attrs = [right for _left, right in pairs_on]
    out = [
        (t1.merge(t2), annotation)
        for t1, t2, annotation in _joined(km, r1, left_attrs, r2, right_attrs)
    ]
    return KRelation(km, out_schema, out)


def ext_natural_join(
    r1: KRelation, r2: KRelation, km: PolynomialSemiring
) -> KRelation:
    """Item 5 (natural-join variant): atoms on the shared attributes.

    The output keeps the left operand's value on each shared attribute;
    the annotation constrains it to equal the right operand's (so under
    any homomorphism that falsifies the constraint the tuple vanishes).
    """
    r1, r2 = lift_to_km(r1, km), lift_to_km(r2, km)
    common = r1.schema.intersection(r2.schema)
    out_schema = r1.schema.union(r2.schema)
    r2_only = tuple(a for a in r2.schema.attributes if a not in common)
    out = []
    for t1, t2, annotation in _joined(km, r1, common, r2, common):
        merged = dict(t1.items())
        for attr in r2_only:
            merged[attr] = t2[attr]
        out.append((Tup(merged), annotation))
    return KRelation(km, out_schema, out)


def ext_cartesian(r1: KRelation, r2: KRelation, km: PolynomialSemiring) -> KRelation:
    """Item 5 (cartesian variant): no equality atoms, so Section 3's rule over ``K^M``."""
    return cartesian(lift_to_km(r1, km), lift_to_km(r2, km))


def ext_aggregate(
    r: KRelation, attribute: str, monoid: CommutativeMonoid, km: PolynomialSemiring
) -> KRelation:
    """Item 6: ``t(u) = sum over t' of R(t') * t'(u)`` in ``K^M (x) M``.

    Unlike Section 3's AGG, the input values may already be tensors (the
    nested case, Example 4.5): the semimodule action then multiplies the
    tuple's annotation into the existing tensor — no "tensor of tensors"
    arises because ``K^M (x) M`` is closed under the action.
    """
    single_column(r.schema, attribute, "AGG")
    r = lift_to_km(r, km)
    space = tensor_space(km, monoid)
    total = space.zero
    for t, annotation in r.rows():
        embedded = _embed_value(t[attribute], monoid, km, attribute)
        total = space.add(total, space.scalar(annotation, embedded))
    return KRelation(km, r.schema, [(Tup({attribute: total}), km.one)])


def ext_group_by(
    r: KRelation,
    group_attributes: Iterable[str],
    aggregations: Mapping[str, CommutativeMonoid] | Iterable[Tuple[str, CommutativeMonoid]],
    km: PolynomialSemiring,
) -> KRelation:
    """Item 7: symbolic GROUP BY.

    For each *candidate key* (a distinct restriction of a support tuple to
    the group attributes) the annotation is ``delta`` of the matched sum
    ``(Pi_{U'} R)(key)`` and each aggregate value weights every support
    tuple by its key-match product.  When keys are plain this reduces to
    Definition 3.7 bucketing; tensor-valued keys stay separate candidates
    with symbolic cross-terms — the paper notes the resulting duplicates
    merge once a homomorphism resolves the equalities.
    """
    group_attrs = tuple(group_attributes)
    agg_specs = normalize_agg_specs(aggregations)
    overlap = set(group_attrs) & set(agg_specs)
    if overlap:
        raise QueryError(
            f"attributes {sorted(overlap)} cannot be both grouped and aggregated"
        )
    r = lift_to_km(r, km)
    spaces = {attr: tensor_space(km, monoid) for attr, monoid in agg_specs.items()}

    out_schema = r.schema.restrict(group_attrs).extend(*agg_specs.keys())
    keyed = [(tuple(t[a] for a in group_attrs), (t, k)) for t, k in r.rows()]
    probe = _match_index(km, keyed)
    pairs = []
    for key in dict.fromkeys(key for key, _row in keyed):
        matched = [
            (t_prime, _weighted(km, annotation, match))
            for (t_prime, annotation), match in probe(key)
        ]
        group_total = km.sum_many(weight for _t, weight in matched)
        if km.is_zero(group_total):
            continue
        values = dict(zip(group_attrs, key))
        for attr, monoid in agg_specs.items():
            values[attr] = spaces[attr].dot(
                (weight, _embed_value(t_prime[attr], monoid, km, attr))
                for t_prime, weight in matched
            )
        pairs.append((Tup(values), km.delta(group_total)))
    return KRelation(km, out_schema, pairs)


# ---------------------------------------------------------------------------
# the Section 4.3 operator table
# ---------------------------------------------------------------------------


class ExtendedOps:
    """One rule per ``Query`` node under the Section 4.3 semantics.

    The counterpart of :class:`repro.core.aggregates.StandardOps`: the
    same rule names, each an operator above closed over one ``K^M``, so a
    comparison that meets a symbolic aggregate multiplies an atom in
    instead of raising.  Every rule returns a ``K^M``-relation; the three
    that compare nothing are the Section 3 rules themselves.
    """

    def __init__(self, km: PolynomialSemiring):
        def over_km(operator_: Callable) -> Callable:
            return lambda *operands: operator_(*operands, km)

        def selection(rel: KRelation, conditions: Iterable[Any]) -> KRelation:
            for condition in conditions:
                rel = condition.extended_apply(rel, km)
            return rel

        self.table, self.union = over_km(lift_to_km), over_km(ext_union)
        self.projection, self.cartesian = over_km(ext_projection), over_km(ext_cartesian)
        self.natural_join, self.value_join = over_km(ext_natural_join), over_km(ext_value_join)
        self.aggregate, self.group_by = over_km(ext_aggregate), over_km(ext_group_by)
        self.selection = selection
        self.difference = lambda r1, r2, method: self.table(StandardOps.difference(r1, r2, method))
        self.rename, self.distinct, self.count = (
            StandardOps.rename, StandardOps.distinct, StandardOps.count
        )

    def avg(self, rel: KRelation, attribute: str) -> KRelation:
        raise QueryError("AVG is available in standard mode only")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _embed_value(
    value: Any, monoid: CommutativeMonoid, km: PolynomialSemiring, attribute: str
) -> Tensor:
    """Embed an attribute value into ``K^M (x) M`` (``iota`` on plain values)."""
    space = tensor_space(km, monoid)
    if isinstance(value, Tensor):
        if value.space.monoid is not monoid:
            raise QueryError(
                f"attribute {attribute!r} holds a {value.space.monoid.name} "
                f"aggregate; cannot aggregate it with {monoid.name}"
            )
        return _retarget_tensor(value, km)
    if not monoid.contains(value):
        raise QueryError(
            f"value {value!r} of attribute {attribute!r} is not an element "
            f"of monoid {monoid.name}"
        )
    return space.iota(value)
