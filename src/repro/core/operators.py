"""The positive K-relational algebra: SPJU (Section 2.1 / Appendix A).

Annotation propagation, per Green-Karvounarakis-Tannen as recalled by the
paper:

=============  ==========================================================
union          ``(R1 ∪ R2)(t) = R1(t) + R2(t)``
projection     ``(Π_U' R)(t) = sum of R(t') over t' with t'|U' = t``
selection      ``(σ_P R)(t) = R(t) * P(t)`` with ``P(t)`` in ``{0, 1}``
natural join   ``(R1 ⋈ R2)(t) = R1(t|U1) * R2(t|U2)``
=============  ==========================================================

These are the *standard-mode* operators: value comparisons are decided on
ordinary domain values.  Comparing symbolic aggregate values requires the
extended semantics of Section 4.3 (:mod:`repro.core.nested`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Tuple

from repro.core.relation import KRelation
from repro.core.tuples import Tup
from repro.exceptions import QueryError, SchemaError
from repro.semimodules.tensor import Tensor

__all__ = [
    "union",
    "projection",
    "selection",
    "natural_join",
    "equijoin",
    "cartesian",
    "rename",
    "require_plain_values",
]


def union(r1: KRelation, r2: KRelation) -> KRelation:
    """``(R1 ∪_K R2)(t) = R1(t) +_K R2(t)`` — requires equal schemas.

    The result keeps ``R1``'s attribute order.  A new version differs
    from the larger operand only on the smaller one's support, so folding
    a small delta into a large relation (``KDatabase.update``, the IVM
    hot path) costs ``O(|ΔR|)``: the result is layered over the larger
    operand's rows instead of copying them (:meth:`KRelation._plus`).
    """
    _same_semiring(r1, r2)
    if r1.schema != r2.schema:
        raise SchemaError(
            f"union of incompatible schemas {r1.schema} and {r2.schema}"
        )
    return r1._plus(r2)


def projection(r: KRelation, attributes: Iterable[str]) -> KRelation:
    """``(Π_U' R)(t) = sum_K { R(t') : t'|U' = t }``.

    Merged tuples accumulate their annotations into a list and combine
    with one n-ary ``sum_many`` per output tuple instead of a pairwise
    fold (which would rebuild a normal form per input row for symbolic
    semirings).
    """
    out_schema = r.schema.restrict(attributes)
    semiring = r.semiring
    out_attrs = out_schema.attributes
    acc: Dict[Tup, Any] = {}
    for tup, annotation in r.rows():
        image = tup.restrict(out_attrs)
        if image in acc:
            bucket = acc[image]
            if type(bucket) is list:
                bucket.append(annotation)
            else:
                acc[image] = [bucket, annotation]
        else:
            acc[image] = annotation
    sum_many = semiring.sum_many
    merged = {
        tup: (sum_many(bucket) if type(bucket) is list else bucket)
        for tup, bucket in acc.items()
    }
    return KRelation(semiring, out_schema, merged)


def selection(r: KRelation, predicate: Callable[[Tup], bool]) -> KRelation:
    """``(σ_P R)(t) = R(t) * P(t)`` for a boolean predicate on tuples.

    ``predicate`` receives each support tuple; truthiness selects it.  For
    structured predicates that must interact with symbolic aggregate
    values, use the query AST + extended mode instead.
    """
    kept = [(t, k) for t, k in r.rows() if predicate(t)]
    return KRelation(r.semiring, r.schema, kept)


def natural_join(r1: KRelation, r2: KRelation) -> KRelation:
    """``(R1 ⋈ R2)(t) = R1(t|U1) *_K R2(t|U2)`` on the union schema."""
    _same_semiring(r1, r2)
    semiring = r1.semiring
    out_schema = r1.schema.union(r2.schema)
    common = r1.schema.intersection(r2.schema)

    # hash join on the common attributes; build on the smaller input
    build_is_r1 = len(r1) <= len(r2)
    build, probe = (r1, r2) if build_is_r1 else (r2, r1)
    buckets = _join_buckets(build, common)

    times = semiring.times
    pairs = []
    for tp, kp in probe.rows():
        key = tuple(tp[a] for a in common)
        for tb, kb in buckets.get(key, ()):
            if build_is_r1:
                pairs.append((tb.merge(tp), times(kb, kp)))
            else:
                pairs.append((tp.merge(tb), times(kp, kb)))
    return KRelation(semiring, out_schema, pairs)


def equijoin(
    r1: KRelation, r2: KRelation, on: Mapping[str, str] | Iterable[Tuple[str, str]]
) -> KRelation:
    """Join on explicit attribute pairs ``left_attr = right_attr``.

    Schemas must otherwise be disjoint (rename first if not).  Comparison
    is on ordinary values; symbolic values require extended mode.
    """
    _same_semiring(r1, r2)
    pairs_on = list(on.items()) if isinstance(on, Mapping) else list(on)
    if not r1.schema.is_disjoint(r2.schema):
        raise SchemaError(
            "equijoin requires disjoint schemas; rename shared attributes first"
        )
    semiring = r1.semiring
    out_schema = r1.schema.union(r2.schema)

    left_attrs = tuple(left for left, _right in pairs_on)
    right_attrs = tuple(right for _left, right in pairs_on)
    build_is_r1 = len(r1) <= len(r2)
    if build_is_r1:
        build, probe, build_attrs, probe_attrs = r1, r2, left_attrs, right_attrs
    else:
        build, probe, build_attrs, probe_attrs = r2, r1, right_attrs, left_attrs
    buckets = _join_buckets(build, build_attrs)

    times = semiring.times
    out = []
    for tp, kp in probe.rows():
        key = tuple(tp[a] for a in probe_attrs)
        for tb, kb in buckets.get(key, ()):
            if build_is_r1:
                out.append((tb.merge(tp), times(kb, kp)))
            else:
                out.append((tp.merge(tb), times(kp, kb)))
    return KRelation(semiring, out_schema, out)


def cartesian(r1: KRelation, r2: KRelation) -> KRelation:
    """``(R1 x R2)(t) = R1(t|U1) *_K R2(t|U2)`` for disjoint schemas."""
    _same_semiring(r1, r2)
    if not r1.schema.is_disjoint(r2.schema):
        raise SchemaError(
            f"cartesian product of overlapping schemas {r1.schema} / {r2.schema}"
        )
    semiring = r1.semiring
    out_schema = r1.schema.union(r2.schema)
    pairs = [
        (t1.merge(t2), semiring.times(k1, k2))
        for t1, k1 in r1.rows()
        for t2, k2 in r2.rows()
    ]
    return KRelation(semiring, out_schema, pairs)


def rename(r: KRelation, mapping: Mapping[str, str]) -> KRelation:
    """Rename attributes; annotations are untouched."""
    out_schema = r.schema.rename(mapping)
    pairs = [(t.rename(mapping), k) for t, k in r.rows()]
    return KRelation(r.semiring, out_schema, pairs)


def _join_buckets(
    rel: KRelation, key_attrs: Iterable[str]
) -> Dict[Tuple[Any, ...], list]:
    """Hash-partition a relation's rows on the values of ``key_attrs``.

    The build phase shared by :func:`natural_join` and :func:`equijoin`
    (callers pick the smaller operand to build on).
    """
    attrs = tuple(key_attrs)
    buckets: Dict[Tuple[Any, ...], list] = {}
    for tup, annotation in rel.rows():
        buckets.setdefault(tuple(tup[a] for a in attrs), []).append((tup, annotation))
    return buckets


def require_plain_values(r: KRelation, attributes: Iterable[str], context: str) -> None:
    """Guard: standard-mode comparisons need ordinary (non-tensor) values."""
    attrs = list(attributes)
    for tup, _k in r.rows():
        for attr in attrs:
            if isinstance(tup[attr], Tensor):
                raise QueryError(
                    f"{context}: attribute {attr!r} holds a symbolic aggregate "
                    f"value {tup[attr]}; use the extended (Section 4.3) semantics"
                )


def _same_semiring(r1: KRelation, r2: KRelation) -> None:
    if r1.semiring is not r2.semiring:
        raise QueryError(
            f"operands annotated in different semirings: "
            f"{r1.semiring.name} vs {r2.semiring.name}"
        )
