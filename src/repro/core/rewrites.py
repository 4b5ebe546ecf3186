"""Provenance-preserving query rewrites.

A rewrite is admissible in the annotated setting only if it preserves the
*annotation*, not merely the support — which is exactly what the semiring
laws license (and why "the laws of semimodules follow from desired
equivalences between aggregation queries", footnote 9 of the paper).
Implemented rules, each justified by a named law:

==============================  =============================================
σ_c(R ∪ S) = σ_c(R) ∪ σ_c(S)    distributivity of * over +
σ_c(Π_A R) = Π_A(σ_c R)         commutativity of * (when attrs(c) ⊆ A)
σ_c(R ⋈ S) pushes to a side     associativity/commutativity of *
σ_c1(σ_c2 R) = σ_{c1 ∧ c2}(R)   associativity of *
Π_A(Π_B R) = Π_A(R)             associativity of + (when A ⊆ B)
Π_A(R ∪ S) = Π_A(R) ∪ Π_A(S)    commutativity/associativity of +
Π_A(R ⋈ S) = Π_A(Π_A'(R) ⋈      distributivity of * over + (A', A'': each
  Π_A''(S)), and under ×        side's attributes in A or a join key)
==============================  =============================================

``optimize`` applies the rules bottom-up to a fixpoint.  The property
suite verifies preservation by evaluating original and rewritten queries
over ``N[X]`` databases and comparing *annotated* results — equality over
the free semiring implies equality under every specialisation.

Static schemas come from each node's own
:meth:`~repro.core.query.Query.schema` against a catalog of base schemas
(needed to know which join side owns a selection's attributes), and the
walk itself from ``children`` / ``with_children``: this module names a
node class only where a rule fires on it.
"""

from __future__ import annotations

from typing import Mapping, Tuple

from repro.core.query import Cartesian, NaturalJoin, Project, Query, Select, Union
from repro.core.schema import Schema

__all__ = ["infer_schema", "optimize", "rewrite_once"]


def infer_schema(query: Query, catalog: Mapping[str, Schema]) -> Schema:
    """The output schema of ``query`` against base-table schemas."""
    return query.schema(catalog)


def optimize(query: Query, catalog: Mapping[str, Schema]) -> Query:
    """Apply the rewrite rules bottom-up until no rule fires."""
    for _ in range(100):  # generous fixpoint bound; each rule shrinks or pushes
        rewritten, changed = _rewrite(query, catalog)
        if not changed:
            return rewritten
        query = rewritten
    return query


def rewrite_once(query: Query, catalog: Mapping[str, Schema]) -> Tuple[Query, bool]:
    """One bottom-up rewriting pass (exposed for tests)."""
    return _rewrite(query, catalog)


def _rewrite(query: Query, catalog: Mapping[str, Schema]) -> Tuple[Query, bool]:
    # rewrite children first; the rebuilt tree shares no node (and so no
    # cached plan) with the caller's
    rewritten = [_rewrite(child, catalog) for child in query.children]
    changed = any(child_changed for _child, child_changed in rewritten)
    query = query.with_children(*(child for child, _changed in rewritten))

    if isinstance(query, Select):
        replaced = _rewrite_select(query, catalog)
        if replaced is not None:
            return replaced, True
    if isinstance(query, Project):
        replaced = _rewrite_project(query, catalog)
        if replaced is not None:
            return replaced, True
    return query, changed


def _rewrite_select(query: Select, catalog) -> Query | None:
    child = query.child
    conditions = query.conditions
    if not conditions:
        return child  # σ_true is the identity

    # σ(σ(R)) -> σ_{conjunction}(R)
    if isinstance(child, Select):
        return Select(child.child, tuple(child.conditions) + tuple(conditions))

    # σ(R ∪ S) -> σ(R) ∪ σ(S)
    if isinstance(child, Union):
        return Union(Select(child.left, conditions), Select(child.right, conditions))

    # σ_c(Π_A R) -> Π_A(σ_c R) when c only reads surviving attributes
    if isinstance(child, Project):
        if {a for c in conditions for a in c.attributes()} <= set(child.attributes):
            return Project(Select(child.child, conditions), child.attributes)

    # σ_c(R ⋈ S): push each condition to the side(s) owning its attributes
    if isinstance(child, (NaturalJoin, Cartesian)):
        left_schema = set(infer_schema(child.left, catalog).attributes)
        right_schema = set(infer_schema(child.right, catalog).attributes)
        to_left, to_right, stuck = [], [], []
        for condition in conditions:
            attrs = set(condition.attributes())
            if attrs <= left_schema:
                to_left.append(condition)
            elif attrs <= right_schema:
                to_right.append(condition)
            else:
                stuck.append(condition)
        if to_left or to_right:
            left = Select(child.left, to_left) if to_left else child.left
            right = Select(child.right, to_right) if to_right else child.right
            joined = type(child)(left, right)
            return Select(joined, stuck) if stuck else joined
    return None


def _rewrite_project(query: Project, catalog) -> Query | None:
    child = query.child
    # Π_A(Π_B R) -> Π_A(R) when A ⊆ B (guaranteed by validity)
    if isinstance(child, Project):
        return Project(child.child, query.attributes)
    # Π_A(R ∪ S) -> Π_A(R) ∪ Π_A(S)
    if isinstance(child, Union):
        return Union(
            Project(child.left, query.attributes),
            Project(child.right, query.attributes),
        )
    # Π_A(R ⋈ S) -> Π_A(Π_A'(R) ⋈ Π_A''(S)): a side keeps what A or the
    # join reads; Σ over the dropped attributes distributes over the
    # product, and under × (no shared attributes) the same holds
    if isinstance(child, (NaturalJoin, Cartesian)):
        left = infer_schema(child.left, catalog).attributes
        right = infer_schema(child.right, catalog).attributes
        keep = set(query.attributes) | (set(left) & set(right))
        narrowed = (_narrowed(child.left, left, keep),
                    _narrowed(child.right, right, keep))
        if narrowed[0] is not child.left or narrowed[1] is not child.right:
            joined = type(child)(*narrowed)
            if set(infer_schema(joined, catalog).attributes) == set(query.attributes):
                return joined  # the sides kept exactly A
            return Project(joined, query.attributes)
    # identity projection
    child_schema = infer_schema(child, catalog)
    if set(query.attributes) == set(child_schema.attributes):
        return child
    return None


def _narrowed(side: Query, attrs: Tuple[str, ...], keep) -> Query:
    """``Π_{attrs ∩ keep}(side)``, or ``side`` itself where that would keep
    every attribute or none."""
    kept = tuple(a for a in attrs if a in keep)
    if not kept or len(kept) == len(attrs):
        return side
    return Project(side, kept)
