"""Delta-plan compilation: Gupta–Mumick delta rules over the physical layer.

For an SPJU core the *delta* of a view under base-table deltas ``dR`` is
computed by a second, usually much smaller, query — never by touching the
materialised result:

==================  =======================================================
``d(R)``            ``dR``
``d(σ_c E)``        ``σ_c(dE)``
``d(Π_U E)``        ``Π_U(dE)``
``d(ρ E)``          ``ρ(dE)``
``d(E1 ∪ E2)``      ``dE1 ∪ dE2``
``d(E1 ⋈ E2)``      ``dE1 ⋈ E2' ∪ E1 ⋈ dE2``  with ``E2' = E2 ∪ dE2``
==================  =======================================================

The join rule is the two-term form of the classical three-term one: taking
the right operand *post-update* folds the cross term ``dE1 ⋈ dE2`` in.
K-relations form a semimodule under ``∪`` and every SPJU operator is
linear in each argument, so these identities hold with annotations
included — over any commutative semiring, which is exactly the paper's
framing of the counting algorithm of Gupta–Mumick–Subrahmanian [26] as the
``N`` instance of a general law.  Non-linear operators (aggregation,
``δ``-distinct) do not pass through the rules; they are maintained
statefully above the core by :class:`repro.ivm.view.MaterializedView`.

The delta expression is an ordinary :class:`~repro.core.query.Query` over
an augmented catalog — base tables plus ``Δ``-prefixed delta tables — so
it is pushed through :func:`repro.plan.compiler.compile_plan` unchanged:
selection pushdown applies to the delta tree, hash joins build on the
(tiny, estimated-0) delta side, and fused select/project pipelines run per
batch.  The tier is chosen per apply by delta size: a delta of fewer than
:attr:`DeltaPlan.ENCODED_DELTA_MIN_ROWS` rows runs on
:class:`~repro.plan.columnar.ColumnarKRelation` batches, a larger one on
the encoded kernels, which read the base tables' encodings off their
versions (:func:`repro.plan.encoded.encoded_scan`).

The rewrites walk and rebuild trees through the nodes' own ``children`` /
``with_children``; what is written here is only what is specific to
deltas — which operators are linear, and the two rules (base table, join)
that are not "the same operator over the operands' deltas".
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, Mapping, Optional

from repro.core.database import KDatabase
from repro.core.query import (
    Cartesian,
    NaturalJoin,
    Project,
    Query,
    Rename,
    Select,
    Table,
    Union,
    ValueJoin,
)
from repro.core.relation import KRelation
from repro.core.schema import Schema
from repro.exceptions import QueryError
from repro.plan.columnar import ColumnarKRelation
from repro.plan.compiler import PhysicalPlan, annotation_semiring, compile_plan
from repro.plan.physical import Fallback, HashJoin, PhysicalOp, Scan

__all__ = [
    "table_refs",
    "delta_prefix",
    "delta_rewrite",
    "new_rewrite",
    "DeltaPlan",
    "compile_delta_plan",
]

#: The operators linear in each argument — the fragment the rules cover.
_LINEAR = (Select, Project, Rename, Union, NaturalJoin, Cartesian, ValueJoin)


def _unsupported(query: Query) -> QueryError:
    return QueryError(
        f"delta rules cover SPJU only; {type(query).__name__} requires "
        "stateful re-aggregation (use repro.ivm.MaterializedView, which "
        "maintains aggregate heads group-by-group above an SPJU core)"
    )


def table_refs(query: Query) -> FrozenSet[str]:
    """Base tables referenced by an SPJU core (also validates the shape).

    Raises :class:`QueryError` on any node outside the positive SPJU
    fragment — aggregation, ``Distinct`` and ``Difference`` are not linear
    in their input, so no delta rule exists for them mid-tree.
    """
    if isinstance(query, Table):
        return frozenset((query.name,))
    if not isinstance(query, _LINEAR):
        raise _unsupported(query)
    return frozenset().union(*map(table_refs, query.children))


def delta_prefix(names: Iterable[str]) -> str:
    """A table-name prefix that cannot collide with the existing catalog."""
    names = set(names)
    prefix = "Δ"
    while any((prefix + name) in names for name in names):
        prefix += "Δ"
    return prefix


def delta_rewrite(
    query: Query, changed: FrozenSet[str], dname: Callable[[str], str]
) -> Optional[Query]:
    """The delta expression ``dQ`` under deltas to the ``changed`` tables.

    ``dname`` maps a base-table name to its delta-table name.  Returns
    ``None`` when the subtree references no changed table — the statically
    pruned "this branch's delta is empty" case, which keeps single-table
    update streams from ever scanning the untouched side of a union.
    """
    if isinstance(query, Table):
        return Table(dname(query.name)) if query.name in changed else None
    if not isinstance(query, _LINEAR):
        raise _unsupported(query)
    deltas = [delta_rewrite(child, changed, dname) for child in query.children]
    if len(deltas) == 1:  # σ, Π, ρ: the same operator over the child's delta
        return None if deltas[0] is None else query.with_children(deltas[0])
    d_left, d_right = deltas
    if not isinstance(query, Union):  # a join: dE1 ⋈ E2' ∪ E1 ⋈ dE2
        if d_left is not None:
            post_right = new_rewrite(query.right, changed, dname)
            d_left = query.with_children(d_left, post_right)
        if d_right is not None:
            d_right = query.with_children(query.left, d_right)
    if d_left is None or d_right is None:
        return d_right if d_left is None else d_left
    return Union(d_left, d_right)


def new_rewrite(
    query: Query, changed: FrozenSet[str], dname: Callable[[str], str]
) -> Query:
    """The post-update expression ``Q'``: every changed ``R`` becomes ``R ∪ dR``."""
    if not (table_refs(query) & changed):
        return query
    if isinstance(query, Table):
        return Union(query, Table(dname(query.name)))
    return query.with_children(
        *(new_rewrite(child, changed, dname) for child in query.children)
    )


def _touches_delta(op: PhysicalOp, delta_names: FrozenSet[str]) -> bool:
    """Does this subtree read any delta table (i.e. change per apply)?"""
    if isinstance(op, Scan):
        return op.name in delta_names
    if isinstance(op, Fallback):
        return True  # conservative: assume it changes
    return any(_touches_delta(child, delta_names) for child in op.children)


def _mark_fresh_scans(op: PhysicalOp, names: FrozenSet[str]) -> None:
    """Mark the scans of ``names`` :attr:`~repro.plan.physical.Scan.fresh`:
    a Δ-table is built afresh per apply and a changed base is replaced by
    every ``db.update``, so nothing derived from either batch can be
    reused on the next apply (:meth:`PhysicalOp.lasts`)."""
    if isinstance(op, Scan):
        op.fresh = op.name in names
    for child in op.children:
        _mark_fresh_scans(child, names)


def _prefer_cached_base_builds(op: PhysicalOp, delta_names: FrozenSet[str]) -> None:
    """Flip hash-join build sides so *stable* base sides are the builds.

    The generic planner ranks by cardinality estimate and so builds on
    the (estimated-0) delta side — which means probing the *full* base
    side on every apply.  For incremental maintenance the right choice
    is the opposite whenever the non-delta side lasts
    (:meth:`PhysicalOp.lasts`: a scan of a base table **outside the
    changed set**, or a pipeline over one): :class:`HashJoin` keeps its
    bucket table per build batch, and such a side returns the identical
    batch across applies, so the O(|base|) build is paid once and every
    subsequent apply probes with the tiny delta — O(|delta|) amortised.
    A base table that is itself in the changed set is replaced by every
    ``db.update`` (its scan is fresh, :func:`_mark_fresh_scans`), so
    flipping onto it would rebuild its buckets per apply for no
    amortisation win; the default delta-side build is kept there.
    """
    for child in op.children:
        _prefer_cached_base_builds(child, delta_names)
    if not isinstance(op, HashJoin):
        return
    left, right = op.children
    if _touches_delta(left, delta_names) and right.lasts():
        op.build_side = "right"
    elif _touches_delta(right, delta_names) and left.lasts():
        op.build_side = "left"


class DeltaPlan:
    """A compiled delta plan for one set of changed base tables.

    Executes the delta expression against a per-call combined catalog
    (the base relations the core reads plus the delta relations under
    their ``Δ``-names) and returns the raw columnar view delta.  The
    physical plan is compiled once and reused across applies; joins
    against unchanged base tables build (and keep) their hash tables on
    the base side — see :func:`_prefer_cached_base_builds` — and every
    scan reads the batch kept on the relation version it finds, so a base
    table the database's update carried forward is not encoded again.
    The scans of the Δ-tables and of the changed bases are fresh
    (:func:`_mark_fresh_scans`): no operator keeps anything derived from
    them, which would only pin the previous apply's batches.
    """

    __slots__ = ("core", "changed", "dname", "delta_query", "plan", "schema", "semiring")

    def __init__(
        self,
        core: Query,
        changed: FrozenSet[str],
        dname: Callable[[str], str],
        delta_query: Optional[Query],
        plan: Optional[PhysicalPlan],
        schema: Schema,
        semiring,
    ):
        self.core = core
        self.changed = changed
        self.dname = dname
        self.delta_query = delta_query
        self.plan = plan
        self.schema = schema
        #: the semiring the view delta is annotated in (gates in circuit mode)
        self.semiring = semiring

    def combined(self, db: KDatabase, deltas: Mapping[str, KRelation]) -> KDatabase:
        """The execution catalog of one apply: the base relations the core
        reads, from ``db``, plus the Δ-named deltas.  Built afresh per
        call; it holds the very relation versions of ``db``, so its scans
        read their kept encodings (:mod:`repro.plan.encoded`)."""
        relations = {name: db.relation(name) for name in table_refs(self.core)}
        relations.update((self.dname(name), deltas[name]) for name in self.changed)
        return KDatabase(db.semiring, relations)

    #: Below this many delta rows the delta plan runs on the object tier:
    #: the encoded tier pays per apply for encoding the fresh Δ-tables and
    #: for the boundary decode, and wins only once a delta's join output
    #: is large.  Measured (median of this method over an ``Emp`` of
    #: 40 000 rows; 2-core Xeon, CPython 3.11): a ΔEmp, which meets one
    #: ``Dept`` row each, is faster on the object tier at every size from
    #: 1 to 16 384 rows (2.4-4.3x on ``GB[Dept; SUM(Sal)](Emp)``, 3.9x down
    #: to 1.3x on ``GB[Region; SUM(Sal)](Emp ⋈ Dept)``); a ΔDept joined to
    #: ~10 ``Emp`` rows each (4 096 departments) crosses over between 256
    #: rows (object 1.9 ms, encoded 2.0) and 384 (2.7 vs 2.6), and is 1.4x
    #: faster encoded at 4 096.  Deltas with more matches per row cross
    #: earlier (~40 each: between 20 and 128 rows).
    ENCODED_DELTA_MIN_ROWS = 256

    def execute_batch(
        self, db: KDatabase, deltas: Mapping[str, KRelation]
    ) -> ColumnarKRelation:
        """Run the delta plan; the result batch may carry duplicate rows.

        The execution tier is chosen per apply by delta size: bulk deltas
        run the encoded kernels (scanning the full base sides vectorized),
        trickle deltas pin the object tier (see
        :attr:`ENCODED_DELTA_MIN_ROWS`).
        """
        if self.delta_query is None:
            return ColumnarKRelation.empty(self.semiring, self.schema)
        exec_db = self.combined(db, deltas)
        tier = None
        if self.plan.tier == "encoded":
            total = sum(len(deltas[name]) for name in self.changed)
            if total < self.ENCODED_DELTA_MIN_ROWS:
                tier = "object"
        return self.plan.execute_batch(exec_db, tier=tier)

    def execute(self, db: KDatabase, deltas: Mapping[str, KRelation]) -> KRelation:
        """Run the delta plan and consolidate into a logical relation."""
        return self.execute_batch(db, deltas).to_krelation()

    def explain(self) -> str:
        """Render the physical delta plan (or the statically-pruned no-op)."""
        if self.delta_query is None:
            return (
                f"delta of {self.core} under changes to "
                f"{{{', '.join(sorted(self.changed)) or '∅'}}} is statically empty "
                "(no changed table is referenced)"
            )
        return self.plan.explain()


def compile_delta_plan(
    core: Query,
    db: KDatabase,
    changed: Iterable[str],
    *,
    annotations: str = "expanded",
) -> DeltaPlan:
    """Compile the delta of an SPJU ``core`` for deltas to ``changed`` tables.

    ``db`` supplies the catalog (schemas and current sizes); delta tables
    are templated empty, so the planner ranks them as the cheap build
    sides.  Deltas to tables the core never reads are pruned statically.
    ``annotations`` is the representation the delta is computed in, as
    for :func:`~repro.plan.compiler.compile_plan`: in circuit mode the
    scans lift base and delta rows to gates as they read them.
    """
    semiring = annotation_semiring(db.semiring, annotations)
    refs = table_refs(core)
    effective = frozenset(changed) & refs
    prefix = delta_prefix(db.names())
    dname = lambda name: prefix + name  # noqa: E731 - tiny closure
    schema = core.schema({name: rel.schema for name, rel in db})
    delta_query = delta_rewrite(core, effective, dname) if effective else None
    plan = None
    if delta_query is not None:
        template = KDatabase(db.semiring)
        for name, rel in db:
            template.add(name, rel)
        for name in effective:
            template.add(
                dname(name), KRelation.empty(db.semiring, db.relation(name).schema.attributes)
            )
        plan = compile_plan(delta_query, template, annotations=annotations)
        delta_names = frozenset(dname(n) for n in effective)
        _mark_fresh_scans(plan.root, delta_names | effective)
        _prefer_cached_base_builds(plan.root, delta_names)
    return DeltaPlan(core, effective, dname, delta_query, plan, schema, semiring)
