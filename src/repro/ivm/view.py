"""Materialised views maintained by delta plans + stateful aggregate heads.

``MaterializedView`` is the user-facing face of :mod:`repro.ivm`:

* :meth:`MaterializedView.create` evaluates the query once on the planned
  engine (optionally in circuit mode, over shared gates) and decomposes
  it into an SPJU *core* plus an optional aggregation *head* (GROUP BY /
  AGG / COUNT / AVG / DISTINCT);
* :meth:`~MaterializedView.apply` maintains the view under base-table
  deltas: the core delta runs through a compiled
  :class:`~repro.ivm.delta.DeltaPlan` (hash joins building on the delta
  side), and the head's one ``GB`` state
  (:class:`~repro.ivm.state.HeadState`) is patched group-by-group —
  insertions via semiring ``+``, deletions via ``Z``-annotations that
  cancel, or via :meth:`~MaterializedView.zero_tokens` for token-based
  provenance;
* :meth:`~MaterializedView.refresh` recomputes from scratch (the escape
  hatch after out-of-band database mutation, detected by the database's
  monotonic version stamp), and :meth:`~MaterializedView.replace` swaps
  one base table, recomputing only when the view reads it;
* :meth:`~MaterializedView.explain_delta` renders the physical delta plan
  and the head's maintenance protocol.

The maintained result is *equal* to re-evaluation — pinned across N, Z,
``N[X]``-expanded and circuit annotation modes by the property suite
``tests/property/test_ivm_equivalence.py``, not assumed.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Mapping, Optional

from repro.core.aggregates import check_group_by
from repro.core.database import KDatabase
from repro.core.query import (
    Aggregate,
    AvgAgg,
    CountAgg,
    Distinct,
    GroupBy,
    Query,
    Table,
)
from repro.core.relation import KRelation
from repro.exceptions import QueryError
from repro.ivm.delta import _LINEAR, DeltaPlan, compile_delta_plan, table_refs
from repro.ivm.state import HeadState
from repro.obs import trace as _trace
from repro.plan.compiler import annotation_semiring, compile_plan
from repro.plan.term_result import TermResult
from repro.semirings.homomorphism import deletion_hom
from repro.semirings.polynomials import PolynomialSemiring

__all__ = ["MaterializedView"]


_HEAD_DESCRIPTIONS = {
    "group": "grouped aggregation — one GB state keyed on the grouping "
             "attributes, tensors patched via semiring +, dirty groups only",
    "agg": "whole-relation aggregate — the GB state's one group over the "
           "empty key, patched in place",
    "count": "COUNT(*) — one group over the empty key, SUM over the constant 1",
    "avg": "AVG — one group over the empty key, a SUM+COUNT pair tensor",
    "distinct": "DISTINCT view — one group per tuple, raw annotation sums "
                "maintained, δ applied at emission",
    "relation": "SPJU materialisation — one group per tuple, raw annotation sums",
}


#: The aggregation heads maintained statefully above an SPJU core.
_HEAD_KINDS = {
    GroupBy: "group", Aggregate: "agg", CountAgg: "count", AvgAgg: "avg",
    Distinct: "distinct",
}


def _shape_error(query: Query) -> QueryError:
    """Why ``query`` is not one head directly over an SPJU core, naming
    the first node outside that shape and the node above it."""
    if type(query) in _HEAD_KINDS:
        stack = [(query, query.child)]
    else:
        stack = [(None, query)]
    while stack:
        parent, node = stack.pop()
        if isinstance(node, _LINEAR):
            stack.extend((node, child) for child in reversed(node.children))
        elif not isinstance(node, Table):
            break
    if parent is None:
        where = f"{type(node).__name__} at the root"
    elif type(node) in _HEAD_KINDS and type(parent) not in _HEAD_KINDS:
        where = f"{type(parent).__name__} above the {type(node).__name__} head"
    else:
        where = f"{type(node).__name__} under {type(parent).__name__}"
    return QueryError(
        f"a view cannot maintain {query}: {where}; a view maintains one head "
        "(GROUP BY, aggregate, COUNT, AVG or DISTINCT) directly over an SPJU "
        "core (select, project, rename, union, join)"
    )


class MaterializedView:
    """A query result kept equal to re-evaluation under database deltas.

    Obtain instances through :meth:`create`.  The view owns its base
    database's consistency window: :meth:`apply` folds the delta into the
    database itself (``db.update``) after patching the view, and records
    the database's version stamp; mutations that bypass the view are
    detected on the next ``apply`` and must be reconciled via
    :meth:`refresh`.
    """

    def __init__(
        self,
        db: KDatabase,
        query: Query,
        *,
        annotations: str = "expanded",
    ):
        self._exec_semiring = annotation_semiring(db.semiring, annotations)
        self.db = db
        self.query = query
        self.annotations = annotations

        # an SPJU core, under at most one stateful aggregation head
        self._head_kind = _HEAD_KINDS.get(type(query), "relation")
        self._core = query if self._head_kind == "relation" else query.child
        try:
            self._refs = table_refs(self._core)  # validates the SPJU core
        except QueryError:
            raise _shape_error(query) from None

        # well-formedness of the whole view, decided on schemas alone
        catalog = {name: rel.schema for name, rel in db}
        self.core_schema = self._core.schema(catalog)
        self.out_schema = query.schema(catalog)
        self._head = self._build_head()
        self._delta_plans: Dict[FrozenSet[str], DeltaPlan] = {}
        self._result_cache: Any = None
        self._materialise(self._head)
        self._version = db.version

    #: The documented constructor (mirrors ``Query.evaluate`` keywords).
    @classmethod
    def create(
        cls,
        db: KDatabase,
        query: Query,
        *,
        annotations: str = "expanded",
    ) -> "MaterializedView":
        """Materialise ``query`` over ``db`` and return the maintained view."""
        return cls(db, query, annotations=annotations)

    # -- head construction --------------------------------------------------

    def _build_head(self) -> HeadState:
        node, semiring = self.query, self._exec_semiring
        if self._head_kind == "group":
            # schema() decided everything but the delta-semiring requirement
            check_group_by(
                self.core_schema, node.group_attributes, node.aggregations,
                node.count_attr, semiring,
            )
        return HeadState(node, semiring, self.core_schema)

    # -- maintenance --------------------------------------------------------

    def apply(self, deltas: "KDatabase | Mapping[str, KRelation]") -> "MaterializedView":
        """Maintain the view under base-table deltas, then fold them in.

        ``deltas`` maps base-relation names to delta relations (a
        :class:`KDatabase` over the same semiring also works).  Annotations
        add: bag/provenance deltas insert; ring-annotated deltas (``Z``)
        delete by carrying additive inverses (``KRelation.negated``).  The
        base database is updated (``db.update``) after the view state is
        patched, so view and database move in one step.

        Runs under the base database's writer lock: the view transition
        (state patch + ``db.update`` + version restamp) is one atomic
        step with respect to other writers and to snapshot-pinning
        readers (:meth:`repro.core.database.KDatabase.snapshot`), who see
        either the pre- or post-delta version, never a half-applied one.
        """
        deltas = self._normalized(deltas)
        with self.db._lock, _trace.span(
            "ivm.apply", tables=",".join(sorted(deltas))
        ) as tspan:
            if self.db.version != self._version:
                raise QueryError(
                    f"base database moved from version {self._version} to "
                    f"{self.db.version} outside this view; call refresh() first"
                )
            # cache-key on the *effective* set (deltas to unreferenced
            # tables are statically empty), so {"Emp"} and {"Emp",
            # "Other"} share one compiled plan
            plan = self._delta_plan(frozenset(deltas) & self._refs)
            batch = plan.execute_batch(self.db, deltas)
            if tspan is not None:
                tspan.attrs["delta_rows"] = len(batch)
            if len(batch):
                self._head.absorb(batch)
                self._result_cache = None
            self.db.update(deltas)
            self._version = self.db.version
        return self

    def zero_tokens(self, *tokens: Any) -> "MaterializedView":
        """Delete by token zeroing: patch state *and* base annotations.

        The delta-term-zeroing side of deletions for token-based
        (``N[X]``/``Z[X]``) views: every group tensor, raw total and base
        annotation has the tokens' indeterminates set to ``0`` — no query
        re-runs.  Circuit-mode views share gates with every other circuit
        plan and should :meth:`refresh` after deletions instead.
        """
        if self.annotations == "circuit":
            raise QueryError(
                "token zeroing patches expanded polynomial state; "
                "circuit-mode views should refresh() after deletions"
            )
        with self.db._lock:
            if self.db.version != self._version:
                raise QueryError(
                    f"base database moved from version {self._version} to "
                    f"{self.db.version} outside this view; call refresh() first"
                )
            semiring = self.db.semiring
            if not isinstance(semiring, PolynomialSemiring):
                raise QueryError(
                    f"token zeroing needs token-based annotations; "
                    f"{semiring.name} has no tokens (use Z-annotated deltas)"
                )
            hom = deletion_hom(semiring, tokens)
            for name, rel in list(self.db):
                self.db.add(name, rel.apply_hom(hom))
            self._head.map_annotations(hom.map_many)
            self._result_cache = None
            self._version = self.db.version
        return self

    def refresh(self) -> "MaterializedView":
        """Recompute the view from the database's current contents.

        The reconciliation path after out-of-band mutation (anything that
        bumped ``db.version`` without going through :meth:`apply`); also
        drops the compiled delta plans so schema-preserving catalog
        changes pick up fresh statistics.  Serialised against writers by
        the base database's lock.  The new state is built beside the old
        one and installed only once it is complete: where the query no
        longer compiles, the view keeps its state and version.
        """
        with self.db._lock:
            head = self._build_head()
            self._materialise(head)
            self._head = head
            self._delta_plans.clear()
            self._result_cache = None
            self._version = self.db.version
        return self

    def replace(self, name: str, relation: KRelation) -> "MaterializedView":
        """Register ``relation`` under ``name`` in the view's database.

        A table the view reads is re-materialised (:meth:`refresh`), as is
        a view that was already stale; any other table joins the catalog
        without touching the view's state, so later deltas to it apply.
        """
        with self.db._lock:
            stale = self.is_stale()
            self.db.add(name, relation)
            if stale or name in self._refs:
                return self.refresh()
            self._version = self.db.version
        return self

    def _materialise(self, head: HeadState) -> None:
        """Evaluate the core and absorb it into the empty state ``head``.

        The shared body behind initial creation and :meth:`refresh`, where
        the catalog may have moved under the view: the core must still
        compile to the recorded schema.  The core's batch is absorbed as
        the tier left it, so an encoded core folds on the encoded kernel
        without being decoded row by row.
        """
        db = self.db
        if self._core.schema({n: rel.schema for n, rel in db}) != self.core_schema:
            raise QueryError(
                f"view core {self._core} no longer compiles to schema "
                f"{self.core_schema}; recreate the view"
            )
        plan = compile_plan(self._core, db, annotations=self.annotations)
        initial = plan.execute_batch(db)
        if len(initial):
            head.absorb(initial)

    # -- reads ---------------------------------------------------------------

    def result(self) -> KRelation:
        """The maintained view contents (cached until the next mutation);
        in circuit mode the gates, read as ``N[X]`` (a
        :class:`~repro.plan.term_result.TermResult`)."""
        if self._result_cache is None:
            relation = KRelation(self._exec_semiring, self.out_schema, self._head.rows)
            if self.annotations == "circuit":
                relation = TermResult.of_gates(relation)
            self._result_cache = relation
        return self._result_cache

    def is_stale(self) -> bool:
        """Did the database move outside this view (version mismatch)?"""
        return self.db.version != self._version

    @property
    def version(self) -> int:
        """The database version this view is consistent with."""
        return self._version

    @property
    def tables(self) -> FrozenSet[str]:
        """The base tables the view reads."""
        return self._refs

    def explain_delta(self, changed: Optional[Any] = None) -> str:
        """Render the maintenance strategy and the physical delta plan.

        ``changed`` names the base tables a hypothetical delta touches
        (default: every table the view reads).
        """
        names = frozenset(changed) & self._refs if changed is not None else self._refs
        plan = self._delta_plan(names)
        lines = [
            f"view: {self.query}",
            f"maintains: {_HEAD_DESCRIPTIONS[self._head_kind]}",
        ]
        return "\n".join(lines) + "\n" + plan.explain()

    def check(self) -> bool:
        """Does the maintained view equal re-evaluation from scratch?"""
        return self.result() == self.query.evaluate(self.db)

    # -- plumbing -------------------------------------------------------------

    def _delta_plan(self, changed: FrozenSet[str]) -> DeltaPlan:
        plan = self._delta_plans.get(changed)
        if plan is None:
            plan = compile_delta_plan(
                self._core, self.db, changed, annotations=self.annotations
            )
            self._delta_plans[changed] = plan
        return plan

    def _normalized(self, deltas) -> Dict[str, KRelation]:
        # the view must reject a bad batch before patching its state, so
        # the database's shared delta validation runs up front
        return self.db.check_deltas(deltas)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MaterializedView {self._head_kind} head over "
            f"{self._exec_semiring.name}: {self.query}>"
        )
