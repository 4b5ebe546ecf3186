"""The Logical → Physical plan compiler.

Pipeline: (1) run the provenance-preserving logical rewrites of
:mod:`repro.core.rewrites` (selection pushdown below joins, projection
collapsing — each justified by a semiring law, so annotations are
preserved exactly); (2) walk the rewritten :class:`~repro.core.query.Query`
tree bottom-up, choosing a physical operator per node and threading output
schemas and cardinality estimates; (3) fuse adjacent σ/Π/ρ/δ nodes into
:class:`~repro.plan.physical.FusedPipeline` stages.

Cardinality estimates are deliberately coarse — they only have to rank
join sides and read well in ``explain()`` output:

=====================  =====================================================
scan                   actual stored cardinality
σ (per condition)      1/3 for equalities, 1/2 for order comparisons
keyed join             ``min(|L|, |R|)`` (foreign-key heuristic)
cross join             ``|L| * |R|``
group-by               ``max(1, |child| / 4)``
whole aggregation      1
=====================  =====================================================

Output schemas are the nodes' own (:meth:`~repro.core.query.Query.schema`),
which is also where an ill-formed query is rejected: ``compile_plan``
raises what the interpreter raises, on schemas alone, before any row is
read.  What still compiles to a :class:`~repro.plan.physical.Fallback`
over the *whole* query is a reference to a table the catalog lacks (so
``explain`` can render it; execution raises) and a ``Query`` subclass the
compiler has no operator for.  Runtime guards (symbolic-value checks)
raise the same exception types with the same messages.
"""

from __future__ import annotations

from typing import Mapping, Tuple

from repro.circuits.convert import NX_CIRCUITS
from repro.core.query import (
    Aggregate,
    AvgAgg,
    Cartesian,
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
    Union,
    ValueJoin,
)
from repro.core.rewrites import optimize
from repro.core.schema import Schema
from repro.deadline import Deadline
from repro.exceptions import QueryError
from repro.plan.encoded import EncodedBatch, EncodedFallback, combine_codes, why_boxed
from repro.plan.kernels import HAVE_NUMPY, np
from repro.plan.term_result import TermResult
from repro.plan.physical import (
    DifferenceOp,
    DistinctStage,
    ExecutionContext,
    Fallback,
    FusedPipeline,
    GroupedAggregate,
    HashJoin,
    PhysicalOp,
    ProjectStage,
    RenameStage,
    Scan,
    SelectStage,
    UnionAll,
    _consolidate_encoded,
    _note_fold,
)
from repro.core.query import AttrCompare
from repro.core.relation import KRelation
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.semirings.polynomials import NX

__all__ = ["PhysicalPlan", "annotation_semiring", "compile_plan"]


def _note_tier(tier: str) -> None:
    # which tier actually served each execute_batch call — the
    # repro_tier_executions_total counter family, exported cumulatively
    # by the serving layer under /stats and /metrics
    _metrics.TIER_EXECUTIONS.inc(1, tier)


class PhysicalPlan:
    """A compiled, executable plan bound to a database.

    Executing the same plan repeatedly reuses what its operators derived
    from the underlying (immutable) relations alone — hash-join build
    tables and probes, pipeline outputs
    (:meth:`~repro.plan.physical.PhysicalOp.lasts`) — while those are
    unchanged; scans read the batches kept on the relation versions
    (:class:`~repro.plan.physical.Scan`).

    ``tier`` is the compile-time execution-tier selection: ``"encoded"``
    plans scan base tables as dictionary-encoded batches with
    machine-scalar annotation arrays (:mod:`repro.plan.encoded`) and fall
    back per table / per operator when the data disqualifies;
    ``"object"`` plans run the boxed Python-value path throughout — the
    only tier there is when NumPy did not import.

    ``annotations`` is the representation the plan was compiled for
    (``"expanded"`` or ``"circuit"``, see :func:`compile_plan`).
    """

    def __init__(self, root: PhysicalOp, db, query: Query, tier: str = "object",
                 annotations: str = "expanded"):
        self.root = root
        self.db = db
        self.query = query
        self.tier = tier
        self.annotations = annotations
        self._last_tier: "str | None" = None
        #: tables the last encoded run scanned boxed (their contents)
        self._boxed: Tuple[str, ...] = ()
        # parallel-tier state (filled in by compile_plan): the sharding
        # recipe (or the honest reason there is none) and the cached
        # morsel job
        self._parallel_spec = None
        self._parallel_reason: "str | None" = None
        self._parallel_job = None

    def execute(self, db=None, *, deadline=None) -> KRelation:
        """Run the plan and return the logical result relation.

        ``deadline`` is an optional :class:`repro.deadline.Deadline` (or
        a number of seconds, which starts one) checked cooperatively at
        every operator boundary (and per morsel on the parallel tier);
        expiry raises :class:`~repro.exceptions.DeadlineExceeded`.

        The root batch becomes a relation in one step, traced as a
        ``plan.materialise`` span (``rows_in``, ``rows_out``, ``merge``,
        see :func:`_materialise`, and ``lazy``) beside ``plan.execute``.
        Where the root batch is encoded (machine scalars, or ``N[X]`` term
        rows), the relation is a
        :class:`~repro.plan.term_result.TermResult` (``lazy=True``), whose
        rows stay the root's arrays until it is read; ``rows_out`` is
        counted from them.  A circuit plan's relation is a ``TermResult``
        over ``N[X]`` holding the gate relation the plan built.
        """
        batch = self._traced(db, None, deadline, True)
        if not _trace._ACTIVE:
            return _materialise(batch, self.annotations)[0]
        with _trace.span("plan.materialise", rows_in=len(batch)) as span:
            rel, merge = _materialise(batch, self.annotations)
            span.attrs.update(rows_out=len(rel), merge=merge,
                              lazy=isinstance(rel, TermResult))
        return rel

    def execute_batch(self, db=None, *, tier: "str | None" = None, deadline=None):
        """Run the plan and return the raw columnar batch.

        Rows may repeat with separate annotations (the ``+_K`` merge is
        deferred — see :mod:`repro.plan.columnar`); consumers that patch
        state row-by-row, such as the incremental maintenance engine
        (:mod:`repro.ivm`), absorb the batch directly instead of paying
        for an intermediate :class:`KRelation`.  Encoded-tier results are
        decoded at this boundary, so every consumer sees the one batch
        representation regardless of which tier ran.

        ``tier`` overrides the plan's compile-time selection for this
        execution only — the incremental engine uses it to run tiny
        delta batches on the object path, where array-kernel fixed costs
        cannot pay off (see :meth:`repro.ivm.delta.DeltaPlan.execute_batch`).

        A ``"parallel"`` execution that cannot shard (see
        :mod:`repro.plan.parallel`) falls back to the serial encoded
        tier for the whole query and reports the reason via
        ``explain()``'s ``[last run: ...]`` — mirroring how per-operator
        ``EncodedFallback`` degrades to the object path.

        Under an open trace (:func:`repro.obs.trace.collect`) the whole
        execution runs inside a ``plan.execute`` span whose ``tier``
        attribute is the same string ``explain()`` prints as
        ``[last run: ...]``; operator and morsel spans nest beneath it.
        """
        result = self.execute_raw(db, tier, deadline)
        if isinstance(result, EncodedBatch):
            result = result.to_columnar()
        return result

    def execute_raw(self, db=None, tier=None, deadline=None):
        """The root operator's batch as the tier left it — an
        :class:`~repro.plan.encoded.EncodedBatch` when the encoded tier
        ran — traced as ``plan.execute``.  :meth:`execute` merges it into
        a relation and :meth:`execute_batch` decodes it; a view's initial
        fold (:meth:`repro.ivm.state.HeadState.absorb`) reads it encoded."""
        return self._traced(db, tier, deadline, False)

    def _traced(self, db, tier, deadline, runs: bool):
        """:meth:`_execute_batch_impl` in a ``plan.execute`` span; with
        ``runs`` (:meth:`execute` only) a root ``GroupedAggregate`` over an
        encoded batch returns its :class:`~repro.plan.term_result.TermResult`."""
        if not _trace._ACTIVE:
            return self._execute_batch_impl(db, tier=tier, deadline=deadline, runs=runs)
        with _trace.span("plan.execute",
                         tier_requested=tier if tier is not None else self.tier):
            result = self._execute_batch_impl(db, tier=tier, deadline=deadline, runs=runs)
            _trace.add_attrs(tier=self._last_tier)
            return result

    def _execute_batch_impl(self, db=None, *, tier: "str | None" = None,
                            deadline=None, runs: bool = False):
        effective = tier if tier is not None else self.tier
        run_db = db if db is not None else self.db
        if deadline is not None and not isinstance(deadline, Deadline):
            # a bare number of seconds is accepted at every entry point
            deadline = Deadline.after(float(deadline))
        suffix = ""
        if effective == "parallel":
            from repro.plan import parallel as _parallel

            try:
                result, info = _parallel.execute_parallel(
                    self, run_db, deadline=deadline
                )
            except _parallel.ParallelFallback as exc:
                # a failed morsel or a static disqualification: re-run
                # serial encoded (exact by construction).  DeadlineExceeded
                # propagates — an expired budget must not silently restart
                # the work.
                suffix = f" (parallel fallback: {exc})"
                effective = "encoded"
                _trace.add_attrs(fallback=str(exc))
            else:
                self._last_tier = (
                    f"parallel ({info.workers} workers × {info.morsels} morsels)"
                )
                _note_tier("parallel")
                _trace.add_attrs(workers=info.workers, morsels=info.morsels)
                return result
        ctx = ExecutionContext(
            run_db,
            encoded=effective == "encoded",
            deadline=deadline,
            annotations=self.annotations,
        )
        if runs:
            ctx.runs = self.root
        result = self.root.execute(ctx)
        self._boxed = tuple(ctx.boxed)
        if ctx.used_encoded:
            self._last_tier = (
                "encoded+object fallback" if ctx.fell_back else "encoded"
            ) + suffix
            _note_tier("encoded")
        else:
            self._last_tier = "object" + suffix
            _note_tier("object")
        return result

    def explain(self) -> str:
        """Render the operator tree with cardinality estimates.

        The ``annotations:`` line names the representation the plan was
        compiled for (``"expanded"`` canonical values, ``"circuit"``
        shared gates lowered on demand); the ``tier:`` line names the
        execution tier the compiler selected — and, once the plan has
        run, which tier actually executed (a qualifying semiring whose
        *data* disqualified falls back at runtime).
        """
        lines = [f"plan for: {self.query}"]
        if self.annotations == "circuit":
            lines.append(
                "annotations: circuit (hash-consed gates; lowered / "
                "specialised on demand)"
            )
        else:
            lines.append("annotations: expanded (canonical semiring values)")
        if self.tier == "parallel":
            tier = (
                "tier: parallel (morsel-driven threads over dictionary "
                "codes + numpy kernels; whole-query fallback to serial "
                "encoded)"
            )
        elif self.tier == "encoded":
            tier = (
                "tier: encoded (dictionary codes + numpy kernels; "
                "per-operator object fallback)"
            )
        else:
            tier = "tier: object (boxed Python values)"
        if self._last_tier is not None:
            tier += f"  [last run: {self._last_tier}]"
        lines.append(tier)
        for name in self._boxed:
            why = why_boxed(self.db.relation(name), self.annotations)
            lines.append(f"boxed: table {name} ({why})")
        if self.tier == "parallel":
            from repro.plan import parallel as _parallel

            spec = self._parallel_spec
            if spec is not None:
                workers = _parallel.effective_workers()
                morsels = max(2, workers * _parallel.MORSELS_PER_WORKER)
                driver = spec.scans[spec.driver_pos]
                partition = (
                    "hash(" + ", ".join(spec.partition_attrs) + ")"
                    if spec.partition_attrs
                    else "contiguous chunks"
                )
                lines.append(
                    f"parallel: {workers} workers × {morsels} morsels "
                    f"(driver: Scan {driver.name}, partition: {partition})"
                )
            else:
                lines.append(
                    f"parallel: unavailable — {self._parallel_reason}; "
                    "runs serial encoded"
                )
        _render(self.root, "", "", lines)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.explain()


def _materialise(batch, annotations: str) -> Tuple[KRelation, str]:
    """The relation a plan's root ``batch`` stands for, and how its rows
    were merged: ``"distinct"`` (nothing to merge: the batch promised
    pairwise distinct rows), ``"kernel"`` (one grouped reduction over the
    encoded rows, where the machine ``+`` is an exact ufunc), ``"runs"``
    (the term store's one fold over ``N[X]`` term rows — the root's own,
    or :func:`_fold_terms`) or ``"python"`` (the ``+_K`` merge of
    :func:`~repro.core.relation.merged_rows` over decoded rows: object
    batches, and gate ids, whose sums must intern the very gates the
    object path would).  An encoded root over machine scalars or term
    rows is kept as a :class:`~repro.plan.term_result.TermResult`, which
    builds its rows only when read; a root ``GroupedAggregate`` hands one
    over itself.  Gate ids (``annotations="circuit"``) are kept as the
    gate form of one: the gate relation, read as ``N[X]``."""
    if isinstance(batch, TermResult):
        return batch, "runs" if batch.terms else "distinct"
    merge = "distinct" if batch.distinct else "python"
    if isinstance(batch, EncodedBatch):
        machine = batch.machine
        try:
            if merge == "python" and not machine.merges:
                if len(batch):
                    return _fold_terms(batch), "runs"
            elif merge == "python" and hasattr(machine.plus, "at"):
                batch, merge = _consolidate_encoded(batch, batch.schema), "kernel"
        except EncodedFallback:  # no attributes, past the int64 bound, ...
            pass
        if isinstance(batch, EncodedBatch):
            if batch.distinct and machine.portable:
                keys = {a: batch.col(a) for a in batch.schema.attributes}
                return TermResult(batch.semiring, batch.schema, keys, {}, batch.anns), merge
            batch = batch.to_columnar()
    rel = batch.to_krelation()
    if annotations == "circuit":
        return TermResult.of_gates(rel), merge
    return rel, merge


def _fold_terms(batch: EncodedBatch) -> TermResult:
    """The distinct rows of a non-empty term batch, each annotated with
    the fold of its rows' terms, left in the term store."""
    attrs = batch.schema.attributes
    cols = [batch.col(a) for a in attrs]
    if cols:
        keys, _space = combine_codes(cols)
    else:
        keys = np.zeros(len(batch), dtype=np.int64)
    _note_fold("consolidate")
    fold = batch.machine.fold(keys, batch.anns)
    keys = {a: col.gather(fold.rep) for a, col in zip(attrs, cols)}
    return TermResult(batch.semiring, batch.schema, keys, {}, fold)


def _render(node: PhysicalOp, prefix: str, child_prefix: str, lines) -> None:
    lines.append(f"{prefix}{node.label()}  [est_rows={node.est_rows}]")
    children = node.children
    for i, child in enumerate(children):
        last = i == len(children) - 1
        connector = "└─ " if last else "├─ "
        extension = "   " if last else "│  "
        _render(child, child_prefix + connector, child_prefix + extension, lines)


class _CannotCompile(Exception):
    """Internal: this subtree needs the interpreter (totality fallback)."""


def annotation_semiring(semiring, annotations: str):
    """The semiring a plan over a ``semiring``-annotated database computes
    in, in the representation ``annotations`` names: ``semiring`` itself
    (``"expanded"``), or the circuits of ``N[X]``
    (:data:`~repro.circuits.convert.NX_CIRCUITS`, ``"circuit"``; only an
    ``N[X]`` database has them).  Any other value raises
    :class:`~repro.exceptions.QueryError`, as ``Query.evaluate`` does."""
    if annotations == "expanded":
        return semiring
    if annotations != "circuit":
        raise QueryError(f"unknown annotation representation {annotations!r}")
    if semiring is not NX:
        raise QueryError(
            "circuit-backed execution expects an N[X]-annotated database; "
            f"got {semiring.name}"
        )
    return NX_CIRCUITS


def compile_plan(
    query: Query,
    db,
    *,
    rewrite: bool = True,
    tier: "str | None" = None,
    annotations: str = "expanded",
) -> PhysicalPlan:
    """Compile ``query`` into a :class:`PhysicalPlan` against ``db``.

    ``rewrite=False`` skips the logical rewrite pass (used by golden tests
    to pin plan shapes before/after pushdown).

    ``annotations`` mirrors ``Query.evaluate``: ``"circuit"`` compiles the
    plan to compute over gates (:func:`annotation_semiring`) — its scans
    lift the stored ``N[X]`` annotations of ``db`` as they read them, and
    on the encoded tier its annotation arrays are gate ids.

    A wall-clock budget is per call: ``execute(deadline=...)`` (a
    :class:`~repro.deadline.Deadline` or a number of seconds) raises
    :class:`~repro.exceptions.DeadlineExceeded` at the first cooperative
    checkpoint past expiry.

    ``tier`` selects the execution tier: ``None`` (default) auto-selects
    the dictionary-encoded machine-scalar tier whenever the database is
    encodable (its semiring declares a
    :class:`~repro.semirings.base.MachineRepr` *and* NumPy imported — see
    :mod:`repro.plan.kernels`) and the query compiled statically (no
    interpreter fallback); the boxed object path otherwise — so an
    interpreter without NumPy runs every plan on the object tier, to the
    identical answer.  It never selects the morsel-driven parallel tier:
    measured at 0.2–1.6M rows on two cores, the serial encoded tier was
    faster on every benchmark shape.  Pass ``"object"`` to pin
    the boxed path (benchmark baselines, A/B tests), ``"encoded"`` to
    insist on the serial encoded path, or ``"parallel"`` to insist on
    sharded execution (only then is the plan analysed for sharding;
    executions that cannot shard fall back to serial encoded per query,
    honestly reported).  Insisting
    on ``"encoded"`` or ``"parallel"`` against a database that is not
    encodable raises :class:`~repro.exceptions.QueryError` naming what is
    missing, as does ``"parallel"`` in circuit mode, whose annotations
    are per-process gate ids.
    """
    if tier not in (None, "object", "encoded", "parallel"):
        raise QueryError(f"unknown execution tier {tier!r}")
    semiring = annotation_semiring(db.semiring, annotations)
    catalog = {name: rel.schema for name, rel in db}
    sizes = {name: len(rel) for name, rel in db}
    working = query
    if _reads_missing_table(query, catalog):
        root = Fallback(query)  # explain renders it; execution raises
    else:
        query.schema(catalog)  # an ill-formed query is rejected here
        if rewrite:
            working = optimize(query, catalog)
        try:
            root = _compile(working, catalog, sizes)
        except _CannotCompile:
            root = Fallback(working)
    machine = semiring.machine_repr
    if machine is None:
        unencodable = (
            f"semiring {semiring.name} declares no machine representation"
        )
    elif not HAVE_NUMPY:
        unencodable = "NumPy is not importable"
    else:
        unencodable = None
    if unencodable is not None and tier in ("encoded", "parallel"):
        raise QueryError(
            f"the {tier} tier is unavailable: {unencodable} "
            "(omit tier to auto-select)"
        )
    if tier == "parallel" and not machine.portable:
        raise QueryError(
            f"the parallel tier is unavailable: {semiring.name} annotations "
            f"are {machine.entry_kind}, which the parallel tier does not "
            "shard (omit tier to auto-select)"
        )
    qualifies = unencodable is None and not isinstance(root, Fallback)
    parallel_spec = None
    parallel_reason: "str | None" = None
    if tier == "parallel":
        if not qualifies:
            parallel_reason = "query needs the interpreter fallback"
        else:
            from repro.plan import parallel as _parallel

            try:
                parallel_spec = _parallel.analyze_plan(root)
            except _parallel.ParallelFallback as exc:
                parallel_reason = str(exc)
    if tier is None:
        tier = "encoded" if qualifies else "object"
    plan = PhysicalPlan(root, db, query, tier, annotations)
    plan._parallel_spec = parallel_spec
    plan._parallel_reason = parallel_reason
    return plan


# ---------------------------------------------------------------------------
# node-by-node translation
# ---------------------------------------------------------------------------


def _reads_missing_table(query: Query, catalog: Mapping[str, Schema]) -> bool:
    if isinstance(query, Table):
        return query.name not in catalog
    return any(_reads_missing_table(child, catalog) for child in query.children)


def _compile(
    query: Query, catalog: Mapping[str, Schema], sizes: Mapping[str, int]
) -> PhysicalOp:
    schema = query.schema(catalog)
    if isinstance(query, Table):
        return Scan(query.name, schema, sizes[query.name])

    inputs = [_compile(child, catalog, sizes) for child in query.children]
    child = inputs[0] if inputs else None

    if isinstance(query, Select):
        est = child.est_rows
        for condition in query.conditions:
            divisor = 2 if isinstance(condition, AttrCompare) else 3
            est = max(1, est // divisor) if est else 0
        return _stage(child, SelectStage(query.conditions), schema, est)

    if isinstance(query, Project):
        return _stage(child, ProjectStage(query.attributes), schema, child.est_rows)

    if isinstance(query, Rename):
        return _stage(child, RenameStage(query.mapping), schema, child.est_rows)

    if isinstance(query, Distinct):
        return _stage(child, DistinctStage(), schema, child.est_rows)

    if isinstance(query, Union):
        left, right = inputs
        return UnionAll(left, right, schema, left.est_rows + right.est_rows)

    if isinstance(query, NaturalJoin):
        left, right = inputs
        common = left.schema.intersection(right.schema)
        return _make_join(left, right, "natural" if common else "cross",
                          common, common, schema)

    if isinstance(query, Cartesian):
        return _make_join(*inputs, "cross", (), (), schema)

    if isinstance(query, ValueJoin):
        left_keys = tuple(a for a, _b in query.on)
        right_keys = tuple(b for _a, b in query.on)
        return _make_join(*inputs, "value" if left_keys else "cross",
                          left_keys, right_keys, schema)

    if isinstance(query, (GroupBy, Aggregate, CountAgg, AvgAgg)):
        # AGG, COUNT and AVG are GB's one group over the empty key
        if isinstance(query, GroupBy) and query.group_attributes:
            est = max(1, child.est_rows // 4) if child.est_rows else 0
        else:
            est = 1
        return GroupedAggregate(child, query, schema, est)

    if isinstance(query, Difference):
        left, right = inputs
        return DifferenceOp(left, right, query.method, schema, left.est_rows)

    raise _CannotCompile(type(query).__name__)


def _stage(child: PhysicalOp, stage, schema: Schema, est_rows: int) -> PhysicalOp:
    """Fuse σ/Π/ρ/δ into the child's pipeline (creating one if needed)."""
    if isinstance(child, FusedPipeline):
        return child.extended(stage, schema, est_rows)
    return FusedPipeline(child, [stage], schema, est_rows)


def _make_join(
    left: PhysicalOp,
    right: PhysicalOp,
    kind: str,
    left_keys: Tuple[str, ...],
    right_keys: Tuple[str, ...],
    out_schema: Schema,
) -> HashJoin:
    """Build a hash join, putting the smaller estimated side on build."""
    build_side = "left" if left.est_rows < right.est_rows else "right"
    if kind == "cross":
        est = left.est_rows * right.est_rows
    else:
        est = min(left.est_rows, right.est_rows)
    return HashJoin(
        left, right, kind, left_keys, right_keys, build_side, out_schema, est
    )
