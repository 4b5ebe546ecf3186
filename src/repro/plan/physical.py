"""Physical operators: the vectorized execution layer.

Each operator consumes and produces :class:`ColumnarKRelation` batches and
implements exactly the annotation semantics of the corresponding logical
operator in :mod:`repro.core.operators` / :mod:`repro.core.aggregates` —
the differential oracle ``tests/property/test_oracle.py`` holds the
two layers to identical ``N[X]`` results, which (free semiring) pins every
homomorphic specialisation.

Operator inventory:

``Scan``            base-table access; the column decomposition (or the
                    encoding) is kept on the stored relation version,
                    which is immutable, so every plan shares it.
``FusedPipeline``   a select/project/rename/distinct chain executed in as
                    few passes as possible; the σ→Π peephole runs both in
                    one pass without materialising the selected rows.  Over
                    a batch that outlives the execution its output is kept
                    on the node (see :meth:`PhysicalOp.lasts`).
``HashJoin``        natural-, equi- and cross joins.  The planner puts the
                    smaller estimated side on the build side; the built
                    bucket table, and the encoded probe's per-row buckets,
                    are kept on the node and reused while their inputs are
                    identical (e.g. repeated execution of a prepared plan
                    against the same base tables).
``UnionAll``        annotation-summing union; batches simply concatenate
                    (the ``+_K`` merge is deferred, see columnar.py).
``GroupedAggregate``  every aggregation: GROUP BY without the
                    interpreter's intermediate relations, and AGG, COUNT(*)
                    and AVG as its one group over the empty key (Section
                    3.2; the COUNT(*) column of footnote 6 is derived from
                    the annotation totals, not materialised).  Its folds,
                    one per tier, are :func:`fold_groups` and
                    :func:`fold_encoded`, which the view heads of
                    :mod:`repro.ivm.state` call too.
``DifferenceOp``    Section 5 difference; delegates to the logical-layer
                    closed form / encoding on materialised inputs.
``Fallback``        evaluates a whole query through the interpreter —
                    totality for a ``Query`` subclass the compiler has no
                    operator for, and for a reference to a missing base
                    table (``explain`` renders it; execution raises).
"""

from __future__ import annotations

import operator
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro import faults
from repro.core import aggregates as agg_ops
from repro.core.comparisons import ORDER_PREDICATES, decide_order
from repro.core.query import (
    Aggregate,
    AttrCompare,
    AttrEq,
    AttrEqAttr,
    AvgAgg,
    Condition,
    CountAgg,
    Distinct,
    GroupBy,
)
from repro.core.schema import Schema
from repro.core.tuples import Tup
from repro.exceptions import QueryError
from repro.monoids.counting import AVG
from repro.monoids.numeric import SUM
from repro.plan import encoded as enc
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.plan.columnar import ColumnarKRelation
from repro.plan.encoded import EncodedBatch, EncodedFallback, encoded_scan, object_scan
from repro.plan import kernels
from repro.plan.kernels import np, reduce_by_key
from repro.semimodules.tensor import Tensor, tensor_space
from repro.semirings.interning import ranges, run_starts

__all__ = [
    "ExecutionContext",
    "PhysicalOp",
    "Scan",
    "FusedPipeline",
    "SelectStage",
    "ProjectStage",
    "RenameStage",
    "DistinctStage",
    "HashJoin",
    "UnionAll",
    "GroupedAggregate",
    "GroupShape",
    "group_shape",
    "emitted",
    "DifferenceOp",
    "Fallback",
    "fold_groups",
    "fold_encoded",
    "validate_monoid_column",
]


def _is_tensor(value: Any) -> bool:
    return isinstance(value, Tensor)


def _hash_keys(batch: ColumnarKRelation, attrs: Tuple[str, ...]) -> List[Any]:
    """Row keys for hashing on ``attrs``.

    Single-attribute keys — the overwhelmingly common join/group shape —
    are the raw column values (no 1-tuple wrapping, so each of the O(n)
    probe hashes is a plain value hash); wider keys go through
    :meth:`ColumnarKRelation.key_rows`.
    """
    if len(attrs) == 1:
        return batch.column(attrs[0])
    return batch.key_rows(attrs)


class ExecutionContext:
    """Per-execution state: the database, a node-result memo (shared
    subplans run once), the execution tier and the annotation
    representation.  ``encoded`` enables the dictionary-encoded scan path
    (set by the plan's compile-time tier selection); ``annotations`` is
    the representation scans read the stored annotations in
    (``"circuit"``: lifted to gates); ``used_encoded`` records whether
    any scan actually ran encoded, which is what ``explain()`` reports as
    the tier of the last run, and ``boxed`` the tables whose contents
    kept them on the object tier.  ``runs`` is the operator, if any,
    whose groups may stay arrays (a
    :class:`~repro.plan.term_result.TermResult`): the root of a plan
    whose result is handed over as a relation.  ``sliced`` holds the ids
    of the scans seeded with a slice of their table (a parallel morsel's),
    whose batches end with the execution (:meth:`PhysicalOp.lasts`)."""

    __slots__ = (
        "db",
        "results",
        "encoded",
        "annotations",
        "used_encoded",
        "fell_back",
        "boxed",
        "deadline",
        "runs",
        "sliced",
    )

    def __init__(
        self,
        db,
        encoded: bool = False,
        deadline=None,
        annotations: str = "expanded",
    ):
        self.db = db
        self.results: Dict[int, Any] = {}
        self.encoded = encoded
        self.annotations = annotations
        self.used_encoded = False
        self.fell_back = False
        self.boxed: List[str] = []
        #: Optional :class:`repro.deadline.Deadline` checked at every
        #: operator boundary — the cooperative-cancellation checkpoints.
        self.deadline = deadline
        self.runs = None
        self.sliced: set = set()


def _as_columnar(batch, ctx: "ExecutionContext | None" = None) -> ColumnarKRelation:
    """Materialise an encoded batch into the boxed object representation
    (identity on object batches) — the per-operator fallback boundary.
    Passing ``ctx`` records the fallback so ``explain()`` reports the run
    honestly ("encoded+object fallback" instead of "encoded")."""
    if isinstance(batch, EncodedBatch):
        if ctx is not None:
            ctx.fell_back = True
        return batch.to_columnar()
    return batch


class PhysicalOp:
    """Base physical operator: children, output schema, cardinality estimate."""

    __slots__ = ("children", "schema", "est_rows")

    def __init__(self, children: Tuple["PhysicalOp", ...], schema: Schema, est_rows: int):
        self.children = children
        self.schema = schema
        self.est_rows = est_rows

    def execute(self, ctx: ExecutionContext) -> ColumnarKRelation:
        memo = ctx.results
        key = id(self)
        if key not in memo:
            # cooperative-cancellation checkpoints: once on entry (before
            # this operator starts) and once on exit (so a deadline that
            # expired *inside* a long-running child still cancels here,
            # instead of only at the next operator's entry)
            deadline = ctx.deadline
            if deadline is not None:
                deadline.check(self.label())
            # one module-global integer check while tracing is off
            if not _trace._ACTIVE:
                result = self._run(ctx)
            else:
                with _trace.span(self.label()) as span:
                    result = self._run(ctx)
                    if span is not None:
                        span.attrs["rows_out"] = len(result)
                        anns = getattr(result, "anns", None)
                        nbytes = getattr(anns, "nbytes", None)
                        if nbytes is not None:
                            span.attrs["ann_bytes"] = int(nbytes)
            memo[key] = result
            if deadline is not None:
                deadline.check(self.label())
        return memo[key]

    def _run(self, ctx: ExecutionContext) -> ColumnarKRelation:
        raise NotImplementedError

    def lasts(self, ctx: Optional[ExecutionContext] = None) -> bool:
        """Does the batch this operator returns in ``ctx`` (``None``: in
        any execution) outlive the execution?  A scan's does — it is kept
        on the stored version — unless its table is a new relation on
        every execution (:attr:`Scan.fresh`) or ``ctx`` seeded the scan
        with a slice; so does that of a pipeline over a lasting batch (it
        keeps its output).  Work derived only from lasting batches is
        kept on the operator (:func:`_keep`); anything else would pin the
        previous run's batch at a 100 % miss rate."""
        return False

    def label(self) -> str:
        raise NotImplementedError


def validate_monoid_column(col: Iterable[Any], monoid, attr: str) -> None:
    """Check every value of an aggregated column lies in ``monoid``.

    The all/map pass is C-driven; only the failing case re-scans to raise
    the interpreter's precise per-value error (tensor values get the
    nested-aggregation message, foreign values the membership one).
    Run by :func:`fold_groups`, the object fold of the planner and of the
    view heads of :mod:`repro.ivm`.
    """
    col = col if isinstance(col, list) else list(col)
    if not all(map(monoid.contains, col)):
        for value in col:
            agg_ops.monoid_value(value, monoid, attr)


def _require_plain_columns(
    batch: ColumnarKRelation, attrs: Iterable[str], context: str
) -> None:
    """The physical counterpart of :func:`operators.require_plain_values`.

    Passing columns are recorded on the (immutable) batch, so re-executing
    a plan over a cached batch does not re-scan them.
    """
    checked = batch._plain_cols
    for attr in attrs:
        if attr in checked:
            continue
        col = batch.column(attr)
        if any(map(_is_tensor, col)):
            value = next(v for v in col if isinstance(v, Tensor))
            raise QueryError(
                f"{context}: attribute {attr!r} holds a symbolic aggregate "
                f"value {value}; use the extended (Section 4.3) semantics"
            )
        checked.add(attr)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


class Scan(PhysicalOp):
    """Base-table access: the batch the stored relation version reads as.

    A version is immutable, so its batches are kept on it
    (:func:`repro.plan.encoded.object_scan`,
    :func:`repro.plan.encoded.encoded_scan`) and every plan, snapshot and
    catalog holding the version reads the same one; a mutated table is a
    new version, scanned afresh.

    A circuit plan's scan reads the stored ``N[X]`` annotations as gates
    (:func:`repro.plan.encoded.scan_rows`): the plan computes over the
    gates of :data:`~repro.circuits.convert.NX_CIRCUITS`, and every
    operator follows the semiring of the batch it receives.

    On an encoded-tier plan the scan returns the table's dictionary
    encoding; a table whose contents disqualify the tier — an annotation
    outside the machine dtype, an unhashable value — silently decomposes
    to the boxed object batch instead, and every downstream operator
    follows the representation it receives.  The version keeps one image
    *per representation*, so an object plan (a delta plan's) and an
    encoded plan reading one version each decompose it once.
    """

    __slots__ = ("name", "fresh")

    def __init__(self, name: str, schema: Schema, est_rows: int):
        super().__init__((), schema, est_rows)
        self.name = name
        #: the table is a new relation on every execution (a delta plan's
        #: Δ-tables and the bases its deltas change): its batch does not
        #: last (:meth:`PhysicalOp.lasts`)
        self.fresh = False

    def _run(self, ctx: ExecutionContext):
        # latency fault point: a seeded sleep lets the chaos suite drive
        # deadline expiry through a realistically-slow scan (no-op when
        # nothing is armed)
        faults.sleep_point("latency", site="scan", table=self.name)
        rel = ctx.db.relation(self.name)
        if ctx.encoded:
            batch = encoded_scan(ctx.db, self.name, rel, ctx.annotations)
            if batch is not None:
                ctx.used_encoded = True
                return batch
            ctx.boxed.append(self.name)  # its contents disqualify the tier
        return object_scan(rel, ctx.annotations)

    def lasts(self, ctx: Optional[ExecutionContext] = None) -> bool:
        return not self.fresh and (ctx is None or id(self) not in ctx.sliced)

    def label(self) -> str:
        return f"Scan {self.name}"


# ---------------------------------------------------------------------------
# fused select / project / rename / distinct pipelines
# ---------------------------------------------------------------------------


def _encoded_guard_plain(batch: EncodedBatch, attrs: Iterable[str]) -> None:
    """Encoded counterpart of :func:`_require_plain_columns`: checked over
    the *dictionaries*, once each (:meth:`EncodedColumn.has_tensor`).  A
    symbolic value falls back to the object path, whose guard raises the
    exact error."""
    for attr in attrs:
        if batch.col(attr).has_tensor():
            raise EncodedFallback(f"symbolic value in column {attr!r}")


def _note_kernel(op: str, space: int, rows: int, machine=None, presence=None) -> None:
    """Count, per encoded join probe (``rows`` = build rows) or grouped
    reduction over a key space of ``space`` codes in ``machine``'s
    annotations, whether it addressed the codes directly or sorted them
    (:func:`repro.plan.kernels.direct`; a ``+`` that cannot scatter always
    sorts), and say so on the operator's span — a sort there wins the
    attribute, as ``scatter`` wins ``presence`` (a direct reduction's)."""
    scatters = machine is None or hasattr(machine.plus, "at")
    kernel = "direct" if scatters and kernels.direct(space, rows) else "sorted"
    _metrics.ENCODED_KERNEL.inc(1, op, kernel)
    attrs = getattr(_trace.current(), "attrs", {})
    if attrs.get("kernel") != "sorted":
        attrs["kernel"] = kernel
    if presence and kernel == "direct" and attrs.get("presence") != "scatter":
        attrs["presence"] = presence


#: per counted kind of kept result, the ``kernel`` a reuse counts as and
#: the ``kept`` attribute it puts on the operator's span
_REUSE = {"pipeline": ("kept", "output"), "probe": ("kept", "probe"),
          "translate": ("memo", None)}


def _keep(cache: Dict[Any, Any], key, inputs: Tuple[Any, ...], lasts: bool, make,
          op: Optional[str] = None):
    """``make()``, a result derived from ``inputs`` alone, kept in
    ``cache[key]`` while ``lasts`` (:meth:`PhysicalOp.lasts`) and reused
    while the inputs are the identical objects: one entry per key,
    replaced, never accumulated.  Under ``op`` (a :data:`_REUSE` kind)
    each lasting lookup counts on ``repro_encoded_kernel_total`` as a
    reuse or ``built``."""
    entry = cache.get(key) if lasts else None
    hit = entry is not None and all(map(operator.is_, entry[0], inputs))
    if not hit:
        entry = (inputs, make())
        if lasts:
            cache[key] = entry
    if op is not None and lasts:
        reuse, attr = _REUSE[op]
        _metrics.ENCODED_KERNEL.inc(1, op, reuse if hit else "built")
        if hit and attr is not None:
            _trace.add_attrs(kept=attr)
    return entry[1]


def _sum_by_key(op: str, keys, anns, batch: EncodedBatch, space: int):
    """``+_K`` of ``anns`` per key, noted as ``op``; the keys present are
    read off the sums where those show them (``kernels.marks_itself``)."""
    machine = batch.machine
    zero = machine.code(batch.semiring.zero)
    present = "totals" if kernels.marks_itself(anns, machine.plus, zero) else None
    _note_kernel(op, space, len(keys), machine, present or "scatter")
    return reduce_by_key(keys, anns, machine.plus, space, zero, present)


def _translation(memo: Dict[Any, Any], key, col, other, build=None):
    """``col.translate_to(other)`` (or a union's ``build``), kept whole in
    ``memo[key]`` while both dictionaries are the very lists it was built
    from (none grows in place), and counted as ``memo`` or ``built``."""
    make = build or (lambda: col.translate_to(other))
    return _keep(memo, key, (col.values, other.values), True, make, "translate")


def _same_machine(left: EncodedBatch, right: EncodedBatch) -> None:
    """Two batches' annotations combine only in one representation (ids
    of two generations of a gate or term store do not)."""
    if left.machine is not right.machine:
        raise left.machine.fallback("two generations")


def _consolidate_encoded(
    batch: EncodedBatch, out_schema: Schema, keep=None
) -> EncodedBatch:
    """Merge duplicate rows of ``batch`` (restricted to ``out_schema``'s
    attributes, optionally pre-filtered to the ``keep`` rows) with ``+_K``:
    the encoded form of :meth:`ColumnarKRelation.from_value_rows`.  Code
    tuples and value tuples induce the same row partition (distinct codes
    hold non-equal values), so merging by combined integer key is exact.
    """
    out_attrs = out_schema.attributes
    if not out_attrs:
        raise EncodedFallback("empty projection")
    cols = [batch.col(a) for a in out_attrs]
    keys, space = enc.combine_codes(cols, keep)
    out_bound = enc.check_reduction_bound(batch, len(keys))
    anns = batch.anns if keep is None else batch.anns[keep]
    unique, sums = _sum_by_key("consolidate", keys, anns, batch, space)
    out_cols = dict(zip(out_attrs, enc.split_codes(cols, unique)))
    return EncodedBatch(
        batch.semiring,
        out_schema,
        out_cols,
        sums,
        enc.all_one(batch, sums),
        out_bound,
        batch.machine,
        True,
    )


class SelectStage:
    """σ over a conjunction of conditions, vectorized per condition class."""

    __slots__ = ("conditions",)

    def __init__(self, conditions: Tuple[Condition, ...]):
        self.conditions = tuple(conditions)

    def describe(self) -> str:
        return "σ[" + " ∧ ".join(str(c) for c in self.conditions) + "]"

    def predicate(self, batch: ColumnarKRelation):
        """Compile the conjunction into one row-index predicate."""
        tests = []
        for condition in self.conditions:
            if isinstance(condition, AttrEq):
                col, val = batch.column(condition.attribute), condition.value
                tests.append(lambda i, col=col, val=val: col[i] == val)
            elif isinstance(condition, AttrCompare):
                col, val = batch.column(condition.attribute), condition.value
                cmp = ORDER_PREDICATES[condition.op]
                tests.append(lambda i, col=col, val=val, cmp=cmp: cmp(col[i], val))
            elif isinstance(condition, AttrEqAttr):
                c1 = batch.column(condition.attribute1)
                c2 = batch.column(condition.attribute2)
                tests.append(lambda i, c1=c1, c2=c2: c1[i] == c2[i])
            else:
                # unknown Condition subclass: fall back to per-row tuples
                attrs = batch.schema.attributes
                cols = [batch.column(a) for a in attrs]
                std = condition.standard_test
                tests.append(
                    lambda i, attrs=attrs, cols=cols, std=std: std(
                        Tup({a: col[i] for a, col in zip(attrs, cols)})
                    )
                )
        if len(tests) == 1:
            return tests[0]
        return lambda i, tests=tests: all(t(i) for t in tests)

    def keep(self, batch: ColumnarKRelation) -> List[int]:
        """Indices of the rows satisfying the conjunction (guarded first)."""
        attrs = [a for c in self.conditions for a in c.attributes()]
        _require_plain_columns(batch, attrs, f"selection {self.describe()}")
        pred = self.predicate(batch)
        try:
            return [i for i in range(len(batch)) if pred(i)]
        except TypeError:
            # a mistyped order predicate: decide it again value by value,
            # so the typed error names the pair (the loop stays call-free)
            for condition in self.conditions:
                if isinstance(condition, AttrCompare):
                    for value in batch.column(condition.attribute):
                        decide_order(condition.op, value, condition.value)
            raise

    def apply(self, batch: ColumnarKRelation) -> ColumnarKRelation:
        keep = self.keep(batch)
        attrs = batch.schema.attributes
        columns = {a: [batch.columns[a][i] for i in keep] for a in attrs}
        annotations = [batch.annotations[i] for i in keep]
        return ColumnarKRelation._from_clean(
            batch.semiring, batch.schema, columns, annotations, batch.distinct
        )

    # -- encoded tier --------------------------------------------------------

    def encoded_keep(self, batch: EncodedBatch):
        """Indices of the rows satisfying the conjunction.

        Each condition is decided once per *distinct* value (dictionary
        pass), then applied per row as a code lookup — never a per-row
        value comparison.  Inputs the encoded kernels cannot decide
        exactly (unknown condition classes, comparisons that raise on the
        dictionary) fall back so the object path reproduces the exact
        behaviour, errors included.
        """
        _encoded_guard_plain(
            batch, [a for c in self.conditions for a in c.attributes()]
        )
        n = len(batch)
        mask = None
        for condition in self.conditions:
            if isinstance(condition, AttrEq):
                col = batch.col(condition.attribute)
                try:
                    code = col.index.get(condition.value, -1)
                except TypeError:
                    raise EncodedFallback("unhashable comparison value") from None
                m = col.codes == code if code >= 0 else np.zeros(n, dtype=bool)
            elif isinstance(condition, AttrCompare):
                col = batch.col(condition.attribute)
                cmp = ORDER_PREDICATES[condition.op]
                value = condition.value
                try:
                    ok = np.fromiter(
                        (bool(cmp(v, value)) for v in col.values),
                        bool,
                        len(col.values),
                    )
                except TypeError:
                    # incomparable types: the object path raises the
                    # interpreter's row-order error
                    raise EncodedFallback("incomparable values") from None
                m = ok[col.codes]
            elif isinstance(condition, AttrEqAttr):
                c1 = batch.col(condition.attribute1)
                c2 = batch.col(condition.attribute2)
                trans = _translation(c1.facts, "translate", c1, c2)
                m = trans[c1.codes] == c2.codes
            else:
                raise EncodedFallback("unknown condition class")
            mask = m if mask is None else mask & m
        if mask is None:
            return np.arange(n, dtype=np.int64)
        return np.flatnonzero(mask)

    def apply_encoded(self, batch: EncodedBatch) -> EncodedBatch:
        keep = self.encoded_keep(batch)
        cols = {
            a: (lambda a=a, keep=keep: batch.col(a).gather(keep))
            for a in batch.schema.attributes
        }
        return EncodedBatch(
            batch.semiring,
            batch.schema,
            cols,
            batch.anns[keep],
            batch.anns_one,
            batch.ann_bound,
            batch.machine,
            batch.distinct,
        )


class ProjectStage:
    """Π with the ``+_K`` duplicate merge done on plain value tuples."""

    __slots__ = ("attributes",)

    def __init__(self, attributes: Tuple[str, ...]):
        self.attributes = tuple(attributes)

    def describe(self) -> str:
        return f"Π[{', '.join(self.attributes)}]"

    def apply(
        self, batch: ColumnarKRelation, keep: Optional[List[int]] = None
    ) -> ColumnarKRelation:
        out_schema = batch.schema.restrict(self.attributes)
        anns = batch.annotations
        if keep is None:
            rows = zip(batch.key_rows(out_schema.attributes), anns)
        else:
            cols = [batch.column(a) for a in out_schema.attributes]
            rows = ((tuple(col[i] for col in cols), anns[i]) for i in keep)
        return ColumnarKRelation.from_value_rows(batch.semiring, out_schema, rows)

    def apply_encoded(self, batch: EncodedBatch, keep=None) -> EncodedBatch:
        """Π with the duplicate merge reduced per combined code key (the
        ``keep`` indices of a preceding selection feed in directly, so the
        σ→Π fusion holds on the encoded tier too).  Term rows are not
        merged: they stay the projected tuples' derivations, and the batch
        no longer promises distinct rows."""
        out_schema = batch.schema.restrict(self.attributes)
        if batch.machine.merges:
            return _consolidate_encoded(batch, out_schema, keep)
        cols = {
            a: _taken_column(batch, a, keep) for a in out_schema.attributes
        }
        return EncodedBatch(
            batch.semiring,
            out_schema,
            cols,
            _taken(batch.anns, keep),
            batch.anns_one,
            batch.ann_bound,
            batch.machine,
        )


class RenameStage:
    """ρ: relabel columns, annotations untouched."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Mapping[str, str]):
        self.mapping = dict(mapping)

    def describe(self) -> str:
        return "ρ[" + ", ".join(f"{a}→{b}" for a, b in self.mapping.items()) + "]"

    def apply(self, batch: ColumnarKRelation) -> ColumnarKRelation:
        out_schema = batch.schema.rename(self.mapping)
        columns = {
            self.mapping.get(a, a): batch.columns[a] for a in batch.schema.attributes
        }
        return ColumnarKRelation._from_clean(
            batch.semiring, out_schema, columns, batch.annotations, batch.distinct
        )

    def apply_encoded(self, batch: EncodedBatch) -> EncodedBatch:
        out_schema = batch.schema.rename(self.mapping)
        # unmaterialised thunks pass through; each batch caches its own
        cols = {
            self.mapping.get(a, a): batch.cols[a] for a in batch.schema.attributes
        }
        return EncodedBatch(
            batch.semiring,
            out_schema,
            cols,
            batch.anns,
            batch.anns_one,
            batch.ann_bound,
            batch.machine,
            batch.distinct,
        )


class DistinctStage:
    """δ: consolidate duplicates (delta is not linear), then map delta."""

    __slots__ = ()

    def describe(self) -> str:
        return "δ"

    def apply(self, batch: ColumnarKRelation) -> ColumnarKRelation:
        merged = batch.consolidate()
        delta = merged.semiring.delta
        return ColumnarKRelation._from_clean(
            merged.semiring,
            merged.schema,
            merged.columns,
            [delta(k) for k in merged.annotations],
            True,
        )

    def apply_encoded(self, batch: EncodedBatch) -> EncodedBatch:
        if not batch.machine.merges:
            raise EncodedFallback("δ over term rows")
        merged = _consolidate_encoded(batch, batch.schema)
        anns = enc.delta_anns(batch, merged.anns)
        return EncodedBatch(
            batch.semiring,
            batch.schema,
            merged.cols,
            anns,
            enc.all_one(batch, anns),
            1,  # numeric delta outputs are 0_K or 1_K
            batch.machine,
            True,
        )


class FusedPipeline(PhysicalOp):
    """A chain of σ/Π/ρ/δ stages over one child, executed batch-at-a-time.

    A ``SelectStage`` immediately followed by a ``ProjectStage`` runs as a
    single pass: the selected row indices feed the projection's merge
    directly, so the filtered intermediate is never materialised.

    Over a child whose batch lasts (:meth:`PhysicalOp.lasts`: a scan, or a
    pipeline over one) the output is kept, so the chain runs once per
    stored version; a reuse re-marks the run as fallen back where the
    kept output's did, so ``explain()`` stays truthful.
    """

    __slots__ = ("stages", "_kept")

    def __init__(self, child: PhysicalOp, stages: List[Any], schema: Schema, est_rows: int):
        super().__init__((child,), schema, est_rows)
        self.stages = list(stages)
        # input representation -> ((input batch,), (output, whether a
        # stage fell back to the object path)), a :func:`_keep` entry
        self._kept: Dict[str, Tuple[Any, Any]] = {}

    def extended(self, stage: Any, schema: Schema, est_rows: int) -> "FusedPipeline":
        return FusedPipeline(self.children[0], self.stages + [stage], schema, est_rows)

    def lasts(self, ctx: Optional[ExecutionContext] = None) -> bool:
        return self.children[0].lasts(ctx)

    def _run(self, ctx: ExecutionContext):
        child = self.children[0]
        batch = child.execute(ctx)
        rep = "encoded" if isinstance(batch, EncodedBatch) else "object"
        out, fell_back = _keep(self._kept, rep, (batch,), child.lasts(ctx),
                               lambda: self._apply(batch), "pipeline")
        if fell_back:
            ctx.fell_back = True
        return out

    def _apply(self, batch) -> Tuple[Any, bool]:
        """The stages over ``batch``, and whether one fell back to the
        object path."""
        fell_back = False
        stages = self.stages
        i = 0
        while i < len(stages):
            stage = stages[i]
            fuse = (
                isinstance(stage, SelectStage)
                and i + 1 < len(stages)
                and isinstance(stages[i + 1], ProjectStage)
            )
            if isinstance(batch, EncodedBatch):
                try:
                    if fuse:
                        keep = stage.encoded_keep(batch)
                        batch = stages[i + 1].apply_encoded(batch, keep=keep)
                        i += 2
                    else:
                        batch = stage.apply_encoded(batch)
                        i += 1
                    continue
                except EncodedFallback:
                    batch, fell_back = batch.to_columnar(), True
            if fuse:
                batch = stages[i + 1].apply(batch, keep=stage.keep(batch))
                i += 2
            else:
                batch = stage.apply(batch)
                i += 1
        return batch, fell_back

    def label(self) -> str:
        return "Fused[" + " → ".join(s.describe() for s in self.stages) + "]"


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def _taken(array, idx):
    """``array`` at the rows ``idx`` — the array itself where ``idx`` is
    ``None`` (a join side kept in place)."""
    return array if idx is None else array[idx]


def _taken_column(batch: EncodedBatch, attr: str, idx):
    """A lazy join output column: ``batch``'s column ``attr`` gathered at
    ``idx``, or — ``idx`` ``None`` — that very column object, read
    through ``batch`` so it is materialised (and cached) once."""
    if idx is None:
        return lambda: batch.col(attr)
    return lambda: batch.col(attr).gather(idx)


class HashJoin(PhysicalOp):
    """Hash join with a planner-chosen, cached build side.

    ``kind`` is ``"natural"`` (shared attributes equal), ``"value"``
    (explicit attribute pairs over disjoint schemas) or ``"cross"`` (no
    keys).  ``build_side`` names which *logical* operand (``"left"`` /
    ``"right"``) the hash table is built on — the planner picks the side
    with the smaller cardinality estimate.  Output tuples and annotation
    products always follow the logical left⋈right orientation, so the
    physical choice is invisible in the result.
    """

    __slots__ = ("kind", "left_keys", "right_keys", "build_side", "_build_cache")

    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        kind: str,
        left_keys: Tuple[str, ...],
        right_keys: Tuple[str, ...],
        build_side: str,
        schema: Schema,
        est_rows: int,
    ):
        super().__init__((left, right), schema, est_rows)
        self.kind = kind
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.build_side = build_side
        # :func:`_keep` entries, each valid while its inputs are the
        # identical objects — true for lasting sides
        # (:meth:`PhysicalOp.lasts`) over unchanged relations:
        # representation -> ((build batch,), build structure), for the
        # object or encoded path a run took; "buckets" -> ((probe batch,
        # build structure), the encoded probe's per-row buckets and
        # matched rows), while both sides last; ("probe", attr) -> a probe key's translation
        # (:func:`_translation`)
        self._build_cache: Dict[Any, Tuple[Any, Any]] = {}

    def _guard(self, left: ColumnarKRelation, right: ColumnarKRelation) -> None:
        if self.kind == "natural":
            context = "join (⋈)"
            _require_plain_columns(left, self.left_keys, context)
            _require_plain_columns(right, self.right_keys, context)
        elif self.kind == "value":
            context = "join (⋈ on pairs)"
            _require_plain_columns(left, self.left_keys, context)
            _require_plain_columns(right, self.right_keys, context)

    @staticmethod
    def _buckets(build: ColumnarKRelation, keys: Tuple[str, ...]) -> Dict[Any, List[int]]:
        buckets: Dict[Any, List[int]] = {}
        for i, key in enumerate(_hash_keys(build, keys)):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [i]
            else:
                bucket.append(i)
        return buckets

    def _run(self, ctx: ExecutionContext):
        left = self.children[0].execute(ctx)
        right = self.children[1].execute(ctx)
        if isinstance(left, EncodedBatch) and isinstance(right, EncodedBatch):
            try:
                return self._run_encoded(left, right, ctx)
            except EncodedFallback:
                pass
        build_child = self.children[0 if self.build_side == "left" else 1]
        # a side decoded in this run is a new batch on every run
        lasts = build_child.lasts(ctx) and not isinstance(
            left if self.build_side == "left" else right, EncodedBatch)
        left = _as_columnar(left, ctx)
        right = _as_columnar(right, ctx)
        self._guard(left, right)
        if self.build_side == "left":
            build, probe = left, right
            build_keys, probe_keys = self.left_keys, self.right_keys
        else:
            build, probe = right, left
            build_keys, probe_keys = self.right_keys, self.left_keys
        buckets = _keep(self._build_cache, "object", (build,), lasts,
                        lambda: self._buckets(build, build_keys))

        build_idx: List[int] = []
        probe_idx: List[int] = []
        get = buckets.get
        for i, key in enumerate(_hash_keys(probe, probe_keys)):
            bucket = get(key)
            if bucket is not None:
                probe_idx.extend([i] * len(bucket))
                build_idx.extend(bucket)

        if self.build_side == "left":
            left_idx, right_idx = build_idx, probe_idx
        else:
            left_idx, right_idx = probe_idx, build_idx

        # output columns: the logical left's attributes, then the right's
        # new ones (matching Schema.union as used by the interpreter)
        columns: Dict[str, List[Any]] = {}
        for attr in left.schema.attributes:
            getter = left.columns[attr].__getitem__
            columns[attr] = list(map(getter, left_idx))
        for attr in right.schema.attributes:
            if attr not in columns:
                getter = right.columns[attr].__getitem__
                columns[attr] = list(map(getter, right_idx))
        times = left.semiring.times
        l_anns, r_anns = left.annotations, right.annotations
        annotations = list(
            map(times, map(l_anns.__getitem__, left_idx), map(r_anns.__getitem__, right_idx))
        )
        return ColumnarKRelation._from_clean(
            left.semiring, self.schema, columns, annotations,
            left.distinct and right.distinct,
        )

    # -- encoded tier --------------------------------------------------------

    @staticmethod
    def _encoded_buckets(build: EncodedBatch, keys: Tuple[str, ...]):
        """The encoded build structure, kept per build batch like the
        object bucket table: a stable argsort of the combined build key
        codes plus per-distinct-key ``(starts, counts)`` — each probe
        match gathers its matching build rows as one slice of the order
        array — and, while the build code space is dense enough over the
        build rows (:func:`repro.plan.kernels.direct`), the slot table
        ``key -> bucket`` the probe indexes, else ``None``.  Its one
        trailing ``-1`` row is where the absent-key sentinel lands.  A
        build already in key order (a dimension encoded in key order) is
        not sorted, and its order is ``None``: the identity.
        """
        cols = [build.col(a) for a in keys]
        bkeys, space = enc.combine_codes(cols)
        order, sorted_keys = None, bkeys
        if not (bkeys[1:] >= bkeys[:-1]).all():
            order = np.argsort(bkeys, kind="stable")
            sorted_keys = bkeys[order]
        n = len(sorted_keys)
        starts = run_starts(np, sorted_keys)
        unique = sorted_keys[starts]
        counts = np.diff(np.append(starts, n))
        slot = None
        if kernels.direct(space, n):
            slot = np.full(space + 1, -1, dtype=np.int64)
            slot[unique] = np.arange(len(unique), dtype=np.int64)
        return cols, space, slot, unique, order, starts, counts

    def _encoded_probe_buckets(
        self, probe: EncodedBatch, probe_keys: Tuple[str, ...], struct
    ):
        """Per probe row, the bucket of the build rows its key matches
        (-1: none, also for a key value absent from the build dictionary),
        and the probe rows that matched (``None``: every one).  The
        translation into the build code space runs per distinct probe
        value, never per row; over a slot table, a one-attribute key
        composes it with the slot lookup first, so each probe row costs
        one gather."""
        bcols, _space, slot, unique = struct[:4]
        memo = self._build_cache
        if slot is not None and len(bcols) == 1:
            attr = probe_keys[0]
            pcol = probe.col(attr)
            # an absent value translates to -1: the slot table's last row
            pos = slot[_translation(memo, ("probe", attr), pcol, bcols[0])][pcol.codes]
        else:
            pkeys = invalid = None
            for bcol, attr in zip(bcols, probe_keys):
                pcol = probe.col(attr)
                translated = _translation(memo, ("probe", attr), pcol, bcol)[pcol.codes]
                bad = translated < 0
                invalid = bad if invalid is None else invalid | bad
                if pkeys is None:
                    pkeys = translated
                else:
                    pkeys = pkeys * len(bcol.values) + translated
            pkeys = np.where(invalid, np.int64(-1), pkeys)
            if slot is not None:
                pos = slot[pkeys]
            else:
                # -1 (absent) and every unmatched key miss the padding too
                pos = np.searchsorted(unique, pkeys)
                pos[np.append(unique, -2)[pos] != pkeys] = -1
        matched = pos >= 0
        return pos, None if matched.all() else np.flatnonzero(matched)

    def _run_encoded(
        self, left: EncodedBatch, right: EncodedBatch, ctx: ExecutionContext
    ) -> EncodedBatch:
        semiring = left.semiring
        _same_machine(left, right)
        if self.kind != "cross":
            _encoded_guard_plain(left, self.left_keys)
            _encoded_guard_plain(right, self.right_keys)
        if self.build_side == "left":
            build, probe = left, right
            build_keys, probe_keys = self.left_keys, self.right_keys
            build_child, probe_child = self.children
        else:
            build, probe = right, left
            build_keys, probe_keys = self.right_keys, self.left_keys
            probe_child, build_child = self.children

        if self.kind == "cross":
            nb, npr = len(build), len(probe)
            build_idx = np.repeat(np.arange(nb, dtype=np.int64), npr)
            probe_idx = np.tile(np.arange(npr, dtype=np.int64), nb)
        else:
            cache, lasts = self._build_cache, build_child.lasts(ctx)
            struct = _keep(cache, "encoded", (build,), lasts,
                           lambda: self._encoded_buckets(build, build_keys))
            _bcols, space, _slot, unique, order, starts, counts = struct
            ordered = (lambda idx: idx) if order is None else order.__getitem__
            # a join of two stored versions probes once per pair of them
            pos, matched = _keep(
                cache, "buckets", (probe, struct), lasts and probe_child.lasts(ctx),
                lambda: self._encoded_probe_buckets(probe, probe_keys, struct), "probe",
            )
            _note_kernel("join", space, len(build))
            if len(unique) == len(build):
                # one build row per key (a key join): every count is 1, so
                # the fan-out below is ``order[starts[bucket]]`` and
                # ``starts`` is the identity; a probe side that matched in
                # full keeps its rows (``None``: in place, nothing gathered)
                probe_idx = matched
                build_idx = ordered(pos if probe_idx is None else pos[probe_idx])
            else:
                probe_rows = np.arange(len(pos), dtype=np.int64) if matched is None else matched
                buckets = pos[probe_rows]
                cnt = counts[buckets]
                probe_idx = np.repeat(probe_rows, cnt)
                build_idx = ordered(ranges(starts[buckets], cnt))

        if self.build_side == "left":
            left_idx, right_idx = build_idx, probe_idx
        else:
            left_idx, right_idx = probe_idx, build_idx
        rows = len(build_idx)

        # output columns: the logical left's attributes, then the right's
        # new ones; a side kept in place hands over its very columns
        cols: Dict[str, Any] = {}
        for side, idx in ((left, left_idx), (right, right_idx)):
            for attr in side.schema.attributes:
                if attr not in cols:
                    cols[attr] = _taken_column(side, attr, idx)

        if left.anns_one and right.anns_one:
            anns = enc.ones_anns(left, rows)
            anns_one = True
            bound = 1
        elif left.anns_one:
            anns = _taken(right.anns, right_idx)
            anns_one = False
            bound = right.ann_bound
        elif right.anns_one:
            anns = _taken(left.anns, left_idx)
            anns_one = False
            bound = left.ann_bound
        else:
            bound = enc.check_product_bound(left, right)
            anns = left.machine.times(
                _taken(left.anns, left_idx), _taken(right.anns, right_idx)
            )
            anns_one = False
        return EncodedBatch(
            semiring, self.schema, cols, anns, anns_one, bound, left.machine,
            left.distinct and right.distinct,
        )

    def label(self) -> str:
        if self.kind == "cross":
            return f"HashJoin cross build={self.build_side}"
        if self.kind == "natural":
            keys = ", ".join(self.left_keys)
            return f"HashJoin natural on ({keys}) build={self.build_side}"
        pairs = ", ".join(f"{a}={b}" for a, b in zip(self.left_keys, self.right_keys))
        return f"HashJoin value on ({pairs}) build={self.build_side}"


class UnionAll(PhysicalOp):
    """Annotation-summing union: concatenate batches, defer the merge."""

    __slots__ = ("_merged",)

    def __init__(self, left: PhysicalOp, right: PhysicalOp, schema: Schema, est_rows: int):
        super().__init__((left, right), schema, est_rows)
        # attr -> ((left dictionary, right dictionary), (the right codes'
        # translation, a merged column)), a :func:`_translation` entry, so
        # repeated runs over a stored version share one merged dictionary
        self._merged: Dict[str, Tuple[Any, Any, Any]] = {}

    def _run(self, ctx: ExecutionContext):
        left = self.children[0].execute(ctx)
        right = self.children[1].execute(ctx)
        if isinstance(left, EncodedBatch) and isinstance(right, EncodedBatch):
            try:
                return self._run_encoded(left, right)
            except EncodedFallback:
                pass
        left = _as_columnar(left, ctx)
        right = _as_columnar(right, ctx)
        columns = {
            a: left.columns[a] + right.columns[a] for a in left.schema.attributes
        }
        return ColumnarKRelation._from_clean(
            left.semiring,
            left.schema,
            columns,
            left.annotations + right.annotations,
        )

    def _merge_columns(self, attr: str, lcol, rcol):
        """Concatenate two encoded columns under one merged dictionary
        (the right side's codes are translated per distinct value); where
        the left dictionary holds every right value, it is the merged one."""
        def build():
            table = rcol.translate_to(lcol)
            missing = np.flatnonzero(table < 0).tolist()
            index, values, facts = lcol.index, lcol.values, lcol.facts
            if missing:
                index, values, facts = dict(index), list(values), None
                for i in missing:  # distinct in the right dictionary: each is new
                    value = rcol.values[i]
                    table[i] = index[value] = len(values)
                    values.append(value)
            return table, enc.EncodedColumn(None, values, index, facts)

        table, merged = _translation(self._merged, attr, lcol, rcol, build)
        right_codes = table[rcol.codes] if len(table) else rcol.codes
        codes = np.concatenate([lcol.codes, right_codes])
        return enc.EncodedColumn(codes, merged.values, merged.index, merged.facts)

    def _run_encoded(self, left: EncodedBatch, right: EncodedBatch) -> EncodedBatch:
        _same_machine(left, right)
        cols = {
            a: (
                lambda a=a: self._merge_columns(a, left.col(a), right.col(a))
            )
            for a in left.schema.attributes
        }
        return EncodedBatch(
            left.semiring,
            left.schema,
            cols,
            np.concatenate([left.anns, right.anns]),
            left.anns_one and right.anns_one,
            max(left.ann_bound, right.ann_bound),
            left.machine,
        )

    def label(self) -> str:
        return "Union"


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _collapse_kernel(space, col, bound: int):
    """The array form of Prop. 3.9's ``sum_M k.m`` over the dictionary of
    ``col`` — ``(ufunc, value array, scales, start)``, ``start`` the
    ufunc's identity within the array's dtype — or the reason (``str``)
    there is none: it must be bit- and type-identical to the normal form's
    fold, so ``iota`` is an isomorphism, the monoid declares a kernel and
    calls the values exact, and they are all ``int`` (times ``bound``, the
    largest annotation sum, inside int64 where ``N`` scales) or all
    ``float``.  Only the ``bound`` product is checked per batch: the rest
    once per dictionary and monoid, in ``col.facts``."""
    monoid = space.monoid
    if not space.collapses:
        return "non-collapsing space"
    if monoid.collapse_kernel is None:
        return f"no kernel for {monoid.name}"
    key = ("collapse", monoid)
    checked = col.facts.get(key)
    if checked is None:
        checked = col.facts[key] = _dictionary_checks(monoid, col.values)
    if isinstance(checked, str):
        return checked
    *kernel, magnitude = checked
    return "bound" if magnitude * (bound if kernel[2] else 1) > enc._INT64_MAX else tuple(kernel)


def _dictionary_checks(monoid, values: List[Any]):
    """:func:`_collapse_kernel` of a dictionary, with its largest magnitude."""
    if not all(map(monoid.exact, values)):
        return "inexact values"
    name, scales = monoid.collapse_kernel
    kinds = set(map(type, values))
    if kinds == {int}:
        magnitude = max(map(abs, values))
        if magnitude > enc._INT64_MAX:
            return "bound"
        far = np.iinfo(np.int64).max
    elif kinds == {float}:
        magnitude, far = 0, np.inf
    else:
        return "mixed values"
    ufunc = getattr(np, name)
    start = {np.minimum: far, np.maximum: -far}.get(ufunc, ufunc.identity)
    return ufunc, np.asarray(values), scales, start, magnitude


def _set_agg_by_code(space, col, gkeys, groups, batch: EncodedBatch, bound: int, grouped=None):
    """``SetAgg`` of the encoded column ``col`` within each group of
    ``gkeys`` (one int64 key below ``groups`` per row of the non-empty
    ``batch``).

    Where :func:`_collapse_kernel` applies, each group's tensor is its
    collapsed value, reduced straight from the rows on the group key —
    ``sum a.v`` for a scaling kernel (``N`` and SUM), on the totals' keys,
    else the MIN/MAX of ``v`` over the rows whose annotation is not
    ``0_K`` — and the raw totals are ``grouped`` (another attribute's),
    else one more reduction on the group key.  A space that keeps
    its entries reduces the ``(group, value-code)`` pair key instead: the
    pair sums in ascending key order, cut at the group boundaries, give
    the raw totals (re-reducing pair sums is exact: every machine ``+_K``
    is exactly associative) and, after the normal form's two filters as
    array masks, one entry dict per group.
    Returns ``((group keys, raw totals), values, why)``: the keys in
    ascending order, the totals in the machine representation, and
    ``values`` each group's collapsed value where the kernel collapsed
    (``why`` is ``None``), else its tensor, ``why`` the reason.
    """
    machine = batch.machine
    plus = machine.plus
    zero = machine.code(space.semiring.zero)
    kernel = _collapse_kernel(space, col, bound)
    if not isinstance(kernel, str):
        ufunc, operand, scales, start = kernel
        grouped = grouped or _sum_by_key("aggregate", gkeys, batch.anns, batch, groups)
        ukeys = grouped[0]
        if col.numbers is None:  # decoded once per column
            col.numbers = operand[col.codes]
        values, keys, present = col.numbers, gkeys, ukeys
        if scales:
            values = values * batch.anns
        else:
            live = batch.anns != batch.anns.dtype.type(zero)
            values, keys, present = values[live], gkeys[live], None
        vkeys, reduced = reduce_by_key(keys, values, ufunc, groups, start, present)
        collapsed = reduced.tolist()
        if len(vkeys) < len(ukeys):  # groups without a live row keep 0_M
            filled = [space.monoid.identity] * len(ukeys)
            for g, value in zip(np.searchsorted(ukeys, vkeys).tolist(), collapsed):
                filled[g] = value
            collapsed = filled
        return grouped, collapsed, None

    size = max(1, len(col.values))
    if groups * size > enc._RADIX_LIMIT:
        raise EncodedFallback("code space overflow")
    pair_keys = gkeys * size + col.codes
    pkeys, sums = _sum_by_key("aggregate", pair_keys, batch.anns, batch, groups * size)
    pgroups = pkeys // size
    gstarts = run_starts(np, pgroups)
    totals = plus.reduceat(sums, gstarts)

    keep = sums != sums.dtype.type(zero)
    codes = pkeys - pgroups * size
    identity_code = col.index.get(space.monoid.identity)
    if identity_code is not None:
        keep &= codes != identity_code
    # ends[g]: how many pairs of groups 0..g survive the masks
    ends = np.cumsum(keep)[np.append(gstarts[1:], len(keep)) - 1]
    values = list(map(col.values.__getitem__, codes[keep].tolist()))
    scalars, cuts = machine.decode(sums[keep]), ends.tolist()
    tensors = [space._normal(dict(zip(values[s:e], scalars[s:e])))
               for s, e in zip([0] + cuts, cuts)]
    return (pgroups[gstarts], totals), tensors, kernel


def _note_fold(op: str) -> None:
    """Count a term fold (:meth:`~repro.semirings.terms.TermStore.fold`)
    on the encoded-kernel counter, under ``op`` (``aggregate`` or
    ``consolidate``)."""
    _metrics.ENCODED_KERNEL.inc(1, op, "fold")


def _show_collapse(reasons: Iterable[Optional[str]], rows_in: int) -> None:
    """Say on the operator's span how many rows it read and whether its
    aggregated columns were collapsed by the kernel or folded by the
    normal form (and why)."""
    if not _trace._ACTIVE:
        return
    reasons = list(reasons)
    folded = "; ".join(sorted(set(filter(None, reasons))))
    _trace.add_attrs(rows_in=rows_in)
    if reasons:
        _trace.add_attrs(collapse=f"fold ({folded})" if folded else "kernel")


def count_collapse(reasons: Iterable[Optional[str]]) -> None:
    """Count, per aggregated column, the kernel or the fold and its cause
    (``None`` for the kernel) — in the process that answers the query."""
    for reason in reasons:
        _metrics.AGGREGATE_COLLAPSE.inc(1, "fold" if reason else "kernel", reason or "")


class GroupShape(NamedTuple):
    """``GB``'s parameters for one logical node (Definition 3.7).

    In the paper every aggregation is a ``GB``: ``AGG_M`` is one group
    over the empty key (Section 3.2), COUNT(*) is SUM over the constant 1
    (footnote 6; ``count_attr``, derived from the raw annotation totals by
    :func:`count_tensors`), and AVG folds the SUM+COUNT pair monoid over
    its column's values ``lift``-ed into pairs; a DISTINCT or plain view
    keys on the whole tuple and aggregates nothing.  ``emission`` is how
    a group's row is annotated, read through :func:`emitted` by the
    planner (:meth:`GroupedAggregate.finish_groups`) and by the view
    heads (:class:`repro.ivm.state.HeadState`) alike:

    ``"delta"``  ``δ(total)``: GROUP BY and DISTINCT;
    ``"raw"``    the raw total: a plain SPJU view;
    ``"one"``    ``1_K`` whatever the total: AGG, COUNT and AVG, one row
                 even on empty input, valued ``ι(0_M)`` there.
    """

    key: Tuple[str, ...]
    aggregations: Dict[str, Any]
    count_attr: Optional[str]
    lift: bool
    emission: str


def group_shape(node, schema: Optional[Schema] = None) -> GroupShape:
    """The :class:`GroupShape` of a logical node; a node other than the
    four aggregations and δ is a plain view keyed on its ``schema``."""
    if isinstance(node, GroupBy):
        return GroupShape(tuple(node.group_attributes), dict(node.aggregations),
                          node.count_attr, False, "delta")
    if isinstance(node, Aggregate):
        return GroupShape((), {node.attribute: node.monoid}, None, False, "one")
    if isinstance(node, CountAgg):
        return GroupShape((), {}, node.attribute, False, "one")
    if isinstance(node, AvgAgg):
        return GroupShape((), {node.attribute: AVG}, None, True, "one")
    emission = "delta" if isinstance(node, Distinct) else "raw"
    return GroupShape(tuple(schema.attributes), {}, None, False, emission)


def emitted(semiring, emission: str, total: Any) -> Any:
    """The annotation of a group's row with raw total ``total`` under the
    :class:`GroupShape` ``emission`` rule."""
    if emission == "one":
        return semiring.one
    return semiring.delta(total) if emission == "delta" else total


def fold_groups(batch: ColumnarKRelation, key_attrs: Tuple[str, ...],
                aggregations: Mapping[str, Any], lift: bool = False):
    """``GB``'s fold (Definition 3.7) over the boxed object representation.

    Rows are bucketed by their ``key_attrs`` values; per bucket, each
    attribute of ``aggregations`` folds over its monoid by one
    ``TensorSpace.set_agg`` and the annotations by one ``sum_many``.  The
    columns are validated against their monoids first, or, with ``lift``,
    lifted into them (AVG's ``(value, 1)`` pairs).  Returns ``(keys,
    totals, tensors)``: the distinct key tuples in first-occurrence order
    (``()`` for the empty key, which folds the whole batch into one
    group), each key's raw (pre-emission) annotation total, and per
    attribute the keys' tensors.  The guards stay with the callers:
    :meth:`GroupedAggregate.object_group_states` and the view heads of
    :mod:`repro.ivm.state`.
    """
    semiring = batch.semiring
    anns = batch.annotations
    buckets: Dict[Any, List[int]] = {}
    for i, key in enumerate(_hash_keys(batch, key_attrs)):
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [i]
        else:
            bucket.append(i)
    folds = []
    for attr, monoid in aggregations.items():
        values = batch.column(attr)
        if lift:
            values = list(map(monoid.lift, values))
        else:
            validate_monoid_column(values, monoid, attr)
        folds.append((tensor_space(semiring, monoid).set_agg, values, []))
    sum_many = semiring.sum_many
    totals: List[Any] = []
    for members in buckets.values():
        member_anns = list(map(anns.__getitem__, members))
        for set_agg, values, out in folds:
            out.append(set_agg(zip(map(values.__getitem__, members), member_anns)))
        totals.append(member_anns[0] if len(member_anns) == 1 else sum_many(member_anns))
    tensors = {attr: out for attr, (_set_agg, _values, out) in zip(aggregations, folds)}
    keys = list(buckets)
    if len(key_attrs) == 1:
        keys = [(key,) for key in keys]
    return keys, totals, tensors


def fold_encoded(batch: EncodedBatch, key_attrs: Tuple[str, ...],
                 aggregations: Mapping[str, Any], lift: bool = False):
    """``GB``'s fold over an encoded batch, by code-indexed accumulation.

    The key columns' codes combine into one int64 group key per row (all
    zero for the empty key).  Per aggregated attribute, one grouped
    reduction (scatter or sort, :func:`~repro.plan.kernels.reduce_by_key`)
    over the ``(group, value-code)`` pair key yields exactly the ``value
    -> scalar`` entries of the groups' tensors; the raw totals, the
    normal-form masks and — where the space collapses and the monoid
    declares a kernel — each group's Prop. 3.9 value come from that same
    order as array kernels (:func:`_set_agg_by_code`), with Python-level
    object construction only per *group*, never per row or entry.  With
    nothing aggregated (COUNT(*), DISTINCT) the annotations reduce over
    the group key directly.  ``lift`` maps the aggregated dictionaries
    into their monoids (AVG).  A value outside its monoid, or a key space
    past int64, raises :class:`EncodedFallback`: the object fold then
    raises the interpreter's row-order error, or folds the wide key.

    Term rows (a repr that does not :attr:`~MachineRepr.merges`) are
    folded by :func:`term_folds` instead, and their polynomials built
    here.

    Returns :func:`fold_groups`' ``(keys, totals, tensors)`` (groups in
    key-code order) and, per aggregated attribute, the reason the kernel
    did not collapse (``None`` where it did).  Groups whose total is
    ``0_K`` are *kept* — under the parallel tier, partial states for the
    same group merge by ``+_K`` across morsels (grouping is multilinear
    in the annotations, so any row partition is exact, and the merge *is*
    semiring union), and a total that is zero in one morsel may be
    nonzero in another.
    """
    machine = batch.machine
    if not machine.merges and len(batch):
        keys, folds, total = term_folds(batch, key_attrs, aggregations, lift)
        tensors = {attr: list(map(space._normal, fold.entries()))
                   for attr, (fold, space) in folds.items()}
        return _keys_of(keys, len(total)), total.totals(), tensors, dict.fromkeys(folds, "terms")
    keys, totals, values, why = _group_codes(batch, key_attrs, aggregations, lift)
    return _keys_of(keys, len(totals)), machine.decode(totals), _tensors_of(values, why), why


def _tensors_of(values: Mapping[str, Any], why: Mapping[str, Optional[str]]):
    """The tensor columns of :func:`_group_codes`' ``values``: a collapsed
    value ``c`` is the tensor ``ι(c)``."""
    return {attr: column if why.get(attr) else list(map(space._of, column))
            for attr, (column, space) in values.items()}


def _group_codes(batch: EncodedBatch, key_attrs: Tuple[str, ...],
                aggregations: Mapping[str, Any], lift: bool = False):
    """:func:`fold_encoded` over a batch whose ``+`` merges (or an empty
    one), left as arrays: ``(key columns, raw totals in the machine
    representation, {attr: (values, space)}, why)``, one row per group,
    each attribute's ``values`` its groups' collapsed values where
    ``why[attr]`` is ``None``, else their tensors (:func:`_set_agg_by_code`)."""
    semiring, machine = batch.semiring, batch.machine
    agg_cols = _aggregated_columns(batch, aggregations, lift)
    gcols, gkeys, radix = _group_keys(batch, key_attrs)
    bound = enc.check_reduction_bound(batch, len(batch))
    values = {attr: ([], tensor_space(semiring, aggregations[attr])) for attr in agg_cols}
    why: Dict[str, Optional[str]] = {}
    grouped = None  # (group keys, totals): reduced once per group key
    for attr, col in agg_cols.items() if len(batch) else ():
        space = values[attr][1]
        grouped, column, why[attr] = _set_agg_by_code(
            space, col, gkeys, radix, batch, bound, grouped
        )
        values[attr] = (column, space)
    if grouped is not None:
        ukeys, totals = grouped
    elif machine.merges:
        ukeys, totals = _sum_by_key("aggregate", gkeys, batch.anns, batch, radix)
    else:  # an empty batch of term rows
        ukeys = totals = np.empty(0, dtype=np.int64)
    return enc.split_codes(gcols, ukeys), totals, values, why


def term_folds(batch: EncodedBatch, key_attrs: Tuple[str, ...],
               aggregations: Mapping[str, Any], lift: bool = False):
    """``GB``'s fold over a non-empty batch of ``N[X]`` term rows, left
    as the term store's folds (:class:`~repro.semirings.terms.Fold`): per
    aggregated attribute, one fold over the ``(group, value-code)`` pair
    key, whose runs are the groups' entries and whose groups their totals
    (with nothing aggregated, one fold over the group key).  Returns the
    key columns (one row per group), ``{attr: (fold, tensor space)}`` and
    the fold whose groups give the totals.  Raises :class:`EncodedFallback`
    as :func:`fold_encoded` does."""
    agg_cols = _aggregated_columns(batch, aggregations, lift)
    gcols, gkeys, radix = _group_keys(batch, key_attrs)
    machine = batch.machine
    folds: Dict[str, Any] = {}
    for attr, col in agg_cols.items():
        space = tensor_space(batch.semiring, aggregations[attr])
        size = max(1, len(col.values))
        if radix * size > enc._RADIX_LIMIT:
            raise EncodedFallback("code space overflow")
        _note_fold("aggregate")
        skip = col.index.get(space.monoid.identity, -1)
        fold = machine.fold(gkeys * size + col.codes, batch.anns, size, col.values, skip)
        folds[attr] = (fold, space)
    if folds:
        total = fold
    else:
        _note_fold("aggregate")
        total = machine.fold(gkeys, batch.anns)
    return [col.gather(total.rep) for col in gcols], folds, total


def _aggregated_columns(batch: EncodedBatch, aggregations: Mapping[str, Any],
                        lift: bool) -> Dict[str, Any]:
    """The encoded columns ``aggregations`` folds, each ``lift``-ed into
    its monoid (AVG) or checked to lie in it (:class:`EncodedFallback`
    otherwise; decided once per dictionary and monoid, in ``col.facts``)."""
    agg_cols = {}
    for attr, monoid in aggregations.items():
        col = batch.col(attr)
        if lift:
            lifted = list(map(monoid.lift, col.values))
            col = enc.EncodedColumn(col.codes, lifted, dict(zip(lifted, range(len(lifted)))))
        else:
            key = ("contains", monoid)
            contained = col.facts.get(key)
            if contained is None:
                contained = col.facts[key] = all(map(monoid.contains, col.values))
            if not contained:
                raise EncodedFallback(f"foreign value in column {attr!r}")
        agg_cols[attr] = col
    return agg_cols


def _group_keys(batch: EncodedBatch, key_attrs: Tuple[str, ...]):
    """The key columns, one int64 group key per row (all zero for the
    empty key) and the size of the key space."""
    gcols = [batch.col(a) for a in key_attrs]
    if gcols:
        gkeys, radix = enc.combine_codes(gcols)
    else:
        gkeys, radix = np.zeros(len(batch), dtype=np.int64), 1
    return gcols, gkeys, radix


def _keys_of(keys, groups: int) -> List[Tuple[Any, ...]]:
    """The key tuple of each of ``groups`` groups, from its key columns."""
    decoded = [col.decode() for col in keys]
    return list(zip(*decoded)) if decoded else [()] * groups


def count_tensors(semiring, totals: List[Any]) -> List[Tensor]:
    """COUNT(*) of groups with raw annotation totals ``totals``: SUM over
    the constant 1 (footnote 6) is the simple tensor ``t ⊗ 1``, whose
    normal form over ``N`` is ``ι(t)``."""
    space = tensor_space(semiring, SUM)
    count = space._of if semiring.is_naturals else (lambda t: space.simple(t, 1))
    return list(map(count, totals))


class GroupedAggregate(PhysicalOp):
    """GB_{U',U''} (Definition 3.7) executed directly over columns.

    The one aggregation operator: GROUP BY, and AGG, COUNT(*) and AVG as
    the one group over the empty key, each with its node's
    :class:`GroupShape`.  Mirrors :func:`repro.core.aggregates.group_by`
    including its guards; the optional COUNT(*) column (footnote 6: SUM
    over the constant 1) is derived from the raw totals instead of
    materialising a widened relation.
    """

    __slots__ = ("group_attributes", "aggregations", "count_attr", "lift", "emission")

    def __init__(self, child: PhysicalOp, node, schema: Schema, est_rows: int):
        super().__init__((child,), schema, est_rows)
        (self.group_attributes, self.aggregations, self.count_attr,
         self.lift, self.emission) = group_shape(node)

    def _run(self, ctx: ExecutionContext) -> ColumnarKRelation:
        batch = self.children[0].execute(ctx)
        states = None
        if isinstance(batch, EncodedBatch):
            machine = batch.machine
            try:
                if ctx.runs is self and len(batch) and (machine.portable or not machine.merges):
                    return self.planned_result(batch)
                states = self.encoded_group_states(batch)
            except EncodedFallback:
                batch = _as_columnar(batch, ctx)
        if states is None:
            states = self.object_group_states(batch)
        group_rows, totals, tensors, why = states
        count_collapse(why.values())
        return self.finish_groups(batch.semiring, group_rows, totals, tensors)

    def _check(self, batch) -> None:
        # GROUP BY's static guards and its delta-semiring requirement; a
        # one-row emission needs neither (schema() checked AGG's column)
        if self.emission == "delta":
            agg_ops.check_group_by(batch.schema, self.group_attributes,
                                   self.aggregations, self.count_attr, batch.semiring)

    def encoded_group_states(self, batch: EncodedBatch):
        """Per-group partial states of an encoded batch: the node's
        guards, then :func:`fold_encoded`, whose collapse reasons are
        shown on the span and left to the caller to count.  Returns
        ``(group_rows, totals_list, tensors, why)``."""
        self._check(batch)
        _encoded_guard_plain(batch, self.group_attributes)
        states = fold_encoded(batch, self.group_attributes, self.aggregations, self.lift)
        _show_collapse(states[3].values(), len(batch))
        return states

    def planned_result(self, batch: EncodedBatch):
        """The groups of the plan's root batch as a
        :class:`~repro.plan.term_result.TermResult`, whose rows are built
        only when read: ``N[X]`` term rows as the term store's folds
        (:func:`term_folds`), machine scalars as the keys' codes, the
        collapsed values and the raw totals (:func:`_group_codes`).  Where
        an aggregated column did not collapse by the kernel, the rows of
        :meth:`finish_groups` instead."""
        from repro.plan.term_result import TermResult  # local: it imports this module

        self._check(batch)
        _encoded_guard_plain(batch, self.group_attributes)
        attrs, aggregations, machine = self.group_attributes, self.aggregations, batch.machine
        if machine.merges:
            keys, totals, values, why = _group_codes(batch, attrs, aggregations, self.lift)
        else:
            keys, values, totals = term_folds(batch, attrs, aggregations, self.lift)
            why = dict.fromkeys(values, "terms")
        _show_collapse(why.values(), len(batch))
        count_collapse(why.values())
        if machine.merges and any(why.values()):
            return self.finish_groups(batch.semiring, _keys_of(keys, len(totals)),
                                      machine.decode(totals), _tensors_of(values, why))
        return TermResult(batch.semiring, self.schema, dict(zip(attrs, keys)), values,
                          totals, self.count_attr, self.emission)

    def object_group_states(self, batch: ColumnarKRelation):
        """Per-group partial states over the boxed object representation.

        The object tier's grouping, and the per-morsel fallback of
        :meth:`encoded_group_states` when an operator inside a parallel
        morsel raised :class:`EncodedFallback` and handed on a boxed
        batch: the node's guards, then :func:`fold_groups`.
        """
        self._check(batch)
        _require_plain_columns(batch, self.group_attributes, "GROUP BY")
        keys, totals, tensors = fold_groups(
            batch, self.group_attributes, self.aggregations, self.lift
        )
        return keys, totals, tensors, {}

    def finish_groups(self, semiring, group_rows, totals_list, tensors):
        """Build the output batch from (merged) per-group states.

        The shared tail of the object path, the serial encoded path and
        the parallel tier's parent-side merge: the tensors become columns,
        COUNT(*) columns derive from the raw totals, and row annotations
        are :func:`emitted` from the totals.  A one-row emission over
        empty input is the group ``()`` at ``0_K`` with every tensor
        ``ι(0_M) = 0``.
        """
        if self.emission == "one" and not group_rows:
            group_rows, totals_list = [()], [semiring.zero]
            tensors = {attr: [tensor_space(semiring, monoid).zero]
                       for attr, monoid in self.aggregations.items()}
        columns: Dict[str, List[Any]] = {}
        for i, attr in enumerate(self.group_attributes):
            columns[attr] = [row[i] for row in group_rows]
        columns.update(tensors)
        if self.count_attr is not None:
            columns[self.count_attr] = count_tensors(semiring, totals_list)
        emission = self.emission
        annotations = [emitted(semiring, emission, t) for t in totals_list]
        return ColumnarKRelation._from_clean(
            semiring, self.schema, columns, annotations, True
        )

    def label(self) -> str:
        aggs = ", ".join(f"{m.name}({a})" for a, m in self.aggregations.items())
        if self.count_attr is not None:
            aggs = aggs + (", " if aggs else "") + f"COUNT→{self.count_attr}"
        if self.group_attributes:
            aggs = f"{', '.join(self.group_attributes)}; {aggs}"
        return f"GroupedAggregate[{aggs}]"


# ---------------------------------------------------------------------------
# difference and fallback
# ---------------------------------------------------------------------------


class DifferenceOp(PhysicalOp):
    """Section 5 difference over materialised operands.

    The closed form / encoding pipeline manipulates ``K^M`` machinery that
    has no columnar fast path, so the operands are converted back to
    logical relations at this boundary.
    """

    __slots__ = ("method",)

    def __init__(self, left: PhysicalOp, right: PhysicalOp, method: str, schema: Schema, est_rows: int):
        super().__init__((left, right), schema, est_rows)
        self.method = method

    def _run(self, ctx: ExecutionContext) -> ColumnarKRelation:
        left = _as_columnar(self.children[0].execute(ctx), ctx).to_krelation()
        right = _as_columnar(self.children[1].execute(ctx), ctx).to_krelation()
        return ColumnarKRelation.from_krelation(
            agg_ops.StandardOps.difference(left, right, self.method)
        )

    def label(self) -> str:
        return f"Difference[{self.method}]"


class Fallback(PhysicalOp):
    """Evaluate a query subtree through the interpreter (totality valve)."""

    __slots__ = ("query",)

    def __init__(self, query):
        super().__init__((), Schema(()), 0)
        self.query = query

    def _run(self, ctx: ExecutionContext) -> ColumnarKRelation:
        return enc.scan_rows(self.query.evaluate(ctx.db), ctx.annotations)

    def label(self) -> str:
        return f"Interpret[{self.query}]"
