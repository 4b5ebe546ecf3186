"""Physical operators: the vectorized execution layer.

Each operator consumes and produces :class:`ColumnarKRelation` batches and
implements exactly the annotation semantics of the corresponding logical
operator in :mod:`repro.core.operators` / :mod:`repro.core.aggregates` —
the property suite ``tests/property/test_planner_equivalence.py`` holds the
two layers to identical ``N[X]`` results, which (free semiring) pins every
homomorphic specialisation.

Operator inventory:

``Scan``            base-table access; the column decomposition is cached
                    per plan as long as the stored relation object is
                    unchanged (relations are immutable by convention).
``FusedPipeline``   a select/project/rename/distinct chain executed in as
                    few passes as possible; the σ→Π peephole runs both in
                    one pass without materialising the selected rows.
``HashJoin``        natural-, equi- and cross joins.  The planner puts the
                    smaller estimated side on the build side; the built
                    bucket table is cached on the node and reused while the
                    build input is identical (e.g. repeated execution of a
                    prepared plan against the same base tables).
``UnionAll``        annotation-summing union; batches simply concatenate
                    (the ``+_K`` merge is deferred, see columnar.py).
``GroupedAggregate``  GROUP BY without the interpreter's intermediate
                    relations (the COUNT(*) column of footnote 6 is
                    synthesised during accumulation, not materialised).
``WholeAggregate`` / ``CountAggregate`` / ``AvgAggregate``
                    the single-tuple aggregation forms.
``DifferenceOp``    Section 5 difference; delegates to the logical-layer
                    closed form / encoding on materialised inputs.
``Fallback``        evaluates a whole query through the interpreter —
                    totality for a ``Query`` subclass the compiler has no
                    operator for, and for a reference to a missing base
                    table (``explain`` renders it; execution raises).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro import faults
from repro.core import aggregates as agg_ops
from repro.core.comparisons import ORDER_PREDICATES, decide_order
from repro.core.query import AttrCompare, AttrEq, AttrEqAttr, Condition
from repro.core.schema import Schema
from repro.core.tuples import Tup
from repro.exceptions import QueryError
from repro.monoids.counting import AVG
from repro.monoids.numeric import SUM
from repro.plan import encoded as enc
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.plan.columnar import ColumnarKRelation
from repro.plan.encoded import EncodedBatch, EncodedFallback, encoded_scan
from repro.plan import kernels
from repro.plan.kernels import np, reduce_by_key
from repro.semimodules.tensor import Tensor, tensor_space

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
    "WholeAggregate",
    "CountAggregate",
    "AvgAggregate",
    "DifferenceOp",
    "Fallback",
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
    subplans run once), the plan-lifetime scan cache, and the execution
    tier.  ``encoded`` enables the dictionary-encoded scan path (set by
    the plan's compile-time tier selection); ``used_encoded`` records
    whether any scan actually ran encoded, which is what ``explain()``
    reports as the tier of the last run."""

    __slots__ = (
        "db",
        "results",
        "scan_cache",
        "encoded",
        "used_encoded",
        "fell_back",
        "deadline",
    )

    def __init__(
        self,
        db,
        scan_cache: Dict[str, Tuple[Any, Any]],
        encoded: bool = False,
        deadline=None,
    ):
        self.db = db
        self.results: Dict[int, Any] = {}
        self.scan_cache = scan_cache
        self.encoded = encoded
        self.used_encoded = False
        self.fell_back = False
        #: Optional :class:`repro.deadline.Deadline` checked at every
        #: operator boundary — the cooperative-cancellation checkpoints.
        self.deadline = deadline


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

    def label(self) -> str:
        raise NotImplementedError


def validate_monoid_column(col: Iterable[Any], monoid, attr: str) -> None:
    """Check every value of an aggregated column lies in ``monoid``.

    The all/map pass is C-driven; only the failing case re-scans to raise
    the interpreter's precise per-value error (tensor values get the
    nested-aggregation message, foreign values the membership one).
    Shared by the aggregation operators here and the group-patching path
    of :mod:`repro.ivm`.
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
    """Base-table access with a plan-lifetime column cache.

    The cache entry stores the :class:`KRelation` object it was built from;
    since relations are immutable by convention, an ``is`` check is a sound
    validity test even when the database is later mutated via ``db.add``.

    On an encoded-tier plan the scan returns the table's dictionary
    encoding (:func:`repro.plan.encoded.encoded_scan`, cached on the
    database and shared across plans); a table whose contents disqualify
    the tier — an annotation outside the machine dtype, an unhashable
    value — silently decomposes to the boxed object batch instead, and
    every downstream operator follows the representation it receives.
    The plan-lifetime cache keeps one entry *per representation*, so an
    execution stream alternating tiers (the incremental engine's
    size-adaptive delta dispatch) never hands mixed representations to a
    join or re-decomposes on every switch.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, schema: Schema, est_rows: int):
        super().__init__((), schema, est_rows)
        self.name = name

    def _run(self, ctx: ExecutionContext):
        # latency fault point: a seeded sleep lets the chaos suite drive
        # deadline expiry through a realistically-slow scan (no-op when
        # nothing is armed)
        faults.sleep_point("latency", site="scan", table=self.name)
        rel = ctx.db.relation(self.name)
        entry = ctx.scan_cache.get(self.name)
        if entry is None or entry[0] is not rel:
            entry = (rel, {})
            ctx.scan_cache[self.name] = entry
        reps = entry[1]
        if ctx.encoded:
            if "encoded" in reps:
                batch = reps["encoded"]
            else:
                # None records "this table disqualifies the tier"
                batch = reps["encoded"] = encoded_scan(ctx.db, self.name, rel)
            if batch is not None:
                ctx.used_encoded = True
                return batch
        batch = reps.get("object")
        if batch is None:
            batch = reps["object"] = ColumnarKRelation.from_krelation(rel)
        return batch

    def label(self) -> str:
        return f"Scan {self.name}"


# ---------------------------------------------------------------------------
# fused select / project / rename / distinct pipelines
# ---------------------------------------------------------------------------


def _encoded_guard_plain(batch: EncodedBatch, attrs: Iterable[str]) -> None:
    """Encoded counterpart of :func:`_require_plain_columns`: checked over
    the *dictionaries* (one test per distinct value).  A symbolic value
    falls back to the object path, whose guard raises the exact error."""
    for attr in attrs:
        if enc.values_have_tensor(batch.col(attr)):
            raise EncodedFallback(f"symbolic value in column {attr!r}")


def _note_kernel(op: str, space: int, rows: int, machine=None) -> None:
    """Count, per encoded join probe (``rows`` = build rows) or grouped
    reduction over a key space of ``space`` codes in ``machine``'s
    annotations, whether it addressed the codes directly or sorted them
    (:func:`repro.plan.kernels.direct`; a ``+`` that cannot scatter always
    sorts), and say so on the operator's span — a sort there wins the
    attribute."""
    scatters = machine is None or hasattr(machine.plus, "at")
    kernel = "direct" if scatters and kernels.direct(space, rows) else "sorted"
    _metrics.ENCODED_KERNEL.inc(1, op, kernel)
    span = _trace.current()
    if span is not None and span.attrs.get("kernel") != "sorted":
        span.attrs["kernel"] = kernel


def _same_machine(left: EncodedBatch, right: EncodedBatch) -> None:
    """Two batches' annotations combine only in one representation (gate
    ids of two generations of a circuit builder do not)."""
    if left.machine is not right.machine:
        _metrics.ENCODED_KERNEL.inc(1, "gates", "fallback: two gate generations")
        raise EncodedFallback("two gate generations")


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
    _note_kernel("consolidate", space, len(keys), batch.machine)
    rep, sums = enc.consolidate_keys(batch, keys, space, anns)
    rep_rows = rep if keep is None else keep[rep]
    out_cols = {
        a: (lambda col=col, rep_rows=rep_rows: col.gather(rep_rows))
        for a, col in zip(out_attrs, cols)
    }
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
                trans = c1.translate_to(c2)
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
        σ→Π fusion holds on the encoded tier too)."""
        out_schema = batch.schema.restrict(self.attributes)
        return _consolidate_encoded(batch, out_schema, keep)


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
    """

    __slots__ = ("stages",)

    def __init__(self, child: PhysicalOp, stages: List[Any], schema: Schema, est_rows: int):
        super().__init__((child,), schema, est_rows)
        self.stages = list(stages)

    def extended(self, stage: Any, schema: Schema, est_rows: int) -> "FusedPipeline":
        return FusedPipeline(self.children[0], self.stages + [stage], schema, est_rows)

    def _run(self, ctx: ExecutionContext):
        batch = self.children[0].execute(ctx)
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
                    batch = _as_columnar(batch, ctx)
            if fuse:
                batch = stages[i + 1].apply(batch, keep=stage.keep(batch))
                i += 2
            else:
                batch = stage.apply(batch)
                i += 1
        return batch

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
        # representation -> (build batch object, build structure); each
        # entry is valid while its batch object is identical — true for
        # cached scans over an unchanged relation.  One slot per
        # representation, so an execution stream alternating tiers (the
        # incremental engine's size-adaptive dispatch) keeps both builds.
        self._build_cache: Dict[str, Tuple[Any, Any]] = {}

    def _guard(self, left: ColumnarKRelation, right: ColumnarKRelation) -> None:
        if self.kind == "natural":
            context = "join (⋈)"
            _require_plain_columns(left, self.left_keys, context)
            _require_plain_columns(right, self.right_keys, context)
        elif self.kind == "value":
            context = "join (⋈ on pairs)"
            _require_plain_columns(left, self.left_keys, context)
            _require_plain_columns(right, self.right_keys, context)

    def _buckets(
        self, build: ColumnarKRelation, keys: Tuple[str, ...], cacheable: bool
    ) -> Dict[Any, List[int]]:
        cached = self._build_cache.get("object")
        if cached is not None and cached[0] is build:
            return cached[1]
        buckets: Dict[Any, List[int]] = {}
        for i, key in enumerate(_hash_keys(build, keys)):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [i]
            else:
                bucket.append(i)
        # only batches that outlive this execution (the plan's scan cache)
        # can ever hit again; caching anything else would just pin the
        # previous build batch in memory at a guaranteed 100% miss rate
        if cacheable:
            self._build_cache["object"] = (build, buckets)
        else:
            self._build_cache.pop("object", None)
        return buckets

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
        self._guard(left, right)
        if self.build_side == "left":
            build, probe = left, right
            build_keys, probe_keys = self.left_keys, self.right_keys
            build_child = self.children[0]
        else:
            build, probe = right, left
            build_keys, probe_keys = self.right_keys, self.left_keys
            build_child = self.children[1]
        buckets = self._buckets(build, build_keys, isinstance(build_child, Scan))

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

    def _encoded_buckets(
        self, build: EncodedBatch, keys: Tuple[str, ...], cacheable: bool
    ):
        """The encoded build structure, cached per build batch like the
        object bucket table: a stable argsort of the combined build key
        codes plus per-distinct-key ``(starts, counts)`` — each probe
        match gathers its matching build rows as one slice of the order
        array — and, while the build code space is dense enough over the
        build rows (:func:`repro.plan.kernels.direct`), the slot table
        ``key -> bucket`` the probe indexes, else ``None``.  Its one
        trailing ``-1`` row is where the absent-key sentinel lands.
        """
        cached = self._build_cache.get("encoded")
        if cached is not None and cached[0] is build:
            return cached[1]
        cols = [build.col(a) for a in keys]
        bkeys, space = enc.combine_codes(cols)
        order = np.argsort(bkeys, kind="stable")
        sorted_keys = bkeys[order]
        n = len(sorted_keys)
        if n:
            head = np.empty(n, dtype=bool)
            head[0] = True
            np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
            starts = np.flatnonzero(head)
            unique = sorted_keys[starts]
            counts = np.diff(np.append(starts, n))
        else:
            unique = starts = counts = np.empty(0, dtype=np.int64)
        slot = None
        if kernels.direct(space, n):
            slot = np.full(space + 1, -1, dtype=np.int64)
            slot[unique] = np.arange(len(unique), dtype=np.int64)
        struct = (cols, space, slot, unique, order, starts, counts)
        # same policy as the object path: only scan batches outlive the
        # execution, so anything else would pin memory at a 100% miss rate
        if cacheable:
            self._build_cache["encoded"] = (build, struct)
        else:
            self._build_cache.pop("encoded", None)
        return struct

    def _encoded_probe_buckets(
        self, probe: EncodedBatch, probe_keys: Tuple[str, ...], struct
    ):
        """Per probe row, the bucket of the build rows its key matches
        (-1: none, also for a key value absent from the build dictionary).
        The translation into the build code space runs per distinct probe
        value, never per row; over a slot table, a one-attribute key
        composes it with the slot lookup first, so each probe row costs
        one gather."""
        bcols, _space, slot, unique = struct[:4]
        if slot is not None and len(bcols) == 1:
            pcol = probe.col(probe_keys[0])
            # an absent value translates to -1: the slot table's last row
            return slot[pcol.translate_to(bcols[0])][pcol.codes]
        pkeys = invalid = None
        for bcol, attr in zip(bcols, probe_keys):
            pcol = probe.col(attr)
            translated = pcol.translate_to(bcol)[pcol.codes]
            bad = translated < 0
            invalid = bad if invalid is None else invalid | bad
            if pkeys is None:
                pkeys = translated
            else:
                pkeys = pkeys * len(bcol.values) + translated
        pkeys = np.where(invalid, np.int64(-1), pkeys)
        if slot is not None:
            return slot[pkeys]
        # -1 (absent) and every unmatched key miss the padding too
        pos = np.searchsorted(unique, pkeys)
        pos[np.append(unique, -2)[pos] != pkeys] = -1
        return pos

    def _run_encoded(self, left: EncodedBatch, right: EncodedBatch) -> EncodedBatch:
        semiring = left.semiring
        _same_machine(left, right)
        if self.kind != "cross":
            _encoded_guard_plain(left, self.left_keys)
            _encoded_guard_plain(right, self.right_keys)
        if self.build_side == "left":
            build, probe = left, right
            build_keys, probe_keys = self.left_keys, self.right_keys
            build_child = self.children[0]
        else:
            build, probe = right, left
            build_keys, probe_keys = self.right_keys, self.left_keys
            build_child = self.children[1]

        if self.kind == "cross":
            nb, npr = len(build), len(probe)
            build_idx = np.repeat(np.arange(nb, dtype=np.int64), npr)
            probe_idx = np.tile(np.arange(npr, dtype=np.int64), nb)
        else:
            struct = self._encoded_buckets(
                build, build_keys, isinstance(build_child, Scan)
            )
            _bcols, space, _slot, unique, order, starts, counts = struct
            pos = self._encoded_probe_buckets(probe, probe_keys, struct)
            _note_kernel("join", space, len(build))
            matched = pos >= 0
            if len(unique) == len(build):
                # one build row per key (a key join): every count is 1, so
                # the fan-out below is ``order[starts[bucket]]`` and
                # ``starts`` is the identity; a probe side that matched in
                # full keeps its rows (``None``: in place, nothing gathered)
                probe_idx = None if matched.all() else np.flatnonzero(matched)
                build_idx = order[pos if probe_idx is None else pos[probe_idx]]
            else:
                probe_rows = np.flatnonzero(matched)
                buckets = pos[probe_rows]
                cnt = counts[buckets]
                probe_idx = np.repeat(probe_rows, cnt)
                total = int(cnt.sum())
                ends = np.cumsum(cnt)
                offsets = np.repeat(starts[buckets] - (ends - cnt), cnt)
                build_idx = order[np.arange(total, dtype=np.int64) + offsets]

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

    __slots__ = ()

    def __init__(self, left: PhysicalOp, right: PhysicalOp, schema: Schema, est_rows: int):
        super().__init__((left, right), schema, est_rows)

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

    @staticmethod
    def _merge_columns(lcol, rcol):
        """Concatenate two encoded columns under one merged dictionary
        (the right side's codes are translated per distinct value)."""
        index = dict(lcol.index)
        values = list(lcol.values)
        translation: List[int] = []
        for value in rcol.values:
            code = index.get(value, -1)
            if code < 0:
                code = index[value] = len(values)
                values.append(value)
            translation.append(code)
        table = np.asarray(translation, dtype=np.int64)
        if len(table):
            right_codes = table[rcol.codes]
        else:
            right_codes = rcol.codes
        codes = np.concatenate([lcol.codes, right_codes])
        return enc.EncodedColumn(codes, values, index)

    def _run_encoded(self, left: EncodedBatch, right: EncodedBatch) -> EncodedBatch:
        _same_machine(left, right)
        cols = {
            a: (
                lambda a=a: self._merge_columns(left.col(a), right.col(a))
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


def _collapse_kernel(space, values: List[Any], bound: int):
    """The array form of Prop. 3.9's ``sum_M k.m`` over the dictionary
    ``values`` — ``(ufunc, value array, scales, start)``, ``start`` the
    ufunc's identity within the array's dtype — or the reason (``str``)
    there is none: it must be bit- and type-identical to the normal form's
    fold, so ``iota`` is an isomorphism, the monoid declares a kernel and
    calls the values exact, and they are all ``int`` (times ``bound``, the
    largest annotation sum, inside int64 where ``N`` scales) or all
    ``float``."""
    monoid = space.monoid
    if not space.collapses:
        return "non-collapsing space"
    if monoid.collapse_kernel is None:
        return f"no kernel for {monoid.name}"
    if not all(map(monoid.exact, values)):
        return "inexact values"
    name, scales = monoid.collapse_kernel
    kinds = set(map(type, values))
    if kinds == {int}:
        if max(map(abs, values)) * (bound if scales else 1) > enc._INT64_MAX:
            return "bound"
        far = np.iinfo(np.int64).max
    elif kinds == {float}:
        far = np.inf
    else:
        return "mixed values"
    ufunc = getattr(np, name)
    start = {np.minimum: far, np.maximum: -far}.get(ufunc, ufunc.identity)
    return ufunc, np.asarray(values), scales, start


def _set_agg_by_code(space, col, gkeys, groups: int, batch: EncodedBatch, bound: int):
    """``SetAgg`` of the encoded column ``col`` within each group of
    ``gkeys`` (one int64 key below ``groups`` per row of the non-empty
    ``batch``).

    Where :func:`_collapse_kernel` applies, each group's tensor is its
    collapsed value, reduced straight from the rows on the group key —
    ``sum a.v`` for a scaling kernel (``N`` and SUM), else the MIN/MAX of
    ``v`` over the rows whose annotation is not ``0_K`` — and one more
    reduction on the group key gives the raw totals.  A space that keeps
    its entries reduces the ``(group, value-code)`` pair key instead: the
    pair sums in ascending key order, cut at the group boundaries, give
    the raw totals (re-reducing pair sums is exact: every machine ``+_K``
    is exactly associative) and, after the normal form's two filters as
    array masks, one entry dict per group.
    Returns ``(a row of each group, raw totals, tensors, why)``, ``why``
    the reason the kernel did not collapse (``None`` where it did).
    """
    machine = batch.machine
    plus = machine.plus
    zero = machine.code(space.semiring.zero)
    kernel = _collapse_kernel(space, col.values, bound)
    if not isinstance(kernel, str):
        ufunc, operand, scales, start = kernel
        _note_kernel("aggregate", groups, len(batch), machine)
        ukeys, rep, totals = reduce_by_key(gkeys, batch.anns, plus, groups, zero)
        values, keys = operand[col.codes], gkeys
        if scales:
            values = values * batch.anns
        else:
            live = batch.anns != batch.anns.dtype.type(zero)
            values, keys = values[live], gkeys[live]
        vkeys, _rep, reduced = reduce_by_key(keys, values, ufunc, groups, start)
        collapsed = reduced.tolist()
        if len(vkeys) < len(ukeys):  # groups without a live row keep 0_M
            filled = [space.monoid.identity] * len(ukeys)
            for g, value in zip(np.searchsorted(ukeys, vkeys).tolist(), collapsed):
                filled[g] = value
            collapsed = filled
        return rep, totals, list(map(space._of, collapsed)), None

    size = max(1, len(col.values))
    if groups * size > enc._RADIX_LIMIT:
        raise EncodedFallback("code space overflow")
    pair_keys = gkeys * size + col.codes
    _note_kernel("aggregate", groups * size, len(batch), machine)
    pkeys, prep, sums = reduce_by_key(pair_keys, batch.anns, plus, groups * size, zero)
    pgroups = pkeys // size
    head = np.empty(len(pkeys), dtype=bool)
    head[0] = True
    np.not_equal(pgroups[1:], pgroups[:-1], out=head[1:])
    gstarts = np.flatnonzero(head)
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
    return prep[gstarts], totals, tensors, kernel


def _show_collapse(reasons: Iterable[Optional[str]]) -> None:
    """Say on the operator's span whether its aggregated columns were
    collapsed by the kernel or folded by the normal form (and why)."""
    reasons = list(reasons)
    folded = "; ".join(sorted(set(filter(None, reasons))))
    if reasons:
        _trace.add_attrs(collapse=f"fold ({folded})" if folded else "kernel")


def count_collapse(reasons: Iterable[Optional[str]]) -> None:
    """Count, per aggregated column, the kernel or the fold and its cause
    (``None`` for the kernel) — in the process that answers the query."""
    for reason in reasons:
        _metrics.AGGREGATE_COLLAPSE.inc(1, "fold" if reason else "kernel", reason or "")


class GroupedAggregate(PhysicalOp):
    """GB_{U',U''} (Definition 3.7) executed directly over columns.

    Mirrors :func:`repro.core.aggregates.group_by` including its guards;
    the optional COUNT(*) column (footnote 6: SUM over the constant 1) is
    accumulated inline instead of materialising a widened relation.
    """

    __slots__ = ("group_attributes", "aggregations", "count_attr")

    def __init__(
        self,
        child: PhysicalOp,
        group_attributes: Tuple[str, ...],
        aggregations: Dict[str, Any],
        count_attr: Optional[str],
        schema: Schema,
        est_rows: int,
    ):
        super().__init__((child,), schema, est_rows)
        self.group_attributes = tuple(group_attributes)
        self.aggregations = dict(aggregations)
        self.count_attr = count_attr

    def _run(self, ctx: ExecutionContext) -> ColumnarKRelation:
        batch = self.children[0].execute(ctx)
        states = None
        if isinstance(batch, EncodedBatch):
            try:
                states = self.encoded_group_states(batch)
            except EncodedFallback:
                batch = _as_columnar(batch, ctx)
        if states is None:
            states = self.object_group_states(batch)
        group_rows, totals, tensors, why = states
        count_collapse(why.values())
        return self.finish_groups(batch.semiring, group_rows, totals, tensors)

    def encoded_group_states(self, batch: EncodedBatch):
        """Per-group partial states by code-indexed accumulation.

        Per aggregated attribute, one grouped reduction (scatter or sort,
        :func:`~repro.plan.kernels.reduce_by_key`) over the
        ``(group, value-code)`` pair key yields exactly the
        ``value -> scalar`` entries of the groups' tensors; the raw totals,
        the normal-form masks and — where the space collapses and the
        monoid declares a kernel — each group's Prop. 3.9 value come from
        that same order as array kernels (:func:`_set_agg_by_code`), with
        Python-level object construction only per *group*, never per row
        or entry.  COUNT(*) reuses the raw totals (footnote 6: SUM over
        the constant 1 is the annotation sum); COUNT-only grouping reduces
        the annotations over the group key directly.

        Returns ``(group_rows, totals_list, tensors, why)``: the decoded
        group key tuple, the raw (pre-``delta``) annotation total, per
        aggregated attribute the groups' tensors, and per aggregated
        attribute the reason the kernel did not collapse (``None`` where
        it did), shown on the span and left to the caller to count.
        Groups whose total is ``0_K`` are *kept* — under the parallel
        tier, partial states for the same group merge by ``+_K`` across
        morsels (grouping is multilinear in the annotations, so any row
        partition is exact, and the merge *is* semiring union), and a
        total that is zero in one morsel may be nonzero in another.
        """
        semiring = batch.semiring
        group_attrs = self.group_attributes
        if not group_attrs:
            raise EncodedFallback("empty grouping key")
        agg_ops.check_group_by(
            batch.schema, group_attrs, self.aggregations, self.count_attr, semiring
        )
        _encoded_guard_plain(batch, group_attrs)
        agg_cols = {attr: batch.col(attr) for attr in self.aggregations}
        for attr, monoid in self.aggregations.items():
            # validated over the dictionary; a foreign value falls back so
            # the object path raises the interpreter's row-order error
            if not all(map(monoid.contains, agg_cols[attr].values)):
                raise EncodedFallback(f"foreign value in column {attr!r}")

        gcols = [batch.col(a) for a in group_attrs]
        gkeys, radix = enc.combine_codes(gcols)
        bound = enc.check_reduction_bound(batch, len(batch))

        tensors: Dict[str, Any] = {attr: [] for attr in agg_cols}
        why: Dict[str, Optional[str]] = {}
        if not agg_cols or not len(batch):
            _note_kernel("aggregate", radix, len(batch), batch.machine)
            rep, totals = enc.consolidate_keys(batch, gkeys, radix, batch.anns)
        else:
            for attr, col in agg_cols.items():
                space = tensor_space(semiring, self.aggregations[attr])
                rep, totals, tensors[attr], why[attr] = _set_agg_by_code(
                    space, col, gkeys, radix, batch, bound
                )
            _show_collapse(why.values())

        decoded = []
        for col in gcols:
            codes = col.codes[rep].tolist()
            decoded.append(list(map(col.values.__getitem__, codes)))
        return list(zip(*decoded)), batch.machine.decode(totals), tensors, why

    def object_group_states(self, batch: ColumnarKRelation):
        """Per-group partial states over the boxed object representation.

        The object tier's grouping, and the per-morsel fallback of
        :meth:`encoded_group_states` when an operator inside a parallel
        morsel raised :class:`EncodedFallback` and handed on a boxed
        batch: the accumulation *is* ``TensorSpace.set_agg``.
        """
        semiring = batch.semiring
        group_attrs = self.group_attributes
        agg_ops.check_group_by(
            batch.schema, group_attrs, self.aggregations, self.count_attr, semiring
        )
        _require_plain_columns(batch, group_attrs, "GROUP BY")
        spaces = {
            attr: tensor_space(semiring, monoid)
            for attr, monoid in self.aggregations.items()
        }
        single_group_attr = len(group_attrs) == 1
        keys = _hash_keys(batch, group_attrs)
        anns = batch.annotations
        buckets: Dict[Any, List[int]] = {}
        for i, key in enumerate(keys):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [i]
            else:
                bucket.append(i)
        agg_cols = {attr: batch.column(attr) for attr in self.aggregations}
        for attr, monoid in self.aggregations.items():
            validate_monoid_column(agg_cols[attr], monoid, attr)
        sum_many = semiring.sum_many
        group_rows: List[Tuple[Any, ...]] = []
        totals_list: List[Any] = []
        tensors: Dict[str, List[Tensor]] = {a: [] for a in self.aggregations}
        for key, members in buckets.items():
            group_rows.append((key,) if single_group_attr else tuple(key))
            member_anns = list(map(anns.__getitem__, members))
            for attr in self.aggregations:
                col = agg_cols[attr]
                tensors[attr].append(spaces[attr].set_agg(
                    zip(map(col.__getitem__, members), member_anns)
                ))
            if len(member_anns) == 1:
                totals_list.append(member_anns[0])
            else:
                totals_list.append(sum_many(member_anns))
        return group_rows, totals_list, tensors, {}

    def finish_groups(self, semiring, group_rows, totals_list, tensors):
        """Build the output batch from (merged) per-group states.

        The shared tail of the object path, the serial encoded path and
        the parallel tier's parent-side merge: the tensors become columns,
        COUNT(*) columns derive from the raw totals, and row annotations
        are ``delta`` of the totals.
        """
        columns: Dict[str, List[Any]] = {}
        for i, attr in enumerate(self.group_attributes):
            columns[attr] = [row[i] for row in group_rows]
        columns.update(tensors)
        if self.count_attr is not None:
            # the simple tensor t ⊗ 1, whose normal form over N is ι(t)
            space = tensor_space(semiring, SUM)
            count = space._of if semiring.is_naturals else (lambda t: space.simple(t, 1))
            columns[self.count_attr] = list(map(count, totals_list))
        delta = semiring.delta
        annotations = [delta(t) for t in totals_list]
        return ColumnarKRelation._from_clean(
            semiring, self.schema, columns, annotations, True
        )

    def label(self) -> str:
        aggs = ", ".join(f"{m.name}({a})" for a, m in self.aggregations.items())
        if self.count_attr is not None:
            aggs = aggs + (", " if aggs else "") + f"COUNT→{self.count_attr}"
        return f"GroupedAggregate[{', '.join(self.group_attributes)}; {aggs}]"


class WholeAggregate(PhysicalOp):
    """AGG_M over a single-attribute relation (Section 3.2)."""

    __slots__ = ("attribute", "monoid")

    def __init__(self, child: PhysicalOp, attribute: str, monoid, schema: Schema):
        super().__init__((child,), schema, 1)
        self.attribute = attribute
        self.monoid = monoid

    def _run(self, ctx: ExecutionContext) -> ColumnarKRelation:
        batch = self.children[0].execute(ctx)
        agg_ops.single_column(batch.schema, self.attribute, "AGG")
        if isinstance(batch, EncodedBatch):
            try:
                return self._run_encoded(batch)
            except EncodedFallback:
                batch = _as_columnar(batch, ctx)
        space = tensor_space(batch.semiring, self.monoid)
        col = batch.column(self.attribute)
        validate_monoid_column(col, self.monoid, self.attribute)
        value = space.set_agg(zip(col, batch.annotations))
        return ColumnarKRelation._from_clean(
            batch.semiring,
            self.schema,
            {self.attribute: [value]},
            [batch.semiring.one],
            True,
        )

    def _run_encoded(self, batch: EncodedBatch) -> ColumnarKRelation:
        """``SetAgg`` by code-indexed accumulation: the one-group case of
        :func:`_set_agg_by_code` (an empty input is the empty tensor)."""
        semiring = batch.semiring
        col = batch.col(self.attribute)
        if not all(map(self.monoid.contains, col.values)):
            raise EncodedFallback("foreign value in aggregated column")
        space = tensor_space(semiring, self.monoid)
        bound = enc.check_reduction_bound(batch, len(batch))
        tensors = [space.zero]
        if len(batch):
            gkeys = np.zeros(len(batch), dtype=np.int64)
            _rep, _totals, tensors, why = _set_agg_by_code(
                space, col, gkeys, 1, batch, bound
            )
            _show_collapse([why])
            count_collapse([why])
        return ColumnarKRelation._from_clean(
            semiring, self.schema, {self.attribute: tensors}, [semiring.one], True
        )

    def label(self) -> str:
        return f"Aggregate[{self.monoid.name}({self.attribute})]"


class CountAggregate(PhysicalOp):
    """COUNT(*): SUM over the constant 1 (footnote 6)."""

    __slots__ = ("attribute",)

    def __init__(self, child: PhysicalOp, attribute: str, schema: Schema):
        super().__init__((child,), schema, 1)
        self.attribute = attribute

    def _run(self, ctx: ExecutionContext) -> ColumnarKRelation:
        batch = _as_columnar(self.children[0].execute(ctx), ctx)
        space = tensor_space(batch.semiring, SUM)
        value = space.set_agg((1, k) for k in batch.annotations)
        return ColumnarKRelation._from_clean(
            batch.semiring,
            self.schema,
            {self.attribute: [value]},
            [batch.semiring.one],
            True,
        )

    def label(self) -> str:
        return f"Count[{self.attribute}]"


class AvgAggregate(PhysicalOp):
    """AVG via the SUM+COUNT pair monoid (standard mode only)."""

    __slots__ = ("attribute",)

    def __init__(self, child: PhysicalOp, attribute: str, schema: Schema):
        super().__init__((child,), schema, 1)
        self.attribute = attribute

    def _run(self, ctx: ExecutionContext) -> ColumnarKRelation:
        batch = _as_columnar(self.children[0].execute(ctx), ctx)
        agg_ops.single_column(batch.schema, self.attribute, "AVG")
        space = tensor_space(batch.semiring, AVG)
        col = batch.column(self.attribute)
        value = space.set_agg(
            (AVG.lift(v), k) for v, k in zip(col, batch.annotations)
        )
        return ColumnarKRelation._from_clean(
            batch.semiring,
            self.schema,
            {self.attribute: [value]},
            [batch.semiring.one],
            True,
        )

    def label(self) -> str:
        return f"Avg[{self.attribute}]"


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
        return ColumnarKRelation.from_krelation(self.query.evaluate(ctx.db))

    def label(self) -> str:
        return f"Interpret[{self.query}]"
