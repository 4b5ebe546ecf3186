"""Dictionary-encoded batches: the machine-scalar execution tier.

The object tier (:class:`~repro.plan.columnar.ColumnarKRelation`) stores
one Python list per attribute and one boxed annotation per row; every hot
operator still pays a Python-level hash / compare / arithmetic call per
row.  For *concrete* semirings whose elements are machine scalars — the
paper's semantics is fully multilinear in the annotations, so nothing
about the algebra requires boxed objects — the planner instead runs this
tier:

* each base-table column is **dictionary-encoded** once at scan time:
  values become dense integer codes (``codes[i]`` indexes a per-column
  dictionary of distinct values), cached on the :class:`KDatabase` and
  revalidated by relation identity, so repeated plan executions and every
  IVM apply reuse the encoding — and an insert carries it forward:
  ``(R ∪ ΔR)(t) = R(t) +_K ΔR(t)``, so the image of the table after the
  write is the old image followed by the encoded delta
  (:func:`carry_forward`);
* annotations of semirings declaring a
  :class:`~repro.semirings.base.MachineRepr` are stored as a flat NumPy
  array of the declared dtype — machine scalars, or ids: ``N[X]`` term
  ids (:mod:`repro.semirings.terms`), or, when a plan runs in
  ``annotations="circuit"``, the ids of the gates its scans lift the
  stored polynomials to (:func:`scan_rows`) in the gate store of
  :data:`~repro.circuits.convert.NX_CIRCUITS`
  (:mod:`repro.circuits.store`), whose ``+``/``*``/``delta`` kernels
  intern gates;
* the physical operators then run as array kernels over codes: selection
  decides each *distinct* value once and filters by code, joins translate
  probe codes to build codes through the dictionaries (per distinct value,
  not per row) and gather matches by bucket slices, consolidation and
  grouped aggregation reduce annotation runs per integer key in one pass.

Batches are **exact**: a value or annotation that does not round-trip
through the machine dtype disqualifies its table at encode time
(:func:`encode_relation` returns ``None``) and the engine transparently
falls back to the object path — the encoded tier changes speed, never a
single annotation.  For ``int64`` semirings every batch additionally
carries an exact magnitude bound on its annotations
(:attr:`EncodedBatch.ann_bound`), and any product or reduction that could
leave int64 falls back *before* computing — NumPy overflow is silent
wraparound.  Output columns are gathered **lazily** (a column of a join
result is materialised only when a downstream operator reads it), so
carried-along attributes cost nothing until something looks at them.

NumPy is the optional accelerator that buys this tier (and the parallel
tier on top of it): the arrays here are NumPy arrays and nothing else.
Where NumPy did not import, :func:`~repro.plan.compiler.compile_plan`
never selects the tier, :func:`encode_batch` disqualifies every table,
and each plan runs the object tier to the identical answer (see
:mod:`repro.plan.kernels`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.circuits.convert import NX_CIRCUITS, lifter
from repro.core.schema import Schema
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.plan.columnar import ColumnarKRelation
from repro.plan.kernels import HAVE_NUMPY, np, reduce_by_key
from repro.semirings.base import EncodedFallback

__all__ = [
    "EncodedColumn",
    "EncodedBatch",
    "EncodedFallback",
    "encode_relation",
    "encoded_scan",
    "scan_rows",
    "carry_forward",
    "slice_batch",
]

#: The annotation representations a stored table is encoded in: as
#: stored, or lifted to circuit gates (``N[X]`` only).
_REPRESENTATIONS = ("expanded", "circuit")

#: Mixed-radix code combination must stay inside int64.
_RADIX_LIMIT = 1 << 62

#: Largest magnitude an int64 annotation array may ever hold.  Batches
#: track an exact upper bound on |annotation| (``EncodedBatch.ann_bound``,
#: a Python int, so the bound arithmetic itself can never wrap); any
#: kernel whose result could exceed this falls back to the object path
#: *before* computing — NumPy int64 overflow is silent wraparound, and
#: the tier's contract is exactness.
_INT64_MAX = (1 << 63) - 1


class EncodedColumn:
    """One dictionary-encoded column.

    ``codes`` is the per-row int64 code array; ``values[code]`` is the
    first-seen value for that code and ``index`` the inverse
    ``value -> code`` map.  Distinct codes hold non-equal values (dict
    equality), so any per-code decision stands for every row carrying
    the code.
    """

    __slots__ = ("codes", "values", "index")

    def __init__(self, codes, values: List[Any], index: Dict[Any, int]):
        self.codes = codes
        self.values = values
        self.index = index

    @classmethod
    def encode(cls, column: List[Any]) -> "EncodedColumn":
        """Dictionary-encode ``column`` (raises ``TypeError`` on an
        unhashable value — the caller treats that as disqualification)."""
        index: Dict[Any, int] = {}
        values: List[Any] = []
        codes: List[int] = []
        append = codes.append
        for value in column:
            code = index.get(value, -1)
            if code < 0:
                code = index[value] = len(values)
                values.append(value)
            append(code)
        return cls(np.asarray(codes, dtype=np.int64), values, index)

    def gather(self, idx) -> "EncodedColumn":
        """The column restricted to the rows in ``idx`` (dictionary shared)."""
        return EncodedColumn(self.codes[idx], self.values, self.index)

    def translate_to(self, other: "EncodedColumn"):
        """Per-*distinct-value* code translation into ``other``'s dictionary
        (``-1`` = value absent there) — the join trick that replaces per-row
        value hashing with one array lookup."""
        get = other.index.get
        return np.fromiter(
            (get(v, -1) for v in self.values), np.int64, len(self.values)
        )

    def decode(self) -> List[Any]:
        """The boxed value list this column encodes."""
        return list(map(self.values.__getitem__, self.codes.tolist()))

    def __len__(self) -> int:
        return len(self.codes)


class EncodedBatch:
    """A batch of machine-annotated rows over dictionary-encoded columns.

    ``anns`` is the NumPy annotation array in the batch's ``machine``
    representation (the semiring's
    :class:`~repro.semirings.base.MachineRepr` when its first batch was
    encoded; derived batches inherit it, since a circuit semiring's
    gate store changes with each generation); ``anns_one`` records that
    every annotation equals ``1_K`` (join outputs then skip the multiply
    entirely — the common shape for dimension tables and set semantics).
    Columns are stored either materialised (:class:`EncodedColumn`) or as
    0-arg thunks evaluated on first access, so operators that never read a
    carried-along attribute never pay its gather.

    ``ann_bound`` is an exact upper bound on ``|annotation|`` as a Python
    int — the overflow guard for int64 arithmetic (see
    :func:`check_reduction_bound`); float and bool dtypes carry a nominal
    bound and are never checked (float64 arithmetic here is bit-identical
    to the object path's Python floats, bools cannot grow), and so do
    gate ids, which are not magnitudes.

    ``distinct`` is the row-uniqueness promise of
    :attr:`ColumnarKRelation.distinct`, carried through decoding; a batch
    that may repeat a row is merged once, by
    :func:`~repro.plan.physical._consolidate_encoded`, where the plan hands
    its result over.
    """

    __slots__ = (
        "semiring",
        "machine",
        "schema",
        "cols",
        "anns",
        "anns_one",
        "ann_bound",
        "distinct",
    )

    def __init__(
        self,
        semiring,
        schema: Schema,
        cols: Dict[str, Any],
        anns,
        anns_one: bool,
        ann_bound: int,
        machine=None,
        distinct: bool = False,
    ):
        self.semiring = semiring
        self.machine = semiring.machine_repr if machine is None else machine
        self.schema = schema
        self.cols = cols
        self.anns = anns
        self.anns_one = anns_one
        self.ann_bound = ann_bound
        self.distinct = distinct

    def __len__(self) -> int:
        return len(self.anns)

    def col(self, attr: str) -> EncodedColumn:
        """The (materialised) encoded column for ``attr``."""
        col = self.cols[attr]
        if not isinstance(col, EncodedColumn):
            col = self.cols[attr] = col()
        return col

    def to_columnar(self) -> ColumnarKRelation:
        """Decode back to the boxed object representation.

        The machine representation decodes the annotations to native
        Python scalars (or the very gate objects), so nothing downstream
        can tell the batch ever left the object tier.
        """
        columns = {a: self.col(a).decode() for a in self.schema.attributes}
        return ColumnarKRelation._from_clean(
            self.semiring,
            self.schema,
            columns,
            self.machine.decode(self.anns),
            self.distinct,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<EncodedBatch {self.schema} over {self.semiring.name}, "
            f"{len(self)} rows>"
        )


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def _scan_annotations(semiring, annotations, anns_one: bool, bound: int):
    """Fold ``annotations`` into a batch's ``(anns_one, ann_bound)`` pair,
    or ``None`` if one does not round-trip through the machine dtype."""
    machine = semiring.machine_repr
    fits = machine.fits
    one = semiring.one
    integral = machine.bounded
    for annotation in annotations:
        if not fits(annotation):
            return None
        if annotation != one:
            anns_one = False
        if integral:
            magnitude = -annotation if annotation < 0 else annotation
            if magnitude > bound:
                bound = magnitude
    return anns_one, bound


def encode_batch(
    semiring,
    schema: Schema,
    columns: Dict[str, List[Any]],
    annotations: List[Any],
) -> Optional[EncodedBatch]:
    """Encode decomposed columns + annotations, or ``None`` if disqualified.

    Disqualification is exactness-driven: the semiring must declare a
    machine repr, every annotation must round-trip through its dtype
    (:meth:`MachineRepr.fits`), and every column value must be hashable.
    Without NumPy nothing qualifies, so every scan takes the object path.
    """
    machine = semiring.machine_repr
    if machine is None or not HAVE_NUMPY:
        return None
    scanned = _scan_annotations(semiring, annotations, True, 1)
    if scanned is None:
        return None
    anns_one, bound = scanned
    try:
        cols: Dict[str, Any] = {
            a: EncodedColumn.encode(columns[a]) for a in schema.attributes
        }
    except TypeError:  # unhashable column value
        return None
    try:
        anns = machine.encode(annotations)
    except EncodedFallback:  # an interning repr filled up: into the next one
        machine = semiring.machine_repr
        try:
            anns = machine.encode(annotations)
        except EncodedFallback:  # more than one generation holds
            return None
    return EncodedBatch(semiring, schema, cols, anns, anns_one, bound, machine)


def why_boxed(rel, annotations: str = "expanded") -> str:
    """Why :func:`encode_relation` finds no encoding of ``rel`` (for
    ``explain``): its first annotation without a machine form, else an
    unhashable value.  Every polynomial lifts to a gate, so a circuit
    scan boxes only across a gate rollover."""
    if annotations == "circuit":
        return "gate store rolled over"
    machine = rel.semiring.machine_repr
    for annotation in rel._rows.values():
        if not machine.fits(annotation):
            return machine.unfit(annotation)
    return "a value is unhashable"


def scan_rows(rel, annotations: str = "expanded") -> ColumnarKRelation:
    """The object batch a scan of ``rel`` reads in the representation
    ``annotations`` names: the stored rows, or (``"circuit"``, over
    ``N[X]``) the rows lifted into
    :data:`~repro.circuits.convert.NX_CIRCUITS` — each distinct
    polynomial one gate, tensor values scalar by scalar."""
    batch = ColumnarKRelation.from_krelation(rel)
    if annotations == "expanded":
        return batch
    gate, value = lifter()
    columns = {a: list(map(value, col)) for a, col in batch.columns.items()}
    return ColumnarKRelation._from_clean(
        NX_CIRCUITS, batch.schema, columns, list(map(gate, batch.annotations)),
        batch.distinct,
    )


def encode_relation(rel, annotations: str = "expanded") -> Optional[EncodedBatch]:
    """Encode a stored :class:`KRelation` in the representation
    ``annotations`` names (or ``None`` if disqualified).  A circuit lift
    whose gate generation is replaced before its encode (the builder
    filled up, in this lift or another thread's) runs once more, in the
    new one; a ``None`` that survives is such a race (:func:`_stale`)."""
    for _ in range(2):
        store = NX_CIRCUITS.machine_repr
        batch = scan_rows(rel, annotations)
        encoded = encode_batch(
            batch.semiring, batch.schema, batch.columns, batch.annotations
        )
        if encoded is not None or annotations == "expanded" or store.current():
            break
    if encoded is not None:
        encoded.distinct = True  # the rows of a finite map
    return encoded


def encoded_scan(
    db, name: str, rel, annotations: str = "expanded"
) -> Optional[EncodedBatch]:
    """The encoding of base table ``name`` in the representation
    ``annotations`` names, cached on the database.

    The cache lives on the :class:`KDatabase` (one entry per table and
    representation — ``N[X]`` tables have two, term ids and gate ids —
    holding the relation object it was built from and the database
    version it was built at) and is revalidated by relation identity —
    the same contract as the scan column cache.  ``db.update`` carries
    each entry of a table across a pure insert (:func:`carry_forward`:
    the old batch followed by the encoded delta), so the read after such
    a write is a hit; any other mutation
    (``db.add``, a delta that collides with a stored key, a ``Z``-deletion)
    replaces the relation object and leaves the entry stale, and the
    mutated table re-encodes from scratch here while every untouched
    table (and therefore every repeated plan execution and IVM apply
    against it) reuses its encoding.  A ``None`` batch records that the
    table's contents disqualify the tier, so the O(rows) qualification
    scan runs once, not per execution; a circuit scan's ``None`` is a
    gate rollover, not a verdict on the contents, and is not kept
    (:func:`_stale`).

    Thread safety (the cache is shared across server workers, and by
    every :class:`~repro.core.database.DatabaseSnapshot` of one lineage):
    the *attach* — creating or replacing the whole cache dict — runs
    under the database's lock, so racing readers converge on one shared
    cache instead of each publishing its own.  The per-table hit path is
    deliberately lock-free: entries are immutable ``(relation, batch,
    version)`` triples revalidated by relation identity, and single dict
    reads are atomic under the GIL.  A miss encodes outside the lock (two
    readers may encode the same table once each — duplicate work, never
    a wrong or torn batch) and stores under it, never over an entry of a
    later version: a reader pinned on an old snapshot must not evict the
    entry the writer's carry chain continues from.
    """
    cache = getattr(db, "_encoded_cache", None)
    if cache is None:
        lock = getattr(db, "_lock", None)
        if lock is None:  # a db-like object without the slot
            return encode_relation(rel, annotations)
        with lock:
            cache = getattr(db, "_encoded_cache", None)
            if cache is None:
                cache = {rep: {} for rep in _REPRESENTATIONS}
                try:
                    db._encoded_cache = cache
                except AttributeError:
                    return encode_relation(rel, annotations)
    tables = cache[annotations]
    entry = tables.get(name)
    if entry is not None and entry[0] is rel and not _stale(entry[1], annotations):
        return entry[1]
    # encode misses are the expensive path — worth a span of their own
    # (cache hits above stay untouched: no span, no check beyond _ACTIVE)
    with _trace.span(f"encode {name}") as span:
        batch = encode_relation(rel, annotations)
        if span is not None and batch is not None:
            span.attrs["rows"] = len(batch)
            span.attrs["ann_bytes"] = int(batch.anns.nbytes)
    _metrics.ENCODED_CACHE_EVENTS.inc(1, "rebuild")
    if _stale(batch, annotations):
        return batch
    version = db.version
    with db._lock:
        entry = tables.get(name)
        if entry is None or entry[2] <= version:
            tables[name] = (rel, batch, version)
    return batch


class _ColumnTail:
    """Column thunk of a carried-forward batch: an earlier column plus the
    value lists appended since.

    ``_state`` is ``(earlier, values)`` — ``earlier`` an
    :class:`EncodedColumn` or the tail of the batch this one extends —
    until the first call, then the materialised column.  It is one slot
    read and written whole because lock-free readers may call the same
    tail concurrently (both build equal columns, either may win).  A
    column nobody reads costs each write one node; the first read folds
    the whole chain, iteratively, onto the nearest materialised column.
    """

    __slots__ = ("_state",)

    def __init__(self, earlier, values: List[Any]):
        self._state = (earlier, values)

    def __call__(self) -> EncodedColumn:
        pending: List[List[Any]] = []
        node = self
        while not isinstance(node, EncodedColumn):
            state = node._state
            if isinstance(state, EncodedColumn):
                node = state
            else:
                node, values = state
                pending.append(values)
        if not pending:
            return node
        # the base column is shared with older batches, cached join build
        # structs and derived batches that captured ``len(values)``: the
        # dictionary is copied before its first new value, never grown
        index, values = node.index, node.values
        codes: List[int] = []
        append = codes.append
        for chunk in reversed(pending):
            for value in chunk:
                code = index.get(value, -1)
                if code < 0:
                    if index is node.index:
                        index, values = dict(index), list(values)
                    code = index[value] = len(values)
                    values.append(value)
                append(code)
        codes = np.concatenate((node.codes, np.asarray(codes, dtype=np.int64)))
        column = self._state = EncodedColumn(codes, values, index)
        return column


def _stale(batch: Optional[EncodedBatch], annotations: str) -> bool:
    """Must the cached encoding ``batch`` be rebuilt?  It must if it was
    encoded in a generation of an interning repr (gate or term ids) that
    its semiring has since replaced — its ids still read, but nothing new
    can combine with them — or if it is a circuit scan's ``None``: every
    polynomial lifts, so that is a gate rollover (see
    :func:`encode_relation`), not a verdict on the table."""
    if batch is None:
        return annotations == "circuit"
    return batch.machine is not batch.semiring.machine_repr


def _extend_batch(
    batch: EncodedBatch, delta, annotations: str
) -> Optional[EncodedBatch]:
    """``batch`` followed by the rows of ``delta`` (in the representation
    ``annotations`` names) as a new batch sharing nothing mutable with
    ``batch``, or ``None`` if a delta annotation disqualifies the table.
    (Delta values need no hashability check: a
    :class:`~repro.core.tuples.Tup` hashes its values at construction.)
    Raises :class:`EncodedFallback` where the batch's generation cannot
    take the delta's annotations."""
    rows = scan_rows(delta, annotations)
    scanned = _scan_annotations(
        batch.semiring, rows.annotations, batch.anns_one, batch.ann_bound
    )
    # checked after the scan: a rollover (in the lift, or in another
    # thread) before it fails the scan, and must not read as disqualified
    if _stale(batch, annotations):
        raise EncodedFallback("gate store rolled over")
    if scanned is None:
        return None
    tail = batch.machine.encode(rows.annotations)
    anns = np.concatenate((batch.anns, tail))
    cols = {
        a: _ColumnTail(batch.cols[a], rows.columns[a])
        for a in batch.schema.attributes
    }
    # a pure insert collides with no stored row, so rows stay distinct
    return EncodedBatch(
        batch.semiring, batch.schema, cols, anns, *scanned, batch.machine,
        batch.distinct,
    )


def carry_forward(cache, name: str, old, delta, new, version: int) -> None:
    """Carry table ``name``'s cached encodings across ``new = old ∪ delta``.

    Called by :meth:`KDatabase.update` under the writer lock, before
    ``new`` is published at ``version``; the entry of each representation
    extends by the delta encoded its way.  Applies when an entry was
    built from ``old`` and the delta is a pure insert no larger than
    ``old`` (no key collided: ``len(new) == len(old) + len(delta)``).
    Then ``new``'s row order is ``old``'s followed by the delta's —
    ``union`` layers the delta over ``old``'s rows, and flattening keeps
    the base's rows first (see :class:`~repro.core.relation.KRelation`)
    — so the from-scratch encoding of ``new`` would be positionally the
    old batch followed by the encoded delta.  In every
    other case the entry is left to go stale and the next scan rebuilds.
    A table recorded as disqualified stays so: its unfit row is still
    there.  The old batch is never mutated — pinned snapshots, cached
    join build structs and lock-free readers keep using it.
    """
    if len(delta) > len(old) or len(new) != len(old) + len(delta):
        return
    for annotations in _REPRESENTATIONS:
        tables = cache[annotations]
        entry = tables.get(name)
        if entry is None or entry[0] is not old:
            continue
        batch = entry[1]
        event = "extend"
        if _stale(batch, annotations):
            continue  # its generation was replaced: the next scan rebuilds
        if batch is not None:
            try:
                batch = _extend_batch(batch, delta, annotations)
            except EncodedFallback:  # the generation filled up meanwhile
                continue
            if batch is None:
                event = "disqualify"
        tables[name] = (new, batch, version)
        _metrics.ENCODED_CACHE_EVENTS.inc(1, event)


def share_encodings(source, target) -> None:
    """Seed ``target``'s encoding cache with ``source``'s entries for the
    relation objects both databases hold.

    A catalog clone (a materialised view's private database over a
    snapshot's relations) then scans its tables without encoding them
    again.  Entries are immutable and revalidated by relation identity,
    so sharing them is safe; from here each database carries its own
    entries forward (:func:`carry_forward`) at its own versions.
    """
    cache = getattr(source, "_encoded_cache", None)
    if cache is None:
        return
    held = dict(iter(target))
    version = target.version
    with source._lock:
        seeded = {
            rep: {name: (rel, batch, version)
                  for name, (rel, batch, _v) in cache[rep].items()
                  if held.get(name) is rel}
            for rep in _REPRESENTATIONS
        }
    with target._lock:
        target._encoded_cache = seeded


def slice_batch(batch: EncodedBatch, start: int, stop: int) -> EncodedBatch:
    """The rows ``[start:stop)`` of ``batch`` as a new batch.

    This is the morsel cut of the parallel tier: every column keeps its
    *dictionary* (values + index) untouched and only the code array is
    sliced — a NumPy view — so morsels never re-encode anything and codes
    stay translatable against batches sliced from the same table.
    ``anns_one`` and ``ann_bound`` remain valid for any subset of rows.
    """
    cols: Dict[str, Any] = {}
    for attr in batch.schema.attributes:
        col = batch.col(attr)
        cols[attr] = EncodedColumn(col.codes[start:stop], col.values, col.index)
    return EncodedBatch(
        batch.semiring,
        batch.schema,
        cols,
        batch.anns[start:stop],
        batch.anns_one,
        batch.ann_bound,
        batch.machine,
        batch.distinct,
    )


# ---------------------------------------------------------------------------
# shared kernels over encoded batches
# ---------------------------------------------------------------------------


def combine_codes(cols: List[EncodedColumn], idx=None):
    """Mixed-radix combination of per-column codes into one int64 key per
    row (``idx`` optionally restricts to those rows): returns ``(keys,
    space)``, every key in ``range(space)`` — the product of the
    dictionary sizes, which is what makes a key an address (see
    :func:`repro.plan.kernels.direct`).  Distinct keys correspond exactly
    to distinct value tuples.  Raises :class:`EncodedFallback` if the
    combined code space overflows int64 (astronomically wide keys — the
    object path handles them).
    """
    space = 1
    for col in cols:
        space *= max(1, len(col.values))
        if space > _RADIX_LIMIT:
            raise EncodedFallback("code space overflow")
    first = cols[0]
    keys = first.codes if idx is None else first.codes[idx]
    for col in cols[1:]:
        codes = col.codes if idx is None else col.codes[idx]
        keys = keys * len(col.values) + codes
    return keys, space


def ones_anns(batch: "EncodedBatch", n: int):
    """An all-``1_K`` annotation array of length ``n`` in ``batch``'s
    machine representation."""
    machine = batch.machine
    return np.full(n, machine.code(batch.semiring.one), dtype=np.dtype(machine.dtype))


def delta_anns(batch: "EncodedBatch", anns):
    """Vectorized ``delta`` of annotations in ``batch``'s representation
    (the repr's kernel: the support indicator for numeric semirings)."""
    machine, semiring = batch.machine, batch.semiring
    return machine.delta(anns, machine.code(semiring.zero), machine.code(semiring.one))


def all_one(batch: "EncodedBatch", anns) -> bool:
    """Does every annotation (in ``batch``'s representation) equal
    ``1_K``?  (A fast-path hint for join outputs, never a correctness
    requirement.)"""
    return bool((anns == batch.machine.code(batch.semiring.one)).all())


def check_reduction_bound(batch: "EncodedBatch", rows: int) -> int:
    """Guard an annotation reduction over ``rows`` of ``batch``.

    A ``+_K`` reduction of ``rows`` int64 annotations each bounded by
    ``ann_bound`` is bounded by ``rows * ann_bound`` (for every machine
    ``+``: ordinary addition, or min/max/or which cannot grow at all);
    NumPy would wrap past int64 silently, so a batch whose worst case
    exceeds it falls back to the exact object path instead.  Returns the
    (Python-int, exact) output bound.  Float and bool dtypes pass through
    unchecked — their kernel arithmetic is bit-identical to the object
    path's.
    """
    if not batch.machine.bounded:
        return batch.ann_bound
    bound = max(1, rows) * batch.ann_bound
    if bound > _INT64_MAX:
        raise EncodedFallback("int64 reduction bound exceeded")
    return bound


def check_product_bound(left: "EncodedBatch", right: "EncodedBatch") -> int:
    """Guard the elementwise annotation product of a join (int64 only);
    returns the exact output bound or falls back before NumPy could wrap."""
    if not left.machine.bounded:
        return max(left.ann_bound, right.ann_bound)
    bound = left.ann_bound * right.ann_bound
    if bound > _INT64_MAX:
        raise EncodedFallback("int64 product bound exceeded")
    return bound


def consolidate_keys(batch: "EncodedBatch", keys, space: int, anns):
    """Merge duplicate keys (each in ``range(space)``) of ``anns`` (in
    ``batch``'s representation) with ``+_K``: returns ``(rep_idx, sums)``.

    ``rep_idx`` indexes a representative input row per distinct key (the
    first in key order — sound: equal keys carry equal value tuples);
    ``sums`` is the per-key annotation reduction, aligned with
    ``rep_idx``.
    """
    machine = batch.machine
    _keys, rep_idx, sums = reduce_by_key(
        keys, anns, machine.plus, space, machine.code(batch.semiring.zero)
    )
    return rep_idx, sums


def values_have_tensor(col: EncodedColumn) -> bool:
    """Symbolic-aggregate guard over the *dictionary* (distinct values only)."""
    from repro.semimodules.tensor import Tensor

    return any(isinstance(v, Tensor) for v in col.values)
