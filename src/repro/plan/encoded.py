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
  dictionary of distinct values), kept on the relation version itself
  (its image slot, :func:`encoded_scan`), so every plan, snapshot and
  catalog holding that version reuses the encoding — and an insert
  carries it forward: ``(R ∪ ΔR)(t) = R(t) +_K ΔR(t)``, so the image of
  the table after the write is the old image followed by the encoded
  delta (:func:`carry_forward`);
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

from itertools import repeat
from typing import Any, Dict, List, Optional, Tuple

from repro.circuits.convert import NX_CIRCUITS, lifter
from repro.core.schema import Schema
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.plan.columnar import ColumnarKRelation
from repro.plan.kernels import HAVE_NUMPY, np
from repro.semirings.base import EncodedFallback

__all__ = [
    "EncodedColumn",
    "EncodedBatch",
    "EncodedFallback",
    "encode_relation",
    "encoded_scan",
    "object_scan",
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

_MISSING = object()


class EncodedColumn:
    """One dictionary-encoded column.

    ``codes`` is the per-row int64 code array; ``values[code]`` is the
    first-seen value for that code and ``index`` the inverse
    ``value -> code`` map.  Distinct codes hold non-equal values (dict
    equality), so any per-code decision stands for every row carrying
    the code.  A dictionary is never grown in place (:class:`_ColumnTail`
    copies it first), so ``facts``, what is decided over it as first asked
    (:meth:`has_tensor`, each monoid's collapse check, a translation), is
    one dict shared by every column over it.  ``numbers`` is the column
    decoded to one NumPy array, kept once an aggregate reads it.  Entries
    are written whole: racing readers build equal ones, either may win.
    """

    __slots__ = ("codes", "values", "index", "facts", "numbers")

    def __init__(self, codes, values: List[Any], index: Dict[Any, int],
                 facts: Optional[Dict[Any, Any]] = None):
        self.codes = codes
        self.values = values
        self.index = index
        self.facts = {} if facts is None else facts
        self.numbers = None

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
        return EncodedColumn(self.codes[idx], self.values, self.index, self.facts)

    def has_tensor(self) -> bool:
        """Does the dictionary hold a symbolic aggregate value?  Decided
        once per dictionary (see the class docstring)."""
        symbolic = self.facts.get("symbolic")
        if symbolic is None:
            from repro.semimodules.tensor import Tensor

            symbolic = self.facts["symbolic"] = any(isinstance(v, Tensor) for v in self.values)
        return symbolic

    def translate_to(self, other: "EncodedColumn"):
        """Per-*distinct-value* code translation into ``other``'s dictionary
        (``-1`` = value absent there) — the join trick that replaces per-row
        value hashing with one array lookup."""
        values = self.values
        return np.fromiter(map(other.index.get, values, repeat(-1)), np.int64, len(values))

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


def _image_slot(rel) -> Dict[Tuple[str, str], Any]:
    """The image slot of the relation version ``rel``, attached on first
    use: ``(tier, annotations)`` → the object batch (``"object"``) or the
    encoding (``"encoded"``, ``None`` = disqualified) a scan of ``rel``
    reads; this module is its only reader and writer.  Two readers
    attaching at once may each publish a dict, and the loser's entries
    are encoded once more: duplicate work, never a wrong batch."""
    try:
        return rel._scan_images
    except AttributeError:
        images = rel._scan_images = {}
        return images


def object_scan(rel, annotations: str = "expanded") -> ColumnarKRelation:
    """The object batch a scan of ``rel`` reads (:func:`scan_rows`),
    kept on the version, so every plan and catalog holding ``rel``
    decomposes it once."""
    images = _image_slot(rel)
    key = ("object", annotations)
    batch = images.get(key)
    if batch is None:
        batch = images[key] = scan_rows(rel, annotations)
    return batch


def encoded_scan(
    db, name: str, rel, annotations: str = "expanded"
) -> Optional[EncodedBatch]:
    """The encoding of the version ``rel`` of base table ``name`` in the
    representation ``annotations`` names (an ``N[X]`` table has two, term
    ids and gate ids), kept on the version.

    A relation is an immutable value, so its encoding depends on it
    alone: the root database, a pinned snapshot, a view's catalog and a
    delta plan's execution catalog that hold the same version read the
    same batch, and no two versions share a slot, so a reader pinned on
    an old version can never displace a later version's batch.
    ``db.update`` carries each encoding of a table across a pure insert
    (:func:`carry_forward`: the old batch followed by the encoded delta),
    so the read after such a write is a hit; any other mutation
    (``db.add``, a delta that collides with a stored key, a
    ``Z``-deletion) yields a version without an image, which encodes
    from scratch here.  A ``None`` records that the version's contents
    disqualify the tier, so the O(rows) qualification scan runs once, not
    per execution; a circuit scan's ``None`` is a gate rollover, not a
    verdict on the contents, and is not kept (:func:`_stale`), nor is a
    batch whose generation was replaced.

    The hit path is lock-free: single dict reads are atomic under the
    GIL.  Two readers missing at once encode once each and both store:
    equal batches, either may win.  ``db`` is unused; the argument stays
    for positional callers.
    """
    images = _image_slot(rel)
    key = ("encoded", annotations)
    batch = images.get(key, _MISSING)
    if batch is not _MISSING and not _stale(batch, annotations):
        return batch
    # encode misses are the expensive path — worth a span of their own
    # (hits above stay untouched: no span, no check beyond _ACTIVE)
    with _trace.span(f"encode {name}") as span:
        batch = encode_relation(rel, annotations)
        if span is not None and batch is not None:
            span.attrs["rows"] = len(batch)
            span.attrs["ann_bytes"] = int(batch.anns.nbytes)
    _metrics.ENCODED_CACHE_EVENTS.inc(1, "rebuild")
    if not _stale(batch, annotations):
        images[key] = batch
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
        facts = node.facts if values is node.values else None
        column = self._state = EncodedColumn(codes, values, index, facts)
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
    The delta is read as its object batch (:func:`object_scan`), which a
    view apply's delta plan has already scanned.  (Delta values need no
    hashability check: a :class:`~repro.core.tuples.Tup` hashes its values
    at construction.)
    Raises :class:`EncodedFallback` where the batch's generation cannot
    take the delta's annotations."""
    rows = object_scan(delta, annotations)
    scanned = _scan_annotations(
        batch.semiring, rows.annotations, batch.anns_one, batch.ann_bound
    )
    # checked after the scan: a rollover (in the lift, or in another
    # thread) before it fails the scan, and must not read as disqualified
    if _stale(batch, annotations):
        raise EncodedFallback("gate store rolled over")
    if scanned is None:
        return None
    anns_one, bound = scanned
    anns = np.concatenate((batch.anns, batch.machine.encode(rows.annotations)))
    cols = {
        a: _ColumnTail(batch.cols[a], rows.columns[a])
        for a in batch.schema.attributes
    }
    # a pure insert collides with no stored row, so rows stay distinct
    return EncodedBatch(
        batch.semiring, batch.schema, cols, anns, anns_one, bound, batch.machine,
        batch.distinct,
    )


def carry_forward(old, delta, new) -> None:
    """Carry the encodings of the version ``old`` onto ``new = old ∪ delta``.

    Called by :meth:`KDatabase.update` under the writer lock, before
    ``new`` is published; each encoding of ``old`` extends by the delta
    encoded its way (:func:`_extend_batch`), and lands on ``new`` itself,
    so every catalog that comes to hold ``new`` reads it.  Applies when
    the delta is a pure insert no larger than ``old`` (no key collided:
    ``len(new) == len(old) + len(delta)``).  Then ``new``'s row order is ``old``'s
    followed by the delta's — ``union`` layers the delta over ``old``'s
    rows, and flattening keeps the base's rows first (see
    :class:`~repro.core.relation.KRelation`) — so the from-scratch
    encoding of ``new`` would be positionally the old batch followed by
    the encoded delta.  In every other case ``new`` gets no encoding and
    its first scan builds one.  A table recorded as disqualified stays
    so: its unfit row is still there.  The old batch is never mutated —
    pinned snapshots, cached join build structs and lock-free readers
    keep using it.
    """
    images = getattr(old, "_scan_images", None)
    if not images or len(delta) > len(old) or len(new) != len(old) + len(delta):
        return
    carried: Dict[Tuple[str, str], Any] = {}
    for annotations in _REPRESENTATIONS:
        key = ("encoded", annotations)
        batch = images.get(key, _MISSING)
        if batch is _MISSING or _stale(batch, annotations):
            continue  # never scanned, or its generation was replaced
        event = "extend"
        if batch is not None:
            try:
                batch = _extend_batch(batch, delta, annotations)
            except EncodedFallback:  # the generation filled up meanwhile
                continue
            if batch is None:
                event = "disqualify"
        carried[key] = batch
        _metrics.ENCODED_CACHE_EVENTS.inc(1, event)
    if carried:
        new._scan_images = carried


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
        cols[attr] = EncodedColumn(col.codes[start:stop], col.values, col.index, col.facts)
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


def split_codes(cols: List[EncodedColumn], keys) -> List[EncodedColumn]:
    """:func:`combine_codes` inverted: per column, the code each key
    ``keys`` holds, over the column's dictionary."""
    out = []
    for col in reversed(cols[1:]):
        keys, codes = np.divmod(keys, max(1, len(col.values)))
        out.append(EncodedColumn(codes, col.values, col.index, col.facts))
    out.extend(EncodedColumn(keys, c.values, c.index, c.facts) for c in cols[:1])
    return out[::-1]


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
