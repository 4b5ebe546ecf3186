"""K-relations: finitely-supported maps from tuples to annotations.

A ``K``-relation with schema ``U`` is a function ``R : D^U -> K`` with
finite support (Section 2.1).  ``B``-relations are sets, ``N``-relations
are bags, ``N[X]``-relations carry symbolic provenance.  After aggregation,
tuple *values* may be tensors in ``K (x) M`` — the paper's
``(M, K)``-relations — and applying a homomorphism maps both the
annotations and those tensor values (the ``h_Rel`` of Section 3.2).
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Tuple, Union

from repro.core.schema import Schema
from repro.core.tuples import Tup, _canonical_attrs
from repro.exceptions import SchemaError, SemiringError
from repro.obs.metrics import RELATION_FLATTENS
from repro.semimodules.tensor import Tensor
from repro.semirings.base import Semiring
from repro.semirings.homomorphism import Homomorphism
from repro.semirings.polynomials import Polynomial

__all__ = ["KRelation"]

RowSpec = Union[Tuple[Any, ...], list]

#: The largest overlay a layered version may carry, as a share of its
#: base's rows (a tombstone counts as a row); a version whose overlay
#: exceeds it flattens as soon as it is built.  A version layered over
#: a base copies only the overlay, so a stream of small writes pays
#: O(|overlay|) per write plus one O(|R|) flatten per ``share * |R|``
#: rows written: a larger share copies larger overlays, a smaller one
#: flattens more often.  Measured as the mean ``union`` cost per write
#: in µs over a stream of inserts into an ``N`` table, flattens and
#: frees included (2-core Xeon, CPython 3.11; copying the whole map on
#: every write took 1 008 µs per write on the first stream):
#:
#: ==========================  =====  =====  =====  =====  =====  =====
#: share                        1/2    1/4    1/8    1/16   1/32   1/64
#: ==========================  =====  =====  =====  =====  =====  =====
#: 2 000 × 20 rows into 40 000   146     87     57     46     44     51
#: 2 000 × 20 rows into 200 000    —      —    133    103     74     75
#: 400 × 200 rows into 40 000      —    251    281    218    290      —
#: ==========================  =====  =====  =====  =====  =====  =====
#:
#: 1/16 is lowest, or within 5 % of it, on both 40 000-row streams (the
#: size of the served benchmark's table); a 200 000-row table would
#: favour 1/32.
_OVERLAY_SHARE = 1 / 16

_MISSING = object()
_TUP_ATTRS = attrgetter("_attrs")
_FLATTEN_ON_READ = RELATION_FLATTENS.labels("read")
_FLATTEN_ON_OVERLAY = RELATION_FLATTENS.labels("overlay")
_FLATTEN_COLUMNS = RELATION_FLATTENS.labels("columns")


def merged_rows(
    semiring: Semiring, items: Iterable[Tuple[Tup, Any]], schema: Schema | None = None
) -> Dict[Tup, Any]:
    """The canonical row map of ``items``: duplicate tuples merged with
    ``+_K`` (inserting the same tuple twice *is* alternative derivation),
    zero annotations dropped.  With ``schema``, every tuple is checked
    against it; a caller that built the tuples *from* the schema (the
    batch ⇄ relation boundary, over ``Tup._from_sorted``) passes none.
    """
    items = items if isinstance(items, list) else list(items)
    data: Dict[Tup, Any] = dict(items)
    if schema is not None:
        attrs = _canonical_attrs(tuple(schema.attributes))
        if set(map(_TUP_ATTRS, data)) - {attrs}:
            bad = next(t for t in data if t._attrs != attrs)
            raise SchemaError(f"tuple {bad} does not match schema {schema}")
    if len(data) == len(items):
        return _without_zeros(semiring, data)
    data = {}
    for tup, annotation in items:
        if tup in data:
            # k-way collisions accumulate for one n-ary sum_many below
            bucket = data[tup]
            if type(bucket) is list:
                bucket.append(annotation)
            else:
                data[tup] = [bucket, annotation]
        else:
            data[tup] = annotation
    sum_many, is_zero = semiring.sum_many, semiring.is_zero
    merged = ((t, sum_many(b) if type(b) is list else b) for t, b in data.items())
    return {t: k for t, k in merged if not is_zero(k)}


def _has_zero(semiring: Semiring, annotations: Iterable[Any]) -> bool:
    """Is an annotation ``0_K``?  One containment test where ``is_zero``
    is the base class's equality with ``0_K``."""
    if type(semiring).is_zero is Semiring.is_zero:
        return semiring.zero in annotations
    return any(map(semiring.is_zero, annotations))


def _without_zeros(semiring: Semiring, data: Dict[Tup, Any]) -> Dict[Tup, Any]:
    """``data`` (duplicate-free) without its ``0_K`` rows: itself when it
    has none."""
    if _has_zero(semiring, data.values()):
        is_zero = semiring.is_zero
        return {t: k for t, k in data.items() if not is_zero(k)}
    return data


class KRelation:
    """An annotated relation: ``{tuple -> non-zero annotation}``.

    Immutable by convention: every operation returns a new relation.
    Duplicate tuples supplied at construction are merged with ``+_K``
    (inserting the same tuple twice *is* alternative derivation).

    **Versions.**  ``R ∪ ΔR`` differs from ``R`` only on ``supp(ΔR)``
    (union is pointwise ``+_K``), so a union builds a *layered* version:
    it shares the larger operand's flat row map (its *base*, never
    mutated) and carries a small *overlay* — the inserted rows and the
    collided rows re-summed (``live``, in insertion order) and the base
    rows whose sum cancelled to ``0_K`` (``tombs``) — plus its size, and
    flattens at once if the overlay outgrows :data:`_OVERLAY_SHARE` of
    the base.  Building one costs ``O(|ΔR| + |overlay|)``: layering a
    layered version copies its overlay, never its base, so every version
    (a pinned snapshot's included) keeps its own value.  The layout is
    private to this class: ``len``, ``in`` and :meth:`annotation` answer
    from the layers, and every other read goes through :attr:`_rows`,
    which *flattens* — materialises one dict, caches it and drops the
    base and overlay references, so a superseded base can be freed.
    Flattening is deterministic: the base's order, then the overlay's
    new keys in insertion order, the tombstoned keys dropped (a key
    cancelled and inserted again counts as new).  After a pure insert
    the flat map is therefore the old one followed by the delta's rows,
    the order :func:`repro.plan.encoded.carry_forward` relies on.  A row
    in both operands of a union keeps the left operand's tuple (equal
    values may differ in type, ``3`` and ``3.0``); where that is not the
    base's tuple, the overlay's ``rekeyed`` map holds it, and flattening
    puts it in the row's place.

    A bulk load (:meth:`from_rows`) whose rows are distinct and carry no
    ``0_K`` is *column-held*: it keeps one value list per attribute and
    the annotation list (``_held``), in the rows' order, and no row map.
    A scan and a serialiser read those lists as they are
    (:meth:`columns`); ``len`` is known at construction.  Every other
    read *lowers* the version first: it builds the row map in column
    order, one :class:`Tup` per row — exactly the map, in exactly the
    order, the eager constructor would have built — and drops the lists.
    A write lowers the version it writes (``union`` reads its rows).

    Two threads reading a fresh layered or column-held version at once
    may both flatten (or lower): they build equal dicts, and each
    publishes its own with one attribute store (``_flat``, before the
    layers or the lists are dropped), so a reader sees either the layers
    (the lists) or a complete flat map and no lock is needed.

    **Images.**  A version's scan images — its object batch and its
    encodings for the planner's tiers — depend on the version alone, so
    they live on it, in the ``_scan_images`` slot that only
    :mod:`repro.plan.encoded` reads or writes (unset until the first
    scan).  The slot is no part of the value: ``==``, ``hash`` and
    pickling ignore it.
    """

    __slots__ = ("semiring", "schema", "_flat", "_base", "_overlay", "_held",
                 "_size", "_scan_images")

    def __init__(
        self,
        semiring: Semiring,
        schema: Schema | Iterable[str],
        rows: Mapping[Tup, Any] | Iterable[Tuple[Tup, Any]] = (),
    ):
        self.semiring = semiring
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        items = rows.items() if isinstance(rows, Mapping) else rows
        self._rows = merged_rows(semiring, items, self.schema)

    # -- storage ----------------------------------------------------------------

    @property
    def _rows(self) -> Dict[Tup, Any]:
        """The row map as one flat dict (a layered version flattens once,
        a column-held one lowers once)."""
        flat = self._flat
        return flat if flat is not None else self._flatten(_FLATTEN_ON_READ)

    @_rows.setter
    def _rows(self, rows: Dict[Tup, Any]) -> None:
        # _flat first: a concurrent reader that then finds the layers
        # (or the held columns) gone reads _flat instead
        self._flat = rows
        self._base = self._overlay = self._held = None
        self._size = len(rows)

    def _layers(self):
        """``(base, live, tombs, rekeyed)`` of a layered version, or
        ``None`` once it is flat (then read ``_flat``); a column-held
        version is lowered to its flat map first."""
        if self._flat is None:
            base, overlay = self._base, self._overlay
            if base is not None and overlay is not None:
                return (base, *overlay)
            if self._held is not None:
                self._lower()
        return None

    def _lower(self) -> None:
        """Build the row map of a column-held version, in column order."""
        held = self._held
        if held is None:  # another reader published first
            return
        columns, annotations = held
        attrs = _canonical_attrs(tuple(self.schema.attributes))
        values = zip(*map(columns.__getitem__, attrs)) if attrs else repeat((), self._size)
        self._rows = dict(zip(map(Tup._from_sorted, repeat(attrs), values), annotations))
        _FLATTEN_COLUMNS.inc()

    def _flatten(self, counter) -> Dict[Tup, Any]:
        layers = self._layers()
        if layers is None:  # flat: another reader published first, or lowered
            return self._flat
        base, live, tombs, rekeyed = layers
        rows = dict(base)  # copies with the stored hashes
        for tup in tombs:
            del rows[tup]
        rows.update(live)
        if rekeyed:  # same order, the left operands' tuples
            get = rekeyed.get
            rows = {get(tup, tup): annotation for tup, annotation in rows.items()}
        self._rows = rows
        counter.inc()
        return rows

    def _plus(self, other: "KRelation") -> "KRelation":
        """``(self ∪ other)(t) = self(t) +_K other(t)``, with ``self``'s
        schema (the caller has checked that the schemas agree).

        Both inputs are canonical (schema-valid, duplicate- and
        zero-free), and merging preserves all three invariants as long as
        collided annotations that cancel to ``0`` are dropped, so no row
        is re-validated.  The smaller operand is layered over the larger;
        a result whose overlay outgrows :data:`_OVERLAY_SHARE` of its base
        flattens at once, so a large merge costs one copy of the larger
        operand's rows, as a flat merge would.

        A tuple in both operands keeps ``self``'s values, which may differ
        in type from ``other``'s (``3`` and ``3.0``): when ``self`` is the
        smaller operand, ``rekeyed`` records its tuple for each overlap,
        and flattening then maps every row through it, one pass over the
        flat map.
        """
        semiring, schema = self.semiring, self.schema
        plus, is_zero = semiring.plus, semiring.is_zero
        big, small = (other, self) if len(other) > len(self) else (self, other)
        rekey = small is self
        layers = big._layers()
        if layers is None:
            base, live, tombs, rekeyed = big._flat, {}, set(), {}
        else:
            base, live, tombs, rekeyed = (layers[0], dict(layers[1]),
                                          set(layers[2]), dict(layers[3]))
        size = big._size
        for tup, annotation in small.rows():
            stored = live.get(tup, _MISSING)
            if stored is _MISSING:
                if tup in tombs or tup not in base:
                    live[tup] = annotation
                    size += 1
                    continue
                stored = base[tup]
            combined = plus(stored, annotation)
            if is_zero(combined):
                live.pop(tup, None)
                rekeyed.pop(tup, None)
                if tup in base:
                    tombs.add(tup)
                size -= 1
            else:
                live[tup] = combined
                if rekey:
                    rekeyed[tup] = tup
        rel = KRelation.__new__(KRelation)
        rel.semiring, rel.schema = semiring, schema
        rel._flat, rel._base, rel._held, rel._size = None, base, None, size
        rel._overlay = (live, tombs, rekeyed)
        if len(live) + len(tombs) > len(base) * _OVERLAY_SHARE:
            rel._flatten(_FLATTEN_ON_OVERLAY)
        return rel

    def __reduce__(self):
        # a layered version pickles (and copies) as its flat map, without
        # its base
        return (type(self)._from_clean, (self.semiring, self.schema, self._rows))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _from_clean(
        cls, semiring: Semiring, schema: Schema, rows: Dict[Tup, Any]
    ) -> "KRelation":
        """Trusted constructor: adopt an already-canonical row map.

        ``rows`` must be schema-valid, duplicate-free and zero-free — the
        invariants the public constructor establishes.  Used by operators
        whose inputs are canonical relations and whose output provably
        preserves the invariants (e.g. ``union`` merging two row maps),
        so hot paths skip the per-tuple re-validation.  The dict is
        adopted, not copied: callers hand over ownership.
        """
        rel = cls.__new__(cls)
        rel.semiring = semiring
        rel.schema = schema
        rel._rows = rows
        return rel

    @classmethod
    def from_rows(
        cls,
        semiring: Semiring,
        attributes: Iterable[str],
        rows: Iterable[Tuple[RowSpec, Any]],
    ) -> "KRelation":
        """Build from positional rows: ``[((v1, v2, ...), annotation), ...]``.

        Column passes, not a per-row loop: the rows split into values and
        annotations, and every length is checked at once.  A batch whose
        rows are distinct (one ``set`` of the value tuples, which also
        hashes every value) and free of ``0_K`` stays its columns, one
        ``map`` each: the version is column-held (see the class
        docstring) and builds its row map on the first read that needs
        one.  Any other batch becomes its row map at once, duplicates
        merged with ``+_K`` and zeros dropped (:func:`merged_rows`).
        """
        schema = Schema(attributes)
        arity = len(schema)
        rows = rows if isinstance(rows, list) else list(rows)
        values, annotations = zip(*rows) if rows else ((), ())
        try:
            lengths = set(map(len, values))
        except TypeError:  # a row given as an iterable without a length
            values = list(map(tuple, values))
            lengths = set(map(len, values))
        if lengths - {arity}:
            bad = next(v for v in values if len(v) != arity)
            raise SchemaError(
                f"{len(bad)} values supplied for schema {schema} of arity {arity}"
            )
        try:
            distinct = len(set(values)) == len(values)
        except TypeError:  # rows given as lists (an unhashable value raises again)
            distinct = len(set(map(tuple, values))) == len(values)
        annotations = list(annotations)
        if distinct and not _has_zero(semiring, annotations):
            rel = cls.__new__(cls)
            rel.semiring, rel.schema = semiring, schema
            rel._flat = rel._base = rel._overlay = None
            rel._held = ({a: list(map(itemgetter(i), values))
                          for i, a in enumerate(schema.attributes)}, annotations)
            rel._size = len(annotations)
            return rel
        attrs = _canonical_attrs(tuple(schema.attributes))
        place = [schema.attributes.index(a) for a in attrs]
        # itemgetter builds the sorted-order tuple straight from a list row
        permute = tuple if place == sorted(place) else itemgetter(*place)
        tups = map(Tup._from_sorted, repeat(attrs), map(permute, values))
        return cls._from_clean(semiring, schema,
                               merged_rows(semiring, list(zip(tups, annotations))))

    def columns(self) -> Tuple[Dict[str, List[Any]], List[Any]]:
        """The relation as columns in storage order (:meth:`rows`'s): one
        value list per attribute, keyed in schema order, and the
        annotation list.  A column-held version hands over the lists it
        holds, without lowering; they are shared, so a caller must not
        mutate them.  Any other version decomposes its row map: every
        :class:`Tup` stores its values in sorted-attribute order, so one
        per-relation permutation says where each column sits, and a
        column is one C-level ``map`` over the rows."""
        held = self._held
        if held is not None:
            return held
        stored = self._rows
        values = [tup._values for tup in stored]
        place = {a: i for i, a in enumerate(sorted(self.schema.attributes))}
        columns = {
            a: list(map(itemgetter(place[a]), values)) for a in self.schema.attributes
        }
        return columns, list(stored.values())

    @classmethod
    def empty(cls, semiring: Semiring, attributes: Iterable[str]) -> "KRelation":
        """The empty K-relation (every annotation ``0_K``)."""
        return cls(semiring, Schema(attributes), ())

    # -- access ---------------------------------------------------------------

    def annotation(self, tup: Tup) -> Any:
        """``R(t)`` — the annotation of ``tup`` (``0_K`` when unsupported)."""
        layers = None if self._flat is not None else self._layers()
        if layers is None:
            return self._flat.get(tup, self.semiring.zero)
        base, live, tombs, _rekeyed = layers
        if tup in live:
            return live[tup]
        if tup in tombs:
            return self.semiring.zero
        return base.get(tup, self.semiring.zero)

    def support(self) -> Tuple[Tup, ...]:
        """``supp(R)`` in a deterministic order (by rendered tuple).

        Order is presentation: this, :meth:`items`, ``iter(R)`` and
        :meth:`pretty` are for display, export and tests.  Anything that
        *computes* folds over :meth:`rows` — every consumer is a fold in a
        commutative semiring/monoid or builds another dict-keyed relation.
        """
        return tuple(sorted(self._rows, key=str))

    def items(self) -> Iterator[Tuple[Tup, Any]]:
        """Iterate ``(tuple, annotation)`` pairs in support order."""
        for tup in self.support():
            yield tup, self._rows[tup]

    def rows(self) -> Iterable[Tuple[Tup, Any]]:
        """Iterate ``(tuple, annotation)`` pairs in storage order.

        The iteration every operator uses.  Unlike :meth:`items` it renders
        and sorts nothing; the order is unspecified (it is not part of a
        relation's value: equality and hashing ignore it).
        """
        return self._rows.items()

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, tup: object) -> bool:
        layers = None if self._flat is not None else self._layers()
        if layers is None:
            return tup in self._flat
        base, live, tombs, _rekeyed = layers
        return tup in live or (tup not in tombs and tup in base)

    def __iter__(self) -> Iterator[Tup]:
        return iter(self.support())

    def __eq__(self, other: object) -> bool:
        """Equality of K-relations: same semiring, schema, and annotation map."""
        if not isinstance(other, KRelation):
            return NotImplemented
        return (
            self.semiring is other.semiring
            and self.schema == other.schema
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash(
            (id(self.semiring), self.schema, frozenset(self._rows.items()))
        )

    # -- homomorphic images (h_Rel of Sections 2.1 / 3.2) ----------------------

    def apply_hom(self, hom: Homomorphism) -> "KRelation":
        """Apply ``h`` to every annotation and lift ``h^M`` over tensor values.

        Tuples whose annotation maps to ``0`` drop out of the support.
        Formally-distinct tuples whose symbolic values *coincide* after the
        homomorphism resolve them become **duplicates, which are ignored**
        (one representative is kept) — this is the merging discipline of
        the paper's commutation proofs for Section 4.3: each candidate
        tuple's annotation already carries the equality-weighted
        contributions of every tuple it might merge with, so merging
        candidates map to *equal* annotations and summing them would double
        count.  If surviving merged annotations disagree, the homomorphic
        image is genuinely ambiguous and :class:`SemiringError` is raised
        (this cannot happen for relations produced by the Section 4.3
        operators).

        Every annotation and tensor scalar is mapped in one
        :meth:`Homomorphism.map_many` call, which is where a homomorphism
        shares work between them (a valuation maps each distinct token and
        monomial once; a circuit result's evaluates its gates in one pass).
        """
        if hom.source is not self.semiring:
            raise SemiringError(
                f"homomorphism {hom.name} does not start at {self.semiring.name}"
            )
        batch, starts = self._scalars()
        images = hom.map_many(batch)
        target = hom.target
        mapped = {
            tensor: tensor._mapped(target, images[start:start + len(tensor._entries)])
            for tensor, start in starts.items()
        }

        is_zero = target.is_zero
        merged: Dict[Tup, Any] = {}
        for tup, image_ann in zip(self._rows, images):
            if is_zero(image_ann):
                continue
            if mapped:
                tup = Tup._from_sorted(tup._attrs, tuple(
                    mapped[v] if isinstance(v, Tensor) else v for v in tup._values
                ))
            if tup in merged and merged[tup] != image_ann:
                raise SemiringError(
                    f"ambiguous homomorphic image: tuples merging into "
                    f"{tup} carry distinct annotations "
                    f"{target.format(merged[tup])} vs {target.format(image_ann)}"
                )
            merged[tup] = image_ann
        return KRelation._from_clean(target, self.schema, merged)

    def _scalars(self) -> Tuple[List[Any], Dict[Tensor, int]]:
        """Everything a homomorphism maps, as one batch: every annotation,
        in row order, then the scalars of each distinct tensor value, in
        entry order, starting at the offset the tensor maps to.  Tensors
        are told apart by ``==``: of equal ones only the first met is
        mapped, and its image stands for all of them."""
        batch = list(self._rows.values())
        tensors: Dict[Tensor, int] = {}
        for tup in self._rows:
            for value in tup._values:
                if isinstance(value, Tensor) and value not in tensors:
                    tensors[value] = len(batch)
                    batch.extend(value._entries.values())
        return batch, tensors

    def negated(self) -> "KRelation":
        """The additive inverse ``-R`` (ring-annotated relations only).

        The deletion side of an incremental update: a delta batch
        ``dR = -S`` cancels ``S``'s annotations under ``∪`` (``R ∪ (-R)``
        is empty).  Requires the semiring to expose ``negate`` (``Z``);
        token-based semirings delete by zeroing tokens instead
        (:func:`repro.apps.deletion.propagate_deletions`).
        """
        negate = getattr(self.semiring, "negate", None)
        if negate is None:
            raise SemiringError(
                f"semiring {self.semiring.name} has no additive inverses; "
                "deletions need Z-annotations or token zeroing"
            )
        return self.map_annotations(self.semiring, negate)

    def map_annotations(
        self, semiring: Semiring, fn: Callable[[Any], Any]
    ) -> "KRelation":
        """Rebuild with annotations transformed by ``fn`` into ``semiring``.

        Lower-level than :meth:`apply_hom`: no lifting over values, no
        homomorphism checking.  Used by the evaluators to coerce plain
        ``K`` annotations into ``K^M``.
        """
        return KRelation(
            semiring, self.schema, [(t, fn(k)) for t, k in self._rows.items()]
        )

    # -- measures (poly-size experiments) ----------------------------------------

    def annotation_size(self) -> int:
        """Total representation size of all annotations (poly-size metric)."""
        total = 0
        for annotation in self._rows.values():
            if isinstance(annotation, Polynomial):
                total += annotation.size()
            else:
                total += 1
        return total

    def value_size(self) -> int:
        """Total representation size of all tensor values (poly-size metric)."""
        total = 0
        for tup in self._rows:
            for value in tup.values():
                if isinstance(value, Tensor):
                    total += value.size()
                    for k in value._entries.values():
                        if isinstance(k, Polynomial):
                            total += k.size()
                else:
                    total += 1
        return total

    # -- display --------------------------------------------------------------

    def pretty(self, *, max_rows: int | None = None) -> str:
        """Render as an aligned text table (annotation in the last column)."""
        headers = list(self.schema.attributes) + [f"@{self.semiring.name}"]
        rows = []
        for i, (tup, annotation) in enumerate(self.items()):
            if max_rows is not None and i >= max_rows:
                rows.append(["..."] * len(headers))
                break
            cells = [str(tup[a]) for a in self.schema.attributes]
            cells.append(self.semiring.format(annotation))
            rows.append(cells)
        widths = [
            max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
            for c in range(len(headers))
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for r in rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<KRelation {self.schema} over {self.semiring.name}, {len(self)} tuples>"
