"""Columnar batches: the physical-layer relation representation.

The logical layer (:class:`~repro.core.relation.KRelation`) is a finite
map ``Tup -> annotation``: every operator pays per-tuple :class:`Tup`
construction (attribute sorting, hashing) and the support is re-sorted on
every iteration.  That is the right representation for the *semantics* —
duplicates merge by construction — but far too heavy for execution.

:class:`ColumnarKRelation` is the representation the physical operators
exchange: one Python list per attribute plus a parallel annotation list.
Rows are *not* deduplicated; a batch may contain the same tuple several
times with separate annotations.  This is sound everywhere in the positive
algebra because every operator is multilinear in the annotations — joins
multiply per row and projections/unions sum — so deferring the ``+_K``
merge commutes with execution (distributivity).  The two places that are
*not* merge-oblivious consolidate explicitly: ``delta`` application
(:meth:`consolidate` first) and the final conversion back to a
:class:`KRelation` (:meth:`to_krelation`), where the constructor's
merge discipline restores the canonical finite map.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Tuple

from repro.core.relation import KRelation, merged_rows
from repro.core.schema import Schema
from repro.core.tuples import Tup
from repro.exceptions import SchemaError

__all__ = ["ColumnarKRelation"]


class ColumnarKRelation:
    """A batch of annotated rows stored column-wise.

    ``columns`` maps every schema attribute to a list of values;
    ``annotations`` is the parallel list of semiring elements.  All lists
    share one length.  Treated as immutable by the physical operators
    (every operator allocates fresh output lists).
    """

    #: ``_plain_cols`` memoizes which columns have passed the plain-value
    #: (no symbolic tensor) guard: batches are immutable, so a column
    #: checked once stays checked — repeated executions of a prepared plan
    #: (and every IVM apply probing a cached build batch) skip the O(rows)
    #: re-scan.  ``_key_rows`` memoizes :meth:`key_rows` per attribute
    #: tuple for the same reason (join probes and consolidation re-key the
    #: same cached batches on every execution).
    __slots__ = (
        "semiring",
        "schema",
        "columns",
        "annotations",
        "_plain_cols",
        "_key_rows",
    )

    def __init__(
        self,
        semiring,
        schema: Schema | Iterable[str],
        columns: Dict[str, List[Any]],
        annotations: List[Any],
    ):
        self._plain_cols: set = set()
        self._key_rows: Dict[Tuple[str, ...], List[Tuple[Any, ...]]] = {}
        self.semiring = semiring
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        if set(columns) != set(self.schema.attributes):
            raise SchemaError(
                f"columns {sorted(columns)} do not match schema {self.schema}"
            )
        n = len(annotations)
        for attr, column in columns.items():
            if len(column) != n:
                raise SchemaError(
                    f"column {attr!r} has {len(column)} values for {n} annotations"
                )
        self.columns = columns
        self.annotations = annotations

    @classmethod
    def _from_clean(
        cls,
        semiring,
        schema: Schema,
        columns: Dict[str, List[Any]],
        annotations: List[Any],
    ) -> "ColumnarKRelation":
        """Trusted constructor for operator-internal outputs.

        Skips the schema/length revalidation of ``__init__`` — sound only
        when the caller just built ``columns`` *from* ``schema`` with
        equal-length lists (every physical operator does).  ``schema``
        must already be a :class:`Schema`.
        """
        self = cls.__new__(cls)
        self._plain_cols = set()
        self._key_rows = {}
        self.semiring = semiring
        self.schema = schema
        self.columns = columns
        self.annotations = annotations
        return self

    # -- conversions ---------------------------------------------------------

    @classmethod
    def from_krelation(cls, rel: KRelation) -> "ColumnarKRelation":
        """Decompose a logical relation into columns (support order is
        irrelevant at the physical layer, so the unsorted row map is used).

        Every :class:`Tup` stores its values aligned with its *sorted*
        attribute names, and all rows of a relation share one attribute
        set, so one per-relation permutation says where each column sits
        in every row and a column is one C-level ``map`` over the rows.
        (``zip(*rows)`` would allocate one tracked iterator per row — at
        200k rows the collector runs it 10x slower than this.)
        """
        stored = rel._rows
        values = [tup._values for tup in stored]
        place = {a: i for i, a in enumerate(sorted(rel.schema.attributes))}
        columns = {
            a: list(map(itemgetter(place[a]), values))
            for a in rel.schema.attributes
        }
        return cls._from_clean(
            rel.semiring, rel.schema, columns, list(stored.values())
        )

    def to_krelation(self) -> KRelation:
        """Rebuild the logical finite map: duplicate rows merge with ``+_K``
        and zero annotations drop, exactly as in the :class:`KRelation`
        constructor.  A batch's columns *are* its schema, so the rows go
        through the trusted constructors, unchecked."""
        attrs = tuple(sorted(self.schema.attributes))
        tups = map(Tup._from_sorted, repeat(attrs), self.key_rows(attrs))
        rows = merged_rows(self.semiring, zip(tups, self.annotations))
        return KRelation._from_clean(self.semiring, self.schema, rows)

    @classmethod
    def empty(cls, semiring, schema: Schema | Iterable[str]) -> "ColumnarKRelation":
        schema = schema if isinstance(schema, Schema) else Schema(schema)
        return cls._from_clean(
            semiring, schema, {a: [] for a in schema.attributes}, []
        )

    @classmethod
    def from_value_rows(
        cls,
        semiring,
        schema: Schema,
        rows: Iterable[Tuple[Tuple[Any, ...], Any]],
    ) -> "ColumnarKRelation":
        """Build a batch from ``(value-tuple, annotation)`` pairs.

        Value tuples follow ``schema`` attribute order; duplicate rows are
        merged with ``+_K``.  The shared merge-and-rebuild step behind
        :meth:`consolidate` and the projection operator.

        Duplicates accumulate into per-row lists merged by one
        ``sum_many`` each, so a k-way collision costs one fused reduction
        instead of k-1 intermediate annotations (the unique-row fast path
        stays list-free).
        """
        merged: Dict[Tuple[Any, ...], Any] = {}
        for values, annotation in rows:
            if values in merged:
                bucket = merged[values]
                if type(bucket) is list:
                    bucket.append(annotation)
                else:
                    merged[values] = [bucket, annotation]
            else:
                merged[values] = annotation
        attrs = schema.attributes
        sum_many = semiring.sum_many
        columns: Dict[str, List[Any]] = {a: [] for a in attrs}
        annotations: List[Any] = []
        appenders = [columns[a].append for a in attrs]
        for values, bucket in merged.items():
            for append, value in zip(appenders, values):
                append(value)
            annotations.append(
                sum_many(bucket) if type(bucket) is list else bucket
            )
        return cls._from_clean(semiring, schema, columns, annotations)

    # -- row access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.annotations)

    def column(self, attr: str) -> List[Any]:
        try:
            return self.columns[attr]
        except KeyError:
            raise SchemaError(
                f"attribute {attr!r} not in schema {self.schema}"
            ) from None

    def key_rows(self, attrs: Tuple[str, ...]) -> List[Tuple[Any, ...]]:
        """The rows restricted to ``attrs``, as plain value tuples.

        The physical layer's replacement for per-row ``Tup.restrict``: a
        single C-level ``zip`` over the key columns, memoized per
        attribute tuple (batches are immutable, and join probes /
        consolidation re-key the same cached batches on every plan
        execution and IVM apply).
        """
        attrs = tuple(attrs)
        memo = self._key_rows
        rows = memo.get(attrs)
        if rows is None:
            if not attrs:
                rows = [()] * len(self.annotations)
            else:
                rows = list(zip(*(self.column(a) for a in attrs)))
            memo[attrs] = rows
        return rows

    # -- normalisation -------------------------------------------------------

    def consolidate(self) -> "ColumnarKRelation":
        """Merge duplicate rows with ``+_K`` (needed before non-linear maps
        such as ``delta``, which do not distribute over ``+``)."""
        return ColumnarKRelation.from_value_rows(
            self.semiring,
            self.schema,
            zip(self.key_rows(self.schema.attributes), self.annotations),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ColumnarKRelation {self.schema} over {self.semiring.name}, "
            f"{len(self)} rows>"
        )
