"""Database tuples: immutable attribute-to-value mappings.

A tuple is a function ``t : U -> D`` (named perspective).  Values may be
ordinary constants (numbers, strings, booleans) or — in the outputs of
aggregation queries — :class:`~repro.semimodules.tensor.Tensor` elements of
``K (x) M``, the paper's ``(M, K)``-relations.  Tuples are hashable so that
relations can be finite maps ``tuple -> annotation``.
"""

from __future__ import annotations

from collections.abc import ItemsView
from functools import lru_cache
from typing import Any, Dict, Iterable, Iterator, Mapping, Tuple

from repro.core.schema import Schema
from repro.exceptions import SchemaError

__all__ = ["Tup"]


@lru_cache(maxsize=1024)
def _canonical_attrs(keys: Tuple[str, ...]) -> Tuple[str, ...]:
    """The sorted attribute names of a tuple built with ``keys`` in that order.

    Sorted once per key order instead of once per tuple, and one shared
    object for all the tuples of a relation instead of an allocation each:
    an operator's loop builds thousands of tuples over the same attributes.
    """
    return tuple(sorted(keys))


@lru_cache(maxsize=1024)
def _positions(attrs: Tuple[str, ...]) -> Dict[str, int]:
    """``attribute -> index`` for a sorted attribute tuple, one map shared
    by every tuple over those attributes: ``Tup.keys()`` is its key view."""
    return {attr: i for i, attr in enumerate(attrs)}


class _Items(ItemsView):
    """``Tup.items()``: an items view that iterates the two aligned tuples
    instead of looking every key up again."""

    __slots__ = ()

    def __iter__(self) -> Iterator[Tuple[str, Any]]:
        tup = self._mapping
        return zip(tup._attrs, tup._values)


class Tup(Mapping[str, Any]):
    """An immutable, hashable tuple over named attributes.

    The mapping reads go straight to the sorted attribute tuple and the
    aligned value tuple: ``keys()`` is a real key view (sized,
    re-iterable, ``in``, set operations), ``items()`` an items view,
    ``values()`` the value tuple itself.  ``t[a]`` is a ``tuple.index``:
    over the handful of attributes a tuple has it beats a dictionary
    lookup, which must first hash the attribute tuple.
    """

    __slots__ = ("_attrs", "_values", "_hash")

    def __init__(self, mapping: Mapping[str, Any] | Iterable[Tuple[str, Any]]):
        # only read here: a dict argument needs no copy
        items = mapping if type(mapping) is dict else dict(mapping)
        attrs = _canonical_attrs(tuple(items))
        self._attrs: Tuple[str, ...] = attrs
        self._values: Tuple[Any, ...] = tuple(map(items.__getitem__, attrs))
        self._hash = hash((self._attrs, self._values))

    @classmethod
    def _from_sorted(cls, attrs: Tuple[str, ...], values: Tuple[Any, ...]) -> "Tup":
        """Trusted constructor for the relation boundary: ``attrs`` is the
        *sorted* attribute tuple (one object shared by every row of a
        relation) and ``values`` is aligned with it — no dict, no sort."""
        self = cls.__new__(cls)
        self._attrs = attrs
        self._values = values
        self._hash = hash((attrs, values))
        return self

    @classmethod
    def from_values(cls, schema: Schema, values: Iterable[Any]) -> "Tup":
        """Build a tuple by position against ``schema``."""
        vals = tuple(values)
        if len(vals) != len(schema):
            raise SchemaError(
                f"{len(vals)} values supplied for schema {schema} of arity {len(schema)}"
            )
        return cls(dict(zip(schema.attributes, vals)))

    # -- mapping protocol ---------------------------------------------------

    def __getitem__(self, attr: str) -> Any:
        try:
            idx = self._attrs.index(attr)
        except ValueError:
            raise SchemaError(f"attribute {attr!r} not present in tuple {self}") from None
        return self._values[idx]

    def get(self, attr: str, default: Any = None) -> Any:
        try:
            return self._values[self._attrs.index(attr)]
        except ValueError:
            return default

    def __contains__(self, attr: object) -> bool:
        return attr in self._attrs

    def keys(self):
        return _positions(self._attrs).keys()

    def items(self) -> _Items:
        return _Items(self)

    def values(self) -> Tuple[Any, ...]:
        return self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._attrs)

    def __len__(self) -> int:
        return len(self._attrs)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tup):
            return NotImplemented
        return self._attrs == other._attrs and self._values == other._values

    # -- relational operations ------------------------------------------------

    def restrict(self, attrs: Iterable[str]) -> "Tup":
        """The restriction ``t|U'`` of the paper: keep only ``attrs``."""
        keep = set(attrs)
        return Tup({a: v for a, v in zip(self._attrs, self._values) if a in keep})

    def merge(self, other: "Tup") -> "Tup":
        """Combine two join-compatible tuples (shared attributes must agree).

        A shared attribute keeps ``self``'s value, as SQL's NATURAL JOIN
        coalesces: equal values may differ in type (``3`` and ``3.0``).
        """
        merged: Dict[str, Any] = dict(zip(self._attrs, self._values))
        for attr, value in zip(other._attrs, other._values):
            if attr not in merged:
                merged[attr] = value
            elif merged[attr] != value:
                raise SchemaError(
                    f"tuples disagree on {attr!r}: {merged[attr]!r} vs {value!r}"
                )
        return Tup(merged)

    def replace(self, **updates: Any) -> "Tup":
        """A copy with some attribute values replaced."""
        merged = dict(zip(self._attrs, self._values))
        for attr, value in updates.items():
            if attr not in merged:
                raise SchemaError(f"attribute {attr!r} not present in tuple {self}")
            merged[attr] = value
        return Tup(merged)

    def rename(self, mapping: Mapping[str, str]) -> "Tup":
        """Rename attributes (unknown keys ignored by design: partial maps)."""
        return Tup({mapping.get(a, a): v for a, v in zip(self._attrs, self._values)})

    def values_by(self, schema: Schema) -> Tuple[Any, ...]:
        """Values ordered by ``schema`` (for display and row export)."""
        return tuple(self[a] for a in schema.attributes)

    def __str__(self) -> str:
        inner = ", ".join(f"{a}={v}" for a, v in zip(self._attrs, self._values))
        return f"⟨{inner}⟩"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tup({dict(zip(self._attrs, self._values))!r})"
