"""Request/response JSON schema for the provenance query service.

The wire format is deliberately plain JSON so ``curl`` is a first-class
client.  One relation is::

    {"columns": ["Dept", "Sal"],
     "rows": [{"values": ["d1", 20], "annotation": 1}, ...]}

Annotations travel as JSON scalars for concrete semirings (``N``/``Z``
ints, ``B`` bools, tropical floats) and as strings for symbolic ones —
polynomial strings are parsed back through
:func:`repro.semirings.parsing.parse_polynomial` on the way in and
rendered with ``str()`` on the way out, so a provenance round-trip is
lossless.  Values that are not JSON scalars (symbolic aggregates,
tensors) are rendered with ``str()`` on output; they are display-only.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter, ne
from typing import Any, Dict, List, Mapping

from repro.core.database import KDatabase
from repro.core.relation import KRelation
from repro.exceptions import ReproError
from repro.semimodules import compatibility
from repro.semimodules.tensor import Tensor
from repro.semirings.base import Semiring
from repro.semirings.polynomials import PolynomialSemiring

__all__ = [
    "BadRequest",
    "parse_query_request",
    "relation_from_json",
    "deltas_from_json",
    "relation_to_json",
]

_ENGINES = ("planned", "interpreted")
_MODES = ("standard", "extended")
_ANNOTATIONS = ("expanded", "circuit")

_JSON_SCALARS = (str, int, float, bool, type(None))
_JSON_SCALAR_TYPES = frozenset(_JSON_SCALARS)


class BadRequest(Exception):
    """Malformed request payload (HTTP 400)."""


def _require(payload: Mapping[str, Any], key: str, types, context: str) -> Any:
    try:
        value = payload[key]
    except (KeyError, TypeError):
        raise BadRequest(f"{context}: missing required field {key!r}") from None
    if not isinstance(value, types):
        raise BadRequest(
            f"{context}: field {key!r} must be "
            f"{getattr(types, '__name__', types)}, got {type(value).__name__}"
        )
    return value


def _choice(payload: Mapping[str, Any], key: str, options, default: str) -> str:
    value = payload.get(key, default)
    if value not in options:
        raise BadRequest(f"field {key!r} must be one of {options}, got {value!r}")
    return value


def parse_query_request(payload: Any) -> Dict[str, Any]:
    """Validate a ``POST /query`` body into evaluation keywords.

    ``timeout_ms`` (optional, positive number) becomes the request's
    cooperative deadline; the ``x-timeout-ms`` header is the transport
    equivalent and takes precedence at the dispatch layer.
    """
    if not isinstance(payload, Mapping):
        raise BadRequest("query request body must be a JSON object")
    timeout_ms = payload.get("timeout_ms")
    if timeout_ms is not None:
        if isinstance(timeout_ms, bool) or not isinstance(timeout_ms, (int, float)):
            raise BadRequest("query request: 'timeout_ms' must be a number")
        if timeout_ms <= 0:
            raise BadRequest("query request: 'timeout_ms' must be positive")
    analyze = payload.get("analyze", False)
    if not isinstance(analyze, bool):
        raise BadRequest("query request: 'analyze' must be a boolean")
    return {
        "sql": _require(payload, "sql", str, "query request"),
        "engine": _choice(payload, "engine", _ENGINES, "planned"),
        "mode": _choice(payload, "mode", _MODES, "standard"),
        "annotations": _choice(payload, "annotations", _ANNOTATIONS, "expanded"),
        "timeout_ms": timeout_ms,
        "analyze": analyze,
    }


def _decode_annotation(semiring: Semiring, raw: Any):
    """Lift a JSON annotation into ``semiring`` (strings parse as polynomials)."""
    if isinstance(raw, str) and isinstance(semiring, PolynomialSemiring):
        from repro.semirings.parsing import parse_polynomial

        try:
            return parse_polynomial(raw, semiring)
        except ReproError as exc:
            raise BadRequest(f"bad polynomial annotation {raw!r}: {exc}") from None
    if semiring.contains(raw):
        return raw
    if isinstance(raw, int) and not isinstance(raw, bool):
        try:
            return semiring.from_int(raw)
        except ReproError:
            pass
    raise BadRequest(
        f"annotation {raw!r} is not an element of semiring {semiring.name}"
    )


def _rows_in_bulk(semiring: Semiring, rows: List[Any], arity: int):
    """The ``(values, annotation)`` pairs of well-formed wire rows, checked
    by whole-payload passes, or ``None`` if any check fails.

    Each pass runs over every row at once (a type set, a length set, a
    ``v != v`` NaN scan where a float occurs) and each distinct
    annotation decodes once, so a well-formed payload pays no per-row
    check before :meth:`KRelation.from_rows`.  The passes reject
    everything the per-row checks of :func:`_rows_one_by_one` reject
    (and, being exact-type tests, a few payloads those accept); the
    caller re-runs those on ``None``, which names the first bad row or
    accepts the payload.
    """
    if not rows:
        return []
    if set(map(type, rows)) != {dict}:
        return None
    try:
        values = list(map(itemgetter("values"), rows))
    except KeyError:
        return None
    if set(map(type, values)) != {list} or set(map(len, values)) != {arity}:
        return None
    flat = chain.from_iterable
    kinds = set(map(type, flat(values)))
    if not kinds <= _JSON_SCALAR_TYPES:
        return None
    # NaN is the one JSON scalar unequal to itself
    if float in kinds and any(map(ne, flat(values), flat(values))):
        return None
    raws = [row.get("annotation", 1) for row in rows]
    kinds = set(map(type, raws))
    if float in kinds and any(map(ne, raws, raws)):
        return None
    try:
        if len(kinds) == 1 and kinds <= _JSON_SCALAR_TYPES:
            # decoded per distinct value (one type, so 1, 1.0 and True
            # never share an entry); most semirings keep the raw value
            decoded = {raw: _decode_annotation(semiring, raw) for raw in set(raws)}
            if any(k is not raw for raw, k in decoded.items()):
                raws = list(map(decoded.__getitem__, raws))
        else:
            raws = [_decode_annotation(semiring, raw) for raw in raws]
    except BadRequest:
        return None
    return zip(values, raws)


def _rows_one_by_one(semiring: Semiring, rows: List[Any], arity: int, context: str):
    """The per-row checks: raise :class:`BadRequest` naming the first bad
    row, or return the ``(values, annotation)`` pairs."""
    pairs = []
    for i, row in enumerate(rows):
        if not isinstance(row, Mapping):
            raise BadRequest(f"{context}: row {i} must be an object")
        values = _require(row, "values", list, f"{context} row {i}")
        if len(values) != arity:
            raise BadRequest(
                f"{context}: row {i} has {len(values)} values for "
                f"{arity} columns"
            )
        raw = row.get("annotation", 1)
        for value in values:
            if not isinstance(value, _JSON_SCALARS):
                raise BadRequest(
                    f"{context}: row {i} value {value!r} is not a JSON scalar"
                )
            # NaN equals nothing (a Tup holding it equals no Tup) and makes
            # MIN/MAX depend on order; json.loads accepts the literal
            if value != value:
                raise BadRequest(f"{context}: row {i} has a NaN value")
        if raw != raw:
            raise BadRequest(f"{context}: row {i} has a NaN annotation")
        pairs.append((values, _decode_annotation(semiring, raw)))
    return pairs


def relation_from_json(semiring: Semiring, payload: Any, context: str) -> KRelation:
    """Build a :class:`KRelation` from the wire format.

    The rows are checked in bulk and built by one
    :meth:`KRelation.from_rows`; only a payload the bulk passes reject is
    walked row by row, to name its first bad row.
    """
    if not isinstance(payload, Mapping):
        raise BadRequest(f"{context}: relation must be a JSON object")
    columns = _require(payload, "columns", list, context)
    if not columns or not all(isinstance(c, str) for c in columns):
        raise BadRequest(f"{context}: 'columns' must be a non-empty string list")
    rows_payload = _require(payload, "rows", list, context)
    rows = _rows_in_bulk(semiring, rows_payload, len(columns))
    if rows is None:
        rows = _rows_one_by_one(semiring, rows_payload, len(columns), context)
    try:
        return KRelation.from_rows(semiring, columns, rows)
    except ReproError as exc:
        raise BadRequest(f"{context}: {exc}") from None


def deltas_from_json(db: KDatabase, payload: Any) -> Dict[str, KRelation]:
    """Build the ``name -> delta`` dict of a ``POST /update`` body.

    Columns may be omitted per delta, defaulting to the base relation's
    schema order — the common case for insert streams.
    """
    if not isinstance(payload, Mapping):
        raise BadRequest("update request body must be a JSON object")
    relations = _require(payload, "relations", Mapping, "update request")
    if not relations:
        raise BadRequest("update request: 'relations' must not be empty")
    deltas = {}
    for name, spec in relations.items():
        if isinstance(spec, Mapping) and "columns" not in spec and name in db:
            spec = dict(spec)
            spec["columns"] = list(db.relation(name).schema.attributes)
        deltas[name] = relation_from_json(db.semiring, spec, f"delta for {name!r}")
    return deltas


def _json_value(value: Any) -> Any:
    if type(value) in _JSON_SCALAR_TYPES or isinstance(value, _JSON_SCALARS):
        return value
    if isinstance(value, Tensor):
        # aggregate values are provenance-aware tensors; when a readback
        # witness exists (Prop. 3.9 / Thms. 3.12-3.13) clients get the
        # plain aggregate (e.g. 45 for a bag SUM), otherwise the symbolic
        # rendering
        try:
            plain = compatibility.readback(value)
            if isinstance(plain, _JSON_SCALARS):
                return plain
        except ReproError:
            pass
    return str(value)


def relation_to_json(rel: KRelation) -> Dict[str, Any]:
    """Render a result relation in the wire format.

    Each value is rendered once (a tensor reads back once and is never
    stringified when it has a plain readback).  Rows sort on the text
    :meth:`KRelation.items` sorts on — ``str(tup)`` — taken over the
    *rendered* values, so a plain-valued result keeps the support order
    and aggregate rows order by the value the client sees.
    """
    columns: List[str] = list(rel.schema.attributes)
    stored = sorted(columns)  # a Tup holds its values in sorted-attribute order
    places = [stored.index(c) for c in columns]
    keyed = []
    for tup, annotation in rel.rows():
        values = [_json_value(v) for v in tup._values]
        text = ", ".join(f"{a}={v}" for a, v in zip(stored, values))
        row = {
            "values": [values[i] for i in places],
            "annotation": _json_value(annotation),
        }
        keyed.append((f"⟨{text}⟩", row))
    keyed.sort(key=itemgetter(0))
    rows = [row for _text, row in keyed]
    return {
        "semiring": rel.semiring.name,
        "columns": columns,
        "rows": rows,
        "rowcount": len(rows),
    }
