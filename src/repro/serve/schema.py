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

from operator import itemgetter
from typing import Any, Dict, List, Mapping

from repro.core.database import KDatabase
from repro.core.relation import KRelation
from repro.exceptions import ReproError
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


def relation_from_json(semiring: Semiring, payload: Any, context: str) -> KRelation:
    """Build a :class:`KRelation` from the wire format."""
    if not isinstance(payload, Mapping):
        raise BadRequest(f"{context}: relation must be a JSON object")
    columns = _require(payload, "columns", list, context)
    if not columns or not all(isinstance(c, str) for c in columns):
        raise BadRequest(f"{context}: 'columns' must be a non-empty string list")
    rows_payload = _require(payload, "rows", list, context)
    rows = []
    for i, row in enumerate(rows_payload):
        if not isinstance(row, Mapping):
            raise BadRequest(f"{context}: row {i} must be an object")
        values = _require(row, "values", list, f"{context} row {i}")
        if len(values) != len(columns):
            raise BadRequest(
                f"{context}: row {i} has {len(values)} values for "
                f"{len(columns)} columns"
            )
        for value in values:
            if not isinstance(value, _JSON_SCALARS):
                raise BadRequest(
                    f"{context}: row {i} value {value!r} is not a JSON scalar"
                )
        annotation = _decode_annotation(semiring, row.get("annotation", 1))
        rows.append((tuple(values), annotation))
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
    if isinstance(value, _JSON_SCALARS):
        return value
    from repro.semimodules.tensor import Tensor

    if isinstance(value, Tensor):
        # aggregate values are provenance-aware tensors; when a readback
        # witness exists (Prop. 3.9 / Thms. 3.12-3.13) clients get the
        # plain aggregate (e.g. 45 for a bag SUM), otherwise the symbolic
        # rendering
        from repro.exceptions import ReproError
        from repro.semimodules.compatibility import readback

        try:
            plain = readback(value)
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
