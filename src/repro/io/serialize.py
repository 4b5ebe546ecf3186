"""JSON (de)serialisation for annotations, tensors, relations, databases.

Storing provenance is the whole point of the framework — "storing
provenance polynomials allows for many other practical applications" — so
results must round-trip to disk.  The format is plain JSON-able Python
structures with explicit semiring/monoid names resolved through
registries; symbolic structures (polynomials with delta-terms) are
supported, equality/comparison atoms are not (they reference live tensor
spaces; resolve them before persisting, as a production system would).

A relation is stored as one record, one list per attribute, in storage
order — ``{"semiring", "schema", "columns": [[...], ...], "annotations":
[...]}`` — written and read by whole-column passes and rebuilt by one
:meth:`KRelation.from_rows`.  WAL records and checkpoints
(:mod:`repro.wal`, which frames and checksums them) and :func:`dumps`
all hold it.  :func:`write_atomic` and :func:`fsync_dir` are the
crash-safe file primitives the checkpoint writer uses.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from operator import attrgetter
from typing import Any, Dict

from repro.core.relation import KRelation
from repro.core.database import KDatabase
from repro.exceptions import ReproError
from repro.monoids.base import CommutativeMonoid
from repro.monoids.boolmonoid import ALL, BHAT
from repro.monoids.counting import AVG, AvgPair
from repro.monoids.numeric import MAX, MIN, PROD, SUM
from repro.semimodules.tensor import Tensor, tensor_space
from repro.semirings.base import Semiring
from repro.semirings.boolean import BOOL
from repro.semirings.delta import DeltaTerm
from repro.semirings.fuzzy import FUZZY
from repro.semirings.integers import INT
from repro.semirings.natural import NAT
from repro.semirings.polynomials import NX, ZX, Monomial, Polynomial
from repro.semirings.security import SEC, SecurityLevel
from repro.semirings.security_bag import SECBAG, SecurityBagValue
from repro.semirings.tropical import TROPICAL

__all__ = [
    "SEMIRING_REGISTRY",
    "MONOID_REGISTRY",
    "SerializationError",
    "annotation_to_jsonable",
    "annotation_from_jsonable",
    "tensor_to_jsonable",
    "tensor_from_jsonable",
    "relation_to_jsonable",
    "relation_from_jsonable",
    "record_rows",
    "database_to_jsonable",
    "database_from_jsonable",
    "dumps",
    "loads",
    "write_atomic",
    "fsync_dir",
]


class SerializationError(ReproError):
    """A value cannot be (de)serialised."""


SEMIRING_REGISTRY: Dict[str, Semiring] = {
    s.name: s for s in (BOOL, NAT, INT, SEC, SECBAG, TROPICAL, FUZZY, NX, ZX)
}

MONOID_REGISTRY: Dict[str, CommutativeMonoid] = {
    m.name: m for m in (SUM, PROD, MIN, MAX, BHAT, ALL, AVG)
}


# ---------------------------------------------------------------------------
# annotations
# ---------------------------------------------------------------------------


def annotation_to_jsonable(semiring: Semiring, value: Any) -> Any:
    """Encode one annotation of ``semiring`` as JSON-able data."""
    if semiring is BOOL:
        return bool(value)
    if semiring in (NAT, INT):
        return int(value)
    if semiring in (TROPICAL, FUZZY):
        return "inf" if isinstance(value, float) and math.isinf(value) else float(value)
    if semiring is SEC:
        return value.name
    if semiring is SECBAG:
        return {level.name: count for level, count in value.items()}
    if semiring in (NX, ZX):
        return _polynomial_to_jsonable(value)
    raise SerializationError(f"no serialiser for semiring {semiring.name}")


def annotation_from_jsonable(semiring: Semiring, data: Any) -> Any:
    """Decode one annotation of ``semiring``."""
    if semiring is BOOL:
        return bool(data)
    if semiring in (NAT, INT):
        return int(data)
    if semiring in (TROPICAL, FUZZY):
        return math.inf if data == "inf" else float(data)
    if semiring is SEC:
        return SecurityLevel[data]
    if semiring is SECBAG:
        return SecurityBagValue({SecurityLevel[k]: v for k, v in data.items()})
    if semiring in (NX, ZX):
        return _polynomial_from_jsonable(semiring, data)
    raise SerializationError(f"no deserialiser for semiring {semiring.name}")


def _variable_to_jsonable(var: Any) -> Any:
    if isinstance(var, str):
        return var
    if isinstance(var, DeltaTerm):
        return {"__delta__": _polynomial_to_jsonable(var.argument)}
    raise SerializationError(
        f"indeterminate {var!r} is not serialisable (resolve equality atoms "
        "before persisting)"
    )


def _variable_from_jsonable(semiring: Any, data: Any) -> Any:
    if isinstance(data, str):
        return data
    if isinstance(data, dict) and "__delta__" in data:
        return DeltaTerm(_polynomial_from_jsonable(semiring, data["__delta__"]))
    raise SerializationError(f"unknown indeterminate encoding {data!r}")


def _polynomial_to_jsonable(poly: Polynomial) -> Any:
    terms = []
    for mono, coeff in poly.terms():
        terms.append(
            {
                "coeff": int(coeff),
                "monomial": [[_variable_to_jsonable(v), e] for v, e in mono],
            }
        )
    return {"__poly__": terms}


def _polynomial_from_jsonable(semiring: Any, data: Any) -> Polynomial:
    if not (isinstance(data, dict) and "__poly__" in data):
        raise SerializationError(f"not a polynomial encoding: {data!r}")
    total = semiring.zero
    for term in data["__poly__"]:
        mono = Monomial(
            {
                _variable_from_jsonable(semiring, v): e
                for v, e in term["monomial"]
            }
        )
        total = semiring.plus(
            total,
            Polynomial(semiring, {mono: semiring.coefficients.from_int(term["coeff"])})
            if term["coeff"] >= 0
            else Polynomial(semiring, {mono: term["coeff"]}),
        )
    return total


# ---------------------------------------------------------------------------
# tensors and tuples
# ---------------------------------------------------------------------------


def _monoid_value_to_jsonable(monoid: CommutativeMonoid, value: Any) -> Any:
    if monoid is AVG:
        return {"total": value.total, "count": value.count}
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _monoid_value_from_jsonable(monoid: CommutativeMonoid, data: Any) -> Any:
    if monoid is AVG:
        return AvgPair(data["total"], data["count"])
    if data == "inf":
        return math.inf
    if data == "-inf":
        return -math.inf
    return data


def tensor_to_jsonable(tensor: Tensor) -> Any:
    """Encode a ``K (x) M`` tensor value."""
    space = tensor.space
    if space.semiring.name not in SEMIRING_REGISTRY:
        raise SerializationError(f"unregistered semiring {space.semiring.name}")
    if space.monoid.name not in MONOID_REGISTRY:
        raise SerializationError(f"unregistered monoid {space.monoid.name}")
    return {
        "__tensor__": {
            "semiring": space.semiring.name,
            "monoid": space.monoid.name,
            "items": [
                [
                    _monoid_value_to_jsonable(space.monoid, m),
                    annotation_to_jsonable(space.semiring, k),
                ]
                for m, k in tensor
            ],
        }
    }


def tensor_from_jsonable(data: Any) -> Tensor:
    """Decode a tensor value."""
    body = data["__tensor__"]
    semiring = SEMIRING_REGISTRY[body["semiring"]]
    monoid = MONOID_REGISTRY[body["monoid"]]
    space = tensor_space(semiring, monoid)
    return space.sum(
        space.simple(
            annotation_from_jsonable(semiring, k),
            _monoid_value_from_jsonable(monoid, m),
        )
        for m, k in body["items"]
    )


def _value_to_jsonable(value: Any) -> Any:
    if isinstance(value, Tensor):
        return tensor_to_jsonable(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise SerializationError(f"attribute value {value!r} is not serialisable")


def _value_from_jsonable(data: Any) -> Any:
    if isinstance(data, dict) and "__tensor__" in data:
        return tensor_from_jsonable(data)
    return data


# ---------------------------------------------------------------------------
# relations and databases
# ---------------------------------------------------------------------------


#: Values JSON emits verbatim — exact ``type`` membership, not
#: ``isinstance``, so a column of them is passed through without a
#: per-value check.
_PLAIN_VALUE_TYPES = frozenset([str, int, float, bool, type(None)])
_TUP_VALUES = attrgetter("_values")

#: Annotation types each semiring stores verbatim in a record (the
#: types :func:`annotation_to_jsonable` and
#: :func:`annotation_from_jsonable` return unchanged).
_VERBATIM_ANNOTATIONS = {
    BOOL: frozenset([bool]),
    NAT: frozenset([int]),
    INT: frozenset([int]),
    TROPICAL: frozenset([float]),
    FUZZY: frozenset([float]),
}


def _column_to_jsonable(column) -> list:
    if set(map(type, column)) <= _PLAIN_VALUE_TYPES:
        return list(column)
    return [_value_to_jsonable(v) for v in column]


def _column_from_jsonable(column) -> list:
    if dict not in set(map(type, column)):
        return column
    return [_value_from_jsonable(v) for v in column]


def _annotations_to_jsonable(semiring: Semiring, annotations) -> list:
    annotations = list(annotations)
    verbatim = _VERBATIM_ANNOTATIONS.get(semiring, frozenset())
    if set(map(type, annotations)) <= verbatim and not (
        float in verbatim and any(map(math.isinf, annotations))
    ):
        return annotations
    return [annotation_to_jsonable(semiring, k) for k in annotations]


def _annotations_from_jsonable(semiring: Semiring, data: list) -> list:
    if set(map(type, data)) <= _VERBATIM_ANNOTATIONS.get(semiring, frozenset()):
        return data
    return [annotation_from_jsonable(semiring, k) for k in data]


def relation_to_jsonable(rel: KRelation) -> Any:
    """Encode a whole K-relation as one record, one list per attribute::

        {"semiring": "N", "schema": ["A", "B"],
         "columns": [[a1, a2, ...], [b1, b2, ...]], "annotations": [k1, k2, ...]}

    Rows are in storage order (:meth:`KRelation.rows`): decoding is
    order-insensitive, since duplicate rows merge with ``+_K``.  A column
    of plain values, and an annotation list a semiring stores verbatim
    (``N``, ``Z``, ``B``, tropical), are copied without a per-value step.
    """
    semiring = rel.semiring
    if semiring.name not in SEMIRING_REGISTRY:
        raise SerializationError(f"unregistered semiring {semiring.name}")
    attrs = rel.schema.attributes
    rows = rel._rows
    # a Tup stores its values in sorted-attribute order
    stored = list(zip(*map(_TUP_VALUES, rows))) if rows else [()] * len(attrs)
    place = {a: i for i, a in enumerate(sorted(attrs))}
    return {
        "semiring": semiring.name,
        "schema": list(attrs),
        "columns": [_column_to_jsonable(stored[place[a]]) for a in attrs],
        "annotations": _annotations_to_jsonable(semiring, rows.values()),
    }


def record_rows(data: Any):
    """The ``(values, annotation)`` rows of a column record written by
    :func:`relation_to_jsonable`."""
    semiring = SEMIRING_REGISTRY[data["semiring"]]
    columns = list(map(_column_from_jsonable, data["columns"]))
    annotations = _annotations_from_jsonable(semiring, data["annotations"])
    if len(columns) != len(data["schema"]) or any(
        len(c) != len(annotations) for c in columns
    ):
        raise SerializationError(
            f"record of {len(data['schema'])} attributes holds "
            f"{len(columns)} columns of lengths {sorted(set(map(len, columns)))} "
            f"for {len(annotations)} annotations"
        )
    values = zip(*columns) if columns else [()] * len(annotations)
    return list(zip(values, annotations))


def relation_from_jsonable(data: Any) -> KRelation:
    """Decode a K-relation record (see :func:`record_rows`)."""
    semiring = SEMIRING_REGISTRY[data["semiring"]]
    return KRelation.from_rows(semiring, data["schema"], record_rows(data))


def database_to_jsonable(db: KDatabase) -> Any:
    """Encode a whole database."""
    return {
        "semiring": db.semiring.name,
        "relations": {name: relation_to_jsonable(rel) for name, rel in db},
    }


def database_from_jsonable(data: Any) -> KDatabase:
    """Decode a database."""
    semiring = SEMIRING_REGISTRY[data["semiring"]]
    db = KDatabase(semiring)
    for name, rel in data["relations"].items():
        db.add(name, relation_from_jsonable(rel))
    return db


def dumps(obj: Any, **json_kwargs: Any) -> str:
    """Serialise a relation or a database to JSON."""
    if isinstance(obj, KRelation):
        payload = {"kind": "relation", "data": relation_to_jsonable(obj)}
    elif isinstance(obj, KDatabase):
        payload = {"kind": "database", "data": database_to_jsonable(obj)}
    else:
        raise SerializationError(f"cannot serialise {type(obj).__name__}")
    return json.dumps(payload, **json_kwargs)


def loads(text: str) -> Any:
    """Deserialise the output of :func:`dumps`: a relation or a database.

    Any text that is not such an output — not JSON, not an object, an
    unknown kind, a missing or mistyped field — raises
    :class:`SerializationError`.
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise SerializationError(f"payload is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SerializationError(
            f"payload is a JSON {type(payload).__name__}, not an object"
        )
    kind = payload.get("kind")
    decode = _DECODERS.get(kind) if isinstance(kind, str) else None
    if decode is None:
        raise SerializationError(f"unknown payload kind {kind!r}")
    try:
        return decode(payload["data"])
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed {kind} payload: {exc!r}") from exc


_DECODERS = {
    "relation": relation_from_jsonable,
    "database": database_from_jsonable,
}


# ---------------------------------------------------------------------------
# crash-safe files
# ---------------------------------------------------------------------------


def write_atomic(path: str, data: bytes, *, fault_point: "str | None" = None) -> None:
    """Replace ``path`` by ``data`` crash-safely: a temp file in the
    destination directory, flushed and fsynced, ``os.replace``d over
    ``path`` (atomic on POSIX), then the directory fsynced so the rename
    itself survives a power cut.

    ``fault_point`` names a :mod:`repro.faults` point fired between the
    fsync and the rename: the chaos suite truncates the temp file there
    and the rename still happens, modelling a torn write that *looks*
    installed (the checkpoint reader must detect it by its frame).
    """
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if fault_point is not None:
            from repro import faults  # local: io must import without faults armed

            recipe = faults.should_fire(fault_point, path=path)
            if recipe is not None:
                keep = recipe.get("keep")
                if keep is None:
                    keep = recipe["rng"].randrange(len(data))
                with open(tmp_path, "r+b") as handle:
                    handle.truncate(int(keep))
                    handle.flush()
                    os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    fsync_dir(directory)


def fsync_dir(directory: str) -> None:
    """Make the directory's entries (a created or renamed name) durable."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. non-POSIX
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
