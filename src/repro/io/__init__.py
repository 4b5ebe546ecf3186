"""Persistence: lossless JSON round-tripping for K-relations."""

from repro.io.serialize import (
    MONOID_REGISTRY,
    SEMIRING_REGISTRY,
    SerializationError,
    annotation_from_jsonable,
    annotation_to_jsonable,
    database_from_jsonable,
    database_to_jsonable,
    dumps,
    loads,
    relation_from_jsonable,
    relation_to_jsonable,
    tensor_from_jsonable,
    tensor_to_jsonable,
)

__all__ = [
    "dumps", "loads", "SerializationError",
    "annotation_to_jsonable", "annotation_from_jsonable",
    "tensor_to_jsonable", "tensor_from_jsonable",
    "relation_to_jsonable", "relation_from_jsonable",
    "database_to_jsonable", "database_from_jsonable",
    "SEMIRING_REGISTRY", "MONOID_REGISTRY",
]
