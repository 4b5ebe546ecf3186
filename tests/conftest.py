"""Fixtures shared across the suite's directories."""

import pytest

from repro.semimodules.tensor import Tensor


def _typed(value):
    """``value`` beside its type, recursing into a tensor's entries."""
    if isinstance(value, Tensor):
        return Tensor, value.space, frozenset((_typed(m), _typed(k)) for m, k in value)
    return type(value), value


def _typed_contents(db):
    return {
        name: (rel.semiring, rel.schema.attributes,
               {tuple((a, _typed(v)) for a, v in t.items()): _typed(k)
                for t, k in rel.items()})
        for name, rel in db
    }


@pytest.fixture(scope="session")
def typed_contents():
    """A database's contents as comparable data: per relation, its
    semiring, schema and rows, every value and annotation beside its
    type.  ``==`` on relations equates ``3`` and ``3.0``; this does not,
    so a recovery that changes a stored value's type fails the
    comparison."""
    return _typed_contents
