"""Materialised-view head state: one ``GB`` state for every head.

The delta rules of :mod:`repro.ivm.delta` stop at the SPJU core — the
aggregation *head* of a view is not linear, so it is maintained
statefully instead.  In the paper every head is a ``GB`` (Definition
3.7): ``AGG_M`` is one group over the empty key, annotated ``1_K`` and
valued ``ι(0_M)`` on empty input (Section 3.2); COUNT(*) is SUM over the
constant 1 (footnote 6); DISTINCT is ``δ`` of a per-tuple sum.  So one
:class:`HeadState` keeps, per key, the tensors of the aggregated
attributes and the raw annotation total, and differs by kind only in
its :class:`~repro.plan.physical.GroupShape` — the planner's own: key,
monoids and emission rule (:func:`~repro.plan.physical.emitted`):

============  ===============  ==================================  ==============
kind          key              aggregated attributes               emission
============  ===============  ==================================  ==============
``group``     ``U'``           ``U''``; COUNT(*) as SUM over 1     ``"delta"``
``distinct``  the whole tuple  none                                ``"delta"``
``relation``  the whole tuple  none                                ``"raw"``
``agg``       ``()``           the column, over ``M``              ``"one"``
``count``     ``()``           SUM over the constant 1             ``"one"``
``avg``       ``()``           the lifted column, over AVG         ``"one"``
============  ===============  ==================================  ==============

A core delta folds through the planner's own folds, one per tier —
:func:`repro.plan.physical.fold_encoded` for an encoded batch over
machine scalars (a view's initial core batch, when the encoded tier
produced it), :func:`repro.plan.physical.fold_groups` otherwise — and
each key's contribution is added into the state by ``TensorSpace.add``
/ semiring ``+``; only the keys the delta touched (the *dirty groups*)
are re-emitted.  A key whose total and
tensors all cancel (``Z``-annotated deletions) leaves the state, as the
:class:`KRelation` constructor would drop it; the ``()`` key of a
whole-relation head never leaves.  Deletions in ``N[X]`` views zero
tokens via :meth:`HeadState.map_annotations` (the deletion-propagation
homomorphism applied to the *state*, so later inserts keep composing),
which maps every scalar of the state in one batch, as
``KRelation.apply_hom`` maps a relation's.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.tuples import Tup
from repro.monoids.numeric import SUM
from repro.plan.columnar import ColumnarKRelation
from repro.plan.encoded import EncodedBatch, EncodedFallback
from repro.plan.physical import (
    _encoded_guard_plain,
    _require_plain_columns,
    count_tensors,
    emitted,
    fold_encoded,
    fold_groups,
    group_shape,
)
from repro.semimodules.tensor import Tensor, tensor_space

__all__ = ["HeadState"]

#: Maps a batch of scalars to their images, as ``Homomorphism.map_many``.
MapMany = Callable[[List[Any]], List[Any]]


class _Group:
    """One key's live state: tensors, raw total, emitted row."""

    __slots__ = ("tensors", "total", "row")

    def __init__(self, tensors: Dict[str, Tensor], total: Any):
        self.tensors = tensors
        self.total = total
        self.row: Optional[Tup] = None


class HeadState:
    """A view head maintained key-by-key (see the module table).

    ``shape`` is the head node's :class:`~repro.plan.physical.GroupShape`
    (key, aggregated monoids, COUNT(*) column, AVG lift, emission);
    ``spaces`` maps every aggregated output attribute, the COUNT(*) column
    among them, to its tensor space.  ``groups`` maps each key tuple to
    its state; ``rows`` is the live output map the view renders from,
    patched in place for dirty keys only.
    """

    __slots__ = ("semiring", "shape", "spaces", "groups", "rows")

    def __init__(self, node, semiring, schema):
        self.semiring = semiring
        self.shape = shape = group_shape(node, schema)
        monoids = dict(shape.aggregations)
        if shape.count_attr is not None:
            monoids[shape.count_attr] = SUM
        self.spaces = {
            attr: tensor_space(semiring, monoid) for attr, monoid in monoids.items()
        }
        self.groups: Dict[Tuple[Any, ...], _Group] = {}
        self.rows: Dict[Tup, Any] = {}
        # AGG of the empty relation is one row iota(0_M) = 0, annotated 1_K
        if shape.emission == "one":
            group = self.groups[()] = _Group(
                {attr: space.zero for attr, space in self.spaces.items()},
                semiring.zero,
            )
            self._reemit((), group)

    def absorb(self, batch: "ColumnarKRelation | EncodedBatch") -> int:
        """Patch state with a core-delta batch; returns the dirty-key count.

        An encoded batch whose annotations are machine scalars
        (:attr:`~repro.semirings.base.MachineRepr.portable`) folds on the
        planner's encoded fold (:func:`~repro.plan.physical.fold_encoded`);
        any other batch, or one that fold declines, folds through the
        object fold (:func:`~repro.plan.physical.fold_groups`).  The key
        of a head that aggregates (GROUP BY's ``U'``) must hold plain
        values; the whole-tuple key of a DISTINCT or plain view need not.
        """
        shape = self.shape
        plain = shape.key if self.spaces else ()
        folded = None
        if isinstance(batch, EncodedBatch):
            if batch.machine.portable and len(batch):
                try:
                    _encoded_guard_plain(batch, plain)
                    folded = fold_encoded(batch, shape.key, shape.aggregations, shape.lift)
                except EncodedFallback:
                    pass
            if folded is None:
                batch = batch.to_columnar()
        if folded is None:
            _require_plain_columns(batch, plain, "GROUP BY")
            folded = fold_groups(batch, shape.key, shape.aggregations, shape.lift)
        keys, totals, tensors = folded[:3]
        if shape.count_attr is not None:
            tensors[shape.count_attr] = count_tensors(self.semiring, totals)

        plus, spaces = self.semiring.plus, self.spaces
        for i, key in enumerate(keys):
            group = self.groups.get(key)
            if group is None:
                group = self.groups[key] = _Group(
                    {attr: tensors[attr][i] for attr in spaces}, totals[i]
                )
            else:
                for attr, space in spaces.items():
                    group.tensors[attr] = space.add(group.tensors[attr], tensors[attr][i])
                group.total = plus(group.total, totals[i])
            self._reemit(key, group)
        return len(keys)

    def _reemit(self, key: Any, group: _Group) -> None:
        """Re-derive one dirty key's output row (or retire it)."""
        semiring, emission = self.semiring, self.shape.emission
        if group.row is not None:
            del self.rows[group.row]
            group.row = None
        if emission != "one" and semiring.is_zero(group.total):
            # the key left the support; drop the state too once nothing
            # can resurrect it losslessly (all tensors cancelled as well)
            if not any(group.tensors.values()):
                del self.groups[key]
            return
        values = dict(zip(self.shape.key, key))
        values.update(group.tensors)
        group.row = Tup(values)
        self.rows[group.row] = emitted(semiring, emission, group.total)

    def map_annotations(self, map_many: MapMany) -> None:
        """Apply an annotation map (e.g. token zeroing) to the whole state:
        one ``map_many`` call over every scalar — each total, then its
        tensors' entries in entry order."""
        groups = list(self.groups.items())
        batch: List[Any] = []
        for _key, group in groups:
            batch.append(group.total)
            for tensor in group.tensors.values():
                batch.extend(tensor._entries.values())
        images = map_many(batch)
        at = 0
        for key, group in groups:
            group.total, at = images[at], at + 1
            for attr, tensor in list(group.tensors.items()):
                end = at + len(tensor._entries)
                group.tensors[attr], at = tensor._mapped(self.semiring, images[at:end]), end
            self._reemit(key, group)
