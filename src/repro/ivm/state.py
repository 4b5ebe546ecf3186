"""Materialised-view head state: one ``GB`` state for every head.

The delta rules of :mod:`repro.ivm.delta` stop at the SPJU core — the
aggregation *head* of a view is not linear, so it is maintained
statefully instead.  In the paper every head is a ``GB`` (Definition
3.7): ``AGG_M`` is one group over the empty key, annotated ``1_K`` and
valued ``ι(0_M)`` on empty input (Section 3.2); COUNT(*) is SUM over the
constant 1 (footnote 6); DISTINCT is ``δ`` of a per-tuple sum.  So one
:class:`HeadState` keeps, per key, the tensors of the aggregated
attributes and the raw annotation total, and differs by kind only in
its key, its monoids and its emission:

============  ===============  ==================================  ==============
kind          key              aggregated attributes               emitted row
============  ===============  ==================================  ==============
``group``     ``U'``           ``U''``; COUNT(*) as SUM over 1     ``δ(total)``
``distinct``  the whole tuple  none                                ``δ(total)``
``relation``  the whole tuple  none                                ``total``
``agg``       ``()``           the column, over ``M``              ``1_K`` always
``count``     ``()``           SUM over the constant 1             ``1_K`` always
``avg``       ``()``           the lifted column, over AVG         ``1_K`` always
============  ===============  ==================================  ==============

A core delta folds through :func:`repro.plan.physical.fold_groups` — the
planner's own object-tier grouping — and each key's contribution is added
into the state by ``TensorSpace.add`` / semiring ``+``; only the keys the
delta touched (the *dirty groups*) are re-emitted.  A view's initial
core batch, when the encoded tier produced it over machine scalars, folds
on the planner's encoded grouping kernel instead (:meth:`HeadState.absorb`).  A key whose total and
tensors all cancel (``Z``-annotated deletions) leaves the state, as the
:class:`KRelation` constructor would drop it; the ``()`` key of a
whole-relation head never leaves.  Deletions in ``N[X]`` views zero
tokens via :meth:`HeadState.map_annotations` (the deletion-propagation
homomorphism applied to the *state*, so later inserts keep composing).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.tuples import Tup
from repro.monoids.counting import AVG
from repro.plan.columnar import ColumnarKRelation
from repro.plan.encoded import (
    EncodedBatch,
    EncodedColumn,
    EncodedFallback,
    check_reduction_bound,
    combine_codes,
    consolidate_keys,
)
from repro.plan.kernels import np
from repro.plan.physical import (
    _encoded_guard_plain,
    _require_plain_columns,
    _set_agg_by_code,
    count_tensors,
    fold_groups,
    validate_monoid_column,
)
from repro.semimodules.tensor import Tensor, tensor_space

__all__ = ["HeadState", "lower_tensor"]

#: How a group of each head kind is emitted (see the module table).
_EMISSION = {
    "group": "delta", "distinct": "delta", "relation": "raw",
    "agg": "one", "count": "one", "avg": "one",
}


def lower_tensor(tensor: Tensor, semiring, map_scalar: Callable[[Any], Any]) -> Tensor:
    """Rebuild a tensor in ``semiring``'s space with scalars mapped.

    The state (de)hydration helper: circuit-mode states lower gate scalars
    to canonical ``N[X]`` for persistence and lift them back through the
    database's interned gate image on restore.
    """
    space = tensor_space(semiring, tensor.space.monoid)
    return space.set_agg((m, map_scalar(k)) for m, k in tensor.items())


class _Group:
    """One key's live state: key values, tensors, raw total, emitted row."""

    __slots__ = ("values", "tensors", "total", "row")

    def __init__(self, values: Tuple[Any, ...], tensors: Dict[str, Tensor], total: Any):
        self.values = values
        self.tensors = tensors
        self.total = total
        self.row: Optional[Tup] = None


class HeadState:
    """A view head maintained key-by-key (see the module table).

    ``monoids`` maps every aggregated output attribute to its monoid;
    ``count_attr`` names the one among them folded as SUM over the
    constant 1 (GROUP BY's COUNT(*) column, or the COUNT head's output).
    ``rows`` is the live output map the view renders from; it is patched
    in place for dirty keys only.
    """

    __slots__ = ("kind", "semiring", "key_attrs", "count_attr", "spaces",
                 "groups", "rows")

    def __init__(
        self,
        kind: str,
        semiring,
        key_attrs: Tuple[str, ...],
        monoids: Dict[str, Any],
        count_attr: Optional[str] = None,
    ):
        self.kind = kind
        self.semiring = semiring
        self.key_attrs = tuple(key_attrs)
        self.count_attr = count_attr
        self.spaces = {
            attr: tensor_space(semiring, monoid) for attr, monoid in monoids.items()
        }
        self.groups: Dict[Any, _Group] = {}
        self.rows: Dict[Tup, Any] = {}
        self._seed()

    def _seed(self) -> None:
        # AGG of the empty relation is one row iota(0_M) = 0, annotated 1_K
        if _EMISSION[self.kind] == "one" and () not in self.groups:
            group = self.groups[()] = _Group(
                (), {attr: space.zero for attr, space in self.spaces.items()},
                self.semiring.zero,
            )
            self._reemit((), group)

    def absorb(self, batch: "ColumnarKRelation | EncodedBatch") -> int:
        """Patch state with a core-delta batch; returns the dirty-key count.

        An encoded batch whose annotations are machine scalars
        (:attr:`~repro.semirings.base.MachineRepr.portable`) folds on the
        encoded kernel (:meth:`_fold_encoded`); any other batch, or one
        that kernel declines, folds through :func:`fold_groups`.
        """
        folded = None
        if isinstance(batch, EncodedBatch):
            if batch.machine.portable and len(batch):
                try:
                    folded = self._fold_encoded(batch)
                except EncodedFallback:
                    pass
            if folded is None:
                batch = batch.to_columnar()
        if folded is None:
            folded = self._fold_objects(batch)
        keys, totals, tensors = folded

        single = len(self.key_attrs) == 1
        plus, spaces = self.semiring.plus, self.spaces
        for i, key in enumerate(keys):
            group = self.groups.get(key)
            if group is None:
                group = self.groups[key] = _Group(
                    (key,) if single else key,
                    {attr: tensors[attr][i] for attr in spaces},
                    totals[i],
                )
            else:
                for attr, space in spaces.items():
                    group.tensors[attr] = space.add(group.tensors[attr], tensors[attr][i])
                group.total = plus(group.total, totals[i])
            self._reemit(key, group)
        return len(keys)

    def _fold_objects(self, batch: ColumnarKRelation):
        """``(keys, totals, tensors)`` of a boxed batch, by :func:`fold_groups`."""
        if self.kind == "group":
            _require_plain_columns(batch, self.key_attrs, "GROUP BY")
        specs = {}
        for attr, space in self.spaces.items():
            monoid = space.monoid
            if attr == self.count_attr:
                values = [1] * len(batch)
            elif self.kind == "avg":
                values = list(map(AVG.lift, batch.column(attr)))
            else:
                values = batch.column(attr)
                validate_monoid_column(values, monoid, attr)
            specs[attr] = (monoid, values)
        return fold_groups(batch, self.key_attrs, specs)

    def _fold_encoded(self, batch: EncodedBatch):
        """``(keys, totals, tensors)`` of a non-empty encoded batch, in the
        shape :func:`fold_groups` returns (groups in key-code order).

        The key columns' codes combine into one group key per row; each
        aggregated column folds by :func:`_set_agg_by_code`, the kernel
        :meth:`GroupedAggregate.encoded_group_states` runs, and a head
        without one reduces the annotations on the group key.  COUNT(*)
        is the raw totals (:func:`count_tensors`, footnote 6).  Raises
        :class:`EncodedFallback` where the kernel cannot be exact; the
        object fold then also raises the guards' errors.
        """
        if self.kind == "group":
            _encoded_guard_plain(batch, self.key_attrs)
        bound = check_reduction_bound(batch, len(batch))
        gcols = [batch.col(attr) for attr in self.key_attrs]
        if gcols:
            gkeys, groups = combine_codes(gcols)
        else:
            gkeys, groups = np.zeros(len(batch), dtype=np.int64), 1
        rep = totals = None
        tensors = {}
        for attr, space in self.spaces.items():
            if attr == self.count_attr:
                continue
            col = batch.col(attr)
            if self.kind == "avg":
                lifted = list(map(AVG.lift, col.values))
                col = EncodedColumn(col.codes, lifted, dict(zip(lifted, range(len(lifted)))))
            elif not all(map(space.monoid.contains, col.values)):
                raise EncodedFallback(f"foreign value in column {attr!r}")
            rep, totals, tensors[attr], _why = _set_agg_by_code(
                space, col, gkeys, groups, batch, bound
            )
        if rep is None:
            rep, sums = consolidate_keys(batch, gkeys, groups, batch.anns)
            totals = batch.machine.decode(sums)
        if self.count_attr is not None:
            tensors[self.count_attr] = count_tensors(self.semiring, totals)
        columns = [list(map(col.values.__getitem__, col.codes[rep].tolist())) for col in gcols]
        if len(columns) == 1:
            keys = columns[0]
        else:
            keys = list(zip(*columns)) if columns else [()] * len(totals)
        return keys, totals, tensors

    def _reemit(self, key: Any, group: _Group) -> None:
        """Re-derive one dirty key's output row (or retire it)."""
        semiring = self.semiring
        if group.row is not None:
            del self.rows[group.row]
            group.row = None
        emission = _EMISSION[self.kind]
        if emission == "one":
            annotation = semiring.one
        elif semiring.is_zero(group.total):
            # the key left the support; drop the state too once nothing
            # can resurrect it losslessly (all tensors cancelled as well)
            if not any(group.tensors.values()):
                del self.groups[key]
            return
        else:
            annotation = semiring.delta(group.total) if emission == "delta" else group.total
        values = dict(zip(self.key_attrs, group.values))
        values.update(group.tensors)
        group.row = Tup(values)
        self.rows[group.row] = annotation

    def map_annotations(self, map_scalar: Callable[[Any], Any]) -> None:
        """Apply an annotation map (e.g. token zeroing) to the whole state."""
        for key, group in list(self.groups.items()):
            group.tensors = {
                attr: lower_tensor(tensor, self.semiring, map_scalar)
                for attr, tensor in group.tensors.items()
            }
            group.total = map_scalar(group.total)
            self._reemit(key, group)

    # -- (de)hydration ------------------------------------------------------

    def dump_state(self, semiring, map_scalar: Optional[Callable[[Any], Any]]):
        """State as ``{key, tensors, total}`` entries over ``semiring``."""
        out = []
        for group in self.groups.values():
            if map_scalar is None:
                tensors = dict(group.tensors)
                total = group.total
            else:
                tensors = {
                    attr: lower_tensor(tensor, semiring, map_scalar)
                    for attr, tensor in group.tensors.items()
                }
                total = map_scalar(group.total)
            out.append({"key": list(group.values), "tensors": tensors, "total": total})
        return out

    def load_state(self, entries, map_scalar: Optional[Callable[[Any], Any]]) -> None:
        """Adopt dumped state (inverse of :meth:`dump_state`) and re-emit."""
        self.groups.clear()
        self.rows.clear()
        single = len(self.key_attrs) == 1
        for entry in entries:
            values = tuple(entry["key"])
            key = values[0] if single else values
            if map_scalar is None:
                tensors = dict(entry["tensors"])
                total = entry["total"]
            else:
                tensors = {
                    attr: lower_tensor(tensor, self.semiring, map_scalar)
                    for attr, tensor in entry["tensors"].items()
                }
                total = map_scalar(entry["total"])
            group = self.groups[key] = _Group(values, tensors, total)
            self._reemit(key, group)
        self._seed()
