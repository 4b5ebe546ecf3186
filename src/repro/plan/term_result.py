"""A planned ``N[X]`` result that stays in the term store until it is read.

The paper's answer to an aggregate query over ``N[X]`` is one symbolic
relation whose values are ``N[X] ⊗ M`` tensors, computed once and then
specialised by homomorphisms (Thm. 3.3).  On the encoded tier that answer
is, at the root of a plan, one or more folds of the term store
(:class:`~repro.semirings.terms.Fold`): sorted term-id arrays whose slices
are the group totals and the tensor entries.  Building a canonical
:class:`~repro.semirings.polynomials.Polynomial` per slice, and hashing
them into a :class:`~repro.core.relation.KRelation`, is most of the cost
of such a query, and a specialisation reads none of it.  So, as ProvSQL
keeps provenance as tokens in one store and renders an expression only on
demand, and as Mani et al. compute provenance only for what is read, a
plan whose root folds term rows returns a :class:`TermResult`:

* :meth:`TermResult.apply_hom` into ``N``, ``Z`` or ``B`` maps the folds'
  runs as arrays (:meth:`~repro.semirings.homomorphism.Homomorphism.map_folds`)
  and applies ``δ`` to the group images where the group's annotation is
  ``δ`` of its total;
* every other reader — iteration, ``==``, hashing, rendering, a union, the
  sizes — reads the row map, which :meth:`TermResult.lower` builds once,
  exactly as the eager fold would have, and counts on
  ``repro_encoded_kernel_total{op="lower"}``.

A :class:`TermResult` *is* a :class:`~repro.core.relation.KRelation` (its
row map is the lowered one), so a caller that reads it as one needs no
change; it pickles and copies as the plain relation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.relation import KRelation
from repro.core.schema import Schema
from repro.monoids.numeric import SUM
from repro.obs import metrics as _metrics
from repro.plan.columnar import ColumnarKRelation
from repro.plan.physical import count_tensors, emitted
from repro.semimodules.tensor import TensorSpace, tensor_space
from repro.semirings.terms import Fold

__all__ = ["TermResult"]


class TermResult(KRelation):
    """The result of a plan whose root folds ``N[X]`` term rows, kept as
    the folds' runs (see the module docstring).

    Row ``g`` is group ``g`` of the folds: its key values are
    ``keys[attr][g]``; each aggregated attribute's tensor sums the entries
    of group ``g`` of its fold (``folds[attr]``, with the tensor space);
    ``count_attr``'s COUNT(*) tensor and the annotation come from the
    group's total in ``totals`` (one of the folds), the annotation by the
    ``emission`` rule of :class:`~repro.plan.physical.GroupShape` —
    ``"delta"``, where ``δ`` of the total is pending, ``"raw"`` or
    ``"one"``."""

    __slots__ = ("_keys", "_folds", "_totals", "_count", "_emission", "_lowered")

    def __init__(self, semiring, schema: Schema, keys: Dict[str, List[Any]],
                 folds: Dict[str, Tuple[Fold, TensorSpace]], totals: Fold,
                 count_attr: Optional[str], emission: str):
        self.semiring, self.schema = semiring, schema
        self._flat = self._base = self._overlay = None
        self._size = len(totals)  # a sum of terms is never 0
        self._keys, self._folds, self._totals = keys, folds, totals
        self._count, self._emission = count_attr, emission
        self._lowered: Optional[KRelation] = None

    # -- the row map: built on first read --------------------------------------

    def lower(self) -> KRelation:
        """The canonical ``N[X]`` relation (built once, then kept): the
        folds' polynomials and tensors, as the eager fold builds them."""
        lowered = self._lowered
        if lowered is None:
            semiring, totals = self.semiring, self._totals.totals()
            columns = dict(self._keys)
            for attr, (fold, space) in self._folds.items():
                columns[attr] = list(map(space._normal, fold.entries()))
            if self._count is not None:
                columns[self._count] = count_tensors(semiring, totals)
            annotations = [emitted(semiring, self._emission, t) for t in totals]
            lowered = ColumnarKRelation._from_clean(
                semiring, self.schema, columns, annotations, True
            ).to_krelation()
            self._rows = lowered._rows
            self._lowered = lowered
            _metrics.ENCODED_KERNEL.inc(1, "lower", "terms")
        return lowered

    def _layers(self):
        self.lower()  # every layered read of a KRelation reads the flat map
        return None

    def _flatten(self, counter) -> Dict[Any, Any]:
        return self.lower()._rows

    def __reduce__(self):
        return (KRelation._from_clean, (self.semiring, self.schema, self._rows))

    # -- specialisation: the runs as arrays -------------------------------------

    def apply_hom(self, hom) -> KRelation:
        """``h`` of this relation, as :meth:`KRelation.apply_hom` of
        :meth:`lower` gives it: the folds' runs mapped as arrays where
        ``hom`` maps them (:meth:`~repro.semirings.homomorphism.Homomorphism.map_folds`),
        else the lowered relation mapped by the walk ``hom`` hands back."""
        if hom.source is not self.semiring:
            return KRelation.apply_hom(self, hom)  # refuses it
        folds = [fold for fold, _space in self._folds.values()]
        if not any(fold is self._totals for fold in folds):
            folds.append(self._totals)
        images, walk = hom.map_folds(folds)
        if images is None:
            return self.lower().apply_hom(walk)
        mapped = {id(fold): pair for fold, pair in zip(folds, images)}
        target = hom.target
        totals = mapped[id(self._totals)][1]
        columns = dict(self._keys)
        for attr, (fold, space) in self._folds.items():
            columns[attr] = _tensors(fold, mapped[id(fold)][0],
                                     tensor_space(target, space.monoid))
        if self._count is not None:
            space = tensor_space(target, SUM)
            columns[self._count] = [space.image((1,), (t,)) for t in totals]
        annotations = [emitted(target, self._emission, t) for t in totals]
        return ColumnarKRelation._from_clean(
            target, self.schema, columns, annotations, True
        ).to_krelation()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "lowered" if self._lowered is not None else "runs"
        return f"<TermResult {self.schema} over {self.semiring.name}, {len(self)} tuples, {state}>"


def _tensors(fold: Fold, images: List[Any], space: TensorSpace) -> List[Any]:
    """Per group of ``fold``, the tensor of ``space`` holding the images
    ``images`` of its entries (the ``skip`` label left out), as
    :meth:`~repro.semimodules.tensor.Tensor.apply_hom` maps the lowered
    tensor."""
    labels, skip = fold.labels, fold.skip
    codes = fold.codes.tolist()
    bounds = fold.firsts.tolist() + [len(codes)]
    out = []
    for a, b in zip(bounds, bounds[1:]):
        kept = [k for k in range(a, b) if codes[k] != skip]
        out.append(space.image([labels[codes[k]] for k in kept], [images[k] for k in kept]))
    return out
