"""A planned result that stays the root's arrays until it is read.

The paper's answer to an aggregate query is one relation, computed once
and then read many ways: specialised by homomorphisms (Thm. 3.3),
compared, rendered.  On the encoded tier that answer is, at the root of a
plan, a handful of arrays — the groups' key codes and annotation totals,
and per aggregated column its collapsed values (machine semirings) or the
term store's folds (:class:`~repro.semirings.terms.Fold`, ``N[X]``).
Building a :class:`~repro.core.relation.Tup`, a tensor and a polynomial
per row, and hashing them into a :class:`~repro.core.relation.KRelation`,
is most of the cost of such a query, and many readers need none of it.
So, as ProvSQL keeps provenance as tokens in one store and renders an
expression only on demand, and as Mani et al. compute provenance only for
what is read, a plan whose root batch is encoded returns a
:class:`TermResult` over those arrays:

* ``len`` counts the rows whose annotation is not ``0_K``, from the
  arrays;
* ``==`` between two results over machine scalars compares the arrays
  when each key column's dictionary is equal as a list, and is ``True``
  where they are equal; in every other case it compares the row maps;
* :meth:`TermResult.apply_hom` into ``N``, ``Z`` or ``B`` maps the term
  folds' runs as arrays
  (:meth:`~repro.semirings.homomorphism.Homomorphism.map_folds`) and
  applies ``δ`` to the group images where the group's annotation is
  ``δ`` of its total;
* every other reader — iteration, hashing, rendering, pickling, a union,
  a homomorphism of a machine-scalar result — reads the row map, which
  :meth:`TermResult.lower` builds once, exactly as the eager path would
  have, and counts on ``repro_encoded_kernel_total{op="lower"}``
  (``kernel="terms"``, ``"arrays"`` or ``"gates"``).

A circuit plan's answer is the same class in its **gate form**.  A
circuit is one representation of an ``N[X]`` value — evaluation commutes
with every homomorphism out of it (Thm. 3.3) — so circuit mode is a
second way to *encode* the stored ``N[X]`` relations, not a second
database:

1. the plan is compiled for ``annotations="circuit"``
   (:func:`~repro.plan.compiler.compile_plan`): its scans lift each
   stored polynomial to a gate of the process-wide
   :data:`~repro.circuits.convert.NX_CIRCUITS` as they read it (token
   polynomials become input gates; gates are shared *between* queries
   and databases), and on the encoded tier that lift is kept on the
   relation version beside its term encoding
   (:func:`~repro.plan.encoded.encoded_scan`) and carried across inserts;
2. the plan executes on the **encoded tier**: the circuit semiring's
   machine representation is its builder's gate store
   (:mod:`repro.circuits.store`), so annotation arrays hold int64 gate
   ids and a join's ``×`` gates, a projection's or a group's ``+`` gates
   and a ``δ`` gate are interned a batch at a time — the same gates the
   object tier interns one ``plus``/``times`` call at a time, which is
   where the plan falls back per operator (``EncodedFallback``) and
   where it runs without NumPy.  Concurrent queries may intern gates at
   once: the builder's interning is thread-safe, and heavy symbolic work
   is admission-controlled by the serving layer;
3. the result holds the gate relation the plan built
   (:attr:`TermResult.circuit_relation`) and its semiring is ``N[X]``:
   ``len`` counts the gate rows (in ``N[X]`` a non-zero gate never
   evaluates to ``0``); ``==`` is ``True`` where both sides hold the
   very same gates; :meth:`TermResult.apply_hom` of a valuation
   homomorphism evaluates the gates reachable from the whole result in
   one bottom-up pass (:func:`~repro.circuits.evaluate.evaluate_gates`:
   one NumPy reduction per level into a numeric target, the id-order
   loop otherwise), and the canonical ``N[X]`` relation is expanded, by
   that loop, only if something else reads it.

A :class:`TermResult` *is* a :class:`~repro.core.relation.KRelation` (its
row map is the lowered one), so a caller that reads it as one needs no
change; it pickles and copies as the plain relation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.circuits.evaluate import evaluate_gates, reachable_count
from repro.core.relation import KRelation
from repro.core.schema import Schema
from repro.monoids.numeric import SUM
from repro.obs import metrics as _metrics
from repro.plan.columnar import ColumnarKRelation
from repro.plan.encoded import EncodedColumn
from repro.plan.kernels import np
from repro.plan.physical import count_tensors, emitted
from repro.semimodules.tensor import TensorSpace, tensor_space
from repro.semirings.homomorphism import Homomorphism, valuation_hom
from repro.semirings.polynomials import NX
from repro.semirings.terms import Fold

__all__ = ["TermResult"]


class TermResult(KRelation):
    """The result of a plan whose root batch is encoded, kept as the
    root's arrays (see the module docstring).

    Row ``g`` has the key values of ``keys[attr]`` (an
    :class:`~repro.plan.encoded.EncodedColumn`: one code per row and the
    dictionary) at ``g``.  Each aggregated attribute's tensor is
    ``aggs[attr] = (payload, space)``: the entries of group ``g`` of a
    term :class:`~repro.semirings.terms.Fold`, or ``ι`` of the collapsed
    value ``payload[g]``.  ``totals`` holds the raw totals: a fold's
    groups, or an array in the semiring's machine representation.
    ``count_attr``'s COUNT(*) tensor and the annotation come from the
    total, the annotation by the ``emission`` rule of
    :class:`~repro.plan.physical.GroupShape` — ``"delta"``, where ``δ``
    of the total is pending, ``"raw"`` or ``"one"``.  A merged or
    distinct root is its rows as keys, with nothing aggregated and its
    annotations as raw totals.  In the gate form ``semiring`` is ``N[X]``
    and ``totals`` the gate relation a circuit plan built."""

    __slots__ = ("_keys", "_aggs", "_totals", "_count", "_emission", "_lowered")

    def __init__(self, semiring, schema: Schema, keys: Dict[str, EncodedColumn],
                 aggs: Dict[str, Tuple[Any, TensorSpace]], totals,
                 count_attr: Optional[str] = None, emission: str = "raw"):
        self.semiring, self.schema = semiring, schema
        self._flat = self._base = self._overlay = self._held = None
        self._keys, self._aggs, self._totals = keys, aggs, totals
        self._count, self._emission = count_attr, emission
        self._lowered: Optional[KRelation] = None
        if self.terms or emission == "one" or isinstance(totals, KRelation):
            self._size = len(totals)  # a sum of terms, or a non-zero gate, is never 0
        else:  # δ(t) is 0 exactly where t is
            self._size = int(np.count_nonzero(totals != semiring.machine_repr.code(semiring.zero)))

    @property
    def terms(self) -> bool:
        """Are the rows kept as term-store folds (else machine arrays)?"""
        return isinstance(self._totals, Fold)

    @classmethod
    def of_gates(cls, gates: KRelation) -> "TermResult":
        """The gate form over ``gates``, a circuit plan's gate relation."""
        return cls(NX, gates.schema, {}, {}, gates)

    @property
    def circuit_relation(self) -> Optional[KRelation]:
        """The gate relation of the gate form (over
        :data:`~repro.circuits.convert.NX_CIRCUITS`), else ``None``."""
        totals = self._totals
        return totals if isinstance(totals, KRelation) else None

    def gate_count(self) -> int:
        """Distinct gates reachable from the gate form's annotations and
        tensor scalars (its size)."""
        gates = self.circuit_relation
        return reachable_count(gates._scalars()[0], gates.semiring.builder)

    # -- the row map: built on first read --------------------------------------

    def lower(self) -> KRelation:
        """The canonical relation (built once, then kept): the rows, their
        tensors and polynomials, as the eager path builds them; in the
        gate form, the gates evaluated into ``N[X]``."""
        lowered = self._lowered
        if lowered is None:
            gates = self.circuit_relation
            if gates is not None:
                lowered = gates.apply_hom(_GateValuation(gates.semiring, NX, NX.variable))
                kernel = "gates"
            else:
                lowered, kernel = self._built(), "terms" if self.terms else "arrays"
            self._rows = lowered._rows
            self._lowered = lowered
            _metrics.ENCODED_KERNEL.inc(1, "lower", kernel)
        return lowered

    def _built(self) -> KRelation:
        """The rows, built from the arrays or the folds."""
        semiring, terms = self.semiring, self.terms
        if terms:
            totals = self._totals.totals()
        else:
            totals = semiring.machine_repr.decode(self._totals)
        columns = {attr: col.decode() for attr, col in self._keys.items()}
        for attr, (payload, space) in self._aggs.items():
            if terms:
                columns[attr] = list(map(space._normal, payload.entries()))
            else:
                columns[attr] = list(map(space._of, payload))
        if self._count is not None:
            columns[self._count] = count_tensors(semiring, totals)
        emission = self._emission
        annotations = totals if emission == "raw" else [
            emitted(semiring, emission, t) for t in totals]
        return ColumnarKRelation._from_clean(
            semiring, self.schema, columns, annotations, True
        ).to_krelation()

    def _layers(self):
        self.lower()  # every layered read of a KRelation reads the flat map
        return None

    def _flatten(self, counter) -> Dict[Any, Any]:
        return self.lower()._rows

    def __reduce__(self):
        return (KRelation._from_clean, (self.semiring, self.schema, self._rows))

    # -- equality: the arrays first ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TermResult) and self._same_arrays(other):
            return True
        return KRelation.__eq__(self, other)

    __hash__ = KRelation.__hash__

    def _same_arrays(self, other: "TermResult") -> bool:
        """Do both results hold equal machine arrays over equal
        dictionaries?  Then their rows are equal: equal codes name equal
        values, and equal totals give equal annotations and counts.  In
        the gate form: do both hold the very same gates?  A ``False``
        decides nothing (a NaN, another row order, another dictionary,
        other gates of one value)."""
        gates, twins = self.circuit_relation, other.circuit_relation
        if gates is not None or twins is not None:
            return gates is not None and twins is not None and gates == twins
        mine, theirs = self._totals, other._totals
        if (self.terms or other.terms or self.semiring is not other.semiring
                or self.schema != other.schema
                or (self._count, self._emission) != (other._count, other._emission)
                or mine.dtype != theirs.dtype or not np.array_equal(mine, theirs)):
            return False
        for attr, col in self._keys.items():
            twin = other._keys.get(attr)
            if (twin is None or not (col.values is twin.values or col.values == twin.values)
                    or not np.array_equal(col.codes, twin.codes)):
                return False
        aggs = other._aggs
        return all(attr in aggs and aggs[attr][1] is space and aggs[attr][0] == payload
                   for attr, (payload, space) in self._aggs.items())

    # -- specialisation: the runs as arrays, the gates in one pass --------------

    def apply_hom(self, hom) -> KRelation:
        """``h`` of this relation, as :meth:`KRelation.apply_hom` of
        :meth:`lower` gives it: term folds' runs mapped as arrays where
        ``hom`` maps them (:meth:`~repro.semirings.homomorphism.Homomorphism.map_folds`),
        the gate form's gates evaluated straight into the target where
        ``hom`` is a valuation with the default coefficient map
        (:attr:`~repro.semirings.homomorphism.Homomorphism.tokens`), else
        the lowered relation mapped by the walk."""
        gates = self.circuit_relation
        if gates is not None and hom.source is NX and hom.tokens is not None:
            return gates.apply_hom(_GateValuation(gates.semiring, hom.target, hom.tokens))
        if hom.source is not self.semiring or not self.terms:
            return KRelation.apply_hom(self, hom)  # refuses a foreign hom
        folds = [fold for fold, _space in self._aggs.values()]
        if not any(fold is self._totals for fold in folds):
            folds.append(self._totals)
        images, walk = hom.map_folds(folds)
        if images is None:
            return self.lower().apply_hom(walk)
        mapped = {id(fold): pair for fold, pair in zip(folds, images)}
        target = hom.target
        totals = mapped[id(self._totals)][1]
        columns = {attr: col.decode() for attr, col in self._keys.items()}
        for attr, (fold, space) in self._aggs.items():
            columns[attr] = _tensors(fold, mapped[id(fold)][0],
                                     tensor_space(target, space.monoid))
        if self._count is not None:
            space = tensor_space(target, SUM)
            columns[self._count] = [space.image((1,), (t,)) for t in totals]
        annotations = [emitted(target, self._emission, t) for t in totals]
        return ColumnarKRelation._from_clean(
            target, self.schema, columns, annotations, True
        ).to_krelation()

    def specialise(self, valuation, target) -> KRelation:
        """:meth:`apply_hom` of the free extension of the token
        ``valuation`` (a mapping or a callable) into ``target``."""
        return self.apply_hom(valuation_hom(NX, target, valuation))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "lowered" if self._lowered is not None else (
            "runs" if self.terms else "arrays" if self.circuit_relation is None else "gates")
        return f"<TermResult {self.schema} over {self.semiring.name}, {len(self)} tuples, {state}>"


def _tensors(fold: Fold, images, space: TensorSpace):
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


class _GateValuation(Homomorphism):
    """Gates into ``target`` under a token map: a batch is one bottom-up
    pass over the gates reachable from all of it
    (:func:`~repro.circuits.evaluate.evaluate_gates`)."""

    __slots__ = ("_tokens",)

    def __init__(self, circ, target, tokens):
        super().__init__(circ, target, None)
        self._tokens = tokens

    def __call__(self, gate: Any) -> Any:
        return self.map_many((gate,))[0]

    def map_many(self, gates) -> List[Any]:
        return evaluate_gates(list(gates), self.target, self._tokens,
                              builder=self.source.builder)
