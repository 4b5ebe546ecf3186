"""Circuit-backed planned execution: annotations as shared gates.

The expanded-polynomial planned engine still pays for canonical ``N[X]``
normal forms *while the query runs* — every join multiplies term dicts,
every group merges them.  The paper's "compute provenance once,
specialise many times" story needs none of that during execution: it only
needs the result to be a value of the **free** semiring, and the
hash-consed circuits of :mod:`repro.circuits` are exactly that (ProvSQL
stores provenance the same way).  A circuit is one representation of an
``N[X]`` value — evaluation commutes with every homomorphism out of it
(Thm. 3.3) — so circuit mode is a second way to *encode* the stored
``N[X]`` relations, not a second database:

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
   where it runs without NumPy;
3. the result is returned as a :class:`CircuitResult`, which **lowers
   lazily**: specialisations (trust, security, deletion, multiplicity)
   evaluate the gates reachable from the whole result in one bottom-up
   pass per valuation (:func:`~repro.circuits.evaluate.evaluate_gates`:
   one NumPy reduction per level into a numeric target, the id-order
   loop otherwise), and the canonical ``N[X]`` relation is expanded, by
   that loop, only if something asks for it.
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping

from repro.circuits.evaluate import evaluate_gates, reachable_count
from repro.circuits.semiring import CircuitSemiring
from repro.core.database import KDatabase
from repro.core.relation import KRelation
from repro.semirings.base import Semiring
from repro.semirings.homomorphism import Homomorphism
from repro.semirings.polynomials import NX

__all__ = ["CircuitResult", "evaluate_circuit_backed"]


def evaluate_circuit_backed(query, db: KDatabase, deadline=None) -> "CircuitResult":
    """Run ``query`` over ``db`` (an ``N[X]`` database) on its circuit
    plan, checking ``deadline`` (a :class:`~repro.deadline.Deadline`) at
    every operator as the expanded plan does.  Concurrent queries may
    create gates at once: the builder's interning is thread-safe, and
    heavy symbolic work is additionally admission-controlled by the
    serving layer."""
    plan = query._cached_plan(db, "circuit")
    result = plan.execute(db, deadline=deadline)
    return CircuitResult(result, result.semiring)


class _GateValuation(Homomorphism):
    """Gates into ``target`` under a token valuation: a batch is one
    bottom-up pass over the gates reachable from all of it
    (:func:`~repro.circuits.evaluate.evaluate_gates`)."""

    __slots__ = ("_valuation",)

    def __init__(self, circ: CircuitSemiring, target: Semiring, valuation, name: str):
        super().__init__(circ, target, None, name)
        self._valuation = valuation

    def __call__(self, gate: Any) -> Any:
        return self.map_many((gate,))[0]

    def map_many(self, gates) -> List[Any]:
        return evaluate_gates(
            list(gates), self.target, self._valuation, builder=self.source.builder
        )


class CircuitResult:
    """A planned result whose annotations are circuit gates, lowered lazily.

    ``circuit_relation`` is the raw :class:`KRelation` over the circuit
    semiring.  Nothing is expanded until asked for:

    ``specialise(valuation, target)``
        the fast path the representation exists for — evaluate the gates
        reachable from every result annotation and tensor scalar **once
        per valuation**, in one bottom-up pass, and return the
        specialised ``target``-relation, without ever materialising
        ``N[X]``;
    ``lower()``
        the canonical ``N[X]`` relation (memoized), for canonical
        comparison or display — this is where expansion cost lives, and it
        is identical to what ``annotations="expanded"`` computes eagerly.

    Equality, length, iteration and rendering delegate to :meth:`lower`,
    so tests can compare a circuit result against either engine's output
    directly.
    """

    __slots__ = ("circuit_relation", "circuit_semiring", "_lowered")

    def __init__(self, circuit_relation: KRelation, circuit_semiring: CircuitSemiring):
        self.circuit_relation = circuit_relation
        self.circuit_semiring = circuit_semiring
        self._lowered: KRelation | None = None

    # -- structure ---------------------------------------------------------

    @property
    def schema(self):
        return self.circuit_relation.schema

    @property
    def semiring(self) -> Semiring:
        """The *logical* annotation semiring of the result: ``N[X]``."""
        return NX

    def gate_count(self) -> int:
        """Distinct gates reachable from the result annotations (size metric)."""
        return reachable_count(self._roots(), self.circuit_semiring.builder)

    def _roots(self) -> List[Any]:
        """Every annotation and tensor scalar of the result (unordered)."""
        return self.circuit_relation._scalars()[0]

    # -- lowering ----------------------------------------------------------

    def lower(self) -> KRelation:
        """The canonical ``N[X]`` result (computed once, then cached)."""
        if self._lowered is None:
            name = f"{self.circuit_semiring.name}→{NX.name}"
            self._lowered = self._evaluate(NX, NX.variable, name)
        return self._lowered

    def specialise(
        self,
        valuation: Mapping[Any, Any] | Callable[[Any], Any],
        target: Semiring,
        *,
        name: str = "",
    ) -> KRelation:
        """Evaluate the result under a token valuation into ``target``.

        Each gate reachable from the result is computed once for the whole
        relation, which is the circuit counterpart of applying
        :func:`~repro.semirings.homomorphism.valuation_hom` to an expanded
        result — without ever building the expanded polynomials.
        """
        return self._evaluate(
            target, valuation, name or f"{self.circuit_semiring.name}→{target.name}"
        )

    def _evaluate(self, target: Semiring, valuation, name: str) -> KRelation:
        hom = _GateValuation(self.circuit_semiring, target, valuation, name)
        return self.circuit_relation.apply_hom(hom)

    # -- KRelation-compatible face (delegates to the lowered form) ---------

    def __len__(self) -> int:
        return len(self.lower())

    def __iter__(self):
        return iter(self.lower())

    def items(self):
        return self.lower().items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CircuitResult):
            return self.lower() == other.lower()
        if isinstance(other, KRelation):
            return self.lower() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.lower())

    def pretty(self, **kwargs: Any) -> str:
        return self.lower().pretty(**kwargs)

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<CircuitResult {self.schema} "
            f"{len(self.circuit_relation)} rows, {self.gate_count()} gates>"
        )
