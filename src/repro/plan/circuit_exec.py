"""Circuit-backed planned execution: annotations as shared gates.

The expanded-polynomial planned engine still pays for canonical ``N[X]``
normal forms *while the query runs* — every join multiplies term dicts,
every group merges them.  The paper's "compute provenance once,
specialise many times" story needs none of that during execution: it only
needs the result to be a value of the **free** semiring, and the
hash-consed circuits of :mod:`repro.circuits` are exactly that (ProvSQL
stores provenance the same way).

This module runs the ordinary physical plan over a
:class:`~repro.circuits.semiring.CircuitSemiring`:

1. base-table ``N[X]`` annotations are interned as gates once per
   database (token polynomials become input gates; the mapping is cached
   on the :class:`~repro.core.database.KDatabase` and reused across
   queries, so gates are shared *between* queries too);
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

from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro.circuits.convert import polynomial_to_circuit
from repro.circuits.evaluate import evaluate_gates, reachable_count
from repro.circuits.semiring import CircuitSemiring
from repro.core.database import KDatabase
from repro.core.relation import KRelation
from repro.exceptions import QueryError
from repro.semimodules.tensor import Tensor, tensor_space
from repro.semirings.base import Semiring
from repro.semirings.homomorphism import Homomorphism
from repro.semirings.polynomials import NX

__all__ = [
    "CircuitResult",
    "circuit_database",
    "evaluate_circuit_backed",
    "lift_relation",
    "patch_circuit_image",
]


def circuit_database(db: KDatabase) -> Tuple[CircuitSemiring, KDatabase]:
    """The circuit image of an ``N[X]`` database (cached on ``db``).

    Every relation's polynomial annotations are encoded as interned gates
    over one :class:`CircuitSemiring` owned by the database.  The cache
    keys on the database's monotonic ``version`` stamp: while the stamp is
    unchanged the image is returned without touching a single relation;
    after a mutation each relation is re-validated by object identity, so
    ``db.add``/``db.update`` refreshing one table re-encodes only that
    table while keeping every existing gate — and every compiled plan
    against the circuit database — intact.  When the builder has started
    a new gate generation since (its ``max_gates`` cap), every table is
    re-lifted into it, so the encoded tier can scan them again.
    (:mod:`repro.ivm` patches the image in place on incremental updates,
    interning only the delta's new gates, and restamps the cache itself.)

    Runs under the database's writer lock: the image is mutable shared
    state (one gate universe, one circuit database per lineage), so
    concurrent readers must not interleave re-lifts — and a snapshot
    pinned at an older version re-lifts its own tables through the same
    serialised path.  Callers that go on to *execute* a plan should pin
    ``circ_db.snapshot()`` before releasing (see
    :func:`evaluate_circuit_backed`).
    """
    if db.semiring is not NX:
        raise QueryError(
            "circuit-backed execution expects an N[X]-annotated database; "
            f"got {db.semiring.name}"
        )
    with db._lock:
        cache = getattr(db, "_circuit_cache", None)
        if cache is None:
            circ = CircuitSemiring(name=f"Circ[{db.semiring.name}]")
            cache = {"semiring": circ, "db": KDatabase(circ), "sources": {},
                     "version": None, "store": circ.builder.store}
            db._circuit_cache = cache
        circ = cache["semiring"]
        if cache["store"] is not circ.builder.store:
            cache["sources"].clear()
            cache["store"] = circ.builder.store
        elif cache["version"] == db.version:
            return circ, cache["db"]
        circ_db: KDatabase = cache["db"]
        sources: Dict[str, KRelation] = cache["sources"]
        for name, rel in db:
            if sources.get(name) is rel:
                continue
            circ_db.add(name, lift_relation(rel, circ))
            sources[name] = rel
        cache["version"] = db.version
        return circ, circ_db


def lift_relation(rel: KRelation, circ: CircuitSemiring) -> KRelation:
    """Re-annotate one relation with gates (tensor values lift scalar-wise)."""
    encode: Dict[Any, Any] = {}

    def gate(poly):
        node = encode.get(poly)
        if node is None:
            node = encode[poly] = polynomial_to_circuit(poly, circ)
        return node

    def lift_value(value: Any) -> Any:
        if not isinstance(value, Tensor):
            return value
        space = tensor_space(circ, value.space.monoid)
        return space.set_agg((m, gate(k)) for m, k in value.items())

    pairs = []
    for tup, annotation in rel.rows():
        values = {a: lift_value(v) for a, v in tup.items()}
        pairs.append((type(tup)(values), gate(annotation)))
    return KRelation(circ, rel.schema, pairs)


def patch_circuit_image(db: KDatabase, lifted: Mapping[str, KRelation]) -> None:
    """Graft already-interned delta gates onto the cached circuit image.

    Call *after* folding the corresponding polynomial deltas into ``db``
    (``db.update``): each named relation of the image becomes its union
    with the lifted delta, the source pointers move to the new base
    relations, and the cache is restamped at the database's new version —
    so the next :func:`circuit_database` call neither re-encodes whole
    relations nor discards the shared gate universe.  A database with no
    image yet is left alone (the next call builds one from scratch).
    The owner of the cache layout: keep every access to
    ``db._circuit_cache`` in this module.
    """
    with db._lock:
        cache = getattr(db, "_circuit_cache", None)
        if cache is None:
            return
        from repro.core.operators import union  # local: operators import core only

        circ_db: KDatabase = cache["db"]
        for name, lifted_rel in lifted.items():
            circ_db.add(name, union(circ_db.relation(name), lifted_rel))
            cache["sources"][name] = db.relation(name)
        cache["version"] = db.version


def evaluate_circuit_backed(query, db: KDatabase, deadline=None) -> "CircuitResult":
    """Run ``query`` over the circuit image of ``db`` (planned engine),
    checking ``deadline`` (a :class:`~repro.deadline.Deadline`) at every
    operator as the expanded plan does.

    The image itself is pinned (``circ_db.snapshot()``) before the plan
    runs, so a concurrent reader at a different version — or an
    incremental writer grafting delta gates — rebinding the image's
    relations cannot tear this execution.  Gate *creation* during
    execution stays safe because the builder's interning tables are
    thread-safe; heavy symbolic work is additionally admission-controlled
    by the serving layer.
    """
    with db._lock:
        circ, circ_db = circuit_database(db)
        circ_snap = circ_db.snapshot()
    plan = query._cached_plan(circ_snap)
    return CircuitResult(plan.execute(circ_snap, deadline=deadline), circ)


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
