"""K-databases: named collections of K-relations over one semiring."""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from repro.core.relation import KRelation
from repro.exceptions import QueryError, SchemaError, SemiringError
from repro.semirings.base import Semiring
from repro.semirings.homomorphism import Homomorphism

__all__ = ["KDatabase", "DatabaseSnapshot"]


class KDatabase:
    """A named-relation database where every relation shares one semiring.

    Relations themselves are immutable; the *database* mutates by rebinding
    names (:meth:`add`) or folding in deltas (:meth:`update`).  Every such
    mutation bumps a monotonic :attr:`version` stamp, which is what the
    per-database caches key on — the compiled-plan cache on
    :class:`~repro.core.query.Query` objects and the materialised-view
    states of :mod:`repro.ivm` check the stamp instead of trusting
    object identity conventions.  The database holds no scan cache: a
    table's object batch and encodings (in each annotation
    representation: an ``N[X]`` table as term ids and, for circuit
    plans, as gate ids) live on the relation version itself
    (:func:`repro.plan.encoded.encoded_scan`), so every catalog holding
    that version reads them.

    Concurrency contract (the serving layer's foundation): mutations are
    **copy-on-write** — :meth:`add`/:meth:`update` build a fresh name →
    relation dict and publish it with a single reference assignment, so
    the dict bound at any instant is immutable from then on.  Writers are
    serialised by the per-database :attr:`_lock` (an ``RLock``; the
    incremental engine re-enters it).  Concurrent readers that need a
    *consistent multi-relation view* must pin one via :meth:`snapshot`
    — reading relations directly off a database while a writer races may
    interleave two versions across lookups.  A pinned
    :class:`DatabaseSnapshot` shares this database's plan-cache
    identity and holds its relation versions, encodings included, so
    prepared queries stay hot across snapshot handoffs.
    """

    __slots__ = ("semiring", "_relations", "_version", "_lock")

    def __init__(self, semiring: Semiring, relations: Mapping[str, KRelation] = ()):
        self.semiring = semiring
        self._relations: Dict[str, KRelation] = {}
        self._version = 0
        self._lock = threading.RLock()
        for name, relation in dict(relations).items():
            self.add(name, relation)

    @property
    def version(self) -> int:
        """Monotonic mutation counter: bumped by every :meth:`add`/:meth:`update`."""
        return self._version

    @property
    def root(self) -> "KDatabase":
        """The database that owns the shared caches (self; see snapshots)."""
        return self

    def snapshot(self) -> "DatabaseSnapshot":
        """Pin the current ``(relations, version)`` pair as an immutable view.

        The returned :class:`DatabaseSnapshot` evaluates queries exactly
        like this database but never changes: a concurrent
        :meth:`update` publishes a *new* relations dict and leaves every
        outstanding snapshot reading the one it captured.  Taken under
        the writer lock, so the pair is always mutually consistent.
        """
        with self._lock:
            return DatabaseSnapshot(self)

    def add(self, name: str, relation: KRelation) -> None:
        """Register ``relation`` under ``name`` (same semiring required)."""
        if relation.semiring is not self.semiring:
            raise SemiringError(
                f"relation {name!r} is annotated in {relation.semiring.name}, "
                f"database uses {self.semiring.name}"
            )
        with self._lock:
            relations = dict(self._relations)
            relations[name] = relation
            self._relations = relations
            self._version += 1

    def update(
        self, deltas: "Mapping[str, KRelation] | KDatabase"
    ) -> None:
        """Fold per-relation deltas in: each named relation becomes ``R ∪ dR``.

        Annotations add (``+_K``), so for bag semantics a delta inserts
        copies, and for ring-annotated databases (``Z``, ``Z[X]``) a delta
        row carrying the additive inverse of an existing annotation
        *deletes* it — the Gupta–Mumick counting story in semiring form.
        Every named relation must already exist (use :meth:`add` to create
        tables); schemas must match.  Validation happens before the first
        mutation, so a bad delta leaves the database untouched — and the
        whole batch is published with one reference assignment under the
        writer lock, so a reader never observes some relations updated
        and others not.  Any non-empty update leaves :attr:`version`
        strictly larger (one bump per batch).

        A delta *is* the update — ``(R ∪ ΔR)(t) = R(t) +_K ΔR(t)`` — so
        the new version differs from the old only on ``supp(ΔR)``.  A
        small delta costs ``O(|ΔR|)``: the new relation shares the old
        one's rows and layers the delta over them (the old version, and
        every snapshot holding it, keeps its value; see
        :class:`~repro.core.relation.KRelation`), and a version the
        encoded tier has scanned hands its encodings to the new one
        across a pure insert: the old image followed by the encoded delta
        (:func:`repro.plan.encoded.carry_forward`), not a re-encode of
        the whole table on the next read.
        """
        from repro.core.operators import union  # local: operators import relation only
        from repro.plan.encoded import carry_forward  # local: plan imports core

        with self._lock:
            items = self.check_deltas(deltas)
            if not items:
                return
            relations = dict(self._relations)
            for name, delta in items.items():
                old = relations[name]
                new = relations[name] = union(old, delta)
                carry_forward(old, delta, new)
            self._relations = relations
            self._version += 1

    def adopt(self, folded: "KDatabase", names: Iterable[str]) -> None:
        """Take ``folded``'s versions of ``names``: the result of a delta
        batch another catalog has already folded in.

        The contract is the caller's: each named relation here is the
        very version ``folded`` held before its :meth:`update` of the
        batch (a served view's catalog is a clone of the published
        relations), so the adopted catalog equals what :meth:`update`
        would have folded here — and shares ``folded``'s versions, with
        the encodings carried onto them, so nothing is folded or carried
        twice.  One :attr:`version` bump, published with one reference
        assignment under the writer lock, as :meth:`update` does.
        """
        names = list(names)
        if not names:
            return
        with self._lock:
            relations = dict(self._relations)
            for name in names:
                relations[name] = folded.relation(name)
            self._relations = relations
            self._version += 1

    def check_deltas(
        self, deltas: "Mapping[str, KRelation] | KDatabase"
    ) -> Dict[str, KRelation]:
        """Normalise and validate a delta batch without mutating anything.

        Returns a plain ``name -> KRelation`` dict after checking that
        every named relation exists and that each delta matches its
        base's semiring and schema.  The shared validation behind
        :meth:`update` and :meth:`repro.ivm.MaterializedView.apply` (the
        view must reject a bad batch *before* patching its state).
        """
        items = dict(iter(deltas)) if isinstance(deltas, KDatabase) else dict(deltas)
        for name, delta in items.items():
            base = self.relation(name)
            if delta.semiring is not self.semiring:
                raise SemiringError(
                    f"delta for {name!r} is annotated in {delta.semiring.name}, "
                    f"database uses {self.semiring.name}"
                )
            if delta.schema != base.schema:
                raise SchemaError(
                    f"delta for {name!r} has schema {delta.schema}, base has "
                    f"{base.schema}"
                )
        return items

    def relation(self, name: str) -> KRelation:
        """Look up a relation; raises :class:`QueryError` when absent."""
        try:
            return self._relations[name]
        except KeyError:
            raise QueryError(f"no relation named {name!r} in database") from None

    def __getitem__(self, name: str) -> KRelation:
        return self.relation(name)

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Tuple[str, KRelation]]:
        return iter(sorted(self._relations.items()))

    def names(self) -> Tuple[str, ...]:
        """All relation names, sorted."""
        return tuple(sorted(self._relations))

    def apply_hom(self, hom: Homomorphism) -> "KDatabase":
        """``h_Rel`` on every relation: the homomorphic database image."""
        out = KDatabase(hom.target)
        for name, relation in self:
            out.add(name, relation.apply_hom(hom))
        return out

    def pretty(self) -> str:
        """Render every relation as a titled text table."""
        blocks = []
        for name, relation in self:
            blocks.append(f"{name}:\n{relation.pretty()}")
        return "\n\n".join(blocks)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<KDatabase over {self.semiring.name}: {', '.join(self.names())}>"


class DatabaseSnapshot(KDatabase):
    """An immutable, version-pinned view of a :class:`KDatabase`.

    Captures the parent's published relations dict and version stamp at
    construction; queries evaluate against it exactly as against the
    parent, but a concurrent ``db.update`` never changes what this object
    reads — that is the serving layer's snapshot-isolation contract
    (:mod:`repro.serve`).  Mutating methods raise.

    Plan-cache identity is *shared with the parent*: :attr:`root` (the
    plan-cache anchor of :meth:`repro.core.query.Query._cached_plan`)
    delegates to the parent database, so every snapshot of the same
    version reuses the same compiled plans.  Encodings need no sharing:
    they live on the relation versions the snapshot holds, so a snapshot
    of a later version re-encodes only the tables whose version has none.
    """

    __slots__ = ("_parent",)

    def __init__(self, parent: KDatabase):
        # deliberately no super().__init__: capture, don't rebuild
        self.semiring = parent.semiring
        self._parent = parent.root
        self._relations = parent._relations  # published dict: never mutated
        self._version = parent._version

    @property
    def root(self) -> KDatabase:
        return self._parent

    def snapshot(self) -> "DatabaseSnapshot":
        return self  # already immutable

    # the writer lock is the parent's: the slot descriptor of KDatabase
    # is shadowed by this property
    @property
    def _lock(self):
        return self._parent._lock

    def _read_only(self, *_args, **_kwargs) -> None:
        raise QueryError(
            "database snapshot is read-only: mutate the parent database "
            "(snapshots pin one published version)"
        )

    add = update = adopt = _read_only

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DatabaseSnapshot v{self._version} over {self.semiring.name}: "
            f"{', '.join(self.names())}>"
        )
