"""Commutative monoids: the aggregation structures of Section 2.2.

The paper models every aggregation function by a commutative monoid
``(M, +_M, 0_M)``: SUM = (R, +, 0), MIN = (R∪{±∞}, min, +∞), and so on.
Two facts drive the whole construction:

* every commutative monoid carries a canonical ``N``-semimodule structure
  (``n * x = x + ... + x``), which is why bags aggregate natively;
* a monoid is a ``B``-semimodule iff it is *idempotent* (``x + x = x``),
  which is why MIN/MAX work on sets but SUM does not (Section 3.4).

Monoid elements are plain Python values (numbers, booleans, pairs).
"""

from __future__ import annotations

import abc
import sys
from typing import Any, Iterable, Optional, Tuple

from repro.exceptions import MonoidError

__all__ = ["CommutativeMonoid", "check_monoid_axioms", "reduce_as_global"]


def reduce_as_global(self, protocol):
    """``__reduce_ex__`` of monoids and semirings: a module-level singleton
    (``SUM``, ``NAT``, ``NX``, ...) pickles and copies as the *name* of its
    global, so every copy is the same object — tensor spaces are cached
    per ``(semiring, monoid)`` identity, and a stranger's tensors would
    compare with nothing.  Anything else pickles as usual."""
    for name, value in vars(sys.modules[type(self).__module__]).items():
        if value is self:
            return name
    return object.__reduce_ex__(self, protocol)


class CommutativeMonoid(abc.ABC):
    """Abstract commutative monoid ``(M, +_M, 0_M)`` for aggregation.

    ``collapse_kernel`` declares, the way
    :class:`~repro.semirings.base.MachineRepr` does for a semiring, that
    Prop. 3.9's collapsed value ``sum_M k.m`` of a tensor can be computed
    by an array reduction: ``(ufunc name, scales)`` names the NumPy ufunc
    that is ``+_M`` elementwise and says how ``N`` acts — ``scales`` is
    True when ``n.m`` is the product ``n * m`` (SUM), False when ``n.m = m``
    for every ``n > 0`` (MIN, MAX).  ``None``: no kernel, the value is
    folded by :meth:`sum` on first use.  A declaration (not an identity
    test) because pool workers hold unpickled structures.
    """

    #: Human-readable name, e.g. ``"SUM"``.
    name: str = "M"

    #: True iff ``x + x = x`` (drives B-compatibility; Prop. 3.11).
    idempotent: bool = False

    #: Array form of the collapse ``sum_M k.m`` (see the class docstring).
    collapse_kernel: Optional[Tuple[str, bool]] = None

    __reduce_ex__ = reduce_as_global

    @property
    @abc.abstractmethod
    def identity(self) -> Any:
        """The neutral element ``0_M``."""

    @abc.abstractmethod
    def plus(self, a: Any, b: Any) -> Any:
        """The commutative, associative operation ``+_M``."""

    @abc.abstractmethod
    def contains(self, value: Any) -> bool:
        """Return ``True`` iff ``value`` is an element of this monoid."""

    def sum(self, items: Iterable[Any]) -> Any:
        """Fold ``+_M`` over ``items`` (``0_M`` for the empty iterable)."""
        result = self.identity
        for item in items:
            result = self.plus(result, item)
        return result

    def exact(self, value: Any) -> bool:
        """Whether ``value`` folds exactly: every grouping of a fold over
        exact values (each scaled by the ``N`` action) gives one value, bit
        for bit and type for type.  A collapsing tensor stores its exact
        values as one entry, their collapsed value, beside the others
        (:mod:`repro.semimodules.tensor`).  ``False`` unless a monoid says
        otherwise: its tensors keep their entries."""
        return False

    def nat_action(self, n: int, a: Any) -> Any:
        """The canonical ``N``-semimodule action: ``n * a = a + ... + a``.

        Subclasses override with a closed form (e.g. multiplication for
        SUM); the default repeated addition is always correct.
        """
        if n < 0:
            raise MonoidError(f"natural action requires n >= 0, got {n}")
        result = self.identity
        for _ in range(n):
            result = self.plus(result, a)
        return result

    def format(self, a: Any) -> str:
        """Render element ``a`` for display."""
        return str(a)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<monoid {self.name}>"


def check_monoid_axioms(monoid: CommutativeMonoid, samples: Iterable[Any]) -> None:
    """Verify identity, commutativity, associativity on a finite sample.

    Raises :class:`MonoidError` naming the first violated law.  Exposed for
    users defining custom aggregation monoids.
    """
    elems = list(samples)
    identity = monoid.identity

    for a in elems:
        if monoid.plus(a, identity) != a:
            raise MonoidError(f"{monoid.name}: identity law violated on {a!r}")
        if monoid.idempotent and monoid.plus(a, a) != a:
            raise MonoidError(f"{monoid.name}: idempotence violated on {a!r}")

    for a in elems:
        for b in elems:
            if monoid.plus(a, b) != monoid.plus(b, a):
                raise MonoidError(
                    f"{monoid.name}: commutativity violated on ({a!r}, {b!r})"
                )

    for a in elems:
        for b in elems:
            for c in elems:
                left = monoid.plus(monoid.plus(a, b), c)
                right = monoid.plus(a, monoid.plus(b, c))
                if left != right:
                    raise MonoidError(
                        f"{monoid.name}: associativity violated on ({a!r}, {b!r}, {c!r})"
                    )

    for a in elems:
        for n in (0, 1, 2, 3):
            expected = monoid.sum([a] * n)
            if monoid.nat_action(n, a) != expected:
                raise MonoidError(
                    f"{monoid.name}: nat_action({n}, {a!r}) disagrees with repeated +"
                )
