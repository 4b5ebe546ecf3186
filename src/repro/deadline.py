"""Query deadlines: a wall-clock budget threaded through execution.

A :class:`Deadline` is created at the request boundary (an HTTP
``timeout_ms``, a ``deadline=`` passed to ``PhysicalPlan.execute`` or
``Query.evaluate``; a bare number of seconds is turned into one there)
and checked
*cooperatively* at cheap, frequent points: once per physical operator on
entry and exit (:meth:`repro.plan.physical.PhysicalOp.execute`), once
at the start of each parallel-tier morsel, and while waiting on the
morsels.  Expiry raises :class:`~repro.exceptions.DeadlineExceeded` — the
serving layer maps it to HTTP 408 with ``Retry-After`` and the worker
slot is reclaimed as soon as the executing thread hits its next
checkpoint, instead of a runaway symbolic query holding a heavy slot
forever.

Checkpoints are attribute reads plus one ``time.monotonic()`` call, so a
query with no deadline pays a single ``is not None`` test per operator.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.exceptions import DeadlineExceeded

__all__ = ["Deadline", "DeadlineExceeded"]


class Deadline:
    """An absolute expiry on the monotonic clock.

    ``Deadline.after(seconds)`` is the usual constructor.  The first
    :meth:`check` past expiry raises and bumps the ``deadline_expiries``
    resilience counter exactly once per deadline (the raise propagates —
    later checks on an already-noted deadline still raise, but do not
    double-count).
    """

    __slots__ = ("expires_at", "budget", "_noted")

    def __init__(self, expires_at: float, budget: Optional[float] = None):
        self.expires_at = expires_at
        self.budget = budget
        self._noted = False

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now (``inf``: one that never expires)."""
        seconds = float(seconds)
        if seconds != seconds:
            raise ValueError("deadline budget must be a number, got nan")
        if seconds < 0:
            raise ValueError(f"deadline budget must be non-negative, got {seconds}")
        return cls(time.monotonic() + seconds, seconds)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self, context: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if time.monotonic() < self.expires_at:
            return
        if not self._noted:
            self._noted = True
            from repro import faults

            faults.bump("deadline_expiries")
        budget = f"{self.budget:.3f}s" if self.budget is not None else "deadline"
        where = f" at {context}" if context else ""
        raise DeadlineExceeded(
            f"query exceeded its {budget} budget{where}; the work was "
            "cancelled at the next cooperative checkpoint"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Deadline {self.remaining():+.3f}s remaining>"
