"""The server's admission gates: who may evaluate now, who waits, who is shed.

A request runs start to finish on the thread that read it off its
connection (:mod:`repro.serve.server`); :class:`WorkerPool` is no pool
of threads but the gates that thread passes before it evaluates:

* a **global** gate sized ``workers + max_queue``: when that many
  requests are already evaluating or waiting, a further one is rejected
  *immediately* with :class:`ServerOverloaded` (the server maps it to
  HTTP 503 + ``Retry-After``) instead of building an unbounded backlog —
  load-shedding backpressure, not buffering;
* a **heavy** gate (default one slot) for symbolic-provenance work:
  polynomial/circuit queries can be orders of magnitude more expensive
  than concrete-semiring kernels and would monopolise the CPU, so their
  concurrency is capped separately and the cheap traffic keeps flowing
  around them (serialising circuit work also keeps the shared gate
  universe contention-free — interning is thread-safe, but one writer at
  a time is faster and predictable);
* an **execution** semaphore of ``workers`` slots: an admitted request
  blocks here until it may evaluate, so ``workers`` caps concurrent
  evaluations however many connections are open.

Threads (not processes) evaluate: the kernels release the GIL inside
NumPy, the annotation structures are not picklable in general, and —
decisively — the whole design leans on *shared* caches (encodings,
plans, the process's one gate builder) that processes would forfeit.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional

__all__ = ["ServerOverloaded", "WorkerPool"]

#: The ``Retry-After`` hint of an idle server, in seconds, and its cap
#: (see :meth:`WorkerPool.retry_after`).
RETRY_AFTER_BASE = 1.0
RETRY_AFTER_MAX = 30.0


class ServerOverloaded(Exception):
    """Admission control rejected the request; retry after backoff."""

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class WorkerPool:
    """Admission gates + an execution semaphore for CPU-bound request work."""

    def __init__(
        self,
        workers: Optional[int] = None,
        max_queue: int = 32,
        heavy_slots: int = 1,
    ):
        if workers is None:
            workers = min(8, (os.cpu_count() or 2))
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if heavy_slots <= 0:
            raise ValueError(f"heavy_slots must be positive, got {heavy_slots}")
        self.workers = workers
        self._admission = threading.BoundedSemaphore(workers + max_queue)
        self._heavy = threading.BoundedSemaphore(min(heavy_slots, workers))
        self._running = threading.BoundedSemaphore(workers)
        self._stats_lock = threading.Lock()
        self.completed = 0
        self.rejected = 0
        self.heavy_rejected = 0
        # in-flight tracking for graceful drain: _idle is set whenever no
        # request is admitted
        self._in_flight = 0
        self._idle = threading.Event()
        self._idle.set()

    @contextmanager
    def admit(self, heavy: bool = False) -> Iterator[None]:
        """Hold an evaluation slot for the ``with`` body, or raise
        :class:`ServerOverloaded`.

        Admission is decided up front (non-blocking acquires), so a
        rejected request costs the client one round trip, never a slot;
        an admitted one then waits for one of the ``workers`` execution
        slots.  Every slot is released when the body exits.
        """
        if not self._admission.acquire(blocking=False):
            with self._stats_lock:
                self.rejected += 1
            raise ServerOverloaded(
                "server at capacity: worker queue full",
                retry_after=self.retry_after(),
            )
        if heavy and not self._heavy.acquire(blocking=False):
            self._admission.release()
            with self._stats_lock:
                self.heavy_rejected += 1
            raise ServerOverloaded(
                "server at capacity: symbolic-provenance slots busy",
                retry_after=self.retry_after(),
            )
        with self._stats_lock:
            self._in_flight += 1
            self._idle.clear()
        try:
            with self._running:
                yield
            with self._stats_lock:
                self.completed += 1
        finally:
            with self._stats_lock:
                self._in_flight -= 1
                if self._in_flight == 0:
                    self._idle.set()
            if heavy:
                self._heavy.release()
            self._admission.release()

    async def run(self, fn: Callable[..., Any], *args: Any, heavy: bool = False) -> Any:
        """``fn(*args)`` on the calling thread under :meth:`admit`."""
        with self.admit(heavy=heavy):
            return fn(*args)

    def in_flight(self) -> int:
        """Requests currently admitted (evaluating or awaiting a slot)."""
        with self._stats_lock:
            return self._in_flight

    def retry_after(self) -> float:
        """The backoff hint for a rejected request, derived from pressure.

        A fixed ``Retry-After: 1`` synchronises every rejected client
        into retry waves that land together and bounce again.  Scaling
        the hint with the ratio of in-flight work to worker slots
        (base × (1 + in_flight/workers), capped) makes the hint honest:
        a barely-full server invites a quick retry, a deeply backed-up
        one pushes the herd further out.
        """
        with self._stats_lock:
            pressure = self._in_flight / float(self.workers)
        return round(min(RETRY_AFTER_MAX, RETRY_AFTER_BASE * (1.0 + pressure)), 3)

    def stats(self) -> Dict[str, int]:
        with self._stats_lock:
            return {
                "workers": self.workers,
                "completed": self.completed,
                "rejected": self.rejected,
                "heavy_rejected": self.heavy_rejected,
                "in_flight": self._in_flight,
            }

    def shutdown(self, drain_timeout: Optional[float] = None) -> None:
        """Wait up to ``drain_timeout`` seconds for admitted requests to
        finish (the graceful-shutdown grace period).  A request still
        evaluating after it runs on; nothing can cancel it but its own
        deadline."""
        if drain_timeout and drain_timeout > 0:
            self._idle.wait(timeout=drain_timeout)
