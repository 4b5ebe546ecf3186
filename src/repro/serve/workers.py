"""The CPU side of the server: a thread pool with admission control.

Kernel work (plan execution, dictionary-encoded array kernels, circuit
lowering) is CPU-bound Python/NumPy — running it on the asyncio event
loop would head-of-line-block every connection.  :class:`WorkerPool`
moves it onto a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
behind two admission gates:

* a **global** gate sized ``workers + max_queue``: when that many
  requests are already running or queued, further submissions are
  rejected *immediately* with :class:`ServerOverloaded` (the server maps
  it to HTTP 503 + ``Retry-After``) instead of building an unbounded
  backlog — load-shedding backpressure, not buffering;
* a **heavy** gate (default one slot) for symbolic-provenance work:
  polynomial/circuit queries can be orders of magnitude more expensive
  than concrete-semiring kernels and monopolise workers, so their
  concurrency is capped separately and the cheap traffic keeps flowing
  around them.  (Serialising circuit work also keeps the shared gate
  universe contention-free — interning is thread-safe, but one writer at
  a time is faster and predictable.)

Threads (not processes) are the right pool here: the kernels release the
GIL inside NumPy, the annotation structures are not picklable in
general, and — decisively — the whole design leans on *shared* caches
(encodings, plans, gate images) that processes would forfeit.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional

__all__ = ["ServerOverloaded", "WorkerPool"]


class ServerOverloaded(Exception):
    """Admission control rejected the request; retry after backoff."""

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class WorkerPool:
    """Bounded thread pool + admission gates for CPU-bound request work."""

    def __init__(
        self,
        workers: Optional[int] = None,
        max_queue: int = 32,
        heavy_slots: int = 1,
        retry_after_base: float = 1.0,
        retry_after_max: float = 30.0,
    ):
        import os

        if workers is None:
            workers = min(8, (os.cpu_count() or 2))
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if heavy_slots <= 0:
            raise ValueError(f"heavy_slots must be positive, got {heavy_slots}")
        if retry_after_base <= 0:
            raise ValueError(
                f"retry_after_base must be positive, got {retry_after_base}"
            )
        self.workers = workers
        self.retry_after_base = float(retry_after_base)
        self.retry_after_max = float(retry_after_max)
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._admission = threading.BoundedSemaphore(workers + max_queue)
        self._heavy = threading.BoundedSemaphore(min(heavy_slots, workers))
        self._stats_lock = threading.Lock()
        self.completed = 0
        self.rejected = 0
        self.heavy_rejected = 0
        # in-flight tracking for graceful drain: _idle is set whenever no
        # request holds a worker thread
        self._in_flight = 0
        self._idle = threading.Event()
        self._idle.set()

    async def run(self, fn: Callable[..., Any], *args: Any, heavy: bool = False) -> Any:
        """Run ``fn(*args)`` on a worker thread, or raise :class:`ServerOverloaded`.

        Admission is decided *before* queueing (non-blocking acquires):
        a rejected request costs the client one round-trip, never a slot.
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
            future = self._executor.submit(fn, *args)
        except BaseException:
            self._land()
            if heavy:
                self._heavy.release()
            self._admission.release()
            raise
        # the decrement rides the *executor* future, not this coroutine:
        # it fires on the worker thread at completion (or at cancellation
        # of a queued future), so a graceful drain blocking the event
        # loop in shutdown() still observes the pool going idle
        future.add_done_callback(lambda _f: self._land())
        try:
            result = await asyncio.wrap_future(future)
            with self._stats_lock:
                self.completed += 1
            return result
        finally:
            if heavy:
                self._heavy.release()
            self._admission.release()

    def _land(self) -> None:
        with self._stats_lock:
            self._in_flight -= 1
            if self._in_flight == 0:
                self._idle.set()

    def in_flight(self) -> int:
        """Requests currently holding (or awaiting) a worker thread."""
        with self._stats_lock:
            return self._in_flight

    def retry_after(self) -> float:
        """The backoff hint for a rejected request, derived from pressure.

        A fixed ``Retry-After: 1`` synchronises every rejected client
        into retry waves that land together and bounce again.  Scaling
        the hint with the ratio of in-flight work to worker threads
        (base × (1 + in_flight/workers), capped) makes the hint honest:
        a barely-full pool invites a quick retry, a deeply backed-up one
        pushes the herd further out.
        """
        with self._stats_lock:
            pressure = self._in_flight / float(self.workers)
        return round(
            min(self.retry_after_max, self.retry_after_base * (1.0 + pressure)), 3
        )

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
        """Stop the pool.

        ``drain_timeout`` is the graceful-shutdown grace period in
        seconds: wait up to that long for in-flight requests to finish,
        *then* cancel whatever is still queued.  The previous behaviour
        (``None``/0: immediate ``cancel_futures=True``) dropped every
        in-flight query on the floor at shutdown — clients saw
        connections die mid-request even though the work was milliseconds
        from done.
        """
        if drain_timeout and drain_timeout > 0:
            self._idle.wait(timeout=drain_timeout)
        self._executor.shutdown(wait=False, cancel_futures=True)
