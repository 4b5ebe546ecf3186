"""Deterministic fault injection and resilience counters.

The engine is a concurrent system — worker processes exchanging
shared-memory segments, a threaded serving layer, persisted snapshots —
and every recovery path in it (morsel retry, pool rebuild, shm
republish, snapshot rebuild, circuit breaking, deadline expiry) is
exercised by *injected* faults, never by hoping production crashes
reproduce.  This module is the single switchboard:

* **Injection points** are named call sites in production code.  Each
  point stays a near-free no-op until a :class:`FaultSpec` arms it —
  via the :func:`inject` context manager (tests, the chaos suite) or the
  ``REPRO_FAULTS`` environment variable (long-running processes,
  spawned workers)::

      with faults.inject("kill_worker", seed=7):
          plan.execute()          # one worker dies mid-morsel, query recovers

      REPRO_FAULTS="latency:ms=50:times=3,kernel_error:seed=1"

* **Determinism**: a spec fires a bounded number of ``times``; *which*
  firing hits which site is a pure function of ``seed`` (morsel targets,
  corrupted byte offsets, latency durations all derive from
  ``random.Random`` seeded per firing), so a failing chaos example
  replays exactly.

* **Counters**: every injected fault, morsel retry, pool rebuild,
  breaker trip, deadline expiry and snapshot rebuild increments the
  ``repro_resilience_events_total`` family in the process-wide metrics
  registry (:mod:`repro.obs.metrics`); the serving layer exports it
  cumulatively under ``/stats`` and ``/metrics``; read it in-process
  with :func:`repro.obs.metrics.resilience_counters`.

The injection points this build wires up:

====================  =====================================================
``kill_worker``       a parallel-tier worker ``os._exit``\\ s mid-morsel
``kernel_error``      an exception raised inside a worker's kernel execution
``latency``           a seeded sleep inside scans / worker morsels
``drop_shm``          a published shared-memory segment unlinked early
``corrupt_shm``       one byte of a published segment flipped
``truncate_snapshot`` a snapshot file truncated before the atomic rename
``wal_torn_tail``     a WAL append crashes mid-record (prefix on disk,
                      write not acknowledged) — recovery must truncate
``wal_corrupt_record`` one byte of an *acknowledged* WAL record flipped
                      after the write (latent media corruption) —
                      recovery must refuse with ``WalCorrupt``
``fsync_error``       a WAL fsync raises (dying disk / full volume) —
                      the writer reports unwritable, the server 503s
====================  =====================================================

Worker-side faults (``kill_worker``, ``kernel_error``, ``latency``) are
*armed by the parent* per dispatched morsel and shipped inside the task
tuple — budgets live in one process, so a retry of the killed morsel
finds the budget spent and succeeds deterministically.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs import metrics as _metrics

__all__ = [
    "FaultSpec",
    "InjectedFault",
    "active",
    "bump",
    "inject",
    "install_from_env",
    "reset_counters",
    "should_fire",
    "sleep_point",
]

#: Every fault point known to this build (guards against typos in tests).
POINTS = frozenset(
    {
        "kill_worker",
        "kernel_error",
        "latency",
        "drop_shm",
        "corrupt_shm",
        "truncate_snapshot",
        "wal_torn_tail",
        "wal_corrupt_record",
        "fsync_error",
    }
)

#: Hard cap on injected latency, so a typo cannot hang a suite.
MAX_LATENCY_S = 5.0


class InjectedFault(Exception):
    """An error deliberately raised by an armed injection point.

    Recovery machinery treats it as transient (retryable), exactly like
    the real crash class it stands in for.
    """


class FaultSpec:
    """One armed fault: a point name, a firing budget, and a seed.

    ``params`` carries point-specific knobs (``ms`` for latency,
    ``morsel`` to pin a worker-side target).  Thread-safe: the budget is
    consumed under the module lock.
    """

    __slots__ = ("point", "seed", "times", "params", "fired")

    def __init__(self, point: str, seed: int = 0, times: int = 1, **params: Any):
        if point not in POINTS:
            raise ValueError(f"unknown fault point {point!r} (known: {sorted(POINTS)})")
        if times < 1:
            raise ValueError(f"times must be positive, got {times}")
        self.point = point
        self.seed = int(seed)
        self.times = int(times)
        self.params = params
        self.fired = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FaultSpec {self.point} seed={self.seed} "
            f"fired={self.fired}/{self.times}>"
        )


_LOCK = threading.Lock()
_ACTIVE: List[FaultSpec] = []


@contextmanager
def inject(point: str, *, seed: int = 0, times: int = 1, **params: Any) -> Iterator[FaultSpec]:
    """Arm ``point`` for the duration of the block (re-entrant, thread-safe)."""
    spec = FaultSpec(point, seed=seed, times=times, **params)
    with _LOCK:
        _ACTIVE.append(spec)
    try:
        yield spec
    finally:
        with _LOCK:
            try:
                _ACTIVE.remove(spec)
            except ValueError:  # pragma: no cover - double-removal guard
                pass


def install_from_env(env: Optional[str] = None) -> List[FaultSpec]:
    """Arm faults from a ``REPRO_FAULTS`` spec string, for processes that
    cannot wrap their work in :func:`inject` (servers, spawned workers).

    Format: comma-separated ``point[:key=value]...`` entries, e.g.
    ``"kill_worker:seed=7,latency:ms=50:times=3"``.  Returns the armed
    specs (they stay armed until process exit or explicit removal).
    """
    text = os.environ.get("REPRO_FAULTS", "") if env is None else env
    specs: List[FaultSpec] = []
    for entry in filter(None, (e.strip() for e in text.split(","))):
        head, *opts = entry.split(":")
        kwargs: Dict[str, Any] = {}
        for opt in opts:
            key, _, value = opt.partition("=")
            try:
                kwargs[key.strip()] = int(value)
            except ValueError:
                kwargs[key.strip()] = value
        seed = kwargs.pop("seed", 0)
        times = kwargs.pop("times", 1)
        specs.append(FaultSpec(head.strip(), seed=seed, times=times, **kwargs))
    with _LOCK:
        _ACTIVE.extend(specs)
    return specs


def active(point: str) -> Optional[FaultSpec]:
    """The first armed spec for ``point`` with budget remaining, or None.

    Cheap when nothing is armed: one lock-free truthiness check.
    """
    if not _ACTIVE:
        return None
    with _LOCK:
        for spec in _ACTIVE:
            if spec.point == point and spec.fired < spec.times:
                return spec
    return None


def should_fire(point: str, **context: Any) -> Optional[Dict[str, Any]]:
    """Consume one firing of ``point`` if armed; return the firing recipe.

    The recipe carries the spec's ``params``, the firing ordinal, and a
    deterministic ``rng`` seeded by ``(seed, point, ordinal)`` for any
    random choice the site needs (byte offsets, durations).  ``context``
    lets a site veto a firing against a pinned parameter — e.g. a
    ``morsel`` param only fires for the matching ``morsel=`` context.
    When the site offers morsel context (``morsel=`` + ``n_morsels=``)
    and the spec pins nothing, the target morsel derives from the seed:
    ``(seed + ordinal) % n_morsels`` — so chaos runs with different seeds
    kill different workers, deterministically.
    """
    if not _ACTIVE:
        return None
    with _LOCK:
        for spec in _ACTIVE:
            if spec.point != point or spec.fired >= spec.times:
                continue
            pinned = spec.params.get("morsel")
            if (
                pinned is None
                and context.get("morsel") is not None
                and context.get("n_morsels")
            ):
                pinned = (spec.seed + spec.fired) % int(context["n_morsels"])
            if pinned is not None and context.get("morsel") != pinned:
                continue
            ordinal = spec.fired
            spec.fired += 1
            recipe = {
                "point": point,
                "seed": spec.seed,
                "ordinal": ordinal,
                "rng": random.Random(f"{spec.seed}:{point}:{ordinal}"),
                **spec.params,
            }
            _bump_locked("faults_injected")
            return recipe
    return None


def sleep_point(point: str = "latency", **context: Any) -> float:
    """The latency injection site: sleep a seeded duration if armed.

    Returns the seconds slept (0.0 when disarmed) so tests can assert the
    injection happened.  Duration: the ``ms`` param if given, else a
    deterministic 1–50 ms draw from the firing's rng; always capped at
    :data:`MAX_LATENCY_S`.
    """
    recipe = should_fire(point, **context)
    if recipe is None:
        return 0.0
    ms = recipe.get("ms")
    if ms is None:
        ms = recipe["rng"].randint(1, 50)
    seconds = min(float(ms) / 1e3, MAX_LATENCY_S)
    time.sleep(seconds)
    return seconds


# ---------------------------------------------------------------------------
# the resilience ledger — stored in the repro.obs.metrics registry
# ---------------------------------------------------------------------------

#: The event labels of ``repro_resilience_events_total`` (kept for
#: callers that enumerate the ledger; the registry pre-seeds them all).
_COUNTER_NAMES = _metrics.RESILIENCE_EVENT_NAMES


def _bump_locked(name: str, n: int = 1) -> None:
    # called while holding _LOCK; the metric family's own lock nests
    # safely under it because metrics code never calls back into faults
    _metrics.RESILIENCE_EVENTS.inc(n, name)


def bump(name: str, n: int = 1) -> None:
    """Increment a resilience counter (thread-safe)."""
    _metrics.RESILIENCE_EVENTS.inc(n, name)


def reset_counters() -> None:
    """Zero the ledger (tests)."""
    _metrics.reset_resilience()


# Arm env-declared faults at import: spawned worker processes re-import
# this module from scratch, so a REPRO_FAULTS setting reaches them even
# though the parent's in-memory specs do not.
if os.environ.get("REPRO_FAULTS"):  # pragma: no cover - env-driven path
    install_from_env()
