"""Bounded caches shared by the engine's memo structures.

Several per-database / per-builder memos grow with the *workload*, not
the data — the compiled-plan cache on query objects, the hash-consing
tables of circuit builders.  Unbounded, they are a production-traffic
footgun: a service evaluating many distinct queries against a long-lived
database accretes memory forever.  Circuit builders cap theirs by gate
generations (:mod:`repro.circuits.store`); :class:`LRUDict` is the cap
of the rest:
a ``dict`` with least-recently-used eviction, built on the insertion
order of the underlying dict (``move_to_end`` via delete + reinsert), so
lookups stay one hash away from a plain dict.

Eviction is always *semantically safe* for these consumers: a plan cache
miss recompiles, an interning miss creates a fresh (structurally equal)
gate.  Only sharing degrades, never correctness.

Thread safety: every LRU lookup *writes* (the recency refresh is a
``pop`` + reinsert), so unlike a plain dict, even read-only workloads
racing on one instance used to corrupt it — two threads popping the same
key leaves one with a spurious ``KeyError``, and interleaved pops can
drop entries outright.  Now that these caches are shared across server
workers (:mod:`repro.serve`), every method takes a per-instance mutex.
The critical sections are a handful of C-level dict operations, so the
lock is uncontended in practice and the single-threaded overhead is one
``lock``/``unlock`` pair per access.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["LRUDict"]


class LRUDict:
    """A dict with a maximum size and least-recently-used eviction.

    ``maxsize=None`` disables eviction (plain dict behaviour).  ``get``
    and ``__getitem__`` refresh recency; iteration order is
    least-recently-used first.  All operations are thread-safe;
    :meth:`items` and :meth:`__iter__` return point-in-time snapshots
    (reusable lists, unlike ``dict.items``'s live view — a live view over
    a concurrently-refreshed LRU would raise ``RuntimeError`` mid-walk).
    """

    __slots__ = ("maxsize", "_data", "_lock")

    def __init__(self, maxsize: Optional[int] = None):
        if maxsize is not None and maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._data: Dict[Any, Any] = {}
        self._lock = threading.Lock()

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            data = self._data
            if key not in data:
                return default
            value = data.pop(key)  # move to the most-recent end
            data[key] = value
            return value

    def __getitem__(self, key: Any) -> Any:
        with self._lock:
            data = self._data
            value = data.pop(key)
            data[key] = value
            return value

    def __setitem__(self, key: Any, value: Any) -> None:
        with self._lock:
            data = self._data
            if key in data:
                del data[key]
            elif self.maxsize is not None and len(data) >= self.maxsize:
                del data[next(iter(data))]
            data[key] = value

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Any]:
        with self._lock:
            return iter(list(self._data))

    def items(self) -> List[Tuple[Any, Any]]:
        """A reusable snapshot of ``(key, value)`` pairs, LRU-first.

        Deliberately a list, not a one-shot iterator: callers that
        iterate twice (or iterate while another thread refreshes
        recency) get stable, repeatable contents.
        """
        with self._lock:
            return list(self._data.items())

    def pop(self, key: Any, *default: Any) -> Any:
        with self._lock:
            return self._data.pop(key, *default)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cap = "∞" if self.maxsize is None else str(self.maxsize)
        return f"<LRUDict {len(self._data)}/{cap}>"
