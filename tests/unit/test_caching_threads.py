"""Thread-safety regressions for the shared cache primitives.

``LRUDict`` is the cache container behind prepared plans, encoded
tables, and per-connection prepared SQL in the server — all of which are
hit from worker threads concurrently.  Every LRU *lookup* is also a
*write* (pop + reinsert to refresh recency), so the pre-fix
implementation corrupted its OrderedDict under concurrent readers: the
classic failure is a ``KeyError``/``RuntimeError`` out of ``move``
bookkeeping, or a silently lost entry.  These tests hammer the container
from many threads and assert it neither raises nor lies.

The ``items()`` regression is subtler: it used to return the *iterator*
``self._data.items()`` view, which (a) raced mutation and (b) could only
be consumed while no other thread touched the dict.  It now returns a
list snapshot — reusable and mutation-immune.
"""

from __future__ import annotations

import threading

import pytest

from repro.caching import LRUDict

THREADS = 8
ROUNDS = 400


def _hammer(fn):
    """Run ``fn(worker_index)`` on THREADS threads, re-raising any error."""
    errors = []
    barrier = threading.Barrier(THREADS)

    def body(i):
        try:
            barrier.wait()
            fn(i)
        except Exception as exc:  # pragma: no cover - the failure path
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def test_concurrent_get_same_hot_key():
    """N readers refreshing one key: the pop+reinsert races are the bug."""
    cache = LRUDict(maxsize=4)
    cache["hot"] = "value"

    def reader(_i):
        for _ in range(ROUNDS):
            assert cache.get("hot") == "value"
            assert cache["hot"] == "value"

    _hammer(reader)
    assert cache.get("hot") == "value"


def test_concurrent_mixed_read_write_evict():
    """Readers + writers + eviction pressure: no exception, bounded size."""
    cache = LRUDict(maxsize=16)
    for k in range(16):
        cache[k] = k

    def worker(i):
        for r in range(ROUNDS):
            key = (i * ROUNDS + r) % 48
            if r % 3 == 0:
                cache[key] = key
            else:
                value = cache.get(key)
                assert value is None or value == key

    _hammer(worker)
    assert len(cache) <= 16
    for key, value in cache.items():
        assert key == value


def test_concurrent_pop_is_exclusive():
    """Each inserted key is popped by exactly one thread."""
    cache = LRUDict(maxsize=10_000)
    for k in range(THREADS * ROUNDS):
        cache[k] = k
    won = [0] * THREADS

    def worker(i):
        for k in range(THREADS * ROUNDS):
            if cache.pop(k, None) is not None:
                won[i] += 1

    _hammer(worker)
    assert sum(won) == THREADS * ROUNDS
    assert len(cache) == 0


def test_items_returns_reusable_snapshot():
    """items() is a list: iterate it twice, and mutation can't tear it."""
    cache = LRUDict(maxsize=8)
    cache["a"] = 1
    cache["b"] = 2
    snapshot = cache.items()
    assert list(snapshot) == [("a", 1), ("b", 2)]
    # the regression: a one-shot view was empty on the second pass
    assert list(snapshot) == [("a", 1), ("b", 2)]
    cache["c"] = 3
    assert list(snapshot) == [("a", 1), ("b", 2)]  # immune to later writes


def test_items_snapshot_during_concurrent_writes():
    cache = LRUDict(maxsize=32)
    stop = threading.Event()

    def writer():
        k = 0
        while not stop.is_set():
            cache[k % 64] = k
            k += 1

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        for _ in range(200):
            for key, value in cache.items():  # must never raise RuntimeError
                assert value % 64 == key
    finally:
        stop.set()
        thread.join()


def test_iter_is_snapshot():
    cache = LRUDict(maxsize=8)
    cache["a"] = 1
    cache["b"] = 2
    keys = iter(cache)
    cache["c"] = 3  # mutation mid-iteration must not raise
    assert sorted(keys) == ["a", "b"]


def test_lru_semantics_survive_the_lock():
    """The lock must not have broken recency: get() refreshes, evict is LRU."""
    cache = LRUDict(maxsize=2)
    cache["a"] = 1
    cache["b"] = 2
    assert cache.get("a") == 1  # refresh "a"; "b" is now least recent
    cache["c"] = 3
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    with pytest.raises(KeyError):
        cache["b"]


def test_circuit_builder_concurrent_interning_unique_ids():
    """CircuitBuilder._make under contention: gate ids must stay unique.

    The pre-fix hazard: a non-atomic ``_counter += 1`` plus unlocked
    interning could hand two gates the same id, silently aliasing
    distinct gates in the id-pair-keyed binary memo tables.
    """
    from repro.circuits.nodes import CircuitBuilder

    builder = CircuitBuilder()
    made = [[] for _ in range(THREADS)]

    def worker(i):
        for r in range(ROUNDS):
            made[i].append(builder.var(f"x{i}_{r}"))

    _hammer(worker)
    gates = [g for chunk in made for g in chunk]
    ids = [g._id for g in gates]
    assert len(set(ids)) == len(ids), "duplicate gate ids issued under contention"
    # interning still works across threads after the fact
    assert builder.var("x0_0") is made[0][0]


def test_concurrent_first_reads_of_a_layered_version():
    """Each round, THREADS threads make the first reads of one fresh
    layered relation version — ``rows()``, ``len``, ``==``, ``hash`` and
    ``ColumnarKRelation.from_krelation`` — racing to flatten it, while a
    writer layers newer versions over the same ones.  Every thread must
    see exactly its version's rows: two first readers may both flatten,
    but each publishes an equal map with one attribute store."""
    import sys

    from repro.core import KRelation, Tup
    from repro.core.operators import union
    from repro.plan.columnar import ColumnarKRelation
    from repro.semirings import INT

    def rel(rows):
        return KRelation.from_rows(INT, ("k", "v"), rows)

    rounds = 30
    versions = [rel([((k, k % 5), 1) for k in range(2_000)])]
    expected = [dict(versions[0].rows())]
    for r in range(rounds):
        # an insert, a collision and a cancellation per version
        delta = rel([((10_000 + r, 0), 1), ((r, r % 5), 2), ((1_000 + r, r % 5), -1)])
        versions.append(union(versions[-1], delta))
        rows = dict(expected[-1])
        for tup, annotation in delta.rows():
            total = rows.get(tup, 0) + annotation
            if total:
                rows[tup] = total
            else:
                del rows[tup]
        expected.append(rows)
    flat = [KRelation(INT, ("k", "v"), rows) for rows in expected]
    assert all(v._flat is None for v in versions[1:])  # nobody read them yet

    def reads(version, want):
        return [
            lambda: dict(version.rows()) == want._rows,
            lambda: len(version) == len(want),
            lambda: version == want,
            lambda: hash(version) == hash(want),
            lambda: ColumnarKRelation.from_krelation(version).to_krelation() == want,
        ]

    done = threading.Event()
    writer_errors = []
    extra = Tup({"k": -1, "v": 0})

    def writer():
        try:
            while not done.is_set():
                for r in range(1, rounds + 1):
                    newer = union(versions[r], rel([((-1, 0), 1)]))
                    assert newer.annotation(extra) == 1
                    assert dict(newer.rows()) == {**expected[r], extra: 1}
        except Exception as exc:  # pragma: no cover - the failure path
            writer_errors.append(exc)

    barrier = threading.Barrier(THREADS, timeout=60)

    def reader(i):
        for r in range(1, rounds + 1):
            barrier.wait()
            checks = reads(versions[r], flat[r])
            for k in range(len(checks)):
                assert checks[(i + k) % len(checks)](), (r, (i + k) % len(checks))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads inside a flatten
    thread = threading.Thread(target=writer)
    thread.start()
    try:
        _hammer(reader)
    finally:
        done.set()
        thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    if writer_errors:
        raise writer_errors[0]
    assert all(v._flat is not None and v._base is None for v in versions[1:])


def test_concurrent_first_reads_of_a_column_held_load():
    """Each round, four threads make the first reads of one fresh
    column-held bulk load — ``rows()``, ``in``, ``==``, ``hash``, a scan's
    ``from_krelation`` and the serialiser's ``columns()`` — racing to
    lower it.  Every thread must see exactly the eager relation's rows in
    its order: two first readers may both lower, but each publishes an
    equal map with one attribute store, and a reader of the columns gets
    the held lists or the lowered map's, never a half-built one."""
    import sys

    from repro.core import KRelation, Tup
    from repro.plan.columnar import ColumnarKRelation
    from repro.semirings import NAT

    readers = 4
    rows = [((k, f"g{k % 7}", k * 0.5), 1 + k % 3) for k in range(3_000)]
    attrs = ("k", "g", "v")
    want = KRelation(NAT, attrs, [(Tup(dict(zip(attrs, v))), a) for v, a in rows])
    want_rows = list(want.rows())
    want_columns = want.columns()
    probe = Tup({"k": 2_999, "g": "g3", "v": 1_499.5})

    def reads(rel):
        return [
            lambda: list(rel.rows()) == want_rows,
            lambda: probe in rel and rel.annotation(probe) == 3,
            lambda: rel == want,
            lambda: hash(rel) == hash(want),
            lambda: ColumnarKRelation.from_krelation(rel).to_krelation() == want,
            lambda: rel.columns() == want_columns,
        ]

    rounds = 20
    loads = [KRelation.from_rows(NAT, attrs, rows) for _ in range(rounds)]
    assert all(rel._held is not None for rel in loads)
    barrier = threading.Barrier(readers, timeout=60)
    errors = []

    def reader(i):
        try:
            for rel in loads:
                barrier.wait()
                checks = reads(rel)
                for k in range(len(checks)):
                    assert checks[(i + k) % len(checks)](), (i, (i + k) % len(checks))
        except Exception as exc:  # pragma: no cover - the failure path
            errors.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads inside a lowering
    threads = [threading.Thread(target=reader, args=(i,)) for i in range(readers)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    if errors:
        raise errors[0]
    assert all(rel._held is None and list(rel.rows()) == want_rows for rel in loads)
