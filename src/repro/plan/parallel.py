"""Morsel-driven shard-parallel execution of encoded plans.

The encoded tier (:mod:`repro.plan.encoded`) made concrete-semiring
execution a matter of array kernels over dictionary codes and flat
machine-scalar annotation arrays; this module runs those kernels across
a ``multiprocessing`` worker pool.  The algebra makes sharding exact by
construction:

* every allowed operator (σ, Π, ρ, join, union, the grouped-aggregate
  root) is **multilinear in the annotations**, so partitioning the rows
  of one designated base table — the *driver*, the largest scan — into
  morsels and summing the per-morsel results with ``+_K`` is the
  identity ``f(Σ_m A_m) = Σ_m f(A_m)``;
* the group-by merge **is semiring union**: partial per-group states
  (raw annotation totals plus tensors) from different morsels combine by
  ``+_K`` and tensor addition, and only then become ``delta``
  annotations — exactly the serial tail
  (:meth:`~repro.plan.physical.GroupedAggregate.finish_groups`).

What actually crosses the process boundary is *flat arrays, never
tuples*: each base table's code arrays and annotation array are
published once into
:mod:`multiprocessing.shared_memory` blocks (cached on the database next
to the encoding cache, invalidated by relation identity), the driver
pre-ordered by ``hash(partition-key codes) % morsels`` so each morsel is
one contiguous ``[start:stop)`` slice (:func:`repro.plan.encoded.slice_batch`
— dictionaries untouched, codes a view).  Column *dictionaries* ship
selectively: a static analysis marks the attributes whose decoded values
any operator can touch (condition attributes, join keys, group/aggregate
attributes, everything decoded at the root) and only those value lists
travel in the (per-plan cached) job spec; unmarked high-cardinality
dictionaries are replaced by opaque placeholders that abort the worker —
and the whole query falls back to serial — if the analysis ever missed a
read.  Shared memory is the only transport: the tier stands on the
encoded tier's NumPy arrays, so without NumPy it does not exist
(``tier="parallel"`` raises, and the object tier answers identically —
see :mod:`repro.plan.kernels`).  The compiler never selects it on its
own: only ``tier="parallel"`` runs morsels.

Fallback is **whole-query and honest**: anything the analysis rejects
(difference, nested or whole aggregation, δ on the driver path), a table
that disqualifies encoding, a worker error, or the aggregated int64
overflow guard raises :class:`ParallelFallback` and the plan re-runs on
the serial encoded tier — which reproduces the serial result *and* the
serial error behaviour exactly, so the parallel tier changes wall-clock,
never an annotation.  Overflow semantics match the serial tier because
the per-morsel ``ann_bound``/row counts are aggregated **before any
merge** (:func:`check_merged_reduction_bound`): when the serial encoded
tier would have refused the int64 reduction, the parallel tier refuses
too, instead of succeeding on morsels small enough to stay in range.

Union needs one care: ``f(A ∪ B)`` is linear in *each* operand but the
non-driver branch must contribute **once**, not once per morsel — scans
that reach the driver path through the non-driver side of a union are
seeded with their full table in morsel 0 and an empty slice everywhere
else (every allowed operator maps empty inputs to empty outputs, so the
branch vanishes from the other morsels).

**Failure model.**  Workers are expendable: every morsel is dispatched
as its own future on a spawned :class:`~concurrent.futures.ProcessPoolExecutor`,
so a worker that dies mid-morsel (SIGKILL, OOM, an injected
``kill_worker`` fault) surfaces as :class:`BrokenProcessPool` on the
unfinished futures only.  The parent then rebuilds the warm pool and
retries *just the unfinished morsels* — recomputing a morsel subset and
re-merging is exact by the same multilinearity argument that justified
sharding — with bounded retries and exponential backoff
(:data:`PARALLEL_MAX_RETRIES`, :data:`PARALLEL_RETRY_BACKOFF_S`); when
retries exhaust, the whole query degrades to the serial encoded tier,
which recomputes from the intact in-process tables.  Published segments
carry an adler32 integrity checksum verified when a worker first maps
them: a dropped or corrupted segment is *detected* (never silently
computed over), the poisoned table images are republished from the
in-process batches, and the dispatch retried.  Repeated crash
degradations trip a circuit breaker (:func:`breaker_state`) that pins
the serial tier for a cool-down, so a persistently failing pool stops
taxing every query with doomed retries.  Cooperative deadlines ship the
remaining budget into each morsel; workers check it per morsel and per
operator.  Every segment this process creates is tracked and unlinked in
``finally``/``atexit`` paths (:func:`cleanup`, :func:`live_segments`),
so crashes never leak ``/dev/shm`` space.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import threading
import time
import zlib
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import faults
from repro.deadline import Deadline, DeadlineExceeded
from repro.faults import InjectedFault

from repro.core.schema import Schema
from repro.obs import trace as _trace
from repro.plan import encoded as enc
from repro.plan.columnar import ColumnarKRelation
from repro.plan.kernels import np
from repro.plan.physical import (
    DistinctStage,
    ExecutionContext,
    FusedPipeline,
    GroupedAggregate,
    HashJoin,
    ProjectStage,
    RenameStage,
    Scan,
    SelectStage,
    UnionAll,
    count_collapse,
)

__all__ = [
    "BREAKER_COOLDOWN_S",
    "BREAKER_THRESHOLD",
    "MORSELS_PER_WORKER",
    "PARALLEL_MAX_RETRIES",
    "PARALLEL_RETRY_BACKOFF_S",
    "ParallelCrash",
    "ParallelFallback",
    "ParallelSpec",
    "analyze_plan",
    "breaker_blocking",
    "breaker_state",
    "check_merged_reduction_bound",
    "cleanup",
    "effective_workers",
    "execute_parallel",
    "live_segments",
    "reset_breaker",
    "set_default_workers",
    "shutdown_pools",
]

#: Morsels per worker: >1 so hash-skewed morsels rebalance across the
#: pool instead of serialising behind the largest shard.
MORSELS_PER_WORKER = 2

#: Worker-crash recovery budget: how many times the unfinished morsels
#: of one execution are redispatched after a pool break before the query
#: degrades to the serial encoded tier.
PARALLEL_MAX_RETRIES = 2

#: Base of the exponential backoff between redispatches (seconds):
#: attempt ``k`` sleeps ``PARALLEL_RETRY_BACKOFF_S * 2**k``.
PARALLEL_RETRY_BACKOFF_S = 0.05

#: Consecutive crash degradations before the circuit breaker opens.
BREAKER_THRESHOLD = 3

#: Seconds the breaker stays open before admitting one half-open trial.
BREAKER_COOLDOWN_S = 30.0

#: Process-wide override set by :func:`set_default_workers` (tests,
#: benchmarks); ``None`` defers to ``REPRO_PARALLEL_WORKERS`` / cores.
_DEFAULT_WORKERS: Optional[int] = None


class ParallelFallback(Exception):
    """This execution cannot (or should not) run sharded; the plan falls
    back to the serial encoded tier for the *whole* query — the parallel
    analogue of the per-operator :class:`~repro.plan.encoded.EncodedFallback`."""


class ParallelCrash(ParallelFallback):
    """A :class:`ParallelFallback` caused by worker/pool *crashes* that
    survived the retry budget (as opposed to static analysis or data
    disqualification).  Only these count against the circuit breaker."""


class _ShmIntegrityError(Exception):
    """A worker failed to map a published segment, or its checksum did
    not match — the segment was dropped or corrupted after publication."""


class _WorkerValuesUnavailable(Exception):
    """A worker touched a dictionary the value analysis did not ship."""


def set_default_workers(n: Optional[int]) -> None:
    """Force the worker count (``None`` restores env/core auto-detection).

    Takes effect per execution; pools for other counts stay warm."""
    global _DEFAULT_WORKERS
    if n is not None and n < 1:
        raise ValueError(f"worker count must be positive, got {n}")
    _DEFAULT_WORKERS = n


def effective_workers() -> int:
    """The worker count the next parallel execution will use:
    :func:`set_default_workers` override, then ``REPRO_PARALLEL_WORKERS``,
    then ``min(4, cpu_count)``."""
    if _DEFAULT_WORKERS is not None:
        return _DEFAULT_WORKERS
    env = os.environ.get("REPRO_PARALLEL_WORKERS")
    if env:
        try:
            n = int(env)
            if n >= 1:
                return n
        except ValueError:
            pass
    return min(4, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# static analysis: can this plan shard, and what must ship?
# ---------------------------------------------------------------------------


class ParallelSpec:
    """The compile-time sharding recipe for one physical plan.

    ``scans`` lists the plan's :class:`Scan` nodes in preorder (the
    worker recompiles the same query and re-derives the identical list,
    so scan *positions* are the cross-process node identity); ``modes``
    aligns with it: ``"driver"`` (sliced per morsel), ``"full"``
    (replicated — sound because the scan reaches the driver path through
    a bilinear join), or ``"once"`` (non-driver side of a union on the
    driver path: full table in morsel 0, empty elsewhere).
    ``value_attrs`` maps table name → attributes whose dictionary values
    must ship; ``partition_attrs`` are the driver attributes hashed into
    morsel assignments (join/group keys — co-partitioning keeps a group's
    rows in one morsel so the merge stays near-linear).
    """

    __slots__ = ("scans", "modes", "driver_pos", "kind", "partition_attrs", "value_attrs")

    def __init__(self, scans, modes, driver_pos, kind, partition_attrs, value_attrs):
        self.scans = scans
        self.modes = modes
        self.driver_pos = driver_pos
        self.kind = kind
        self.partition_attrs = partition_attrs
        self.value_attrs = value_attrs


def _check_shape(node, is_root: bool) -> None:
    if isinstance(node, Scan):
        return
    if isinstance(node, FusedPipeline):
        for stage in node.stages:
            if not isinstance(
                stage, (SelectStage, ProjectStage, RenameStage, DistinctStage)
            ):
                raise ParallelFallback(
                    f"stage {stage.describe()} is not shard-parallelizable"
                )
        _check_shape(node.children[0], False)
        return
    if isinstance(node, (HashJoin, UnionAll)):
        for child in node.children:
            _check_shape(child, False)
        return
    if isinstance(node, GroupedAggregate):
        if not is_root:
            raise ParallelFallback("nested grouped aggregation")
        if not node.group_attributes:
            raise ParallelFallback("empty grouping key")
        _check_shape(node.children[0], False)
        return
    raise ParallelFallback(
        f"operator {type(node).__name__} does not shard-parallelize"
    )


def _containing(node, driver, acc: Set[int]) -> bool:
    found = node is driver
    for child in node.children:
        if _containing(child, driver, acc):
            found = True
    if found:
        acc.add(id(node))
    return found


def _assign_modes(node, mode: str, containing: Set[int], out: List[Tuple[Any, str]]):
    if isinstance(node, Scan):
        out.append((node, mode))
        return
    if mode == "driver" and id(node) in containing:
        if isinstance(node, FusedPipeline):
            if any(isinstance(s, DistinctStage) for s in node.stages):
                # δ is not linear: duplicates of one row split across
                # morsels would each map through delta before the merge
                raise ParallelFallback("δ on the driver path")
            _assign_modes(node.children[0], "driver", containing, out)
        elif isinstance(node, HashJoin):
            for child in node.children:
                child_mode = "driver" if id(child) in containing else "full"
                _assign_modes(child, child_mode, containing, out)
        elif isinstance(node, UnionAll):
            for child in node.children:
                child_mode = "driver" if id(child) in containing else "once"
                _assign_modes(child, child_mode, containing, out)
        else:  # GroupedAggregate root
            _assign_modes(node.children[0], "driver", containing, out)
        return
    for child in node.children:
        _assign_modes(child, mode, containing, out)


def _needed_values(node, needed: Set[str], acc: Dict[str, Set[str]]) -> None:
    """Top-down propagation of 'whose decoded values can execution read'."""
    if isinstance(node, Scan):
        acc.setdefault(node.name, set()).update(
            a for a in needed if a in node.schema
        )
        return
    if isinstance(node, FusedPipeline):
        current = set(needed)
        for stage in reversed(node.stages):
            if isinstance(stage, RenameStage):
                inverse = {new: old for old, new in stage.mapping.items()}
                current = {inverse.get(a, a) for a in current}
            elif isinstance(stage, SelectStage):
                current.update(
                    a for c in stage.conditions for a in c.attributes()
                )
            # Project/Distinct read codes only (consolidation is per
            # combined code key), so they add no value needs
        _needed_values(node.children[0], current, acc)
        return
    if isinstance(node, HashJoin):
        left, right = node.children
        lneed = {a for a in needed if a in left.schema} | set(node.left_keys)
        rneed = {a for a in needed if a in right.schema} | set(node.right_keys)
        _needed_values(left, lneed, acc)
        _needed_values(right, rneed, acc)
        return
    if isinstance(node, UnionAll):
        # the encoded union merges both sides' dictionaries for any
        # column read downstream; conservatively ship every attribute
        everything = set(node.schema.attributes)
        for child in node.children:
            _needed_values(child, everything, acc)
        return
    if isinstance(node, GroupedAggregate):
        need = set(node.group_attributes) | set(node.aggregations)
        _needed_values(node.children[0], need, acc)
        return
    raise ParallelFallback(
        f"operator {type(node).__name__} does not shard-parallelize"
    )


def analyze_plan(root) -> ParallelSpec:
    """Decide whether ``root`` shards and build its :class:`ParallelSpec`;
    raises :class:`ParallelFallback` (with the honest reason) otherwise."""
    _check_shape(root, True)
    assigned: List[Tuple[Any, str]] = []
    # a provisional walk just to find the scans / the driver
    scans: List[Any] = []
    _collect_scans(root, scans)
    if not scans:
        raise ParallelFallback("no base-table scan to shard")
    driver_pos = max(range(len(scans)), key=lambda i: scans[i].est_rows)
    driver = scans[driver_pos]
    containing: Set[int] = set()
    _containing(root, driver, containing)
    _assign_modes(root, "driver", containing, assigned)
    if [s for s, _m in assigned] != scans:  # pragma: no cover - invariant
        raise ParallelFallback("scan walk order diverged")
    modes = [m for _s, m in assigned]

    if isinstance(root, GroupedAggregate):
        kind = "group"
        value_needs: Dict[str, Set[str]] = {}
        _needed_values(root, set(), value_needs)
    else:
        kind = "spju"
        value_needs = {}
        _needed_values(root, set(root.schema.attributes), value_needs)

    interesting: Set[str] = set()
    _collect_keys(root, interesting)
    partition_attrs = tuple(
        a for a in driver.schema.attributes if a in interesting
    )
    value_attrs = {name: frozenset(attrs) for name, attrs in value_needs.items()}
    return ParallelSpec(scans, modes, driver_pos, kind, partition_attrs, value_attrs)


def _collect_scans(node, out: List[Any]) -> None:
    if isinstance(node, Scan):
        out.append(node)
    for child in node.children:
        _collect_scans(child, out)


def _collect_keys(node, acc: Set[str]) -> None:
    if isinstance(node, HashJoin) and node.kind != "cross":
        acc.update(node.left_keys)
        acc.update(node.right_keys)
    if isinstance(node, GroupedAggregate):
        acc.update(node.group_attributes)
    for child in node.children:
        _collect_keys(child, acc)


# ---------------------------------------------------------------------------
# the aggregated int64 overflow guard
# ---------------------------------------------------------------------------


def check_merged_reduction_bound(machine, total_rows: int, bound: int) -> None:
    """Refuse the sharded grouped reduction when the *serial* encoded tier
    would have refused it.

    Mirrors :func:`repro.plan.encoded.check_reduction_bound` over the
    aggregate of all morsels — total pre-aggregation rows × the worst
    per-morsel ``ann_bound`` — and runs **before any merge**: each morsel
    alone may fit int64 comfortably, but matching serial semantics means
    falling back exactly when ``rows * ann_bound`` of the whole input
    would leave int64.  (The merge itself runs in exact Python ints, so
    this guard exists for tier-decision parity, not correctness.)
    """
    if machine is None or machine.dtype != "int64":
        return
    if max(1, total_rows) * max(1, bound) > enc._INT64_MAX:
        raise ParallelFallback("int64 reduction bound exceeded across morsels")


# ---------------------------------------------------------------------------
# worker pools (spawned once per worker count, kept warm)
# ---------------------------------------------------------------------------

_POOLS: Dict[int, Any] = {}
_POOL_LOCK = threading.Lock()
_JOB_IDS = itertools.count(1)
_SHM_BLOCKS: List[Any] = []
#: Every segment name this process ever created — the leak audit trail
#: behind :func:`live_segments` (names are tiny; unlinked names simply
#: stop existing on disk).
_SHM_CREATED: Set[str] = set()


def _get_pool(workers: int):
    pool = _POOLS.get(workers)
    if pool is None:
        with _POOL_LOCK:
            pool = _POOLS.get(workers)
            if pool is None:
                import multiprocessing as mp
                from concurrent.futures import ProcessPoolExecutor

                ctx = mp.get_context("spawn")
                pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
                _POOLS[workers] = pool
    return pool


def _drop_pool(workers: int) -> None:
    with _POOL_LOCK:
        pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def _pool_warmup() -> None:
    """No-op task: submitting it forces a worker process to finish
    spawning and importing (the expensive part of a pool rebuild)."""
    return None


def _warm_pool_async(workers: int) -> None:
    """Respawn a dropped pool off the critical path.

    A worker crash drops the whole ProcessPoolExecutor; respawning it
    costs hundreds of milliseconds of fork/exec/import that would
    otherwise land inside whichever query happens to run next.  A daemon
    thread pays that bill now, in the background, so the next query finds
    warm workers.  Races are benign: ``_get_pool`` is lock-protected and
    a concurrent shutdown just makes the warmup submissions fail."""

    def warm() -> None:
        try:
            pool = _get_pool(workers)
            for fut in [pool.submit(_pool_warmup) for _ in range(workers)]:
                fut.result(timeout=60)
        except Exception:
            pass

    threading.Thread(
        target=warm, name="repro-pool-warmup", daemon=True
    ).start()


def shutdown_pools() -> None:
    """Shut down every warm worker pool (atexit, and available to tests)."""
    with _POOL_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


def _unlink_shm() -> None:
    for shm in _SHM_BLOCKS:
        try:
            shm.close()
            shm.unlink()
        except Exception:
            pass
    _SHM_BLOCKS.clear()


def cleanup() -> None:
    """Shut down pools and unlink every tracked shared-memory segment.

    Safe at any time: database-cached table images that referenced the
    unlinked segments self-heal on next use (workers detect the missing
    segment, the parent republishes from the in-process batches).
    """
    shutdown_pools()
    _unlink_shm()


def live_segments() -> List[str]:
    """Names of segments this process created that still exist on disk.

    The shm-leak regression oracle: after :func:`cleanup` this must be
    empty, *including* after worker crashes mid-job (the parent owns
    every segment's lifetime; workers only ever map them).  Returns ``[]``
    on platforms without a ``/dev/shm`` to audit.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-Linux
        return []
    return sorted(
        name for name in _SHM_CREATED if os.path.exists(os.path.join(root, name))
    )


atexit.register(_unlink_shm)
atexit.register(shutdown_pools)


# ---------------------------------------------------------------------------
# the circuit breaker: repeated crash degradations pin the serial tier
# ---------------------------------------------------------------------------

_BREAKER_LOCK = threading.Lock()
_BREAKER = {"state": "closed", "failures": 0, "opened_at": 0.0, "trial": False}


def breaker_state() -> Dict[str, Any]:
    """The breaker as observable state: ``state`` (``closed`` / ``open`` /
    ``half-open``), consecutive ``failures``, and ``cooldown_remaining``
    seconds (0 unless open)."""
    with _BREAKER_LOCK:
        state = _BREAKER["state"]
        remaining = 0.0
        if state == "open":
            remaining = max(
                0.0, BREAKER_COOLDOWN_S - (time.monotonic() - _BREAKER["opened_at"])
            )
            if remaining == 0.0:
                state = "half-open"
        return {
            "state": state,
            "failures": _BREAKER["failures"],
            "cooldown_remaining": round(remaining, 3),
        }


def breaker_blocking() -> Optional[str]:
    """The human-readable reason parallel execution is currently pinned
    serial, or ``None`` when the breaker admits work (closed, or open but
    cooled down enough for a half-open trial)."""
    state = breaker_state()
    if state["state"] == "open":
        return (
            f"circuit breaker open after {state['failures']} crash "
            f"degradations (cooldown {state['cooldown_remaining']:.1f}s)"
        )
    return None


def reset_breaker() -> None:
    """Force the breaker closed (tests)."""
    with _BREAKER_LOCK:
        _BREAKER.update(state="closed", failures=0, opened_at=0.0, trial=False)


def _breaker_admit() -> None:
    """Gate one parallel execution; raises :class:`ParallelFallback` when
    the breaker is open and still cooling down.  An open breaker past its
    cooldown admits exactly one half-open trial at a time."""
    with _BREAKER_LOCK:
        if _BREAKER["state"] == "closed":
            return
        if _BREAKER["state"] == "open":
            elapsed = time.monotonic() - _BREAKER["opened_at"]
            if elapsed < BREAKER_COOLDOWN_S:
                raise ParallelFallback(
                    f"circuit breaker open after {_BREAKER['failures']} crash "
                    f"degradations (cooldown "
                    f"{BREAKER_COOLDOWN_S - elapsed:.1f}s remaining)"
                )
            _BREAKER["state"] = "half-open"
            _BREAKER["trial"] = False
        if _BREAKER["trial"]:
            raise ParallelFallback("circuit breaker half-open; trial in flight")
        _BREAKER["trial"] = True


def _breaker_success() -> None:
    with _BREAKER_LOCK:
        _BREAKER.update(state="closed", failures=0, opened_at=0.0, trial=False)


def _breaker_failure() -> None:
    with _BREAKER_LOCK:
        _BREAKER["failures"] += 1
        _BREAKER["trial"] = False
        tripping = (
            _BREAKER["state"] == "half-open"
            or _BREAKER["failures"] >= BREAKER_THRESHOLD
        )
        if tripping:
            _BREAKER["state"] = "open"
            _BREAKER["opened_at"] = time.monotonic()
    if tripping:
        faults.bump("breaker_trips")


def _breaker_release() -> None:
    """A half-open trial ended without a crash verdict (deadline expiry,
    deterministic fallback): free the trial slot without counting it."""
    with _BREAKER_LOCK:
        _BREAKER["trial"] = False


# ---------------------------------------------------------------------------
# publishing tables (parent side)
# ---------------------------------------------------------------------------


def _publish_array(arr) -> Tuple[Any, Dict[str, Any]]:
    from multiprocessing import shared_memory

    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    _SHM_BLOCKS.append(shm)
    _SHM_CREATED.add(shm.name)
    # integrity checksum over exactly the payload bytes (the segment may
    # be page-rounded): a worker that maps a dropped/corrupted segment
    # *detects* it instead of computing over garbage
    check = zlib.adler32(shm.buf[: arr.nbytes]) & 0xFFFFFFFF
    return shm, {
        "shm": shm.name,
        "n": int(arr.shape[0]),
        "dtype": str(arr.dtype),
        "nbytes": int(arr.nbytes),
        "adler32": check,
    }


def _release_blocks(blocks) -> None:
    for shm in blocks:
        try:
            _SHM_BLOCKS.remove(shm)
        except ValueError:
            pass
        try:
            shm.close()
            shm.unlink()
        except Exception:
            pass


def _chunk_bounds(n: int, morsels: int) -> List[Tuple[int, int]]:
    step = -(-n // morsels) if n else 0
    bounds = []
    pos = 0
    for _ in range(morsels):
        nxt = min(n, pos + step)
        bounds.append((pos, nxt))
        pos = nxt
    return bounds


def _partition_order(batch, attrs: Tuple[str, ...], morsels: int):
    """Stable reorder of the driver by ``hash(key codes) % morsels``.

    Returns ``(order, bounds)`` — ``order`` is ``None`` when rows stay in
    place (no usable key: contiguous chunking, equally exact because any
    row partition is)."""
    n = len(batch)
    if n == 0 or morsels <= 1 or not attrs:
        return None, _chunk_bounds(n, morsels)
    try:
        keys, _space = enc.combine_codes([batch.col(a) for a in attrs])
    except enc.EncodedFallback:
        return None, _chunk_bounds(n, morsels)
    assign = keys % morsels
    order = np.argsort(assign, kind="stable")
    sorted_assign = assign[order]
    edges = np.searchsorted(sorted_assign, np.arange(morsels + 1))
    bounds = [
        (int(edges[i]), int(edges[i + 1])) for i in range(morsels)
    ]
    return order, bounds


def _table_payload(batch, order=None):
    """The shippable form of one table: shm refs for codes + annotations;
    values attach at job build."""
    blocks: List[Any] = []
    cols: Dict[str, Dict[str, Any]] = {}
    for attr in batch.schema.attributes:
        col = batch.col(attr)
        codes = col.codes if order is None else col.codes[order]
        shm, ref = _publish_array(codes)
        blocks.append(shm)
        cols[attr] = {"codes": ref, "n_values": len(col.values)}
    anns = batch.anns if order is None else batch.anns[order]
    shm, aref = _publish_array(anns)
    blocks.append(shm)
    spec = {
        "attrs": tuple(batch.schema.attributes),
        "cols": cols,
        "anns": aref,
        "anns_one": batch.anns_one,
        "ann_bound": batch.ann_bound,
    }
    return spec, blocks


def _cached_table_payload(db, name, rel, batch, partition):
    """Per-database cache of published tables, living next to the
    encoding cache so every snapshot of one lineage shares it and
    relation identity invalidates it.  ``partition`` is ``None`` for
    replicated tables or ``(morsels, attrs)`` for the driver's
    pre-partitioned image.  Returns ``(spec, bounds, order)``; ``order``
    is kept so in-process salvage can reproduce the exact morsel slices
    without republishing anything."""
    cache = getattr(db, "_encoded_cache", None)
    images = None
    if isinstance(cache, dict):
        images = cache.setdefault("parallel_images", {})
    key = (name, partition)
    if images is not None:
        entry = images.get(key)
        if entry is not None and entry[0] is rel:
            return entry[1], entry[2], entry[3]
    order = None
    bounds = None
    if partition is not None:
        order, bounds = _partition_order(batch, partition[1], partition[0])
    spec, blocks = _table_payload(batch, order)
    if images is not None:
        entry = images.get(key)
        if entry is not None:
            _release_blocks(entry[4])
        images[key] = (rel, spec, bounds, order, blocks)
    return spec, bounds, order


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


class _OpaqueValues:
    """Stand-in for a dictionary the analysis chose not to ship; only its
    length is usable (radix computations) — any value read aborts the
    worker, and the query falls back to serial."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        raise _WorkerValuesUnavailable("column dictionary was not shipped")

    def __iter__(self):
        raise _WorkerValuesUnavailable("column dictionary was not shipped")


class _OpaqueIndex:
    """Raising twin of the ``value -> code`` index (a silently-empty dict
    here would turn a missed analysis case into wrong results instead of
    a fallback)."""

    __slots__ = ()

    def get(self, *args):
        raise _WorkerValuesUnavailable("column index was not shipped")

    def __getitem__(self, key):
        raise _WorkerValuesUnavailable("column index was not shipped")

    def __contains__(self, key):
        raise _WorkerValuesUnavailable("column index was not shipped")


#: Per-worker cache of unpacked jobs: repeated executions of the same
#: plan reuse attached shm views / unpickled tables across calls.
_WORKER_JOBS: "OrderedDict[int, Dict[str, Any]]" = OrderedDict()
_WORKER_JOB_CAP = 4


def _attach_shm(name: str):
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track=; suppress the tracker's
        # registration instead — the parent owns every block's lifetime,
        # and a worker registering an attach would make the (shared)
        # resource tracker try to unlink, or complain about, blocks that
        # were never the worker's to clean up
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _attach_array(ref, shms: List[Any]):
    try:
        shm = _attach_shm(ref["shm"])
    except FileNotFoundError as exc:
        raise _ShmIntegrityError(
            f"segment {ref['shm']!r} is gone (dropped before the worker "
            "mapped it)"
        ) from exc
    shms.append(shm)
    nbytes = ref.get("nbytes")
    expected = ref.get("adler32")
    if nbytes is not None and expected is not None:
        actual = zlib.adler32(shm.buf[:nbytes]) & 0xFFFFFFFF
        if actual != expected:
            raise _ShmIntegrityError(
                f"segment {ref['shm']!r} failed its integrity check "
                f"(adler32 {actual:#010x} != published {expected:#010x})"
            )
    return np.ndarray((ref["n"],), dtype=np.dtype(ref["dtype"]), buffer=shm.buf)


def _rebuild_batch(semiring, tspec, values_by_attr, shms):
    cols: Dict[str, Any] = {}
    for attr in tspec["attrs"]:
        cspec = tspec["cols"][attr]
        codes = _attach_array(cspec["codes"], shms)
        values = values_by_attr.get(attr)
        if values is None:
            values = _OpaqueValues(cspec["n_values"])
            index: Any = _OpaqueIndex()
        else:
            index = {v: i for i, v in enumerate(values)}
        cols[attr] = enc.EncodedColumn(codes, values, index)
    anns = _attach_array(tspec["anns"], shms)
    return enc.EncodedBatch(
        semiring,
        Schema(tspec["attrs"]),
        cols,
        anns,
        tspec["anns_one"],
        tspec["ann_bound"],
    )


def _close_job(state) -> None:
    for shm in state.get("shms", ()):
        try:
            shm.close()
        except Exception:
            pass


def _load_job(blob: bytes) -> Dict[str, Any]:
    from repro.plan.compiler import _compile

    job = pickle.loads(blob)
    semiring = job["semiring"]
    shms: List[Any] = []
    try:
        batches = {
            name: _rebuild_batch(semiring, tspec, job["values"].get(name, {}), shms)
            for name, tspec in job["tables"].items()
        }
    except BaseException:
        # a failed rebuild (missing/corrupt segment) must not strand the
        # worker-side mappings already opened for this job
        for shm in shms:
            try:
                shm.close()
            except Exception:
                pass
        raise
    root = _compile(job["query"], job["catalog"], job["sizes"])
    scans: List[Any] = []
    _collect_scans(root, scans)
    if [s.name for s in scans] != job["scan_names"]:
        raise RuntimeError("worker plan shape diverged from parent")
    return {
        "root": root,
        "scans": scans,
        "modes": job["modes"],
        "batches": batches,
        "semiring": semiring,
        "kind": job["kind"],
        "shms": shms,
    }


def _apply_directives(directives) -> None:
    """Execute the fault directives the parent armed for this morsel.

    ``kill_worker`` is the real thing — the process exits without Python
    cleanup, exactly like a SIGKILL or OOM kill — so the parent's
    recovery path is exercised against a genuinely dead worker.
    """
    for d in directives or ():
        point = d.get("point")
        if point == "kill_worker":
            os._exit(17)
        elif point == "kernel_error":
            raise InjectedFault("injected kernel error (fault point kernel_error)")
        elif point == "latency":
            time.sleep(min(float(d.get("ms", 10)) / 1e3, faults.MAX_LATENCY_S))


def _exec_morsel(state, morsel_index: int, start: int, stop: int, deadline=None):
    ctx = ExecutionContext(None, {}, encoded=True, deadline=deadline)
    for scan, mode in zip(state["scans"], state["modes"]):
        batch = state["batches"][scan.name]
        if mode == "driver":
            seeded = enc.slice_batch(batch, start, stop)
        elif mode == "once" and morsel_index != 0:
            seeded = enc.slice_batch(batch, 0, 0)
        else:
            seeded = batch
        ctx.results[id(scan)] = seeded
    root = state["root"]
    if state["kind"] == "group":
        pre = root.children[0].execute(ctx)
        if isinstance(pre, enc.EncodedBatch):
            rows, bound = len(pre), pre.ann_bound
            states = root.encoded_group_states(pre)
        else:
            # a per-operator EncodedFallback inside the morsel: the
            # object path is exact arbitrary-precision, so no bound
            rows, bound = len(pre), 0
            states = root.object_group_states(pre)
        group_rows, totals, tensors, why = states
        return {"rows": rows, "bound": bound, "group_rows": group_rows,
                "totals": totals, "tensors": tensors, "why": why}
    result = root.execute(ctx)
    if isinstance(result, enc.EncodedBatch):
        result = result.to_columnar()
    return {
        "columns": {a: result.columns[a] for a in result.schema.attributes},
        "anns": list(result.annotations),
    }


def _run_morsel(task):
    """One morsel in a pool worker.  Returns ``("ok", payload)`` or
    ``("err", kind, message)`` where ``kind`` classifies recoverability:

    ``"transient"``
        an injected/transient crash class — the parent may retry the morsel;
    ``"integrity"``
        a missing or corrupted shared-memory segment — the parent
        republishes the table images and retries;
    ``"deadline"``
        the cooperative deadline expired inside the worker;
    ``"deterministic"``
        everything else (unshipped dictionaries, real kernel bugs) —
        retrying cannot help, the query falls back serial.
    """
    key, blob, morsel_index, start, stop, deadline_s, directives, traced = task
    try:
        deadline = Deadline.after(deadline_s) if deadline_s is not None else None
        if deadline is not None:
            deadline.check(f"morsel {morsel_index} start")
        _apply_directives(directives)
        state = _WORKER_JOBS.get(key)
        if state is None:
            state = _load_job(blob)
            _WORKER_JOBS[key] = state
            while len(_WORKER_JOBS) > _WORKER_JOB_CAP:
                _k, old = _WORKER_JOBS.popitem(last=False)
                _close_job(old)
        if traced:
            # the parent's trace cannot cross the process boundary: open
            # a local collector and ship the span tree home inside the
            # payload (popped and grafted parent-side before the merge)
            with _trace.collect(f"morsel {morsel_index}",
                                morsel=morsel_index) as root:
                payload = _exec_morsel(state, morsel_index, start, stop,
                                       deadline)
            payload["spans"] = root.to_dict()
        else:
            payload = _exec_morsel(state, morsel_index, start, stop, deadline)
        return ("ok", payload)
    except InjectedFault as exc:
        return ("err", "transient", f"{type(exc).__name__}: {exc}")
    except _ShmIntegrityError as exc:
        return ("err", "integrity", f"{type(exc).__name__}: {exc}")
    except DeadlineExceeded as exc:
        return ("err", "deadline", f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # surfaced to the parent as a ParallelFallback
        return ("err", "deterministic", f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# parent-side merge
# ---------------------------------------------------------------------------


def _merge_group_payloads(gagg, semiring, payloads):
    """Merge the morsels' per-group states and finish them.

    A group met again merges by ``+_K`` and by tensor addition, which
    drops cancelled scalars and, on normal forms, is ``+_M`` of their
    values (collapse being a monoid homomorphism ``K (x) M -> M``; Python
    values by now: no bound applies).  The kernel-or-fold decisions of
    the morsels that ran the encoded kernel are counted here, once per
    column, so they reach this process's metrics: a column some morsel
    folded counts as folded, for that morsel's reason.
    """
    reasons: Dict[str, List[Optional[str]]] = {}
    for p in payloads:
        for attr, why in p["why"].items():
            reasons.setdefault(attr, []).append(why)
    count_collapse(next(filter(None, why), None) for why in reasons.values())
    machine = semiring.machine_repr
    total_rows = sum(p["rows"] for p in payloads)
    worst = max((p["bound"] for p in payloads), default=0)
    check_merged_reduction_bound(machine, total_rows, worst)
    plus = semiring.plus
    index: Dict[Tuple[Any, ...], int] = {}
    group_rows: List[Tuple[Any, ...]] = []
    totals: List[Any] = []
    merged: Dict[str, List[Any]] = {a: [] for a in gagg.aggregations}
    for p in payloads:
        p_tensors = p["tensors"]
        for j, row in enumerate(p["group_rows"]):
            i = index.get(row)
            if i is None:
                index[row] = len(group_rows)
                group_rows.append(row)
                totals.append(p["totals"][j])
                for attr, lst in merged.items():
                    lst.append(p_tensors[attr][j])
                continue
            totals[i] = plus(totals[i], p["totals"][j])
            for attr, lst in merged.items():
                lst[i] = lst[i] + p_tensors[attr][j]
    return gagg.finish_groups(semiring, group_rows, totals, merged)


def _merge_spju_payloads(schema, semiring, payloads):
    columns: Dict[str, List[Any]] = {a: [] for a in schema.attributes}
    anns: List[Any] = []
    for p in payloads:
        for a in schema.attributes:
            columns[a].extend(p["columns"][a])
        anns.extend(p["anns"])
    # cross-morsel duplicate rows are fine: batches defer the +_K merge
    # (the same contract every serial operator output already relies on)
    return ColumnarKRelation._from_clean(semiring, schema, columns, anns)


# ---------------------------------------------------------------------------
# parent-side execution
# ---------------------------------------------------------------------------


class ParallelRunInfo:
    __slots__ = ("workers", "morsels")

    def __init__(self, workers: int, morsels: int):
        self.workers = workers
        self.morsels = morsels


def _build_job(plan, db, spec, batches, morsels):
    driver_scan = spec.scans[spec.driver_pos]
    tables: Dict[str, Any] = {}
    values: Dict[str, Dict[str, Any]] = {}
    bounds = None
    order = None
    for scan in spec.scans:
        name = scan.name
        if name in tables:
            continue
        rel, batch = batches[name]
        partition = (
            (morsels, spec.partition_attrs) if name == driver_scan.name else None
        )
        tspec, tbounds, torder = _cached_table_payload(
            db, name, rel, batch, partition
        )
        tables[name] = tspec
        if partition is not None:
            order = torder
            bounds = (
                tbounds if tbounds is not None else _chunk_bounds(len(batch), morsels)
            )
        marked = spec.value_attrs.get(name, frozenset())
        values[name] = {a: batch.col(a).values for a in marked if a in batch.schema}
    if bounds is None:  # pragma: no cover - driver is always in spec.scans
        raise ParallelFallback("driver table missing from payload")
    job = {
        "semiring": db.semiring,
        "query": plan._working,
        "catalog": {name: batches[name][1].schema for name in tables},
        "sizes": {name: scan.est_rows for scan in spec.scans for name in [scan.name]},
        "tables": tables,
        "values": values,
        "scan_names": [s.name for s in spec.scans],
        "modes": spec.modes,
        "kind": spec.kind,
    }
    try:
        blob = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise ParallelFallback(f"job spec not picklable: {exc}") from exc
    return next(_JOB_IDS), blob, bounds, order


def _arm_worker_directives(morsel_index: int, n_morsels: int) -> List[Dict[str, Any]]:
    """Parent-side arming of worker faults for one dispatched morsel.

    Budgets are consumed *here*, in the one process that owns them, and
    the resulting directives ship inside the task tuple — so a retry of
    the killed morsel finds the budget spent and succeeds, which is what
    makes chaos runs deterministic.  The ``rng`` never crosses the
    process boundary; anything random (latency duration) is drawn now.
    """
    directives: List[Dict[str, Any]] = []
    for point in ("kill_worker", "kernel_error", "latency"):
        recipe = faults.should_fire(point, morsel=morsel_index, n_morsels=n_morsels)
        if recipe is None:
            continue
        if point == "latency" and "ms" not in recipe:
            recipe["ms"] = recipe["rng"].randint(1, 50)
        directives.append({k: v for k, v in recipe.items() if k != "rng"})
    return directives


def _inject_shm_faults() -> bool:
    """The parent-side shm fault points: unlink (``drop_shm``) or
    byte-flip (``corrupt_shm``) one published segment, chosen by the
    firing's seeded rng.  Only fires when segments exist, so an armed
    spec waits for a real target instead of burning its budget on a
    no-op.  Returns True if anything
    fired — the caller then rotates the job key so warm workers re-attach
    (and therefore *detect* the damage) instead of computing over their
    cached, still-valid mappings.
    """
    fired = False
    for point in ("drop_shm", "corrupt_shm"):
        if not _SHM_BLOCKS or faults.active(point) is None:
            continue
        recipe = faults.should_fire(point)
        if recipe is None:
            continue
        rng = recipe["rng"]
        shm = _SHM_BLOCKS[rng.randrange(len(_SHM_BLOCKS))]
        if point == "drop_shm":
            try:
                _SHM_BLOCKS.remove(shm)
            except ValueError:  # pragma: no cover - concurrent cleanup
                pass
            try:
                shm.close()
                shm.unlink()
            except Exception:  # pragma: no cover - already gone
                pass
        elif shm.size:
            offset = rng.randrange(shm.size)
            shm.buf[offset] = shm.buf[offset] ^ 0xFF
        fired = True
    return fired


def execute_parallel(plan, db, deadline: Optional[Deadline] = None):
    """Run ``plan`` sharded over ``db``; returns ``(batch, run_info)`` or
    raises :class:`ParallelFallback` for the serial encoded re-run.

    This is the recovery seam: worker crashes redispatch only the
    unfinished morsels (bounded retries, exponential backoff, pool
    rebuild), shm integrity failures republish the table images once,
    deadline expiry raises :class:`DeadlineExceeded` (never retried), and
    exhausted retries raise :class:`ParallelCrash` — the only outcome the
    circuit breaker counts.
    """
    spec = plan._parallel_spec
    if spec is None:
        raise ParallelFallback(
            plan._parallel_reason or "query is not shard-parallelizable"
        )
    _breaker_admit()
    verdict = None
    try:
        result = _execute_attempts(plan, db, spec, deadline)
        verdict = "success"
        return result
    except ParallelCrash:
        verdict = "crash"
        raise
    finally:
        if verdict == "success":
            _breaker_success()
        elif verdict == "crash":
            _breaker_failure()
        else:
            _breaker_release()


def _execute_attempts(plan, db, spec, deadline: Optional[Deadline]):
    from concurrent.futures import TimeoutError as _FuturesTimeout

    workers = max(1, effective_workers())
    morsels = max(2, workers * MORSELS_PER_WORKER)
    if deadline is not None:
        deadline.check("parallel dispatch")
    batches: Dict[str, Tuple[Any, Any]] = {}
    for scan in spec.scans:
        if scan.name in batches:
            continue
        rel = db.relation(scan.name)
        batch = enc.encoded_scan(db, scan.name, rel)
        if batch is None:
            raise ParallelFallback(
                f"table {scan.name!r} disqualifies the encoded tier"
            )
        batches[scan.name] = (rel, batch)

    sig = (
        tuple(sorted((name, id(rel)) for name, (rel, _b) in batches.items())),
        morsels,
    )
    cached = plan._parallel_job
    if cached is not None and cached[0] == sig:
        _sig, rels, key, blob, bounds, order = cached
    else:
        key, blob, bounds, order = _build_job(plan, db, spec, batches, morsels)
        # hold the relations so their ids stay unambiguous while cached
        rels = [rel for rel, _b in batches.values()]
        plan._parallel_job = (sig, rels, key, blob, bounds, order)

    if _inject_shm_faults():
        # fresh job key: warm workers must re-attach (and checksum) the
        # published segments instead of reusing cached mappings
        key = next(_JOB_IDS)
        plan._parallel_job = (sig, rels, key, blob, bounds, order)

    pool = _get_pool(workers)
    n_morsels = len(bounds)
    payloads: List[Any] = [None] * n_morsels
    pending = [(i, int(start), int(stop)) for i, (start, stop) in enumerate(bounds)]
    attempt = 0
    republished = False
    while pending:
        if deadline is not None:
            deadline.check("parallel dispatch")
        tasks = []
        for i, start, stop in pending:
            deadline_s = (
                max(0.0, deadline.remaining()) if deadline is not None else None
            )
            tasks.append(
                (key, blob, i, start, stop, deadline_s,
                 _arm_worker_directives(i, n_morsels),
                 bool(_trace._ACTIVE))
            )
        try:
            futures = [pool.submit(_run_morsel, t) for t in tasks]
        except Exception as exc:  # pool already broken/shut down
            _drop_pool(workers)
            faults.bump("pool_rebuilds")
            pool = _get_pool(workers)
            futures = [pool.submit(_run_morsel, t) for t in tasks]
        retry: List[Tuple[int, int, int]] = []
        broken = False
        integrity = False
        failure_msg = ""
        try:
            for fut, (i, start, stop) in zip(futures, pending):
                timeout = (
                    max(0.0, deadline.remaining()) if deadline is not None else None
                )
                try:
                    r = fut.result(timeout=timeout)
                except _FuturesTimeout:
                    deadline.check("parallel gather")
                    raise DeadlineExceeded(  # pragma: no cover - clock race
                        "query deadline expired while waiting on workers"
                    )
                except Exception as exc:
                    # BrokenProcessPool (a worker died taking the pool
                    # down) or any other transport failure: the morsel's
                    # work is lost but recomputable
                    broken = True
                    failure_msg = f"{type(exc).__name__}: {exc}"
                    retry.append((i, start, stop))
                    continue
                if r[0] == "ok":
                    payloads[i] = r[1]
                    continue
                kind, msg = r[1], r[2]
                failure_msg = msg
                if kind == "transient":
                    retry.append((i, start, stop))
                elif kind == "integrity":
                    integrity = True
                    retry.append((i, start, stop))
                elif kind == "deadline":
                    raise DeadlineExceeded(msg)
                else:
                    raise ParallelFallback(f"worker: {msg}")
        finally:
            for fut in futures:
                fut.cancel()
        if not retry:
            break
        if integrity:
            faults.bump("shm_integrity_failures")
            if republished:
                raise ParallelCrash(
                    f"shm integrity failure persisted after republish: {failure_msg}"
                )
            republished = True
            key, blob, bounds, order = _republish_job(
                plan, db, spec, batches, morsels, sig
            )
            # same batches, deterministic partition: bounds are unchanged,
            # so completed payloads stay valid and only `retry` redispatches
            pending = retry
            continue  # a republish retry does not consume the crash budget
        if broken:
            # A dead worker takes the whole ProcessPoolExecutor with it,
            # and respawning one costs ~1s — far more than recomputing
            # the lost morsels.  So the parent salvages them *in-process*
            # against its own intact encoded batches (exact by
            # multilinearity: same partition order, same bounds, same
            # operators) and lets the pool rebuild lazily for the next
            # query.  Transient worker errors below keep the redispatch
            # path: the pool there is alive and the retry budget / breaker
            # semantics depend on it.
            _drop_pool(workers)
            faults.bump("pool_rebuilds")
            faults.bump("morsel_retries", len(retry))
            _salvage_morsels(
                plan, spec, batches, order, retry, payloads, deadline
            )
            _warm_pool_async(workers)
            pending = []
            continue
        if attempt >= PARALLEL_MAX_RETRIES:
            faults.bump("parallel_exhausted")
            raise ParallelCrash(
                f"{len(retry)} morsel(s) still failing after "
                f"{attempt} redispatch(es): {failure_msg}"
            )
        faults.bump("morsel_retries", len(retry))
        delay = PARALLEL_RETRY_BACKOFF_S * (2 ** attempt)
        attempt += 1
        if deadline is not None and deadline.remaining() <= delay:
            deadline.check("retry backoff")  # raises once actually expired
        elif delay > 0:
            time.sleep(delay)
        pending = retry

    if any(p is None for p in payloads):  # pragma: no cover - invariant
        raise ParallelCrash("morsel bookkeeping lost a payload")
    for i, p in enumerate(payloads):
        # worker span trees ride home inside the payloads; strip them
        # before the merge (graft is a no-op once the collector closed)
        spans = p.pop("spans", None)
        if spans is not None:
            _trace.graft(spans, morsel=i)
    if spec.kind == "group":
        result = _merge_group_payloads(plan.root, db.semiring, payloads)
    else:
        result = _merge_spju_payloads(plan.root.schema, db.semiring, payloads)
    return result, ParallelRunInfo(workers, n_morsels)


def _reorder_batch(batch, order):
    """``batch`` with its rows permuted by ``order`` — the same image the
    workers compute over, so published morsel bounds index it directly.
    Dictionaries (values + index) are shared untouched; only codes and
    annotations are gathered."""
    if order is None:
        return batch
    cols: Dict[str, Any] = {}
    for attr in batch.schema.attributes:
        col = batch.col(attr)
        cols[attr] = enc.EncodedColumn(col.codes[order], col.values, col.index)
    return enc.EncodedBatch(
        batch.semiring,
        batch.schema,
        cols,
        batch.anns[order],
        batch.anns_one,
        batch.ann_bound,
    )


def _salvage_morsels(plan, spec, batches, order, lost, payloads, deadline):
    """Recompute ``lost`` morsels in the parent process.

    When a worker dies it takes the whole pool down, and every unfinished
    morsel's *work* is lost while its *inputs* survive untouched in this
    process.  Recomputing those morsels here — against the driver image
    permuted by the same deterministic ``order`` the workers saw, over
    the same bounds, with the same operators — produces byte-identical
    partial aggregates, and merging them is exact by multilinearity.
    This keeps pool respawn (~1s of fork/exec/import) off the query's
    critical path; the next query rebuilds the pool lazily.
    """
    driver_name = spec.scans[spec.driver_pos].name
    local: Dict[str, Any] = {}
    for name, (_rel, batch) in batches.items():
        local[name] = _reorder_batch(batch, order) if name == driver_name else batch
    state = {
        "root": plan.root,
        "scans": spec.scans,
        "modes": spec.modes,
        "batches": local,
        "kind": spec.kind,
    }
    try:
        for i, start, stop in lost:
            if deadline is not None:
                deadline.check(f"salvaging morsel {i}")
            # in-parent recompute: a regular span (the parent's trace
            # context is live here, unlike in a pool worker)
            with _trace.span(f"salvage morsel {i}", morsel=i):
                payloads[i] = _exec_morsel(state, i, start, stop, deadline)
    except DeadlineExceeded:
        raise
    except Exception as exc:
        raise ParallelFallback(f"in-process salvage failed: {exc}") from exc


def _republish_job(plan, db, spec, batches, morsels, sig):
    """Throw away every published table image (they are copies; the
    in-process batches stay intact) and publish fresh segments, giving
    the plan a fresh job key so workers re-attach and re-verify."""
    cache = getattr(db, "_encoded_cache", None)
    if isinstance(cache, dict):
        images = cache.get("parallel_images")
        if images:
            for entry in images.values():
                _release_blocks(entry[4])
            images.clear()
    key, blob, bounds, order = _build_job(plan, db, spec, batches, morsels)
    plan._parallel_job = (
        sig, [rel for rel, _b in batches.values()], key, blob, bounds, order
    )
    return key, blob, bounds, order
