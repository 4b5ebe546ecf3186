"""Morsel-driven shard-parallel execution of encoded plans.

The encoded tier (:mod:`repro.plan.encoded`) made concrete-semiring
execution a matter of array kernels over dictionary codes and flat
machine-scalar annotation arrays; this module runs those kernels over
morsels of one table on a pool of threads.  The algebra makes sharding
exact by construction:

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

Each morsel runs the plan's own operators in this process over
:func:`repro.plan.encoded.slice_batch` views of the plan's encoded
tables: dictionaries are shared untouched and codes are NumPy views, so
nothing is copied or re-encoded per morsel.  The driver is permuted once
by a stable ``hash(partition-key codes) % morsels``, which makes each
morsel one contiguous ``[start:stop)`` slice and keeps every group (and
join key) in one morsel, so a float ``SUM`` folds a group's rows in the
serial order.  The permutation is cached on the plan by relation
identity.  The morsels share one thread pool of one thread per core;
NumPy's kernels release the GIL while they run.  The tier stands on the
encoded tier's NumPy arrays, so without NumPy it does not exist
(``tier="parallel"`` raises, and the object tier answers identically —
see :mod:`repro.plan.kernels`).  The compiler never selects it on its
own: only ``tier="parallel"`` runs morsels.

Fallback is **whole-query and honest**: anything the analysis rejects
(difference, nested or whole aggregation, δ on the driver path), a table
that disqualifies encoding, any exception inside a morsel other than
:class:`~repro.exceptions.DeadlineExceeded`, or the aggregated int64
overflow guard raises :class:`ParallelFallback` and the plan re-runs on
the serial encoded tier — which reproduces the serial result *and* the
serial error behaviour exactly, so the parallel tier changes wall-clock,
never an annotation.  Overflow semantics match the serial tier because
the per-morsel ``ann_bound``/row counts are aggregated **before any
merge** (:func:`check_merged_reduction_bound`): when the serial encoded
tier would have refused the int64 reduction, the parallel tier refuses
too, instead of succeeding on morsels small enough to stay in range.
A deadline is checked at each morsel's start and at every operator
inside it; its expiry propagates and is never retried.

Union needs one care: ``f(A ∪ B)`` is linear in *each* operand but the
non-driver branch must contribute **once**, not once per morsel — scans
that reach the driver path through the non-driver side of a union are
seeded with their full table in morsel 0 and an empty slice everywhere
else (every allowed operator maps empty inputs to empty outputs, so the
branch vanishes from the other morsels).
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import CancelledError, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import faults
from repro.deadline import Deadline, DeadlineExceeded
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
    "MORSELS_PER_WORKER",
    "ParallelFallback",
    "ParallelSpec",
    "analyze_plan",
    "check_merged_reduction_bound",
    "cleanup",
    "effective_workers",
    "execute_parallel",
]

#: Morsels per worker: >1 so hash-skewed morsels rebalance across the
#: pool instead of serialising behind the largest shard.
MORSELS_PER_WORKER = 2


class ParallelFallback(Exception):
    """This execution cannot (or should not) run sharded; the plan falls
    back to the serial encoded tier for the *whole* query — the parallel
    analogue of the per-operator :class:`~repro.plan.encoded.EncodedFallback`."""


def effective_workers() -> int:
    """The worker count of a parallel execution: one thread per core."""
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# static analysis: can this plan shard?
# ---------------------------------------------------------------------------


class ParallelSpec:
    """The compile-time sharding recipe for one physical plan.

    ``scans`` lists the plan's :class:`Scan` nodes in preorder; ``modes``
    aligns with it: ``"driver"`` (sliced per morsel), ``"full"``
    (replicated — sound because the scan reaches the driver path through
    a bilinear join), or ``"once"`` (non-driver side of a union on the
    driver path: full table in morsel 0, empty elsewhere).
    ``partition_attrs`` are the driver attributes hashed into morsel
    assignments (join/group keys — co-partitioning keeps a group's rows
    in one morsel so the merge stays near-linear).
    """

    __slots__ = ("scans", "modes", "driver_pos", "kind", "partition_attrs")

    def __init__(self, scans, modes, driver_pos, kind, partition_attrs):
        self.scans = scans
        self.modes = modes
        self.driver_pos = driver_pos
        self.kind = kind
        self.partition_attrs = partition_attrs


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


def analyze_plan(root) -> ParallelSpec:
    """Decide whether ``root`` shards and build its :class:`ParallelSpec`;
    raises :class:`ParallelFallback` (with the honest reason) otherwise."""
    _check_shape(root, True)
    scans: List[Any] = []
    _collect_scans(root, scans)
    if not scans:
        raise ParallelFallback("no base-table scan to shard")
    driver_pos = max(range(len(scans)), key=lambda i: scans[i].est_rows)
    driver = scans[driver_pos]
    containing: Set[int] = set()
    _containing(root, driver, containing)
    assigned: List[Tuple[Any, str]] = []
    _assign_modes(root, "driver", containing, assigned)
    if [s for s, _m in assigned] != scans:  # pragma: no cover - invariant
        raise ParallelFallback("scan walk order diverged")
    modes = [m for _s, m in assigned]
    kind = "group" if isinstance(root, GroupedAggregate) else "spju"
    interesting: Set[str] = set()
    _collect_keys(root, interesting)
    partition_attrs = tuple(
        a for a in driver.schema.attributes if a in interesting
    )
    return ParallelSpec(scans, modes, driver_pos, kind, partition_attrs)


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
# the morsel thread pool
# ---------------------------------------------------------------------------

_POOLS: Dict[int, ThreadPoolExecutor] = {}
_POOL_LOCK = threading.Lock()


def _get_pool(workers: int) -> ThreadPoolExecutor:
    with _POOL_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _POOLS[workers] = ThreadPoolExecutor(
                workers, thread_name_prefix="repro-morsel"
            )
        return pool


def cleanup() -> None:
    """Shut the morsel thread pools down; the next parallel execution
    starts a fresh one."""
    with _POOL_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


# ---------------------------------------------------------------------------
# partitioning the driver
# ---------------------------------------------------------------------------


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


def _reorder_batch(batch, order):
    """``batch`` with its rows permuted by ``order``, so the morsel bounds
    index it directly.  Dictionaries (values + index) are shared
    untouched; only codes and annotations are gathered."""
    if order is None:
        return batch
    cols: Dict[str, Any] = {}
    for attr in batch.schema.attributes:
        col = batch.col(attr)
        cols[attr] = enc.EncodedColumn(col.codes[order], col.values, col.index, col.facts)
    return enc.EncodedBatch(
        batch.semiring,
        batch.schema,
        cols,
        batch.anns[order],
        batch.anns_one,
        batch.ann_bound,
        batch.machine,
        batch.distinct,
    )


def _partitioned(plan, db, spec: ParallelSpec, morsels: int):
    """The morsel job for ``plan`` over ``db``: the state
    :func:`_exec_morsel` reads, with the driver permuted into contiguous
    morsels, and the morsel bounds.  Cached on the plan while every
    scanned relation is the same object and the morsel count holds."""
    tables: Dict[str, Tuple[Any, Any]] = {}
    for scan in spec.scans:
        if scan.name in tables:
            continue
        rel = db.relation(scan.name)
        batch = enc.encoded_scan(db, scan.name, rel)
        if batch is None:
            raise ParallelFallback(
                f"table {scan.name!r} disqualifies the encoded tier"
            )
        tables[scan.name] = (rel, batch)
    sig = (
        tuple(sorted((name, id(rel)) for name, (rel, _b) in tables.items())),
        morsels,
    )
    cached = plan._parallel_job
    if cached is not None and cached[0] == sig:
        return cached[2], cached[3]
    batches = {name: batch for name, (_rel, batch) in tables.items()}
    driver = spec.scans[spec.driver_pos].name
    order, bounds = _partition_order(
        batches[driver], spec.partition_attrs, morsels
    )
    batches[driver] = _reorder_batch(batches[driver], order)
    state = {
        "root": plan.root,
        "scans": spec.scans,
        "modes": spec.modes,
        "batches": batches,
        "kind": spec.kind,
    }
    # hold the relations so their ids stay unambiguous while cached
    rels = [rel for rel, _b in tables.values()]
    plan._parallel_job = (sig, rels, state, bounds)
    return state, bounds


# ---------------------------------------------------------------------------
# one morsel
# ---------------------------------------------------------------------------


def _exec_morsel(state, morsel_index: int, start: int, stop: int, deadline=None):
    ctx = ExecutionContext(None, encoded=True, deadline=deadline)
    for scan, mode in zip(state["scans"], state["modes"]):
        batch = state["batches"][scan.name]
        if mode == "driver":
            seeded = enc.slice_batch(batch, start, stop)
        elif mode == "once" and morsel_index != 0:
            seeded = enc.slice_batch(batch, 0, 0)
        else:
            seeded = batch
        ctx.results[id(scan)] = seeded
        if seeded is not batch:  # a slice ends with the morsel: keep nothing of it
            ctx.sliced.add(id(scan))
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


def _run_morsel(state, morsel_index: int, start: int, stop: int, deadline):
    """One morsel on a pool thread, in a copy of the caller's context, so
    its span nests under the caller's ``plan.execute``."""
    if deadline is not None:
        deadline.check(f"morsel {morsel_index} start")
    with _trace.span(f"morsel {morsel_index}", morsel=morsel_index):
        # latency fault point: a stall the deadline can cancel
        faults.sleep_point("latency", site="morsel")
        return _exec_morsel(state, morsel_index, start, stop, deadline)


# ---------------------------------------------------------------------------
# merging the morsels
# ---------------------------------------------------------------------------


def _merge_group_payloads(gagg, semiring, payloads):
    """Merge the morsels' per-group states and finish them.

    A group met again merges by ``+_K`` and by tensor addition, which
    drops cancelled scalars and, on normal forms, is ``+_M`` of their
    values (collapse being a monoid homomorphism ``K (x) M -> M``; Python
    values by now: no bound applies).  The kernel-or-fold decisions of
    the morsels that ran the encoded kernel are counted here, once per
    column: a column some morsel folded counts as folded, for that
    morsel's reason.
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
# one parallel execution
# ---------------------------------------------------------------------------


class ParallelRunInfo:
    __slots__ = ("workers", "morsels")

    def __init__(self, workers: int, morsels: int):
        self.workers = workers
        self.morsels = morsels


def execute_parallel(plan, db, deadline: Optional[Deadline] = None):
    """Run ``plan`` sharded over ``db``; returns ``(batch, run_info)`` or
    raises :class:`ParallelFallback` for the serial encoded re-run.

    A morsel's :class:`DeadlineExceeded` propagates; any other exception
    in a morsel becomes a :class:`ParallelFallback`.
    """
    spec = plan._parallel_spec
    if spec is None:
        raise ParallelFallback(
            plan._parallel_reason or "query is not shard-parallelizable"
        )
    workers = effective_workers()
    morsels = max(2, workers * MORSELS_PER_WORKER)
    if deadline is not None:
        deadline.check("parallel dispatch")
    state, bounds = _partitioned(plan, db, spec, morsels)
    pool = _get_pool(workers)
    try:
        futures = [
            pool.submit(contextvars.copy_context().run,
                        _run_morsel, state, i, start, stop, deadline)
            for i, (start, stop) in enumerate(bounds)
        ]
    except RuntimeError as exc:  # cleanup() shut the pool meanwhile
        raise ParallelFallback(f"morsel pool unavailable: {exc}") from exc
    payloads = []
    try:
        for fut in futures:
            timeout = None if deadline is None else max(0.0, deadline.remaining())
            try:
                error = fut.exception(timeout)
            except _FuturesTimeout:
                deadline.check("parallel gather")
                raise DeadlineExceeded(  # pragma: no cover - clock race
                    "query deadline expired while waiting on morsels"
                )
            except CancelledError as exc:  # cleanup() cancelled it
                raise ParallelFallback("morsel cancelled") from exc
            if isinstance(error, DeadlineExceeded):
                raise error
            if error is not None:
                raise ParallelFallback(
                    f"morsel: {type(error).__name__}: {error}"
                ) from error
            payloads.append(fut.result())
    finally:
        for fut in futures:
            fut.cancel()
    if spec.kind == "group":
        result = _merge_group_payloads(plan.root, db.semiring, payloads)
    else:
        result = _merge_spju_payloads(plan.root.schema, db.semiring, payloads)
    return result, ParallelRunInfo(workers, len(bounds))
