"""The unified metrics registry: counters, gauges, histograms.

One process-wide :data:`REGISTRY` replaces the ad-hoc ledgers that grew
alongside the engine — the per-tier execution counts that lived in
``plan.compiler`` and the resilience counters that lived in
``repro.faults`` both write here now (read them back with
:func:`tier_executions` and :func:`resilience_counters`).  The serving
layer exports the whole registry in Prometheus text exposition format at
``GET /metrics`` and as cumulative counters under ``/stats``.

Design constraints (this is on the query hot path):

* **thread-safe** — one lock per metric family; increments from server
  connection threads and engine internals never lose
  updates (``tests/unit/obs/test_metrics.py`` hammers this);
* **no per-sample allocation** — histograms use fixed bucket boundaries
  chosen at construction; ``observe`` is a bisect into a preallocated
  count list, no boxing, no dict churn;
* **cumulative semantics** — counters only go up (Prometheus contract);
  rates are the scraper's job.  ``reset()`` exists for tests only.

Naming conventions (documented in ``docs/architecture.md``): metrics are
``repro_<subsystem>_<noun>[_total]``, label names are short singular
nouns, and every label set a metric will ever emit is pre-seeded where
the value space is known (so scrapes see explicit zeros, not absence).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "REGISTRY",
    "ENCODED_CACHE_EVENTS",
    "RELATION_FLATTENS",
    "ENCODED_KERNEL",
    "QUERY_SECONDS",
    "RESILIENCE_EVENTS",
    "SERVE_ANSWERS",
    "SERVE_ANSWER_PATCHES",
    "SERVE_OPEN_CONNECTIONS",
    "SERVE_REQUESTS",
    "TIER_EXECUTIONS",
    "WAL_APPENDED_BYTES",
    "WAL_CHECKPOINTS",
    "WAL_FSYNC_SECONDS",
    "WAL_LAG_RECORDS",
    "WAL_RECORDS",
    "WAL_REPLAYED_RECORDS",
    "render_prometheus",
    "resilience_counters",
    "tier_executions",
]

#: Default latency buckets (seconds): sub-ms kernels up to slow queries.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


class _Metric:
    """Shared family machinery: a name, label names, children by label
    values, and one lock covering every child's mutation."""

    kind = "untyped"

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}

    def _child(self, label_values: Tuple[str, ...]):
        child = self._children.get(label_values)
        if child is None:
            with self._lock:
                child = self._children.get(label_values)
                if child is None:
                    child = self._new_child()
                    self._children[label_values] = child
        return child

    def _key(self, values: Tuple[Any, ...]) -> Tuple[str, ...]:
        if len(values) != len(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {values!r}"
            )
        return tuple(str(v) for v in values)

    def _new_child(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def _reset(self) -> None:
        with self._lock:
            for key in list(self._children):
                self._children[key] = self._new_child()

    def _sample_lines(self) -> List[str]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _label_text(self, label_values: Tuple[str, ...],
                    extra: Tuple[Tuple[str, str], ...] = ()) -> str:
        pairs = [
            (name, value)
            for name, value in zip(self.label_names, label_values)
        ]
        pairs.extend(extra)
        if not pairs:
            return ""
        body = ",".join(
            f'{name}="{_escape_label(value)}"' for name, value in pairs
        )
        return "{" + body + "}"


class _CounterCell:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


class Counter(_Metric):
    """A monotonically increasing counter family."""

    kind = "counter"

    def inc(self, n: float = 1, *label_values: Any) -> None:
        """Add ``n`` (default 1) to the child named by ``label_values``."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {n}")
        cell = self._child(self._key(label_values))
        with self._lock:
            cell.value += n

    def labels(self, *label_values: Any) -> "_BoundCounter":
        """A bound handle for one label set (pre-creates the child)."""
        return _BoundCounter(self, self._key(label_values))

    def value(self, *label_values: Any) -> float:
        cell = self._children.get(self._key(label_values))
        if cell is None:
            return 0
        with self._lock:
            return cell.value

    def values(self) -> Dict[Tuple[str, ...], float]:
        """Snapshot of every child's value, keyed by label values."""
        with self._lock:
            return {k: c.value for k, c in self._children.items()}

    def _new_child(self):
        return _CounterCell()

    def _sample_lines(self) -> List[str]:
        with self._lock:
            items = sorted(self._children.items())
            return [
                f"{self.name}{self._label_text(k)} {_format_value(c.value)}"
                for k, c in items
            ]


class _BoundCounter:
    __slots__ = ("_family", "_key")

    def __init__(self, family: Counter, key: Tuple[str, ...]):
        self._family = family
        self._key = key
        family._child(key)  # materialise so it renders at zero

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError(
                f"counter {self._family.name!r} cannot decrease by {n}"
            )
        cell = self._family._child(self._key)
        with self._family._lock:
            cell.value += n

    def value(self) -> float:
        with self._family._lock:
            return self._family._child(self._key).value


class _GaugeCell:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


class Gauge(_Metric):
    """A settable instantaneous value family."""

    kind = "gauge"

    def set(self, value: float, *label_values: Any) -> None:
        cell = self._child(self._key(label_values))
        with self._lock:
            cell.value = value

    def inc(self, n: float = 1, *label_values: Any) -> None:
        cell = self._child(self._key(label_values))
        with self._lock:
            cell.value += n

    def dec(self, n: float = 1, *label_values: Any) -> None:
        self.inc(-n, *label_values)

    def value(self, *label_values: Any) -> float:
        cell = self._children.get(self._key(label_values))
        if cell is None:
            return 0
        with self._lock:
            return cell.value

    def _new_child(self):
        return _GaugeCell()

    def _sample_lines(self) -> List[str]:
        with self._lock:
            items = sorted(self._children.items())
            return [
                f"{self.name}{self._label_text(k)} {_format_value(c.value)}"
                for k, c in items
            ]


class _HistogramCell:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-boundary histogram family (no per-sample allocation)."""

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, label_names)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        self.bounds = bounds
        self._le_texts = tuple(_format_value(b) for b in bounds) + ("+Inf",)

    def observe(self, value: float, *label_values: Any) -> None:
        cell = self._child(self._key(label_values))
        # bisect_left keeps the Prometheus contract: le is inclusive, so
        # a sample exactly on a boundary counts in that boundary's bucket
        index = bisect_left(self.bounds, value)
        with self._lock:
            if index < len(cell.counts):
                cell.counts[index] += 1
            cell.sum += value
            cell.count += 1

    def snapshot(self, *label_values: Any) -> Dict[str, Any]:
        """``{"count", "sum", "buckets"}`` for one label set (cumulative
        bucket counts, Prometheus style)."""
        cell = self._children.get(self._key(label_values))
        if cell is None:
            return {"count": 0, "sum": 0.0,
                    "buckets": [0] * (len(self.bounds) + 1)}
        with self._lock:
            counts = list(cell.counts)
            total, cumulative = cell.count, []
            running = 0
            for c in counts:
                running += c
                cumulative.append(running)
            cumulative.append(total)
            return {"count": total, "sum": cell.sum, "buckets": cumulative}

    def _new_child(self):
        # one slot per finite bucket; the +Inf overflow count is derived
        # (count - sum(finite)) at render time
        return _HistogramCell(len(self.bounds))

    def _sample_lines(self) -> List[str]:
        lines: List[str] = []
        with self._lock:
            for key, cell in sorted(self._children.items()):
                running = 0
                for le_text, bucket in zip(self._le_texts, cell.counts):
                    running += bucket
                    label = self._label_text(key, (("le", le_text),))
                    lines.append(
                        f"{self.name}_bucket{label} {running}"
                    )
                label = self._label_text(key, (("le", "+Inf"),))
                lines.append(f"{self.name}_bucket{label} {cell.count}")
                plain = self._label_text(key)
                lines.append(
                    f"{self.name}_sum{plain} {_format_value(cell.sum)}"
                )
                lines.append(f"{self.name}_count{plain} {cell.count}")
        return lines


class Registry:
    """A named collection of metric families with one creation lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _register(self, cls, name: str, help: str,
                  label_names: Sequence[str], **kwargs: Any):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if (type(existing) is not cls
                        or existing.label_names != tuple(label_names)):
                    raise ValueError(
                        f"metric {name!r} already registered with a "
                        f"different type or label set"
                    )
                return existing
            metric = cls(name, help, label_names, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str,
                label_names: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, label_names)

    def gauge(self, name: str, help: str,
              label_names: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, label_names)

    def histogram(self, name: str, help: str,
                  label_names: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, label_names,
                              buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> List[_Metric]:
        with self._lock:
            return list(self._metrics.values())

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: List[str] = []
        for metric in sorted(self.metrics(), key=lambda m: m.name):
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric._sample_lines())
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero every family, keeping registrations and label children
        (tests only — production counters are cumulative)."""
        for metric in self.metrics():
            metric._reset()


#: The process-wide default registry everything below registers into.
REGISTRY = Registry()


# ---------------------------------------------------------------------------
# the engine's own metric families
# ---------------------------------------------------------------------------

#: Which execution tier served each plan execution.
TIER_EXECUTIONS = REGISTRY.counter(
    "repro_tier_executions_total",
    "Plan executions served, by execution tier.",
    ("tier",),
)

#: The non-hit outcomes of the encodings kept on relation versions
#: (:mod:`repro.plan.encoded`); a hit records nothing.
ENCODED_CACHE_EVENT_NAMES = ("extend", "rebuild", "disqualify")

ENCODED_CACHE_EVENTS = REGISTRY.counter(
    "repro_encoded_cache_events_total",
    "Encoding-cache outcomes other than a hit: an insert carried the entry "
    "forward (extend), a scan encoded the table from scratch (rebuild), an "
    "inserted annotation disqualified the table (disqualify).",
    ("event",),
)

#: Layered relation versions (:mod:`repro.core.relation`) materialised
#: as one dict: the overlay outgrew its share of the base (overlay), or a
#: reader needed the whole row map (read).  A write path that reads every
#: version it writes shows up here as one read flatten per write.
RELATION_FLATTEN_CAUSES = ("overlay", "read")

RELATION_FLATTENS = REGISTRY.counter(
    "repro_relation_flatten_total",
    "Layered relation versions flattened into one row map: the overlay "
    "outgrew its share of the base (overlay) or a reader needed the whole "
    "map (read).",
    ("cause",),
)

#: Where each encoded aggregated column's Prop. 3.9 values came from: the
#: array kernel, or the tensors' own fold — a fallback, by its cause.
AGGREGATE_COLLAPSE = REGISTRY.counter(
    "repro_aggregate_collapse_total",
    "Encoded aggregated columns whose tensors were collapsed by the array "
    "kernel (path=kernel) or left to the tensor fold (path=fold, with the "
    "reason).",
    ("path", "reason"),
)

#: Which kernel each encoded join probe and grouped reduction ran (the
#: parallel tier's morsels included): codes addressed
#: directly, the sort a sparse key space falls back to, or the term
#: store's fold; under ``op="gates"`` / ``op="terms"``, why a gate-id or
#: term-id kernel left the encoded tier; and under ``op="hom"``, whether a
#: valuation homomorphism mapped a batch as arrays over the term store's
#: runs or by the object walk, and why; under ``op="lower"``, each planned
#: result kept as the root's arrays whose rows a reader built
#: (``kernel="terms"``: ``N[X]`` folds; ``"arrays"``: machine scalars);
#: under ``op="translate"``, each dictionary translation looked up
#: (``memo``) or made (``built``); and under ``op="pipeline"`` /
#: ``op="probe"``, each pipeline output or join probe an operator kept
#: over lasting batches, reused (``kept``) or made (``built``).
ENCODED_KERNEL = REGISTRY.counter(
    "repro_encoded_kernel_total",
    "Encoded-tier join probes (op=join), duplicate merges (op=consolidate) "
    "and grouped aggregations (op=aggregate) by kernel: direct (scatter / "
    "slot table over the code space), sorted (sparse key space) or fold "
    "(N[X] term rows summed by the term store); circuit gate-id and "
    "N[X] term-id kernels that fell back to the object tier (op=gates or "
    "op=terms, kernel=\"fallback: <cause>\"); and N[X] homomorphism "
    "batches into N, Z or B (op=hom) mapped as arrays over term-store runs "
    "(kernel=array) or by the object walk (kernel=\"fallback: <cause>\"); "
    "planned results kept as the root's arrays whose rows a reader built "
    "(op=lower, kernel=terms for N[X] term-store runs, kernel=arrays for "
    "machine scalars); dictionary translations reused or made "
    "(op=translate, kernel=memo|built); and pipeline outputs and join "
    "probes kept over stored versions, reused or made (op=pipeline|probe, "
    "kernel=kept|built).",
    ("op", "kernel"),
)

#: The resilience ledger (written by :mod:`repro.faults`).  The event
#: names mirror ``faults._COUNTER_NAMES`` — kept in lockstep by
#: ``tests/unit/obs/test_metrics.py``.
RESILIENCE_EVENT_NAMES = (
    "faults_injected",
    "deadline_expiries",
    "snapshot_rebuilds",
    "wal_torn_tails",
)

RESILIENCE_EVENTS = REGISTRY.counter(
    "repro_resilience_events_total",
    "Recovery-machinery events: injected faults, deadline expiries, "
    "corrupt checkpoints skipped on recovery (snapshot_rebuilds), torn WAL "
    "tails.",
    ("event",),
)

#: HTTP requests served by the provenance service, by route and status.
SERVE_REQUESTS = REGISTRY.counter(
    "repro_serve_requests_total",
    "HTTP requests served by the provenance service, by route and status.",
    ("route", "status"),
)

#: How each served /query met its snapshot's kept answers: served from
#: them (hit), evaluated and kept (miss), or evaluated without looking
#: (bypass: ``analyze``, or tracing on).
SERVE_ANSWER_OUTCOMES = ("hit", "miss", "bypass")

SERVE_ANSWERS = REGISTRY.counter(
    "repro_serve_answers_total",
    "Served /query answers by outcome: written from the snapshot's kept "
    "answers (hit), evaluated and kept (miss), or evaluated without "
    "reading or keeping one (bypass).",
    ("outcome",),
)

#: What each write did to the server's maintained answers: an entry
#: folded the write (patched; ``/views`` entries included), a kept answer
#: read on the superseded version became a view (promoted), or a
#: promoted answer stopped being maintained, by cause.  A key the view
#: layer refuses counts ``demoted: not maintainable`` once, at promotion.
SERVE_ANSWER_PATCH_OUTCOMES = (
    "patched", "promoted", "demoted: not read", "demoted: not maintainable",
    "demoted: relation replaced", "demoted: patch failed",
)

SERVE_ANSWER_PATCHES = REGISTRY.counter(
    "repro_serve_answer_patches_total",
    "Maintained answers carried across writes, by outcome: an entry "
    "patched by a write, a kept answer promoted to a view, or a promoted "
    "answer demoted (not read on the superseded version, not maintainable, "
    "its relation replaced, or its patch failed).",
    ("outcome",),
)

#: Open connections to the provenance service, each served by one thread.
SERVE_OPEN_CONNECTIONS = REGISTRY.gauge(
    "repro_serve_open_connections",
    "Open connections to the provenance service (one thread each).",
)

#: Wall-clock seconds per served /query evaluation.
QUERY_SECONDS = REGISTRY.histogram(
    "repro_query_seconds",
    "Wall-clock seconds per served query evaluation.",
)

# -- the durability subsystem (repro.wal) -----------------------------------

#: The WAL record ops this build writes (pre-seeded label values).
WAL_RECORD_OPS = ("update", "add", "create_view")

#: Records appended to the write-ahead log, by operation.
WAL_RECORDS = REGISTRY.counter(
    "repro_wal_records_total",
    "Write-ahead-log records appended, by operation.",
    ("op",),
)

#: Bytes appended to the write-ahead log (frames + payloads).
WAL_APPENDED_BYTES = REGISTRY.counter(
    "repro_wal_appended_bytes_total",
    "Bytes appended to the write-ahead log, frames included.",
)

#: Records replayed from the WAL tail during recovery-on-boot.
WAL_REPLAYED_RECORDS = REGISTRY.counter(
    "repro_wal_records_replayed_total",
    "WAL records replayed during crash recovery.",
)

#: Checkpoints written (full snapshot + segment truncation).
WAL_CHECKPOINTS = REGISTRY.counter(
    "repro_wal_checkpoints_total",
    "Durability checkpoints written.",
)

#: Wall-clock seconds per WAL fsync (the durable-write latency floor).
WAL_FSYNC_SECONDS = REGISTRY.histogram(
    "repro_wal_fsync_seconds",
    "Wall-clock seconds per write-ahead-log fsync.",
    buckets=(0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
             0.05, 0.1, 0.25, 0.5, 1.0),
)

#: Records appended since the last checkpoint (replay debt on crash).
WAL_LAG_RECORDS = REGISTRY.gauge(
    "repro_wal_lag_records",
    "WAL records appended since the last checkpoint (recovery replay debt).",
)

# pre-seed every known label set so scrapes see explicit zeros
for _tier in ("object", "encoded", "parallel"):
    TIER_EXECUTIONS.labels(_tier)
for _event in RESILIENCE_EVENT_NAMES:
    RESILIENCE_EVENTS.labels(_event)
for _event in ENCODED_CACHE_EVENT_NAMES:
    ENCODED_CACHE_EVENTS.labels(_event)
for _cause in RELATION_FLATTEN_CAUSES:
    RELATION_FLATTENS.labels(_cause)
for _op in WAL_RECORD_OPS:
    WAL_RECORDS.labels(_op)
for _outcome in SERVE_ANSWER_OUTCOMES:
    SERVE_ANSWERS.labels(_outcome)
for _outcome in SERVE_ANSWER_PATCH_OUTCOMES:
    SERVE_ANSWER_PATCHES.labels(_outcome)
QUERY_SECONDS._child(())  # label-less: render zero buckets from scrape one
WAL_FSYNC_SECONDS._child(())
for _family in (WAL_APPENDED_BYTES, WAL_REPLAYED_RECORDS, WAL_CHECKPOINTS):
    _family._child(())
WAL_LAG_RECORDS._child(())
SERVE_OPEN_CONNECTIONS._child(())


def tier_executions() -> Dict[str, int]:
    """Cumulative per-tier plan-execution counts (which tier actually
    served each plan execution)."""
    values = TIER_EXECUTIONS.values()
    return {
        tier: int(values.get((tier,), 0))
        for tier in ("object", "encoded", "parallel")
    }


def resilience_counters() -> Dict[str, int]:
    """Cumulative resilience-event counts (faults injected, deadline
    expiries, snapshot rebuilds, torn WAL tails)."""
    values = RESILIENCE_EVENTS.values()
    return {
        name: int(values.get((name,), 0))
        for name in RESILIENCE_EVENT_NAMES
    }


def reset_resilience() -> None:
    """Zero the resilience family (backs ``faults.reset_counters()``)."""
    RESILIENCE_EVENTS._reset()
    for _event in RESILIENCE_EVENT_NAMES:
        RESILIENCE_EVENTS.labels(_event)


def render_prometheus(registry: Registry = REGISTRY) -> str:
    """Render ``registry`` (default: the process registry) as Prometheus
    text exposition format — the ``GET /metrics`` body."""
    return registry.render()
