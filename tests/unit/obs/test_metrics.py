"""Unit tests for the metrics registry: family semantics, the Prometheus
rendering contract, thread-safety under hammering, and the deprecated
read shims that keep the pre-registry APIs alive."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import faults
from repro.obs import metrics


# ---------------------------------------------------------------------------
# family semantics
# ---------------------------------------------------------------------------


def test_counter_inc_value_and_snapshot():
    reg = metrics.Registry()
    c = reg.counter("t_total", "help", ("tier",))
    assert c.value("object") == 0
    c.inc(1, "object")
    c.inc(2.5, "encoded")
    assert c.value("object") == 1
    assert c.value("encoded") == 2.5
    assert c.values() == {("object",): 1, ("encoded",): 2.5}


def test_counter_rejects_decrease_and_label_arity_mismatch():
    reg = metrics.Registry()
    c = reg.counter("t_total", "help", ("tier",))
    with pytest.raises(ValueError):
        c.inc(-1, "object")
    with pytest.raises(ValueError):
        c.inc(1)  # missing the tier label
    with pytest.raises(ValueError):
        c.inc(1, "object", "extra")


def test_bound_counter_pre_creates_the_child_for_explicit_zeros():
    reg = metrics.Registry()
    c = reg.counter("t_total", "help", ("tier",))
    bound = c.labels("parallel")
    assert 't_total{tier="parallel"} 0' in reg.render()
    bound.inc()
    assert bound.value() == 1
    with pytest.raises(ValueError):
        bound.inc(-1)


def test_gauge_set_inc_dec():
    reg = metrics.Registry()
    g = reg.gauge("depth", "help")
    g.set(4)
    g.inc()
    g.dec(2)
    assert g.value() == 3


def test_histogram_buckets_sum_count_and_overflow():
    reg = metrics.Registry()
    h = reg.histogram("lat_seconds", "help", buckets=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.5, 5.0):  # one per bucket + one overflow
        h.observe(v)
    snap = h.snapshot()
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(5.555)
    assert snap["buckets"] == [1, 2, 3, 4]  # cumulative, +Inf last
    # boundary values land in their own bucket (le is inclusive)
    h2 = reg.histogram("edge_seconds", "help", buckets=(0.1,))
    h2.observe(0.1)
    assert h2.snapshot()["buckets"] == [1, 1]


def test_histogram_requires_buckets():
    with pytest.raises(ValueError):
        metrics.Registry().histogram("bad", "help", buckets=())


# ---------------------------------------------------------------------------
# registry + Prometheus text exposition
# ---------------------------------------------------------------------------


def test_registration_is_idempotent_but_conflicts_raise():
    reg = metrics.Registry()
    a = reg.counter("x_total", "help", ("l",))
    assert reg.counter("x_total", "help", ("l",)) is a
    with pytest.raises(ValueError):
        reg.counter("x_total", "help", ("other",))
    with pytest.raises(ValueError):
        reg.gauge("x_total", "help", ("l",))
    assert reg.get("x_total") is a
    assert reg.get("missing") is None


def test_render_emits_help_type_and_samples_sorted_by_name():
    reg = metrics.Registry()
    reg.counter("b_total", "bees", ("kind",)).inc(2, "bumble")
    reg.gauge("a_depth", "depth").set(1)
    h = reg.histogram("c_seconds", "latency", buckets=(0.1, 1.0))
    h.observe(0.05)
    text = reg.render()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "# HELP a_depth depth"
    assert lines[1] == "# TYPE a_depth gauge"
    assert "# TYPE b_total counter" in lines
    assert 'b_total{kind="bumble"} 2' in lines
    assert "# TYPE c_seconds histogram" in lines
    assert 'c_seconds_bucket{le="0.1"} 1' in lines
    assert 'c_seconds_bucket{le="1"} 1' in lines
    assert 'c_seconds_bucket{le="+Inf"} 1' in lines
    assert "c_seconds_sum 0.05" in lines
    assert "c_seconds_count 1" in lines


def test_render_escapes_label_values():
    reg = metrics.Registry()
    reg.counter("q_total", "h", ("sql",)).inc(1, 'say "hi"\nback\\slash')
    assert r'q_total{sql="say \"hi\"\nback\\slash"} 1' in reg.render()


def test_reset_zeroes_values_but_keeps_registrations_and_children():
    reg = metrics.Registry()
    c = reg.counter("x_total", "h", ("l",))
    c.inc(5, "a")
    reg.reset()
    assert c.value("a") == 0
    assert 'x_total{l="a"} 0' in reg.render()


def test_render_prometheus_defaults_to_the_process_registry():
    text = metrics.render_prometheus()
    assert "# TYPE repro_tier_executions_total counter" in text
    assert "# TYPE repro_resilience_events_total counter" in text
    assert "# TYPE repro_query_seconds histogram" in text
    # pre-seeded label sets render as explicit zeros from process start
    for tier in ("object", "encoded", "parallel"):
        assert f'repro_tier_executions_total{{tier="{tier}"}}' in text
    for event in metrics.RESILIENCE_EVENT_NAMES:
        assert f'repro_resilience_events_total{{event="{event}"}}' in text
    for event in metrics.ENCODED_CACHE_EVENT_NAMES:
        assert f'repro_encoded_cache_events_total{{event="{event}"}}' in text
    for cause in metrics.RELATION_FLATTEN_CAUSES:
        assert f'repro_relation_flatten_total{{cause="{cause}"}}' in text


# ---------------------------------------------------------------------------
# thread-safety: hammer a fresh registry, count nothing lost
# ---------------------------------------------------------------------------


def test_concurrent_counter_increments_are_never_lost():
    reg = metrics.Registry()
    c = reg.counter("hammer_total", "h", ("who",))
    threads, per_thread = 8, 2000
    barrier = threading.Barrier(threads)

    def work(i):
        barrier.wait()
        label = f"w{i % 2}"  # two label sets contend for the family lock
        for _ in range(per_thread):
            c.inc(1, label)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, range(threads)))
    assert c.value("w0") + c.value("w1") == threads * per_thread


def test_concurrent_histogram_observes_are_never_lost():
    reg = metrics.Registry()
    h = reg.histogram("hammer_seconds", "h", buckets=(0.5,))
    threads, per_thread = 8, 2000
    barrier = threading.Barrier(threads)

    def work(i):
        barrier.wait()
        value = 0.1 if i % 2 else 0.9  # half in-bucket, half overflow
        for _ in range(per_thread):
            h.observe(value)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, range(threads)))
    snap = h.snapshot()
    assert snap["count"] == threads * per_thread
    assert snap["buckets"] == [threads * per_thread // 2,
                               threads * per_thread]


def test_concurrent_child_creation_yields_one_cell_per_label_set():
    reg = metrics.Registry()
    c = reg.counter("race_total", "h", ("l",))
    barrier = threading.Barrier(8)

    def work(i):
        barrier.wait()
        c.inc(1, f"label{i % 4}")

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(work, range(8)))
    assert sorted(c.values().items()) == [
        ((f"label{i}",), 2) for i in range(4)
    ]


# ---------------------------------------------------------------------------
# the faults ledger and the registry stay in lockstep
# ---------------------------------------------------------------------------


def test_resilience_event_names_match_the_faults_ledger():
    assert metrics.RESILIENCE_EVENT_NAMES == faults._COUNTER_NAMES


def test_faults_bump_is_read_back_from_the_registry():
    faults.reset_counters()
    try:
        faults.bump("snapshot_rebuilds", 3)
        ledger = metrics.resilience_counters()
        assert set(ledger) == set(faults._COUNTER_NAMES)
        assert ledger["snapshot_rebuilds"] == 3
    finally:
        faults.reset_counters()


def test_reset_resilience_keeps_the_pre_seeded_zeros():
    faults.bump("wal_torn_tails")
    metrics.reset_resilience()
    ledger = metrics.resilience_counters()
    assert set(ledger) == set(metrics.RESILIENCE_EVENT_NAMES)
    assert all(v == 0 for v in ledger.values())
    text = metrics.render_prometheus()
    assert 'repro_resilience_events_total{event="wal_torn_tails"} 0' in text
