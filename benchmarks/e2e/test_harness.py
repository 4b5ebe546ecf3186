"""Tier-1 tests of the benchmark harness itself (no timing assertions)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from e2e import gen, refclock
from e2e.measure import percentile, stolen_shares, summarise
from e2e.trace import NullRecorder, Recorder, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


# -- arithmetic --------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 0.5) == 2.5
    assert percentile(values, 1.0) == 4.0
    assert percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_smooth_takes_the_median_of_the_samples_around_each_op():
    # 5 ops bracketed by 6 samples; one outlier sample must not leak through
    samples = [1.0, 1.0, 9.0, 1.0, 1.0, 1.0]
    assert refclock.smooth(samples, half_window=2) == [1.0] * 5
    # a regime change is followed, half a window late at most
    step = [1.0] * 6 + [2.0] * 6
    smoothed = refclock.smooth(step, half_window=2)
    assert smoothed[0] == 1.0 and smoothed[-1] == 2.0
    assert len(smoothed) == len(step) - 1
    assert refclock.between(1.0, 4.0) == 2.0


def test_slowdown_is_the_geometric_mean_of_the_three_kernels():
    assert refclock.slowdown((1.0, 8.0, 1.0)) == pytest.approx(2.0)
    assert all(ratio > 0 for ratio in refclock.sample())


def test_op_counts_are_fixed_by_the_budget_not_by_the_clock():
    from e2e.workloads import MIN_OPS, WORKLOADS

    for cls in WORKLOADS.values():
        workload = cls(1, 1.0, "", "")
        assert workload.ops_for(0) == MIN_OPS  # ten samples beyond p90, always
        assert workload.ops_for(1000) == pytest.approx(1000 / cls.nominal_op_s, abs=1)


def test_normalisation_cancels_a_uniformly_slow_host():
    calm = [[200 * i, 0] for i in range(4)]
    quick = {"raw": [0.10, 0.20, 0.30], "ok": [True] * 3, "refs": [1.0] * 4,
             "cpu": [0.2] * 3, "ticks": calm, "peak_rss_mb": 50.0}
    slow = {"raw": [0.15, 0.30, 0.45], "ok": [True] * 3, "refs": [1.5] * 4,
            "cpu": [0.3] * 3, "ticks": calm, "peak_rss_mb": 50.0}
    a, b = summarise(quick), summarise(slow)
    for name in ("op_p50_ms", "op_p90_ms", "ops_per_s", "cpu_ms_per_op"):
        assert a[name] == pytest.approx(b[name])
    assert b["raw_op_p50_ms"] == pytest.approx(1.5 * a["raw_op_p50_ms"])


def test_failed_ops_are_counted_and_left_out_of_the_samples():
    run = {"raw": [0.1, 5.0, 0.1], "ok": [True, False, True], "refs": [1.0] * 4,
           "cpu": [0.1] * 3, "ticks": [[200 * i, 0] for i in range(4)], "peak_rss_mb": 1.0}
    summary = summarise(run)
    assert (summary["ops"], summary["failed"], summary["disturbed"]) == (2, 1, 0)
    assert summary["op_max_ms"] == pytest.approx(100.0)


def test_ops_that_ran_while_the_hypervisor_stole_cpu_are_left_out():
    # 40 ops of 100 ms on 2 CPUs (20 ticks each); 10 ticks are stolen during op 30
    ticks = [[20 * i, 10 if i > 30 else 0] for i in range(41)]
    shares = stolen_shares(ticks, half_window=2)
    assert shares[:28] == [0.0] * 28 and shares[35:] == [0.0] * 5
    assert all(share == pytest.approx(0.1) for share in shares[28:33])
    run = {"raw": [0.1] * 40, "ok": [True] * 40, "refs": [1.0] * 41, "cpu": [0.1] * 40,
           "ticks": ticks, "peak_rss_mb": 1.0}
    run["raw"][30] = 0.9  # the op the theft slowed
    summary = summarise(run)
    assert summary["disturbed"] > 0 and summary["op_max_ms"] == pytest.approx(100.0)
    # stolen from end to end: nothing calm is left, so the run is reported whole
    run["ticks"] = [[20 * i, 5 * i] for i in range(41)]
    summary = summarise(run)
    assert (summary["ops"], summary["disturbed"]) == (40, 0)
    assert summary["op_max_ms"] == pytest.approx(900.0)


# -- spans -------------------------------------------------------------------


def test_self_time_is_duration_minus_the_union_of_children():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],       # overlaps a: [1, 6] is covered once
        ["a.inner", 1.5, 2.5, 1, 0],
        ["open", 7.0, None, 0, 0],   # never closed: ignored
    ]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0, 0.0]


def test_recorder_links_spans_to_their_parent_and_op():
    rec = Recorder()
    rec.op = 3
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        rec.count("bytes", 10)
    names = [(s[0], s[3], s[4]) for s in rec.spans]
    assert names == [("outer", -1, 3), ("inner", 0, 3)]
    assert rec.counts == {"bytes": [(3, 10)]}
    assert [op for op, _d in rec.durations("inner")] == [3]
    null = NullRecorder()
    with null.span("anything"):
        null.count("bytes", 1)


# -- generators --------------------------------------------------------------


def _request_stream(seed: int):
    emp = gen.emp_table(seed, 256, 64)
    dept = gen.dept_table(seed, 64)
    bodies = [gen.relation_body("Emp", gen.EMP_COLUMNS, emp),
              gen.relation_body("Dept", gen.DEPT_COLUMNS, dept)]
    bodies += [gen.query_body(sql) for sql in gen.read_script(2)]
    bodies += [gen.update_body(gen.update_batch(seed, k, 20, 64)) for k in range(3)]
    return bodies


def test_same_seed_gives_byte_identical_requests_in_the_same_order():
    assert _request_stream(11) == _request_stream(11)
    assert gen.fact_table(11, 2048, 1024) == gen.fact_table(11, 2048, 1024)


def test_another_seed_gives_other_keys_but_the_same_amount_of_work():
    a, b = gen.emp_table(11, 256, 64), gen.emp_table(12, 256, 64)
    assert {row[0] for row in a}.isdisjoint(row[0] for row in b)
    assert sorted(row[2] for row in a) == sorted(row[2] for row in b)
    assert sorted(row[1] for row in a) == sorted(row[1] for row in b)
    assert _request_stream(11) != _request_stream(12)
    writes = {row[0] for k in range(50) for row in gen.update_batch(11, k, 20, 64)}
    assert len(writes) == 1000 and writes.isdisjoint(row[0] for row in a)


def test_expected_answers_match_the_generated_rows():
    emp = [(1, "d7", 50), (2, "d7", 10), (3, "d1", 50)]
    dept = [("d7", "EU"), ("d1", "US")]
    answers = gen.read_answers(emp, dept)
    assert answers[gen.S1] == {("d7", 60): 1, ("d1", 50): 1}
    assert answers[gen.S2] == {("EU", 60): 1, ("US", 50): 1}
    assert answers[gen.S3] == {("d7", 50): 1, ("d1", 50): 1}
    assert answers[gen.S4] == {(1,): 1, (2,): 1}


# -- the contract, and the whole thing end to end ------------------------------


def test_benchmark_json_names_this_directory_and_bounds_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


def test_smoke_run_exits_zero_and_reports_every_end_to_end_metric():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", "3"],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert len(result["metrics"]) == 4 * 6
    assert all(m["value"] > 0 for m in result["metrics"].values())
