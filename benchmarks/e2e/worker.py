"""One workload in one fresh process (``run.py`` starts these; see there).

Modes: ``setup`` performs set-up and warm-up only and reports ``setup_s``;
``measure`` goes on to the timed, untraced loop and the end-to-end figures;
``trace`` produces the per-layer figures.  The result is one JSON object on
the last line of standard output.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from typing import Any, Callable, Dict, List  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path[0] = os.path.dirname(HERE)  # import as the package ``e2e``
sys.path.insert(1, SRC)

from e2e import refclock  # noqa: E402
from e2e.measure import drive, env_stamp, percentile, summarise  # noqa: E402
from e2e.trace import NullRecorder, Recorder  # noqa: E402

#: Ops of each *other* workload's script a traced run replays.
PROBE_OPS = 8

#: Timed ops of a ``--smoke`` run, which only has to show the wiring works.
SMOKE_OPS = 4

NULL = NullRecorder()


class Steps:
    """Set-up as a sum of steps, each bracketed by the reference kernel."""

    def __init__(self) -> None:
        self.last = refclock.now()
        # everything before the first sample: interpreter start, NumPy
        self.rows: List[List[Any]] = [
            ["startup", time.perf_counter() - _PROCESS_START, self.last]]

    def __call__(self, name: str, fn: Callable[[], Any]) -> Any:
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        after = refclock.now()
        self.rows.append([name, elapsed, refclock.between(self.last, after)])
        self.last = after
        return result

    def seconds(self, name: str) -> float:
        return sum(raw / slow for n, raw, slow in self.rows if n == name)

    def report(self) -> Dict[str, Any]:
        return {
            "setup_s": sum(raw / slow for _n, raw, slow in self.rows),
            "raw_setup_s": sum(raw for _n, raw, _slow in self.rows),
            "steps": [[n, round(raw, 4), round(slow, 3)] for n, raw, slow in self.rows],
        }


def import_program() -> None:
    """Everything the workloads import later, so that cost lands here."""
    import repro.ivm  # noqa: F401
    import repro.plan  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.sql  # noqa: F401
    import repro.wal  # noqa: F401


def create(name: str, args):
    from e2e.workloads import WORKLOADS

    return WORKLOADS[name](args.seed, args.scale, SRC, args.workdir)


def prepare(workload, steps: Steps) -> None:
    """Set-up and warm-up.  The caller owns ``workload`` already, so a
    server started by a set-up that then fails is still stopped."""
    workload.setup(steps)
    workload.warm_up(steps, NULL)


def op_count(full_scale_ops: int, args) -> int:
    """Ops a loop runs: ``full_scale_ops``, or a handful on ``--smoke``."""
    return full_scale_ops if args.scale >= 1 else SMOKE_OPS


def report_failed_checks(workload) -> None:
    for check, passed in workload.checks:
        if not passed:
            print(f"{workload.name}: check {check} FAILED", file=sys.stderr)


def measure(args, steps: Steps) -> Dict[str, Any]:
    workload = create(args.workload, args)
    try:
        prepare(workload, steps)
        setup = steps.report()
        if args.mode == "setup":
            return {"setup": setup, "checks": workload.checks}
        run = drive(lambda i: workload.op(i, NULL),
                    ops=op_count(workload.ops_for(args.seconds), args),
                    roots=workload.roots())
        workload.finish(NULL)
        report_failed_checks(workload)
        return {"setup": setup, "summary": summarise(run), "checks": workload.checks}
    finally:
        workload.close()


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def trace(args, steps: Steps) -> Dict[str, Any]:
    """Per-layer figures: all four op scripts traced, plus the layer probes.

    The named workload alternates untraced and traced ops for a third of
    its untraced op count (their ratio is ``bench.trace_overhead_x``); the
    other three replay ``PROBE_OPS`` traced ops each, so that every layer
    metric is measured on every traced run, always on the same fixture.
    """
    from e2e import layers
    from e2e.workloads import WORKLOADS
    from repro.obs import metrics as obs_metrics

    out: Dict[str, float] = {}
    checks: List[List[Any]] = []
    summary: Dict[str, Any] = {}
    for name in [args.workload] + [w for w in WORKLOADS if w != args.workload]:
        rec = Recorder()
        workload = create(name, args)
        try:
            prepare(workload, steps)
            tiers_before = obs_metrics.tier_executions()
            named = name == args.workload
            run = drive(
                # the named workload records every other op only
                lambda i: workload.op(i, NULL if named and i % 2 == 0 else rec),
                ops=op_count(workload.ops_for(args.seconds) // 3 if named else PROBE_OPS,
                             args),
                roots=workload.roots(), on_op=lambda i: setattr(rec, "op", i))
            tiers_ran = obs_metrics.tier_executions()  # before finish() runs more plans
            if named:
                summary = summarise(run)
                out.update(bench_metrics(run))
            rec.op = -1
            workload.finish(rec)
            view = Traced(rec, run)
            if name == "serve_read":
                out.update(read_metrics(view, layers.read_path(workload)))
            elif name == "serve_write":
                out.update(write_metrics(view))
                out.update(layers.write_path(workload, args.workdir))
            elif name == "scan_analytic":
                for tier, count in tiers_ran.items():
                    out[f"plan.tier.{tier}_runs"] = (count - tiers_before[tier]) / view.ops
                out["plan.parallel.pool_spawn_s"] = steps.seconds("first_run")
                out.update(layers.tiers(workload))
            else:
                out.update(symbolic_metrics(view))
                out.update(layers.circuit_lower(workload))
            out["serve.rejected_503"] = out.get("serve.rejected_503", 0) + view.total(
                "serve.rejected_503")
            report_failed_checks(workload)
            checks.extend([f"{name}.{c}", ok] for c, ok in workload.checks)
            checks.append([f"{name}.ops_ok", all(run["ok"])])
            if named:
                os.makedirs(args.out, exist_ok=True)
                rec.dump(os.path.join(args.out, f"trace-{name}.json"),
                         {"workload": name, "seed": args.seed})
        finally:
            workload.close()
    return {"layers": out, "summary": summary, "checks": checks}


class Traced:
    """One script's spans and counts, normalised op by op."""

    def __init__(self, rec: Recorder, run: Dict[str, Any]):
        self.rec = rec
        self.slow = refclock.smooth(run["refs"])
        self.ops = len(run["raw"])
        self.typical = percentile(run["refs"], 0.5)

    def _slowdown(self, op: int) -> float:
        return self.slow[op] if 0 <= op < len(self.slow) else self.typical

    def span_s(self, name: str) -> List[float]:
        return [d / self._slowdown(op) for op, d in self.rec.durations(name)]

    def p50_ms(self, name: str) -> float:
        return percentile(self.span_s(name), 0.5) * 1e3

    def count_p50(self, name: str, normalise: bool = False) -> float:
        values = [v / self._slowdown(op) if normalise else v
                  for op, v in self.rec.counts.get(name, [])]
        return percentile(values, 0.5)

    def total(self, name: str) -> float:
        return sum(v for _op, v in self.rec.counts.get(name, []))


def bench_metrics(run: Dict[str, Any]) -> Dict[str, float]:
    """How noisy the host was, and what recording the spans cost."""
    slow = refclock.smooth(run["refs"])
    norm = [r / s for r, s in zip(run["raw"], slow)]
    plain = [x for i, x in enumerate(norm) if i % 2 == 0 and run["ok"][i]]
    traced = [x for i, x in enumerate(norm) if i % 2 == 1 and run["ok"][i]]
    raw_plain = [x for i, x in enumerate(run["raw"]) if i % 2 == 0 and run["ok"][i]]
    ticks, stolen = (b - a for a, b in zip(run["ticks"][0], run["ticks"][-1]))
    return {
        "bench.ref_slowdown_p50": percentile(run["refs"], 0.5),
        "bench.ref_slowdown_max": max(run["refs"]),
        "bench.stolen_share": stolen / max(ticks, 1),
        "bench.raw_op_p50_ms": percentile(raw_plain, 0.5) * 1e3,
        "bench.trace_overhead_x": percentile(traced, 0.5) / percentile(plain, 0.5),
    }


def read_metrics(view: Traced, replay: Dict[str, float]) -> Dict[str, float]:
    requests = view.span_s("serve.query")
    mean_ms = sum(requests) / len(requests) * 1e3
    attributed = replay.pop("serve.attributed_ms")
    return {
        **replay,
        "serve.query_ms": view.p50_ms("serve.query"),
        "serve.server_elapsed_ms": view.count_p50("serve.server_elapsed_ms", normalise=True),
        "serve.transport_ms": view.count_p50("serve.transport_ms", normalise=True),
        "serve.response_bytes": view.total("serve.response_bytes") / view.ops,
        "serve.unattributed_ms": mean_ms - attributed,
        "serve.unattributed_share": (mean_ms - attributed) / mean_ms,
    }


def write_metrics(view: Traced) -> Dict[str, float]:
    return {
        "serve.update_ms": view.p50_ms("serve.update"),
        "serve.query_after_write_ms": view.p50_ms("serve.query_after_write"),
        "serve.view_read_ms": view.p50_ms("serve.view_read"),
        "wal.recovery_s": view.p50_ms("wal.recovery") / 1e3,
        "wal.records_replayed": view.total("wal.records_replayed"),
    }


def symbolic_metrics(view: Traced) -> Dict[str, float]:
    out = {name + "_ms": view.p50_ms(name) for name in (
        "core.expanded_eval", "core.apply_hom", "circuit.eval", "circuit.specialise",
        "core.interp_eval", "core.extended_eval", "core.stripped_eval")}
    out["core.provenance_overhead_x"] = (
        out["core.expanded_eval_ms"] / out["core.stripped_eval_ms"])
    out["circuit.gates"] = view.count_p50("circuit.gates")
    out["core.result_monomials"] = view.count_p50("core.result_monomials")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)  # run.py validates the name
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    args.workdir = os.path.join(args.out, "tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(args.workdir)
    steps = Steps()
    try:
        steps("imports", import_program)
        result = trace(args, steps) if args.mode == "trace" else measure(args, steps)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    result.update(mode=args.mode, workload=args.workload, seed=args.seed, env=env_stamp(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
