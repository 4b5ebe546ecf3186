"""The repo's benchmark: one command, every metric by name and unit.

    python3 benchmarks/e2e/run.py --workload serve_write --seed 7 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that yields the per-layer metrics.  Without
``--workload`` all four workloads run in turn.  ``--seconds`` is a budget
that fixes the number of timed ops beforehand (``Workload.ops_for``), not a
deadline.  Each workload runs in fresh subprocesses (``worker.py``) with
``PYTHONHASHSEED=0``; set-up is performed ``SETUPS`` times, each in its own
process, and ``setup_s`` is their median.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is non-zero if
any op or check failed.

``--selfcheck K`` runs the untraced benchmark ``K`` times on consecutive
seeds and prints each metric's spread against its bound (``NOISE.md`` is
this output); ``--smoke`` is a 1/50-scale run for the tests.

Names, units, directions and bounds are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Set-ups per untraced run (one of them belongs to the measuring process).
SETUPS = 3


def build() -> None:
    """Compile the program and the harness to bytecode inside the checkout.

    Imports cache bytecode only where the environment lets them
    (``PYTHONDONTWRITEBYTECODE``); without this step a fresh checkout there
    compiles a hundred modules in every process, the server and the pool
    workers included, and ``setup_s`` measures the environment.  Files that
    are up to date are skipped, so later runs pay a few milliseconds.
    """
    for directory in (SRC, HERE):
        if not compileall.compile_dir(directory, quiet=2):
            raise RuntimeError(f"could not compile {directory}")


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker(workload: str, mode: str, args) -> Dict[str, Any]:
    """Run one ``worker.py`` to completion and return its result object."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC,
               REPRO_PARALLEL_WORKERS="2")  # 2 workers whatever the host's core count
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--scale", str(args.scale), "--mode", mode, "--out", OUT],
        env=env, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} ({mode}) exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_untraced(workload: str, args, spec) -> Dict[str, Any]:
    setups = [worker(workload, "setup", args)["setup"] for _ in range(args.setups - 1)]
    result = worker(workload, "measure", args)
    setups.append(result["setup"])
    summary = result["summary"]
    summary["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    summary["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    bad_checks = [name for name, passed in result["checks"] if not passed]
    failed = summary["failed"] + len(bad_checks)
    record = {
        "workload": workload, "seed": args.seed, "trace": 0, "env": result["env"],
        "attempted": (summary["ops"] + summary["disturbed"] + summary["failed"]
                      + len(result["checks"])),
        "failed": failed, "failed_checks": bad_checks, "summary": summary,
        "setup_steps": result["setup"]["steps"],
        "metrics": {m["name"]: {"value": summary[m["name"]], "unit": m["unit"]}
                    for m in spec["end_to_end"]},
    }
    print(f"\n== {workload} (seed {args.seed}, untraced) ==")
    for m in spec["end_to_end"]:
        raw = summary.get("raw_" + m["name"])
        beside = f"   (raw {raw:.4f})" if raw is not None else ""
        print(f"  {m['name']:<16}{summary[m['name']]:>12.4f} {m['unit']:<4}{beside}")
    print(f"  ops {summary['ops']} (+ {summary['disturbed']} disturbed, left out), "
          f"failed {failed}, p95 {summary['op_p95_ms']:.2f} ms, "
          f"p99 {summary['op_p99_ms']:.2f} ms, max {summary['op_max_ms']:.2f} ms, "
          f"host slowdown p50 {summary['ref_slowdown_p50']:.3f} "
          f"max {summary['ref_slowdown_max']:.3f}, "
          f"CPU stolen by the hypervisor {summary['stolen_share']:.1%}")
    return record


def run_traced(workload: str, args, spec) -> Dict[str, Any]:
    result = worker(workload, "trace", args)
    layers = result["layers"]
    bad_checks = [name for name, passed in result["checks"] if not passed]
    record = {
        "workload": workload, "seed": args.seed, "trace": 1, "env": result["env"],
        "attempted": len(result["checks"]), "failed": len(bad_checks),
        "failed_checks": bad_checks,
        "metrics": {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer"]},
    }
    print(f"\n== {workload} (seed {args.seed}, traced) ==")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<30}{layers[m['name']]:>14.4f} {m['unit']}")
    return record


def run_one(workload: str, args, spec) -> Dict[str, Any]:
    record = (run_traced if args.trace else run_untraced)(workload, args, spec)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


def result_line(records: List[Dict[str, Any]]) -> str:
    """The contract's last line; metric names are prefixed when several
    workloads ran in one invocation."""
    single = len(records) == 1
    metrics = {(name if single else f"{r['workload']}.{name}"): value
               for r in records for name, value in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    return json.dumps({"correct": failed == 0,
                       "attempted": sum(r["attempted"] for r in records),
                       "failed": failed, "metrics": metrics})


# ---------------------------------------------------------------------------
# --selfcheck
# ---------------------------------------------------------------------------


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": (q3 - q1) / median,
            "range": (max(values) - min(values)) / median}


def selfcheck(names: List[str], args, spec) -> int:
    """``K`` untraced runs per workload; fail if a spread exceeds its bound.

    The gated spread is the one the acceptance rule uses: the distance
    between the quartiles over the median (``IQR/median``).
    """
    first_seed = args.seed
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for k in range(args.selfcheck):
        args.seed = first_seed + k
        for name in names:
            runs[name].append(run_one(name, args, spec))
    env = runs[names[0]][-1]["env"]
    print(f"\n## selfcheck: {args.selfcheck} runs per workload, seeds {first_seed}.."
          f"{first_seed + args.selfcheck - 1}, {args.seconds:g} s each\n")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()) + "\n")
    ok = True
    for name in names:
        slow = [r["summary"]["ref_slowdown_p50"] for r in runs[name]]
        failed = sum(r["failed"] for r in runs[name])
        disturbed = [r["summary"]["disturbed"] for r in runs[name]]
        print(f"### {name}  (host slowdown per run: min {min(slow):.3f}, "
              f"median {statistics.median(slow):.3f}, max {max(slow):.3f}; "
              f"disturbed ops left out per run: {disturbed}; "
              f"failed ops and checks: {failed})\n")
        print("| metric | unit | median | q1 | q3 | IQR/median | (max-min)/median | "
              "raw IQR/median | IQR/median with disturbed ops kept | bound | verdict |")
        print("|---|---|---|---|---|---|---|---|---|---|---|")
        ok = ok and failed == 0
        for m in spec["end_to_end"]:
            s = spread([r["summary"][m["name"]] for r in runs[name]])
            beside = []
            for prefix in ("raw_", "whole_"):
                values = [r["summary"].get(prefix + m["name"]) for r in runs[name]]
                beside.append(f"{spread(values)['iqr']:.3f}" if values[0] is not None else "-")
            within = s["iqr"] <= m["bound"]
            ok = ok and within
            verdict = "ok" if within else "TOO NOISY"
            print(f"| {m['name']} | {m['unit']} | {s['median']:.4f} | {s['q1']:.4f} | "
                  f"{s['q3']:.4f} | {s['iqr']:.3f} | {s['range']:.3f} | "
                  f"{' | '.join(beside)} | {m['bound']} | {verdict} |")
        print()
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all four in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="budget that fixes the op count: seconds of timed ops at "
                             f"nominal host speed (default {spec['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", type=int, metavar="K", default=0)
    parser.add_argument("--smoke", action="store_true", help="1/50 scale, for the tests")
    args = parser.parse_args(argv)
    args.scale = 0.02 if args.smoke else 1.0
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    args.setups = 1 if args.smoke else SETUPS
    if not os.path.isdir(SRC):
        print(f"error: {SRC} is missing; the benchmark runs the program from source",
              file=sys.stderr)
        return 2
    build()
    chosen = [args.workload] if args.workload else names
    if args.selfcheck:
        if args.selfcheck < 2 or args.trace:
            parser.error("--selfcheck needs K >= 2 untraced runs")
        return selfcheck(chosen, args, spec)
    records = [run_one(name, args, spec) for name in chosen]
    print(result_line(records))
    return 0 if all(r["failed"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
