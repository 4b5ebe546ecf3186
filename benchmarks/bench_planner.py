"""Planner benchmark: interpreted vs planned engine on join + group-by.

The workload the physical layer exists for: a fact table joined to a
dimension table, filtered on a dimension attribute, then grouped and
SUM-aggregated — every operator the planner rewrites (selection pushdown),
vectorizes (fused select, columnar hash join) or fuses (grouped
aggregation without intermediate relations).  The same workload runs in
three annotation regimes: concrete bags (``N``), expanded provenance
polynomials (``N[X]``, the n-ary-kernel fast path), and provenance
circuits (``annotations="circuit"``, shared gates lowered lazily).

Run modes:

``pytest benchmarks/bench_planner.py``
    correctness + a conservative speedup gate (planned must beat
    interpreted) + a pytest-benchmark series for the planned engine.

``python benchmarks/bench_planner.py [--smoke]``
    the perf gate ``make check`` runs: times both engines and **fails**
    (exit 1) if the planned engine misses the bar — ≥ 3× on the full
    10k-tuple workload, ≥ 1× (no regression) in ``--smoke`` mode.

``python benchmarks/bench_planner.py --symbolic``
    the symbolic-provenance gate: on the 10k-row ``N[X]`` workload
    circuit-backed execution must beat the expanded-polynomial planned
    run ≥ 2×.  The planned/interpreted ratio is printed, not gated: the
    interpreter is the reference, and a bar against it fails whenever the
    reference gets faster.

``python benchmarks/bench_planner.py --json [PATH]``
    run every workload and write per-workload seconds + speedups to
    ``BENCH_planner.json`` (the committed perf-trajectory artifact),
    enforcing both gate sets.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Callable, Dict, Tuple

import pytest

from repro.core import (
    AttrEq,
    GroupBy,
    KDatabase,
    KRelation,
    NaturalJoin,
    Query,
    Select,
    Table,
)
from repro.monoids import SUM
from repro.semirings import NAT, NX

N_GROUPS = 32


def join_group_db(n: int, *, symbolic: bool = False, seed: int = 7) -> KDatabase:
    """Fact table Emp(EmpId, Dept, Sal) × dimension Dept(Dept, Region)."""
    rng = random.Random(seed)
    semiring = NX if symbolic else NAT

    def tag(prefix: str, i: int):
        return NX.variable(f"{prefix}{i}") if symbolic else 1 + i % 3

    emp = KRelation.from_rows(
        semiring,
        ("EmpId", "Dept", "Sal"),
        [
            ((i, f"d{rng.randrange(N_GROUPS)}", 10 * rng.randrange(1, 10)), tag("t", i))
            for i in range(n)
        ],
    )
    dept = KRelation.from_rows(
        semiring,
        ("Dept", "Region"),
        [((f"d{j}", "EU" if j % 2 else "US"), tag("d", j)) for j in range(N_GROUPS)],
    )
    return KDatabase(semiring, {"Emp": emp, "Dept": dept})


def join_group_query() -> Query:
    return GroupBy(
        Select(NaturalJoin(Table("Emp"), Table("Dept")), [AttrEq("Region", "EU")]),
        ["Dept"],
        {"Sal": SUM},
    )


def best_of(fn: Callable[[], object], repeats: int = 5) -> float:
    """Minimum wall time over ``repeats`` runs, with the GC parked.

    Collector pauses land on whichever engine happens to be running and
    can double a 10ms measurement; disabling collection for the timed
    region (and collecting between runs) measures the engines, not the
    allocator's debts.
    """
    import gc

    best = float("inf")
    enabled = gc.isenabled()
    try:
        for _ in range(repeats):
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
            if enabled:
                gc.enable()
    finally:
        if enabled:
            gc.enable()
    return best


def measure(n: int, *, symbolic: bool = False) -> Tuple[float, float]:
    """(interpreted seconds, planned seconds) on the join+group-by workload."""
    db = join_group_db(n, symbolic=symbolic)
    query = join_group_query()
    reference = query.evaluate(db)
    planned = query.evaluate(db, engine="planned")
    assert planned == reference, "engines disagree — do not trust the timings"
    return (
        best_of(lambda: query.evaluate(db)),
        best_of(lambda: query.evaluate(db, engine="planned")),
    )


def measure_symbolic(n: int) -> Tuple[float, float, float]:
    """(interpreted, planned, circuit) seconds on the N[X] workload.

    The circuit timing covers exactly what a provenance-capture deployment
    pays per query: building the shared-gate result.  Lowering/
    specialisation is deliberately outside the timed region (it is
    valuation-time work, and it is what the equivalence assertions below
    exercise).
    """
    db = join_group_db(n, symbolic=True)
    query = join_group_query()
    reference = query.evaluate(db)
    assert query.evaluate(db, engine="planned") == reference, (
        "engines disagree — do not trust the timings"
    )
    assert query.evaluate(db, engine="planned", annotations="circuit") == reference, (
        "circuit lowering disagrees — do not trust the timings"
    )
    return (
        best_of(lambda: query.evaluate(db)),
        best_of(lambda: query.evaluate(db, engine="planned")),
        best_of(
            lambda: query.evaluate(db, engine="planned", annotations="circuit")
        ),
    )


# ---------------------------------------------------------------------------
# pytest face (collected by the tier-1 run)
# ---------------------------------------------------------------------------


def test_planner_workload_equivalence():
    for symbolic in (False, True):
        db = join_group_db(512, symbolic=symbolic)
        query = join_group_query()
        assert query.evaluate(db, engine="planned") == query.evaluate(db)


def test_circuit_mode_workload_equivalence():
    db = join_group_db(512, symbolic=True)
    query = join_group_query()
    reference = query.evaluate(db)
    circuit = query.evaluate(db, engine="planned", annotations="circuit")
    assert circuit == reference


def test_planner_speedup_gates_regressions():
    """The benchmark gate: planned must not be slower than interpreted.

    The observed margin on this fixture is an order of magnitude; > 1.0
    keeps the gate insensitive to machine noise while still catching any
    real physical-layer regression.
    """
    interpreted, planned = measure(2000)
    speedup = interpreted / planned
    print(f"\njoin+group-by n=2000: {speedup:.1f}x (planned {planned*1e3:.1f} ms)")
    assert speedup > 1.0, (
        f"planned engine slower than interpreted ({speedup:.2f}x)"
    )


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_bench_planned_engine(benchmark, n):
    db = join_group_db(n)
    query = join_group_query()
    result = benchmark(lambda: query.evaluate(db, engine="planned"))
    assert len(result) <= N_GROUPS


# ---------------------------------------------------------------------------
# CLI face (the `make check` / `make bench-planner` gate)
# ---------------------------------------------------------------------------


SYMBOLIC_CIRCUIT_BAR = 2.0


def run_concrete(
    n: int,
    bar: float,
    scale: int | None = None,
    planned_only_scale: int | None = None,
) -> Tuple[Dict[str, dict], bool]:
    """The NAT workload series; returns (per-workload stats, gate ok).

    ``scale`` optionally appends a production-ish size (the ``--json``
    trajectory measures 100k rows) — the gate is enforced on the series'
    *last* entry, so the bar applies at the largest size measured.
    ``planned_only_scale`` appends one more trajectory point (1M rows)
    timing the planned engine alone: the interpreter needs minutes
    there for a baseline the gated sizes already establish, so the
    entry records ``interpreted_s: null`` and stays outside the gate.
    """
    workloads: Dict[str, dict] = {}
    sizes = {n // 4, n}
    if scale is not None:
        sizes.add(scale)
    rows = []
    for size in sorted(sizes):
        interpreted, planned = measure(size)
        speedup = interpreted / planned
        rows.append((size, interpreted, planned, speedup))
        workloads[f"join_group_nat_{size}"] = {
            "rows": size,
            "interpreted_s": round(interpreted, 6),
            "planned_s": round(planned, 6),
            "planned_speedup": round(speedup, 2),
        }

    print("== planner benchmark: join + group-by (NAT bags) ==")
    print(f"  {'n':>7} | {'interpreted':>12} | {'planned':>9} | speedup")
    for size, interpreted, planned, speedup in rows:
        print(
            f"  {size:>7} | {interpreted*1e3:>10.1f}ms | {planned*1e3:>7.1f}ms "
            f"| {speedup:>6.1f}x"
        )

    if planned_only_scale is not None:
        db = join_group_db(planned_only_scale)
        query = join_group_query()
        planned = best_of(
            lambda: query.evaluate(db, engine="planned"), repeats=3
        )
        workloads[f"join_group_nat_{planned_only_scale}"] = {
            "rows": planned_only_scale,
            "interpreted_s": None,
            "planned_s": round(planned, 6),
        }
        print(
            f"  {planned_only_scale:>7} | {'—':>12} | {planned*1e3:>7.1f}ms "
            f"|      — (planned only)"
        )

    final = rows[-1][3]
    if final < bar:
        print(f"FAIL: speedup {final:.2f}x below the {bar:.0f}x gate", file=sys.stderr)
        return workloads, False
    print(f"OK: speedup {final:.1f}x meets the {bar:.0f}x gate")
    return workloads, True


def run_symbolic(n: int, *, gate: bool) -> Tuple[Dict[str, dict], bool]:
    """The N[X] workload: expanded polynomials vs circuits.

    ``gate`` enforces the symbolic bar (circuit ≥ 2× expanded planned);
    without it the numbers are reported only (the smoke path).  The
    planned/interpreted ratio is always report-only.
    """
    interpreted, planned, circuit = measure_symbolic(n)
    planned_speedup = interpreted / planned
    circuit_speedup = planned / circuit
    workloads = {
        f"join_group_nx_{n}": {
            "rows": n,
            "interpreted_s": round(interpreted, 6),
            "planned_s": round(planned, 6),
            "circuit_s": round(circuit, 6),
            "planned_speedup": round(planned_speedup, 2),
            "circuit_vs_planned": round(circuit_speedup, 2),
        }
    }

    print(f"== planner benchmark: join + group-by (N[X] provenance, n={n}) ==")
    print(f"  interpreted      {interpreted*1e3:>8.1f}ms")
    print(f"  planned expanded {planned*1e3:>8.1f}ms  ({planned_speedup:.1f}x)")
    print(
        f"  planned circuit  {circuit*1e3:>8.1f}ms  "
        f"({circuit_speedup:.1f}x vs expanded)"
    )

    if not gate:
        return workloads, True
    if circuit_speedup < SYMBOLIC_CIRCUIT_BAR:
        print(
            f"FAIL: circuit-mode speedup {circuit_speedup:.2f}x below the "
            f"{SYMBOLIC_CIRCUIT_BAR:.0f}x gate",
            file=sys.stderr,
        )
        return workloads, False
    print(f"OK: N[X] gate met ({circuit_speedup:.1f}x circuit vs expanded)")
    return workloads, True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fixture, gate at 1x (no-regression check for make check)",
    )
    parser.add_argument(
        "--symbolic",
        action="store_true",
        help="N[X] workload gate: circuit >= 2x expanded planned",
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const="BENCH_planner.json",
        default=None,
        metavar="PATH",
        help="run all workloads, write per-workload seconds + speedups "
        "(default path: BENCH_planner.json)",
    )
    parser.add_argument("--n", type=int, default=None, help="fact-table rows")
    args = parser.parse_args(argv)

    n = args.n if args.n is not None else (2000 if args.smoke else 10000)
    bar = 1.0 if args.smoke else 3.0

    workloads: Dict[str, dict] = {}
    ok = True
    if args.symbolic and not args.json:
        sym, sym_ok = run_symbolic(n, gate=True)
        workloads.update(sym)
        ok = sym_ok
    else:
        scaled = args.json is not None and not args.smoke
        nat, nat_ok = run_concrete(
            n,
            bar,
            scale=100000 if args.json is not None else None,
            planned_only_scale=1_000_000 if scaled else None,
        )
        workloads.update(nat)
        ok = nat_ok
        gate_symbolic = args.json is not None and not args.smoke
        sym, sym_ok = run_symbolic(
            n if (args.symbolic or args.json) else min(n, 2000),
            gate=gate_symbolic or args.symbolic,
        )
        workloads.update(sym)
        ok = ok and sym_ok

    if args.json is not None:
        report = {
            "benchmark": "bench_planner",
            "gates": {
                "nat_planned_speedup_min": bar,
                "nx_circuit_vs_planned_min": SYMBOLIC_CIRCUIT_BAR,
                "passed": ok,
            },
            "workloads": workloads,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
