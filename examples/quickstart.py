"""Quickstart: annotated relations, aggregation, and specialisation.

Walks the paper's running example (Figure 1 / Examples 3.4, 3.8): build an
N[X]-annotated employee relation, run SPJU + GROUP BY queries, then
specialise the *stored* provenance to bags, sets, and deletions — without
re-running anything.

Run:  python examples/quickstart.py
"""

from repro import (
    BOOL,
    NAT,
    NX,
    SUM,
    GroupBy,
    KDatabase,
    KRelation,
    Project,
    Table,
    deletion_hom,
    valuation_hom,
)
from repro.plan import explain


def main() -> None:
    # -- 1. an annotated relation: each tuple carries a provenance token --
    p1, p2, p3, r1, r2 = NX.variables("p1", "p2", "p3", "r1", "r2")
    employees = KRelation.from_rows(
        NX,
        ("EmpId", "Dept", "Sal"),
        [
            ((1, "d1", 20), p1),
            ((2, "d1", 10), p2),
            ((3, "d1", 15), p3),
            ((4, "d2", 10), r1),
            ((5, "d2", 15), r2),
        ],
    )
    db = KDatabase(NX, {"Emp": employees})
    print("Employees (Figure 1a):")
    print(employees.pretty(), "\n")

    # -- 2. projection: annotations record alternative derivations --------
    departments = Project(Table("Emp"), ["Dept"]).evaluate(db)
    print("Departments with provenance (Figure 1b):")
    print(departments.pretty(), "\n")

    # -- 3. GROUP BY: aggregate values are provenance-aware tensors -------
    by_dept = GroupBy(Table("Emp"), ["Dept"], {"Sal": SUM}).evaluate(db)
    print("Salary mass per department (Example 3.8):")
    print(by_dept.pretty(), "\n")

    # -- 4. specialise: the SAME stored result answers many questions -----
    # (a) bag multiplicities: p1 twice, p3 gone, the rest once
    to_bags = valuation_hom(
        NX, NAT, {"p1": 2, "p2": 1, "p3": 0, "r1": 1, "r2": 1}
    )
    print("Under multiplicities p1=2, p3=0 (rest 1):")
    print(by_dept.apply_hom(to_bags).pretty(), "\n")

    # (b) deletion propagation: drop employees 3 and 5 (Figure 1)
    drop = deletion_hom(NX, ["p3", "r2"])
    print("After deleting EmpId 3 and 5:")
    print(departments.apply_hom(drop).pretty(), "\n")

    # (c) set semantics: which departments exist at all?
    to_sets = valuation_hom(NX, BOOL, lambda token: token != "p3")
    print("Set-semantics support (p3 deleted):")
    print(departments.apply_hom(to_sets).pretty(), "\n")

    # -- 5. the planned engine: same semantics, physical execution --------
    # engine="planned" compiles the query (selection pushdown, hash joins
    # with cached build sides, columnar pipelines) and is the fast path
    # for large inputs; annotated results are identical by construction.
    q = GroupBy(Table("Emp"), ["Dept"], {"Sal": SUM})
    fast = q.evaluate(db, engine="planned")
    assert fast == by_dept
    print("Planned engine agrees with the interpreter:")
    print(fast.pretty(), "\n")

    # explain() shows the physical plan the planner picked
    print("EXPLAIN for the grouped aggregation:")
    print(explain(q, db), "\n")

    # -- 6. circuit-backed provenance: compute once, specialise many ------
    # annotations="circuit" runs the same plan over hash-consed gates
    # (sized by the work performed, not the expanded polynomial) and
    # returns the same lazy N[X] relation holding them: specialise() (its
    # apply_hom of the valuation) evaluates each shared gate once per
    # valuation, and any other read expands to canonical N[X] once.
    # See docs/architecture.md, "Annotation representations".
    circuit = q.evaluate(db, engine="planned", annotations="circuit")
    assert circuit == by_dept  # lowering reproduces the canonical result
    print("Circuit-backed result, specialised to multiplicities:")
    print(
        circuit.specialise(
            {"p1": 2, "p2": 1, "p3": 0, "r1": 1, "r2": 1}, NAT
        ).pretty(),
        "\n",
    )

    # -- 7. incremental maintenance: keep the view, patch the groups ------
    # MaterializedView compiles the query's SPJU core into a *delta plan*
    # and maintains the grouped aggregate group-by-group: inserting one
    # employee touches one department's tensor, never the other groups
    # (and never re-runs the query).  apply() also folds the delta into
    # the database, so view and db move in one step.
    from repro.ivm import MaterializedView

    view = MaterializedView.create(db, q)
    assert view.result() == by_dept
    newcomer = KRelation.from_rows(
        NX, ("EmpId", "Dept", "Sal"), [((6, "d2", 25), NX.variable("r3"))]
    )
    view.apply({"Emp": newcomer})
    assert view.result() == q.evaluate(db)  # maintained == recomputed
    print("After hiring EmpId 6 into d2 (one dirty group patched):")
    print(view.result().pretty(), "\n")

    # the delta plan is a first-class physical plan — EXPLAIN it
    print("EXPLAIN for the view delta:")
    print(view.explain_delta())

    # deletions are annotation rewrites too: zero the employee's token
    view.zero_tokens("p1")
    assert view.result() == q.evaluate(db)
    print("\nAfter deleting EmpId 1 by token zeroing:")
    print(view.result().pretty())

    # -- 8. the encoded tier: machine-scalar semirings at array speed -----
    # For concrete semirings (N, B, Z, tropical, Viterbi) the planner
    # dictionary-encodes columns into integer codes and runs annotations
    # as flat NumPy arrays — same results, selected automatically,
    # reported by explain()'s "tier:" line.  NumPy is the optional
    # accelerator that buys this tier: without it compile_plan selects
    # the object tier here and the answer is identical.  On the 100k-row
    # join + group-by the encoded tier is ~5x the boxed object path
    # (make bench-vectorized gates it >= 3x).
    import random

    from repro import GroupBy as GB, NaturalJoin, Select, AttrEq
    from repro.plan import compile_plan

    rng = random.Random(7)
    big_emp = KRelation.from_rows(
        NAT,
        ("EmpId", "Dept", "Sal"),
        [((i, f"d{rng.randrange(16)}", 10 * rng.randrange(1, 10)), 1 + i % 3)
         for i in range(20000)],
    )
    regions = KRelation.from_rows(
        NAT,
        ("Dept", "Region"),
        [((f"d{j}", "EU" if j % 2 else "US"), 1) for j in range(16)],
    )
    bags = KDatabase(NAT, {"Emp": big_emp, "Dept": regions})
    heavy = GB(
        Select(NaturalJoin(Table("Emp"), Table("Dept")), [AttrEq("Region", "EU")]),
        ["Dept"],
        {"Sal": SUM},
    )
    import time

    encoded_plan = compile_plan(heavy, bags)           # auto: encoded tier
    object_plan = compile_plan(heavy, bags, tier="object")  # pinned baseline
    assert encoded_plan.execute() == object_plan.execute()
    for label, plan in (("object", object_plan), ("encoded", encoded_plan)):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            plan.execute()
            best = min(best, time.perf_counter() - start)
        print(f"{label:>8} tier: {best * 1e3:6.1f} ms")
    print("\nEXPLAIN now names the tier that ran:")
    print("\n".join(encoded_plan.explain().splitlines()[:3]))

    # -- 9. the serving layer: SQL + provenance over HTTP/JSON ------------
    # `python -m repro.serve --demo` stands the same engine up as a
    # long-lived service: snapshot-isolated reads (every response carries
    # the database version it saw), a bounded CPU worker pool with 503
    # backpressure, and incrementally maintained views.  Embedded here on
    # a background thread; from a shell the curl line printed below is
    # the identical round-trip.
    import http.client
    import json

    from repro.serve import start_in_thread

    handle = start_in_thread(bags)  # the 20k-row bag database from §8
    host, port = handle.address
    conn = http.client.HTTPConnection(host, port)
    body = {"sql": "SELECT Region, SUM(Sal) FROM Emp, Dept GROUP BY Region"}
    conn.request("POST", "/query", json.dumps(body))
    response = json.loads(conn.getresponse().read())
    print("\nHTTP query response (version-stamped snapshot read):")
    print(json.dumps({k: response[k] for k in ("columns", "rows", "version")},
                     indent=2))
    print("same query from a shell:")
    print(f"  curl -s http://{host}:{port}/query -d '{json.dumps(body)}'")
    conn.close()
    handle.close()

    # -- 10. the parallel tier: morsels on threads -------------------------
    # Only on request (tier="parallel"): the plan shards the biggest scan
    # by hash of its join/group keys into morsels, runs the encoded
    # operators over each morsel's slice of the code and annotation
    # arrays on a pool of threads (one per core), and merges the
    # per-morsel group states with semiring + — results identical by
    # construction (sharding is exact because every operator is
    # multilinear in its inputs' annotations).  A morsel that fails
    # re-runs the whole query on the serial encoded tier.  The compiler
    # never picks it on its own: on two cores the serial encoded tier was
    # faster at every size measured (0.2-1.6M rows).  explain()'s
    # "parallel:" line names the sharding decision and the "tier:" line
    # what actually ran.
    parallel_plan = compile_plan(heavy, bags, tier="parallel")
    assert parallel_plan.execute() == encoded_plan.execute()
    print("\nthe sharded plan, after running:")
    for line in parallel_plan.explain().splitlines():
        if line.startswith(("tier:", "parallel:")):
            print(f"  {line}")

    # -- 11. observability: EXPLAIN ANALYZE, spans, and /metrics ----------
    # explain_analyze() runs the query inside a trace collector and
    # renders the measured span tree (per-operator wall/CPU time, row
    # counts, annotation-array bytes) next to the plan text.  Tracing is
    # off unless a collector is open, so the instrumented engine costs
    # one integer check per operator in normal runs (make bench-obs
    # gates it <= 3%).
    from repro.obs import explain_analyze

    print("\nEXPLAIN ANALYZE for the grouped aggregation:")
    print(explain_analyze(heavy, bags))

    # every engine counter is also a Prometheus metric; the server from
    # §9 exposes the same registry at GET /metrics, and POST /query
    # accepts {"analyze": true} to get the span tree over the wire:
    print("scrape the serving layer's metrics from a shell:")
    print(f"  curl -s http://{host}:{port}/metrics")
    print("  curl -s http://HOST:PORT/query "
          "-d '{\"sql\": \"SELECT K FROM A\", \"analyze\": true}'")

    # -- 12. durability: acknowledged writes survive a restart ------------
    # Wrap the database in a DurabilityManager (the CLI's --data-dir does
    # exactly this) and every update is appended to a checksummed
    # write-ahead log *before* it is applied — the acknowledgement point.
    # Closing and re-opening the directory replays checkpoint + WAL tail,
    # so the second "process" sees everything the first one acked; with
    # `python -m repro.serve --data-dir DIR` the same holds across
    # kill -9 (see docs/architecture.md, "Durability").
    import tempfile

    from repro.wal import DurabilityManager

    with tempfile.TemporaryDirectory() as data_dir:
        manager = DurabilityManager.open(data_dir, semiring=NAT, fsync="batch")
        manager.add("Emp", big_emp)  # the 20k-row bag relation from §8
        hire = KRelation.from_rows(
            NAT, ("EmpId", "Dept", "Sal"), [((90001, "d3", 40), 1)]
        )
        lsn = manager.update({"Emp": hire})  # acked: it's on the log
        manager.close()  # or crash here — the log already has lsn

        recovered = DurabilityManager.open(data_dir)  # a "new process"
        r = recovered.recovery
        print(f"\nrecovered from {r['source']}: checkpoint lsn "
              f"{r['checkpoint_lsn']}, {r['records_replayed']} WAL records "
              f"replayed in {r['duration_s']}s")
        assert len(recovered.db.relation("Emp")) == len(big_emp) + 1
        print(f"the acked hire (lsn {lsn}) survived the restart:")
        print(f"  Emp now has {len(recovered.db.relation('Emp'))} rows")
        recovered.close()
    print("serve durably from a shell:")
    print("  python -m repro.serve --demo --data-dir ./data --fsync batch")


if __name__ == "__main__":
    main()
