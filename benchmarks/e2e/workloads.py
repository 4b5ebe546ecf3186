"""The four workloads: what they set up, what one op is, what they check.

Every workload is closed loop with one client.  An *op* is a fixed script
of several calls, long enough (60-300 ms) that collector pauses and the mix
of query shapes amortise inside it.  Each call into a layer is wrapped in a
span named after the per-layer metric it feeds; on the untraced run the
recorder is a no-op.

A wrong answer, an unexpected HTTP status or an exception inside ``op``
raises and is counted as a failed op by the driver.  Checks that run once
(set-up and ``finish``) append ``(name, passed)`` to ``self.checks``.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from typing import Any, Callable, Dict, List, Tuple

from e2e import gen
from e2e.measure import OpFailed
from e2e.serveproc import Server, rows_of

WARMUP_OPS = 3

#: Fewest timed ops of a full-scale run: ten samples lie beyond ``op_p90_ms``.
MIN_OPS = 100

Step = Callable[[str, Callable[[], Any]], Any]


def _sized(n: int, scale: float, multiple: int) -> int:
    """``n`` scaled down, kept a positive multiple of ``multiple``."""
    return max(multiple, int(n * scale) // multiple * multiple)


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise OpFailed(what)


class Workload:
    name = ""
    #: Seconds one op takes at nominal host speed.  It only turns ``--seconds``
    #: into a count of ops (see :meth:`ops_for`); no reported time uses it.
    nominal_op_s = 0.1

    def __init__(self, seed: int, scale: float, src_dir: str, workdir: str):
        self.seed = seed
        self.scale = scale
        self.src_dir = src_dir
        self.workdir = workdir
        self.checks: List[Tuple[str, bool]] = []

    def ops_for(self, seconds: float) -> int:
        """Timed ops of a run budgeted ``seconds`` at nominal host speed.

        Fixed before the run starts, so a slow host takes longer instead
        of reporting percentiles over fewer samples.
        """
        return max(MIN_OPS, math.ceil(seconds / self.nominal_op_s))

    def setup(self, step: Step) -> None:
        raise NotImplementedError

    def op(self, i: int, rec) -> None:
        raise NotImplementedError

    def warm_up(self, step: Step, rec) -> None:
        step("warmup", lambda: [self.op(-1 - k, rec) for k in range(WARMUP_OPS)])

    def finish(self, rec) -> None:
        """Checks that need the loop to be over (crash recovery)."""

    def roots(self) -> List[int]:
        """Pids whose process trees make up the program under test."""
        return [os.getpid()]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# serve_read
# ---------------------------------------------------------------------------


class ServeWorkload(Workload):
    """A workload whose program is a ``repro.serve`` subprocess."""

    server: Server
    loads: List[bytes]

    def _load(self) -> None:
        for body in self.loads:
            status, payload, _ = self.server.request("POST", "/relations", body)
            if status != 201:
                raise RuntimeError(f"load failed: HTTP {status} {payload}")

    def roots(self) -> List[int]:
        return [os.getpid(), self.server.pid]


class ServeRead(ServeWorkload):
    """Read-only SQL over HTTP: every cache hits, the engine does little."""

    name = "serve_read"
    nominal_op_s = 0.059
    DEPTS = 64
    REPS = 4  # each of S1..S4 four times: 16 requests per op

    def setup(self, step: Step) -> None:
        n = _sized(4096, self.scale, self.DEPTS)

        def generate():
            emp = gen.emp_table(self.seed, n, self.DEPTS)
            dept = gen.dept_table(self.seed, self.DEPTS)
            self.loads = [gen.relation_body("Emp", gen.EMP_COLUMNS, emp),
                          gen.relation_body("Dept", gen.DEPT_COLUMNS, dept)]
            self.answers = gen.read_answers(emp, dept)
            self.script = [(sql, gen.query_body(sql)) for sql in gen.read_script(self.REPS)]

        step("generate", generate)
        self.server = step("server_start", lambda: Server(self.src_dir, []))
        step("load", self._load)

    def op(self, i: int, rec) -> None:
        request = self.server.request
        for sql, body in self.script:
            t0 = time.perf_counter()
            with rec.span("serve.query"):
                status, payload, nbytes = request("POST", "/query", body)
            client_ms = (time.perf_counter() - t0) * 1e3
            if status == 503:
                rec.count("serve.rejected_503", 1)
            _expect(status == 200, f"/query answered HTTP {status}: {payload}")
            _expect(rows_of(payload) == self.answers[sql], f"wrong answer to {sql!r}")
            rec.count("serve.server_elapsed_ms", payload["elapsed_ms"])
            rec.count("serve.transport_ms", client_ms - payload["elapsed_ms"])
            rec.count("serve.response_bytes", nbytes)

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()


# ---------------------------------------------------------------------------
# serve_write
# ---------------------------------------------------------------------------


class ServeWrite(ServeWorkload):
    """The write path end to end: update, read-your-write, view read."""

    name = "serve_write"
    nominal_op_s = 0.100
    DEPTS = 64
    BATCH = 20
    #: One background checkpoint per run, stalling two ops of the hundred:
    #: clear of op_p90_ms.  The timed loop runs from about 1 s to about 12 s
    #: (at nominal host speed) after the server starts, so the count stays
    #: one while the host runs between 0.75x and 1.5x nominal; with a shorter
    #: interval the count, and so ops_per_s and cpu_ms_per_op, followed the
    #: host's speed.
    CHECKPOINT_INTERVAL_S = 9

    def setup(self, step: Step) -> None:
        n = _sized(40_000, self.scale, self.DEPTS)
        self.data_dir = os.path.join(self.workdir, "data")

        def generate():
            emp = gen.emp_table(self.seed, n, self.DEPTS)
            self.dept = gen.dept_table(self.seed, self.DEPTS)
            self.loads = [gen.relation_body("Emp", gen.EMP_COLUMNS, emp),
                          gen.relation_body("Dept", gen.DEPT_COLUMNS, self.dept)]
            self.by_dept = gen.sums_by_dept(emp)
            self.rows = n
            self.s2 = gen.query_body(gen.S2)

        step("generate", generate)
        self.server = step("server_start", self._start)
        step("load", self._load)
        step("create_view", self._create_view)

    def _start(self) -> Server:
        return Server(self.src_dir, [
            "--data-dir", self.data_dir, "--fsync", "batch",
            "--checkpoint-interval", str(self.CHECKPOINT_INTERVAL_S)])

    def _create_view(self) -> None:
        status, payload, _ = self.server.request(
            "POST", "/views", gen.view_body("by_dept", gen.S1))
        if status != 201:
            raise RuntimeError(f"view creation failed: HTTP {status} {payload}")

    def _by_region(self) -> Dict[tuple, int]:
        return {(r, s): 1 for r, s in gen.sums_by_region(self.by_dept, self.dept).items()}

    def op(self, i: int, rec) -> None:
        request = self.server.request
        # warm-up ops have negative ids; their keys sit past any timed op's
        k = i if i >= 0 else 10_000_000 - i
        batch = gen.update_batch(self.seed, k, self.BATCH, self.DEPTS)
        body = gen.update_body(batch)
        with rec.span("serve.update"):
            status, written, _ = request("POST", "/update", body)
        _expect(status == 200, f"/update answered HTTP {status}: {written}")
        for _id, dept, sal in batch:
            self.by_dept[dept] += sal
        self.rows += len(batch)
        with rec.span("serve.query_after_write"):
            status, payload, _ = request("POST", "/query", self.s2)
        _expect(status == 200, f"/query answered HTTP {status}: {payload}")
        _expect(payload["version"] == written["version"],
                "read-your-write: query ran on an older version than the write")
        _expect(rows_of(payload) == self._by_region(), "S2 misses an acknowledged write")
        with rec.span("serve.view_read"):
            status, payload, _ = request("GET", "/views/by_dept")
        _expect(status == 200, f"/views/by_dept answered HTTP {status}: {payload}")
        _expect(rows_of(payload) == {(d, s): 1 for d, s in self.by_dept.items()},
                "view by_dept misses an acknowledged write")

    def finish(self, rec) -> None:
        """SIGKILL, restart on the same directory, find every acked row."""
        self.server.stop(kill=True)
        with rec.span("wal.recovery"):
            self.server = self._start()
            status, health, _ = self.server.request("GET", "/health")
        recovery = health.get("durability", {}).get("recovery", {})
        rec.count("wal.records_replayed", recovery.get("records_replayed", 0))
        _, sums, _ = self.server.request("POST", "/query", self.s2)
        _, count, _ = self.server.request("POST", "/query", gen.query_body(gen.COUNT_EMP))
        self.checks.append(("recovery_health_200", status == 200))
        self.checks.append(("recovery_sums", rows_of(sums) == self._by_region()))
        self.checks.append(("recovery_rowcount", rows_of(count) == {(self.rows,): 1}))

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop(kill=True)
        shutil.rmtree(self.data_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# scan_analytic
# ---------------------------------------------------------------------------


class ScanAnalytic(Workload):
    """Large in-process scans in ``N``: the encoded and parallel tiers."""

    name = "scan_analytic"
    nominal_op_s = 0.279
    GROUPS = 1024

    def setup(self, step: Step) -> None:
        from repro.core import (AttrEq, GroupBy, KDatabase, KRelation, NaturalJoin,
                                Project, Select, Table, Union)
        from repro.monoids import SUM
        from repro.semirings import NAT

        # 204 800 rows: just above the parallel tier's 200k-row threshold, so the
        # default tier selection is what runs
        n = _sized(204_800, self.scale, self.GROUPS)

        def generate():
            self.fact_rows, self.fact_ann = gen.fact_table(self.seed, n, self.GROUPS)
            self.dim_rows = gen.dim_table(self.seed, self.GROUPS)

        def build():
            fact = KRelation.from_rows(
                NAT, gen.FACT_COLUMNS, list(zip(self.fact_rows, self.fact_ann)))
            dim = KRelation.from_rows(
                NAT, gen.DIM_COLUMNS, [(r, 1) for r in self.dim_rows])
            self.db = KDatabase(NAT, {"Fact": fact, "Dim": dim})

        joined = NaturalJoin(Table("Fact"), Table("Dim"))
        self.queries = [
            ("A1", GroupBy(joined, ["G"], {"V": SUM}, count_attr="N")),
            ("A2", Project(Select(joined, [AttrEq("Region", "EU")]), ["G"])),
            ("A3", Union(Project(Select(Table("Fact"), [AttrEq("V", 13)]), ["G"]),
                         Project(Table("Dim"), ["G"]))),
        ]

        def first_run():
            return [q.evaluate(self.db, engine="planned") for _n, q in self.queries]

        step("generate", generate)
        step("build", build)
        # the first parallel execution in the process spawns the pool and
        # publishes the tables to shared memory
        self.reference = step("first_run", first_run)

    def op(self, i: int, rec) -> None:
        # two passes: one pass put a full garbage collection (75-110 ms over
        # this heap) in a tenth of the ops, flipping op_p90_ms between two
        # modes; with two it is a fifth, and p90 sits inside the slow mode
        for _pass in range(2):
            for (name, query), want in zip(self.queries, self.reference):
                with rec.span("plan.eval." + name):
                    got = query.evaluate(self.db, engine="planned")
                _expect(got == want, f"{name} changed its answer")

    def finish(self, rec) -> None:
        # every op's answer equalled the first run's; the first run's must
        # equal the object tier's.  1.2 s, so after the loop, not in setup_s
        from repro.plan import compile_plan

        for (name, query), got in zip(self.queries, self.reference):
            want = compile_plan(query, self.db, tier="object").execute()
            self.checks.append((f"{name}_equals_object_tier", got == want))

    def close(self) -> None:
        from repro.plan import parallel

        parallel.cleanup()


# ---------------------------------------------------------------------------
# symbolic_provenance
# ---------------------------------------------------------------------------


def deleted(token: Any) -> int:
    """The valuation of the deletion-propagation steps: employees whose key
    ends in 7 are deleted (exactly a tenth of them), everything else stays."""
    name = str(token)
    return 0 if name[0] == "e" and name[-1] == "7" else 1


class SymbolicProvenance(Workload):
    """The paper's workload: aggregate queries over ``N[X]``."""

    name = "symbolic_provenance"
    nominal_op_s = 0.180
    DEPTS = 32

    def setup(self, step: Step) -> None:
        from repro.core import (AttrEq, Difference, GroupBy, KDatabase, KRelation,
                                NaturalJoin, Project, Select, Table)
        from repro.monoids import SUM
        from repro.semirings import BOOL, NAT, NX
        from repro.semirings.homomorphism import valuation_hom

        # 7 500 rows: a full garbage collection lands in a fifth of the ops
        # (at 5 000 it was a seventh, with the mode boundary next to p90)
        n = _sized(7500, self.scale, self.DEPTS)
        self.nat = NAT
        self.hom = valuation_hom(NX, NAT, deleted)
        to_bool = valuation_hom(NX, BOOL, lambda _token: True)

        def tagged(rows, prefix):
            return [(r, NX.variable(f"{prefix}{r[0]}")) for r in rows]

        def generate():
            self.tables = {
                "emp": gen.emp_table(self.seed, n, self.DEPTS),
                "prefix": gen.emp_table(self.seed, _sized(n // 5, 1, self.DEPTS),
                                        self.DEPTS, tag="prefix"),
                "small": gen.emp_table(self.seed, _sized(300, self.scale, self.DEPTS),
                                       self.DEPTS, tag="small"),
                "dept": gen.dept_table(self.seed, self.DEPTS),
            }

        def build():
            dept = KRelation.from_rows(NX, gen.DEPT_COLUMNS, tagged(self.tables["dept"], "r"))

            def database(emp_rows):
                emp = KRelation.from_rows(NX, gen.EMP_COLUMNS, tagged(emp_rows, "e"))
                return KDatabase(NX, {"Emp": emp, "Dept": dept})

            self.db = database(self.tables["emp"])
            self.db_prefix = database(self.tables["prefix"])
            self.db_small = database(self.tables["small"])
            self.db_nat = self.db.apply_hom(self.hom)
            self.db_bool = self.db.apply_hom(to_bool)

        self.q = GroupBy(
            Select(NaturalJoin(Table("Emp"), Table("Dept")), [AttrEq("Region", "EU")]),
            ["Dept"], {"Sal": SUM})
        self.q_difference = Difference(
            Project(Table("Emp"), ["Dept"]),
            Project(Select(Table("Dept"), [AttrEq("Region", "EU")]), ["Dept"]))
        self.q_nested = Select(GroupBy(Table("Emp"), ["Dept"], {"Sal": SUM}),
                               [AttrEq("Sal", 1000)])

        def commutation():
            # the paper's law: h(Q(R)) == Q(h(R)), on both engines
            image = self.q.evaluate(self.db, engine="planned").apply_hom(self.hom)
            return (image == self.q.evaluate(self.db_nat, engine="planned")
                    and image == self.q.evaluate(self.db_nat))

        step("generate", generate)
        step("build", build)
        self.checks.append(("commutation_law", step("commutation_check", commutation)))

    def op(self, i: int, rec) -> None:
        q = self.q
        with rec.span("core.expanded_eval"):  # P1
            expanded = q.evaluate(self.db, engine="planned", annotations="expanded")
        with rec.span("core.apply_hom"):  # P2: deletion propagation
            after_delete = expanded.apply_hom(self.hom)
        with rec.span("circuit.eval"):  # P3
            circuit = q.evaluate(self.db, engine="planned", annotations="circuit")
        with rec.span("circuit.specialise"):
            specialised = circuit.specialise(deleted, self.nat)
        _expect(specialised == after_delete, "circuit and polynomial deletion disagree")
        with rec.span("core.interp_eval"):  # P4: the reference interpreter
            q.evaluate(self.db_prefix)
        with rec.span("core.extended_eval"):  # P5: the paper's §4.3 / §5 semantics
            self.q_difference.evaluate(self.db_small, mode="extended")
            self.q_nested.evaluate(self.db_small, mode="extended")
        with rec.span("core.nat_eval"):  # P6: the same plan, provenance evaluated away
            in_nat = q.evaluate(self.db_nat, engine="planned")
        with rec.span("core.stripped_eval"):  # ... and with annotations stripped to B
            q.evaluate(self.db_bool, engine="planned")
        _expect(in_nat == after_delete, "h(Q(R)) != Q(h(R))")
        self.last_results = (expanded, circuit)

    def finish(self, rec) -> None:
        # sizes of the last op's results, counted once and outside the timed
        # ops: walking 8 600 gates and 12 700 monomials inside every traced op
        # made traced ops 1.23x slower than untraced ones
        expanded, circuit = self.last_results
        rec.count("circuit.gates", circuit.gate_count())
        rec.count("core.result_monomials",
                  expanded.annotation_size() + expanded.value_size())


WORKLOADS = {w.name: w for w in (ServeRead, ServeWrite, ScanAnalytic, SymbolicProvenance)}
