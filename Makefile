# Developer entry points.  `make check` is the PR gate: the tier-1 test
# suite plus the planner benchmark smoke run, which fails if the planned
# engine is ever slower than the interpreter on the join-heavy fixture.

PY       := python
PYPATH   := PYTHONPATH=src

.PHONY: check test chaos bench-smoke serve-smoke bench-planner bench-symbolic bench-ivm bench-vectorized bench-parallel bench-parallel-smoke bench-resilience bench-serve bench-obs bench-obs-smoke bench-durability bench-durability-smoke bench-json bench examples

check: test bench-smoke bench-parallel-smoke serve-smoke bench-obs-smoke bench-durability-smoke chaos

test:
	$(PYPATH) $(PY) -m pytest -x -q

# the fault-injection gate: every seeded fault (worker kills, kernel
# errors, latency, shm damage, torn snapshot writes) must recover to the
# interpreter's exact answer with zero leaked shm segments, plus the
# recovery-latency smoke run
chaos:
	$(PYPATH) $(PY) -m pytest tests/chaos -x -q
	$(PYPATH) $(PY) benchmarks/bench_resilience.py --smoke

bench-smoke:
	$(PYPATH) $(PY) benchmarks/bench_planner.py --smoke

# the serving-layer gate: concurrent keep-alive readers + a live writer;
# fails on any snapshot-isolation violation (torn cross-version read)
serve-smoke:
	$(PYPATH) $(PY) benchmarks/bench_serve.py --smoke

bench-planner:
	$(PYPATH) $(PY) benchmarks/bench_planner.py

# the symbolic-provenance gate: circuit mode >= 2x the expanded planned
# run (10k-row N[X] join + group-by); planned vs interpreted is printed,
# not gated -- a faster reference interpreter must not fail the build
bench-symbolic:
	$(PYPATH) $(PY) benchmarks/bench_planner.py --symbolic

# the incremental-maintenance gate: a single-row delta against the
# 10k-row grouped-aggregate view must beat full planned recompute >= 20x
bench-ivm:
	$(PYPATH) $(PY) benchmarks/bench_ivm.py

# the encoded-tier gate: on the 100k-row join + group-by in N, the
# dictionary-encoded NumPy kernels must beat the boxed object path >= 3x
bench-vectorized:
	$(PYPATH) $(PY) benchmarks/bench_vectorized.py

# the parallel-tier gate: on the 10M-row join + group-by in N, morsel-
# driven workers must beat the serial encoded tier >= 2.5x with 4
# workers (enforced on >= 4 cores; smaller hosts gate correctness and a
# no-catastrophic-overhead floor instead, and the artifact records cores)
bench-parallel:
	$(PYPATH) $(PY) benchmarks/bench_parallel.py

# 200k rows, 2 workers, correctness + honest-sharding assertions only —
# keeps the multiprocessing wiring green in `make check` and on CI
bench-parallel-smoke:
	$(PYPATH) $(PY) benchmarks/bench_parallel.py --smoke

# the recovery-latency gate: 1M rows with one injected worker kill per
# run; the recovered p50 must stay within 3x the clean p50 (in-process
# morsel salvage + background pool respawn keep the crash off the
# critical path), and every recovered answer must equal the clean one
bench-resilience:
	$(PYPATH) $(PY) benchmarks/bench_resilience.py

# the full serving-layer measurement (qps + p50/p99 under a live writer)
bench-serve:
	$(PYPATH) $(PY) benchmarks/bench_serve.py

# the telemetry-overhead gate: on the 100k-row encoded join + group-by,
# tracing-disabled overhead <= 3% and fully traced <= 15% vs the
# uninstrumented baseline (paired-ratio medians, so drift cancels)
bench-obs:
	$(PYPATH) $(PY) benchmarks/bench_obs.py

# 10k rows, loose bars — keeps the off-switch honest in `make check`
bench-obs-smoke:
	$(PYPATH) $(PY) benchmarks/bench_obs.py --smoke

# the durability gate: the WAL write path (fsync=batch) must stay within
# 1.3x the bare in-memory update stream (100k rows, 20-row batches,
# median of paired repeats), a 100k-record WAL tail must replay in <= 5s,
# and a crash-reopen must recover every acknowledged record
bench-durability:
	$(PYPATH) $(PY) benchmarks/bench_durability.py

# 5k rows, zero-acked-loss assertions only — keeps the WAL + recovery
# wiring green in `make check` and on CI
bench-durability-smoke:
	$(PYPATH) $(PY) benchmarks/bench_durability.py --smoke

# run every workload and refresh the committed perf-trajectory artifacts
bench-json:
	$(PYPATH) $(PY) benchmarks/bench_planner.py --json BENCH_planner.json
	$(PYPATH) $(PY) benchmarks/bench_ivm.py --json BENCH_ivm.json
	$(PYPATH) $(PY) benchmarks/bench_vectorized.py --json BENCH_vectorized.json
	$(PYPATH) $(PY) benchmarks/bench_parallel.py --json BENCH_parallel.json
	$(PYPATH) $(PY) benchmarks/bench_resilience.py --json BENCH_resilience.json
	$(PYPATH) $(PY) benchmarks/bench_serve.py --json BENCH_serve.json
	$(PYPATH) $(PY) benchmarks/bench_obs.py --json BENCH_obs.json
	$(PYPATH) $(PY) benchmarks/bench_durability.py --json BENCH_durability.json

# bench_*.py does not match pytest's default python_files pattern, so the
# files are named explicitly via the shell glob
bench:
	$(PYPATH) $(PY) -m pytest benchmarks/bench_*.py --benchmark-only -s

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYPATH) $(PY) $$f > /dev/null || exit 1; done
	@echo "all examples ran"
