# Developer entry points.  `make check` is the PR gate and is exactly the
# tier-1 test suite: it collects tests/ (the chaos suite included) and
# benchmarks/e2e/test_harness.py, which smoke-runs the one benchmark
# (BENCHMARK.json, `python3 benchmarks/e2e/run.py`).  The traced smoke run
# of every workload (`--smoke --trace 1`, whose per-layer probes call the
# WAL, checkpoint and IVM APIs directly) is a test under tests/ too, so a
# break in a probe fails the gate before it fails the benchmark.

PY       := python
PYPATH   := PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH}

.PHONY: check test chaos bench bench-collect examples

check: test

test:
	$(PYPATH) $(PY) -m pytest -x -q

# the fault-injection suite on its own: every seeded fault (a stalled or
# failing parallel morsel, a deadline racing a stall, torn snapshot
# writes, WAL damage, kill -9 of a durable server) must end in the
# interpreter's exact answer or a clean refusal, with zero lost
# acknowledged writes
chaos:
	$(PYPATH) $(PY) -m pytest tests/chaos -x -q

# the paper-experiment reproductions (pytest-benchmark); bench_*.py does
# not match pytest's default python_files pattern, so the files are named
# explicitly via the shell glob
bench:
	$(PYPATH) $(PY) -m pytest benchmarks/bench_*.py --benchmark-only -s

# import every experiment file without running it, so one that uses a
# deleted name fails CI the way `make examples` catches an example
bench-collect:
	$(PYPATH) $(PY) -m pytest benchmarks/bench_*.py --collect-only -q

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYPATH) $(PY) $$f > /dev/null || exit 1; done
	@echo "all examples ran"
