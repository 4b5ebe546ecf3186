"""The end-to-end benchmark's traced smoke run exits 0 on every workload.

``--trace 1`` adds the per-layer probes (``benchmarks/e2e/layers.py``),
which drive the library directly: the WAL probe opens a
``DurabilityManager``, updates, checkpoints and reads the checkpoint's
size, and appends to a bare ``WriteAheadLog``.  A change that breaks one
of those calls fails here, in the test suite, before it fails the
benchmark.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_traced_smoke_run_exits_zero(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"), "--smoke",
         "--trace", "1", "--workload", workload, "--seed", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-4000:]
