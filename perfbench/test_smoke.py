"""Smoke run of the benchmark: one operation per workload on the default
seed with golden checks on, untraced and traced (the traced run also checks
which spans fire).  Each run is its own process, because the tracer replaces
package functions for the life of the process."""

import json
import os
import subprocess
import sys

import pytest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("solve-ideal", "solve-generic", "compare-iot", "simulate-crowd")


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert "golden perfbench/golden/" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] == 1 + trace
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
