"""Smoke run of the benchmark under perfbench/.

The benchmark wraps package functions by name (``train``,
``train_semantic``, ``generate``, ``decode_shape``, ``semantic_features``,
``cmd_reconstruct``, ``cmd_evaluate``), checks every output against an
independent computation and feeds the CLI damaged checkpoints.  A smoke run
with tiny inputs shows that those names still work, that the checks pass and
that no operation fails.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, proc.stdout[-3000:]
    assert summary["failed"] == 0, proc.stdout[-3000:]
