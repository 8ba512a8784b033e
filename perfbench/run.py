"""shapesem benchmark: one command, every workload, checked outputs.

    python3 perfbench/run.py --workload pipeline-10cat --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn in this process.  ``--trace 1``
prints the per-layer figures instead of the end-to-end ones.  ``--smoke``
shrinks every input for a quick check that the benchmark still runs.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("pipeline-10cat", "gan-wide-nosem", "cli-inference")
BLAS_THREADS = 1  # steadier than 2 on a shared 2-core machine, and no slower
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine_info(seed, threads):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "seed": seed,
    }


def run_workload(name, args, workdir):
    import workloads

    run = workloads.Run(args.seed, args.seconds, bool(args.trace), workdir)
    try:
        workloads.WORKLOADS[name](run, args.smoke)
    finally:
        run.close()
    figures = run.per_layer() if args.trace else run.end_to_end()
    result = {
        "correct": not run.checks.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
    }
    detail = {
        "workload": name,
        "trace": args.trace,
        "smoke": args.smoke,
        "setup_s": run.setup_s,
        "rounds": [{"traced": t, **f} for t, f in run.rounds],
        "faults": run.faults,
        "check_failures": run.checks.failures,
        "checks_passed": run.checks.passed,
    }
    if args.trace:
        spans = ROOT / ".perfbench_out" / ("%s-seed%d-spans.json" % (name, args.seed))
        run.tracer.dump(spans)
        detail["spans"] = str(spans.relative_to(ROOT))
    return result, detail


def report(name, result, detail, machine):
    print("== %s (seed %d, %s) ==" % (name, machine["seed"],
                                      "traced" if detail["trace"] else "untraced"))
    for key, m in result["metrics"].items():
        print("  %-40s %14.6g %s" % (key, m["value"], m["unit"]))
    print("  attempted %d, failed %d, checks passed %d, checks failed %d"
          % (result["attempted"], result["failed"], detail["checks_passed"],
             len(detail["check_failures"])))
    for fault, n in detail["faults"].items():
        print("  failed x%d: %s" % (n, fault))
    for msg in detail["check_failures"]:
        print("  CHECK FAILED: %s" % msg)
    path = ROOT / ".perfbench_out" / ("%s-seed%d-trace%d.json"
                                      % (name, machine["seed"], detail["trace"]))
    with open(path, "w") as fh:
        json.dump({"result": result, "machine": machine, "detail": detail}, fh,
                  indent=1)
    print("  machine: %s" % json.dumps(machine, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking that the benchmark runs")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "shapesem" / "__init__.py").is_file():
        print("perfbench: no package sources under %s" % src, file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy is first imported
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    machine = machine_info(args.seed, BLAS_THREADS)

    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as workdir:
            result, detail = run_workload(name, args, workdir)
        report(name, result, detail, machine)
        print(json.dumps(result), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, key)] = m
    if len(names) > 1:
        print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
