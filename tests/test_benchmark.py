"""Smoke run of the benchmark under perfbench/.

The benchmark wraps package names, checks every output against an
independent computation and feeds the CLI damaged checkpoints.  A smoke run
with tiny inputs at ``--trace 1`` shows that those names still work, that
the checks pass and that no operation fails.  So none of these may be
deleted or renamed while perfbench reads them, even where nothing in
``src/`` calls them:

- functions it wraps by module and name: ``linalg.ridge_solve``;
  ``shape_decoder.fit_shape_decoder`` and ``decode_shape``;
  ``semantic.semantic_features`` and ``train_semantic``; ``gan.train``,
  ``generate``, ``save_checkpoint`` and ``load_checkpoint``;
  ``evaluation.ssim``, ``pairwise_win_rate`` and ``run_pipeline``;
  ``dataset.simulate``, ``load_dataset``, ``read_pgm``, ``write_pgm`` and
  ``average_test_trials``; ``cli.cmd_reconstruct`` and ``cmd_evaluate``;
  ``serial.read_array``; ``tensor.conv2d``, ``conv2d_transpose``,
  ``batch_norm`` and ``matmul``;
- methods it wraps: ``gan.GeneratorNet.forward``,
  ``gan.DiscriminatorNet.forward``, ``tensor.Tensor.backward`` and
  ``optim.Adam.step``;
- what it calls or reads directly: ``cli.main``; ``semantic.accuracy``
  and ``load_semantic_net``; ``shape_decoder.load_shape_decoder``;
  ``decode_shape``, ``semantic_features``, ``GeneratorNet.set_training``
  and ``forward``, through which ``_check_batched_generate`` recomputes
  the pipeline's reconstructions; the configs ``SyntheticConfig``,
  ``SemanticNetConfig`` and ``GanTrainConfig``; ``PipelineResult``'s
  ``generator``, ``semantic_net``, ``shape_decoder``, ``loss_log``,
  ``reconstructions``, ``test_records`` and ``report``, and the report's
  ``per_image_ssim``, ``run_win_rates`` and ``mean_win_rate``.
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
