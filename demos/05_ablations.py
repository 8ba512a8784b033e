"""ROI and semantics ablations.

First, which voxels carry what: shape identification is driven by LVC,
category accuracy by HVC. Second, on an intensity-coded dataset where
both categories share the same shapes, dropping the semantic input
removes the only signal that separates them. Each model's category
intensity gap is judged against its label-permutation null: without
semantics the gap is chance-level, though on a few test images chance
can still give a visible gap. Takes ~3 minutes.
"""

import numpy as np

from shapesem.dataset import SyntheticConfig, simulate
from shapesem.evaluation import roi_ablation, run_pipeline
from shapesem.gan import GanTrainConfig

# -- ROI specificity ----------------------------------------------------
ds, _ = simulate(SyntheticConfig(image_size=32, categories=6, n_train=160,
                                 n_test=4, test_trials=1, seed=5))
print("roi_set  shape_win_rate  semantic_accuracy")
for row in roi_ablation(ds, roi_sets=("LVC", "HVC", "VC"), n_validation=30,
                        seed=0, runs=3):
    print("%-7s  %14.3f  %17.3f"
          % (row["roi_set"], row["shape_win_rate"], row["semantic_accuracy"]))

# -- semantics ablation on identical shapes -----------------------------
ds2, _ = simulate(SyntheticConfig(image_size=32, categories=2, n_train=200,
                                  n_test=16, test_trials=2,
                                  identical_shapes=True, seed=6))
cfg = GanTrainConfig(resolution=32, epochs=40, decay_start=28, batch=10,
                     base_channels=16, semantic_dim=64, lr=2e-4, seed=0)
print("\ntwo categories, identical shapes, intensity-coded:")
separates = {}
for mode in ("full", "no_semantics"):
    res = run_pipeline(ds2, cfg, mode=mode, runs=5)
    values = np.array([img[ds2.masks[rec.stimulus_id] > 0.5].mean()
                       for rec, img in zip(res.test_records, res.reconstructions)])
    labels = np.array([rec.category_id for rec in res.test_records])
    lo, hi = values[labels == 0].mean(), values[labels == 1].mean()
    # the same gap under 10 000 label shuffles; add-one permutation p-value
    perms = np.random.default_rng(0).permuted(
        np.tile(labels, (10000, 1)), axis=1) == 0
    null = np.abs((values * perms).sum(1) / perms.sum(1)
                  - (values * ~perms).sum(1) / (~perms).sum(1))
    p = (1 + np.sum(null >= abs(lo - hi))) / (1 + len(null))
    separates[mode] = p < 0.01
    print("  %-13s win rate %.3f | reconstructed intensity %.2f vs %.2f "
          "| permutation p %.4f" % (mode, res.report.mean_win_rate, lo, hi, p))
print("beyond label-permutation chance (p < 0.01), %s the category intensities."
      % " and ".join("%s %s" % (m, "separates" if s else "does not separate")
                     for m, s in separates.items()))
