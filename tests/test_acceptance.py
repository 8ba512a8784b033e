"""Acceptance gate: nine numbered criteria, one PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict lines
as they are produced; without -s they still appear for any failing test.
Every criterion pins its tolerance and a wall-clock budget.
"""

import os
import sys
import time

import numpy as np

from shapesem import tensor as T
from shapesem.cli import main as cli_main
from shapesem.dataset import SyntheticConfig, simulate
from shapesem.evaluation import pairwise_win_rate, roi_ablation, run_pipeline, ssim
from shapesem.gan import (GanTrainConfig, build_discriminator, build_generator,
                          discriminator_loss, generator_loss, train)
from shapesem.linalg import ridge_solve
from shapesem.optim import Adam
from shapesem.patches import extract_patch_features, upsample_nearest
from shapesem.shape_decoder import decode_shape, fit_shape_decoder
from shapesem.tensor import Tensor

sys.path.insert(0, os.path.dirname(__file__))
from test_evaluation import brute_force_ssim  # noqa: E402
from test_gan import SMOKE_CFG, smoke_pairs  # noqa: E402
from test_tensor import _numeric_grad  # noqa: E402


def _verdict(num, desc, ok, elapsed, limit):
    print("\nACCEPTANCE %d: %s - %s (%.1fs / limit %ds)"
          % (num, "PASS" if ok else "FAIL", desc, elapsed, limit), flush=True)
    assert ok, "acceptance criterion %d failed: %s" % (num, desc)
    assert elapsed < limit, ("acceptance criterion %d exceeded %ds budget"
                             % (num, limit))


def test_acceptance_1_gradient_suite():
    """All differentiable ops match central differences, rel err < 1e-3."""
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((2, 2, 6, 6)).astype(np.float32) * 0.5)
        k1 = Tensor(rng.standard_normal((3, 2, 4, 4)).astype(np.float32) * 0.3,
                    requires_grad=True)
        gamma = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        beta = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        k2 = Tensor(rng.standard_normal((3, 1, 4, 4)).astype(np.float32) * 0.3,
                    requires_grad=True)
        w = Tensor(rng.standard_normal((36, 2)).astype(np.float32) * 0.2,
                   requires_grad=True)
        target = rng.standard_normal((2, 1, 6, 6)).astype(np.float32)
        rm = np.zeros(3, dtype=np.float32)
        rv = np.ones(3, dtype=np.float32)

        def forward():
            h = T.leaky_relu(T.conv2d(x, k1, 2, 1), 0.2)
            h = T.relu(T.batch_norm(h, gamma, beta, rm.copy(), rv.copy(),
                                    True, 1.0))
            y = T.tanh(T.conv2d_transpose(h, k2, 2, 1))
            z = T.sigmoid(T.matmul(T.reshape(y, (2, -1)), w))
            return (T.tmean(T.tabs(y - Tensor(target)))
                    + T.tmean(-T.log_clamped(z)))

        loss = forward()
        loss.backward()
        for p in (k1, gamma, beta, k2, w):
            fd = _numeric_grad(lambda: float(forward().data), p.data)
            denom = np.maximum(1.0, np.abs(fd))
            worst = max(worst, float(np.max(np.abs(p.grad - fd) / denom)))
    _verdict(1, "gradient finite-difference suite, worst rel err %.2e" % worst,
             worst < 1e-3, time.time() - t0, 60)


def test_acceptance_2_least_squares_oracle():
    """ridge_solve meets the normal-equation residual bound on 50 systems."""
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(20, 201))
        d = int(rng.integers(5, 101))
        a = rng.standard_normal((n, d))
        b = rng.standard_normal((n, int(rng.integers(1, 4))))
        lam = float(rng.choice([0.0, 1e-4, 1e-2, 1.0, 10.0]))
        w = ridge_solve(a, b, lam)
        resid = a.T @ (a @ w) + lam * w - a.T @ b
        rel = np.linalg.norm(resid) / max(1.0, np.linalg.norm(a.T @ b))
        worst = max(worst, rel)
    _verdict(2, "ridge normal-equation residual, worst %.2e" % worst,
             worst <= 1e-4, time.time() - t0, 10)


def test_acceptance_3_shape_decoder_oracle():
    """Noiseless 64px simulator: mean SSIM > 0.95 and win-rate 1.0."""
    t0 = time.time()
    cfg = SyntheticConfig(image_size=64, patch_size=8, categories=10,
                          n_train=300, n_test=40, test_trials=1,
                          noise_sigma=0.0, seed=7)
    ds, _ = simulate(cfg)
    dec = fit_shape_decoder(ds, ("V1", "V2", "V3"), 1e-2, 8)
    test = ds.split_records("test")
    shapes = [decode_shape(dec, r, ds.layout) for r in test]
    gts = [upsample_nearest(extract_patch_features(ds.masks[r.stimulus_id], 8), 8)
           for r in test]
    mean_ssim = float(np.mean([ssim(s, g) for s, g in zip(shapes, gts)]))
    win = pairwise_win_rate(shapes, gts, runs=5, seed=0).mean_win_rate
    _verdict(3, "shape decoder mean SSIM %.3f, win-rate %.3f" % (mean_ssim, win),
             mean_ssim > 0.95 and win == 1.0, time.time() - t0, 120)


def test_acceptance_4_roi_specificity():
    """LVC beats HVC on shape, HVC beats LVC on semantics, gaps >= 0.05."""
    t0 = time.time()
    ds, _ = simulate(SyntheticConfig(seed=11))
    table = {row["roi_set"]: row
             for row in roi_ablation(ds, roi_sets=("LVC", "HVC"), seed=0,
                                     runs=5)}
    shape_gap = (table["LVC"]["shape_win_rate"]
                 - table["HVC"]["shape_win_rate"])
    sem_gap = (table["HVC"]["semantic_accuracy"]
               - table["LVC"]["semantic_accuracy"])
    _verdict(4, "ROI gaps: shape %.3f, semantic %.3f" % (shape_gap, sem_gap),
             shape_gap >= 0.05 and sem_gap >= 0.05, time.time() - t0, 300)


def test_acceptance_5_loss_unit_values():
    """Generator/discriminator losses match the analytic examples to 1e-6."""
    t0 = time.time()
    ones = Tensor(np.ones((2, 3), dtype=np.float32))
    halves = Tensor(np.full((2, 3), 0.5, dtype=np.float32))
    zeros = Tensor(np.zeros((2, 3), dtype=np.float32))
    img = Tensor(np.full((1, 1, 4, 4), 0.25, dtype=np.float32))
    same = np.full((1, 1, 4, 4), 0.25, dtype=np.float32)
    off = np.full((1, 1, 4, 4), -0.25, dtype=np.float32)

    checks = []
    total, _, _ = generator_loss(ones, img, same, 100.0)
    checks.append(abs(float(total.data) - 0.0))
    total, _, _ = generator_loss(halves, img, same, 100.0)
    checks.append(abs(float(total.data) - np.log(2.0)))
    total, _, _ = generator_loss(ones, img, off, 100.0)
    checks.append(abs(float(total.data) - 50.0))
    checks.append(abs(float(discriminator_loss(ones, zeros).data) - 0.0))
    checks.append(abs(float(discriminator_loss(halves, halves).data)
                      - 2.0 * np.log(2.0)))
    clamped = float(discriminator_loss(zeros, zeros).data)
    checks.append(abs(clamped - (-np.log(1e-7))))
    worst = max(checks)
    _verdict(5, "loss analytic values, worst abs err %.2e" % worst,
             worst < 1e-6, time.time() - t0, 1)


def test_acceptance_6_gan_smoke_training():
    """30-epoch smoke run halves L_img; freeze contract holds bitwise."""
    t0 = time.time()
    pairs = smoke_pairs()
    gen = build_generator(SMOKE_CFG)
    disc = build_discriminator(SMOKE_CFG)
    log = train(gen, disc, pairs, SMOKE_CFG)
    ratio = log[-1]["g_l1"] / log[0]["g_l1"]

    # freeze contract: a G step never moves D, a D step never moves G
    cfg = GanTrainConfig(resolution=16, epochs=1, decay_start=0, batch=8,
                         base_channels=4, semantic_dim=4, seed=1)
    g2 = build_generator(cfg)
    d2 = build_discriminator(cfg)
    g2.set_training(True)
    d2.set_training(True)
    shapes = np.stack([p[0] for p in pairs])[:, None]
    sems = np.stack([p[1] for p in pairs])
    targets = np.stack([p[2] for p in pairs])[:, None]

    d_before = [p.data.copy() for p in d2.parameters()]
    fake = g2.forward(Tensor(shapes), Tensor(sems))
    total, _, _ = generator_loss(d2.forward(Tensor(shapes), fake), fake,
                                 targets, cfg.lambda_img)
    total.backward()
    Adam(g2.parameters(), cfg.lr).step()
    d_frozen = all(np.array_equal(b, p.data)
                   for b, p in zip(d_before, d2.parameters()))

    g_before = [p.data.copy() for p in g2.parameters()]
    fake = g2.forward(Tensor(shapes), Tensor(sems)).detach()
    loss = discriminator_loss(d2.forward(Tensor(shapes), Tensor(targets)),
                              d2.forward(Tensor(shapes), fake))
    loss.backward()
    Adam(d2.parameters(), cfg.lr).step()
    g_frozen = all(np.array_equal(b, p.data)
                   for b, p in zip(g_before, g2.parameters()))

    _verdict(6, "smoke L_img ratio %.3f, freeze contract %s"
             % (ratio, "held" if d_frozen and g_frozen else "broken"),
             ratio <= 0.5 and d_frozen and g_frozen, time.time() - t0, 180)


def _label_permutation_null(values, labels):
    """Gap |mean(values | label 0) - mean(values | label 1)| and its null.

    The null is the same gap over 10 000 random shuffles of ``labels``
    drawn from ``np.random.default_rng(0)``.  Returns (gap, p, q99): the
    add-one permutation p-value of the observed gap and the null's 99th
    percentile.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)

    def gaps(lab):
        zero = lab == 0
        return np.abs((values * zero).sum(-1) / zero.sum(-1)
                      - (values * ~zero).sum(-1) / (~zero).sum(-1))

    rng = np.random.default_rng(0)
    null = gaps(rng.permuted(np.tile(labels, (10000, 1)), axis=1))
    gap = float(gaps(labels))
    p = (1 + int(np.sum(null >= gap))) / (1 + len(null))
    return gap, p, float(np.percentile(null, 99))


def test_acceptance_7_end_to_end_pipeline():
    """Full pipeline beats 0.6 win-rate.  On the two-category identical-shape
    dataset, where only intensity separates the classes, the semantics-
    conditioned model beats the no-semantics one, its category intensity gap
    exceeds 0.2 and its 99th-percentile label-permutation null, and the
    no-semantics gap is no larger than chance (at or below its own null's
    99th percentile)."""
    t0 = time.time()
    ds, _ = simulate(SyntheticConfig(image_size=32, categories=10, n_train=500,
                                     n_test=50, test_trials=3, seed=123))
    cfg = GanTrainConfig(resolution=32, epochs=25, decay_start=15, batch=10,
                         base_channels=8, semantic_dim=64, lr=5e-4, seed=0)
    full10 = run_pipeline(ds, cfg, runs=5)
    win10 = full10.report.mean_win_rate

    ds2, _ = simulate(SyntheticConfig(image_size=32, categories=2, n_train=400,
                                      n_test=40, test_trials=3,
                                      identical_shapes=True, seed=321))
    cfg2 = GanTrainConfig(resolution=32, epochs=60, decay_start=40, batch=10,
                          base_channels=16, semantic_dim=64, lr=2e-4, seed=0)
    full2 = run_pipeline(ds2, cfg2, mode="full", runs=5)
    nosem2 = run_pipeline(ds2, cfg2, mode="no_semantics", runs=5)

    def intensity_gap(result):
        values = [img[ds2.masks[r.stimulus_id] > 0.5].mean()
                  for r, img in zip(result.test_records, result.reconstructions)]
        labels = [r.category_id for r in result.test_records]
        return _label_permutation_null(values, labels)

    gap_full, p_full, q99_full = intensity_gap(full2)
    gap_nosem, p_nosem, q99_nosem = intensity_gap(nosem2)
    ok = (win10 > 0.6
          and full2.report.mean_win_rate > nosem2.report.mean_win_rate
          and gap_full > 0.2 and gap_full > q99_full
          and gap_nosem <= q99_nosem)
    _verdict(7, "end-to-end win %.3f; two-cat full %.3f > no_sem %.3f; "
             "intensity gap full %.3f (p %.4f, null q99 %.3f), "
             "no_sem %.3f (p %.4f, null q99 %.3f)"
             % (win10, full2.report.mean_win_rate, nosem2.report.mean_win_rate,
                gap_full, p_full, q99_full, gap_nosem, p_nosem, q99_nosem),
             ok, time.time() - t0, 1200)


def test_acceptance_8_ssim_correctness():
    """SSIM equals the brute-force window oracle to 1e-6; identity/symmetry."""
    t0 = time.time()
    worst = 0.0
    exact = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.random((32, 32))
        b = np.clip(a + 0.3 * rng.standard_normal((32, 32)), 0, 1)
        worst = max(worst, abs(ssim(a, b) - brute_force_ssim(a, b)))
        exact = exact and ssim(a, a) == 1.0 and ssim(a, b) == ssim(b, a)
    _verdict(8, "SSIM vs brute-force oracle, worst abs err %.2e" % worst,
             worst <= 1e-6 and exact, time.time() - t0, 10)


def test_acceptance_9_determinism(tmp_path):
    """One seed, repeated runs: byte-identical CSV reports."""
    t0 = time.time()
    sim = ["--set", "image_size=16", "--set", "categories=4",
           "--set", "n_train=40", "--set", "n_test=8",
           "--set", "test_trials=1", "--set", "noise_sigma=0"]
    ds = str(tmp_path / "ds")
    assert cli_main(["simulate", "--seed", "13", "--out", ds] + sim) == 0
    reports = []
    for run in ("a", "b"):
        art = str(tmp_path / run)
        assert cli_main(["train-shape", "--seed", "13", "--dataset", ds,
                         "--out", art]) == 0
        assert cli_main(["evaluate", "--dataset", ds, "--out", art,
                         "--metric", "shape", "--seed", "13"]) == 0
        reports.append(open(os.path.join(art, "report_shape.csv"), "rb").read())
    _verdict(9, "byte-identical CSV reports across repeated seeded runs",
             reports[0] == reports[1], time.time() - t0, 60)
