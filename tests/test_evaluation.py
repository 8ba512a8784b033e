import csv

import numpy as np
import pytest

from shapesem.dataset import SyntheticConfig, read_pgm, simulate
from shapesem.errors import DataError, DimensionError
from shapesem.evaluation import (EvalReport, pairwise_win_rate,
                                 reconstruct_records, report_rows, roi_ablation,
                                 run_pipeline, ssim, write_montage,
                                 write_report_csv, _gaussian_window)
from shapesem.gan import GanTrainConfig, build_generator


def brute_force_ssim(a, b):
    """Window-by-window reference implementation with explicit loops, with
    the published constants of Wang et al. 2004: an 11 x 11 Gaussian window
    of sigma 1.5, K1 = 0.01, K2 = 0.03, dynamic range 1."""
    w = 11
    win = _gaussian_window(w, 1.5)
    c1 = (0.01 * 1.0) ** 2
    c2 = (0.03 * 1.0) ** 2
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    vals = []
    for i in range(a.shape[0] - w + 1):
        for j in range(a.shape[1] - w + 1):
            pa = a[i : i + w, j : j + w]
            pb = b[i : i + w, j : j + w]
            mu_a = (win * pa).sum()
            mu_b = (win * pb).sum()
            var_a = (win * pa * pa).sum() - mu_a ** 2
            var_b = (win * pb * pb).sum() - mu_b ** 2
            cov = (win * pa * pb).sum() - mu_a * mu_b
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)))
    return float(np.mean(vals))


class TestSsim:
    def test_identity_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.random((20, 20))
            assert ssim(a, a) == 1.0

    def test_constant_images_analytic(self):
        a = np.zeros((16, 16))
        b = np.ones((16, 16))
        c1 = 1e-4
        assert ssim(a, b) == pytest.approx(c1 / (1 + c1), rel=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((32, 32))
        b = np.clip(a + 0.3 * rng.standard_normal((32, 32)), 0, 1)
        assert ssim(a, b) == pytest.approx(brute_force_ssim(a, b), abs=1e-6)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        a = rng.random((24, 24))
        b = rng.random((24, 24))
        assert ssim(a, b) == ssim(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ssim(np.zeros((8, 8)), np.zeros((9, 9)))

    def test_monotone_noise_degradation(self):
        base_rng = np.random.default_rng(2)
        a = base_rng.random((32, 32))
        sigmas = [0.02, 0.08, 0.2, 0.5]
        means = []
        for s in sigmas:
            vals = []
            for seed in range(20):
                rng = np.random.default_rng(seed)
                noisy = np.clip(a + s * rng.standard_normal(a.shape), 0, 1)
                vals.append(ssim(a, noisy))
            means.append(np.mean(vals))
        assert all(means[i] >= means[i + 1] for i in range(len(means) - 1))

    def test_window_normalized(self):
        win = _gaussian_window(11, 1.5)
        assert win.sum() == pytest.approx(1.0, abs=1e-12)
        assert win.shape == (11, 11)


class TestPairwiseWinRate:
    def test_exact_reconstruction_wins_always(self):
        rng = np.random.default_rng(3)
        gts = [rng.random((16, 16)) for _ in range(10)]
        report = pairwise_win_rate(gts, gts, runs=5, seed=0)
        assert report.mean_win_rate == 1.0

    def test_constant_reconstruction_is_chance(self):
        rng = np.random.default_rng(4)
        gts = [rng.random((16, 16)) for _ in range(50)]
        recons = [np.full((16, 16), 0.5) for _ in range(50)]
        report = pairwise_win_rate(recons, gts, runs=5, seed=1)
        assert abs(report.mean_win_rate - 0.5) <= 0.1

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(5)
        gts = [rng.random((12, 12)) for _ in range(8)]
        recons = [np.clip(g + 0.1 * rng.standard_normal(g.shape), 0, 1)
                  for g in gts]
        a = pairwise_win_rate(recons, gts, runs=3, seed=7)
        b = pairwise_win_rate(recons, gts, runs=3, seed=7)
        assert a == b

    def test_too_few_images(self):
        with pytest.raises(DataError):
            pairwise_win_rate([np.zeros((8, 8))], [np.zeros((8, 8))])

    def test_reference_metadata_present(self, tmp_path):
        """The published win rates go into every report CSV."""
        rng = np.random.default_rng(6)
        gts = [rng.random((12, 12)) for _ in range(4)]
        report = pairwise_win_rate(gts, gts, runs=1, seed=0)
        path = tmp_path / "report.csv"
        write_report_csv(path, report_rows(report, "full"))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert ["reference_win_rate", "full", "", "0.653"] in rows


def reference_win_rate(recons, gts, runs, seed):
    """The identification protocol pair by pair: one brute-force SSIM per
    comparison and one scalar distractor draw per image and run."""
    n = len(recons)
    own = [brute_force_ssim(recons[i], gts[i]) for i in range(n)]
    rates = []
    for run in range(runs):
        rng = np.random.default_rng([seed, run])
        wins = 0.0
        for i in range(n):
            j = int(rng.integers(n - 1))
            j += j >= i
            other = brute_force_ssim(recons[i], gts[j])
            wins += 1.0 if own[i] > other else 0.5 if own[i] == other else 0.0
        rates.append(wins / n)
    return own, rates


def related_images(n, size=14, seed=0):
    """Ground truths with some exact duplicates, and reconstructions that
    only partly resemble them, so that both wins and losses occur."""
    rng = np.random.default_rng(seed)
    gts = [rng.random((size, size)).astype(np.float32) for _ in range(n)]
    for k in range(1, n, 7):
        gts[k] = gts[k - 1].copy()
    recons = [0.1 * g + 0.9 * rng.random(g.shape) for g in gts]
    return recons, gts


class TestBatchedIdentification:
    @pytest.mark.parametrize("n", [2, 37])
    @pytest.mark.parametrize("runs", [1, 5])
    def test_matches_pairwise_reference(self, n, runs):
        recons, gts = related_images(n)
        report = pairwise_win_rate(recons, gts, runs=runs, seed=4)
        own, rates = reference_win_rate(recons, gts, runs, seed=4)
        assert np.max(np.abs(np.array(report.per_image_ssim) - own)) <= 1e-12
        assert report.run_win_rates == rates
        assert n == 2 or 0.0 < min(rates) <= max(rates) < 1.0

    def test_duplicated_ground_truths_tie(self):
        recons, gts = related_images(6)
        report = pairwise_win_rate(recons, [gts[0]] * 6, runs=5, seed=0)
        assert report.run_win_rates == [0.5] * 5

    def test_single_call_equals_batched_own_pair(self):
        recons, gts = related_images(37, size=32)
        report = pairwise_win_rate(recons, gts, runs=5, seed=2)
        assert [ssim(r, g) for r, g in zip(recons, gts)] == report.per_image_ssim

    @pytest.mark.parametrize("n", [2, 3, 37, 300])
    def test_distractor_draws_match_scalar_sequence(self, n):
        """The protocol draws each run's distractors with one sized
        ``integers`` call; it yields the scalar-call sequence."""
        for seed, run in ((0, 0), (7, 4), (123, 2)):
            rng = np.random.default_rng([seed, run])
            scalar = [int(rng.integers(n - 1)) for _ in range(n)]
            sized = np.random.default_rng([seed, run]).integers(n - 1, size=n)
            assert sized.tolist() == scalar


class TestRoiAblation:
    def test_directional_hierarchy(self, noisy_sim):
        ds, _ = noisy_sim
        table = {row["roi_set"]: row
                 for row in roi_ablation(ds, roi_sets=("LVC", "HVC", "VC"),
                                         seed=0, runs=5)}
        assert table["LVC"]["shape_win_rate"] > table["HVC"]["shape_win_rate"]
        assert (table["HVC"]["semantic_accuracy"]
                > table["LVC"]["semantic_accuracy"])
        assert abs(table["VC"]["semantic_accuracy"]
                   - table["HVC"]["semantic_accuracy"]) <= 0.1

    def test_empty_roi_sets_rejected(self, noisy_sim):
        ds, _ = noisy_sim
        with pytest.raises(DataError):
            roi_ablation(ds, roi_sets=())


@pytest.fixture(scope="module")
def small_pipeline_ds():
    cfg = SyntheticConfig(image_size=16, categories=4, n_train=40, n_test=8,
                          test_trials=2,
                          voxels_per_roi={"V1": 40, "V2": 40, "V3": 40,
                                          "LOC": 30, "FFA": 30, "PPA": 30},
                          seed=21)
    return simulate(cfg)[0]


SMALL_GAN = GanTrainConfig(resolution=16, epochs=6, decay_start=4, batch=4,
                           base_channels=4, semantic_dim=8, lr=1e-3, seed=2)


class TestPipeline:
    def test_full_mode_runs_and_reports(self, small_pipeline_ds):
        from shapesem.semantic import SemanticNetConfig

        sem_cfg = SemanticNetConfig(in_dim=90, n_classes=4, hidden1=32,
                                    hidden2=8, epochs=20, seed=2)
        res = run_pipeline(small_pipeline_ds, SMALL_GAN,
                           semantic_config=sem_cfg, runs=2)
        assert res.mode == "full"
        assert len(res.reconstructions) == 8
        for img in res.reconstructions:
            assert img.shape == (16, 16)
            assert img.min() >= 0.0 and img.max() <= 1.0
        assert 0.0 <= res.report.mean_win_rate <= 1.0
        assert len(res.loss_log) == SMALL_GAN.epochs

    def test_mode_wiring_matches_full(self, small_pipeline_ds):
        from shapesem.semantic import SemanticNetConfig

        sem_cfg = SemanticNetConfig(in_dim=90, n_classes=4, hidden1=32,
                                    hidden2=8, epochs=20, seed=2)
        a = run_pipeline(small_pipeline_ds, SMALL_GAN,
                         semantic_config=sem_cfg, runs=2)
        b = run_pipeline(small_pipeline_ds, SMALL_GAN, mode="full",
                         semantic_config=sem_cfg, runs=2)
        for x, y in zip(a.reconstructions, b.reconstructions):
            assert np.array_equal(x, y)
        assert a.report == b.report

    def test_no_semantics_mode_drops_conditioning(self, small_pipeline_ds):
        res = run_pipeline(small_pipeline_ds, SMALL_GAN, mode="no_semantics",
                           runs=2)
        assert res.semantic_net is None
        assert res.generator.config.semantic_dim == 0

    def test_unknown_mode_rejected(self, small_pipeline_ds):
        # dropping augmentation is passing no augment_images, not a mode
        for mode in ("bogus", "no_augmentation"):
            with pytest.raises(DataError):
                run_pipeline(small_pipeline_ds, SMALL_GAN, mode=mode)

    def test_no_semantics_augmentation_pairs(self, small_pipeline_ds,
                                             monkeypatch):
        """Without semantics, the GAN trains on the training records plus
        one pair per augmentation image of a category that has training
        records, all with no semantics."""
        import shapesem.evaluation as evaluation

        ds = small_pipeline_ds
        train_recs = ds.split_records("train")
        aug = [(ds.stimuli[r.stimulus_id], r.category_id) for r in train_recs[:5]]
        aug.append((aug[0][0], 99))  # a category without training records
        seen = []
        real = evaluation.train

        def spy(gen, disc, pairs, config):
            seen.append(pairs)
            return real(gen, disc, pairs, config)

        monkeypatch.setattr(evaluation, "train", spy)
        run_pipeline(ds, SMALL_GAN, mode="no_semantics", augment_images=aug,
                     runs=2)
        (pairs,) = seen
        n = len(train_recs)
        assert len(pairs) == n + 5
        assert all(sem is None for _, sem, _ in pairs)
        images = [ds.stimuli[r.stimulus_id] for r in train_recs] + [
            img for img, _ in aug[:5]]
        for (_, _, img), want in zip(pairs, images):
            assert np.array_equal(img, want)


class TestBatchedStages:
    """The shared batched stages give what the per-record calls give, on a
    record count that leaves a short last generator chunk."""

    @pytest.fixture(scope="class")
    def models(self, small_pipeline_ds):
        from shapesem.dataset import average_test_trials
        from shapesem.semantic import SemanticNetConfig, train_semantic
        from shapesem.shape_decoder import fit_shape_decoder

        ds = average_test_trials(small_pipeline_ds)
        sem_cfg = SemanticNetConfig(in_dim=90, n_classes=4, hidden1=32,
                                    hidden2=8, epochs=5, seed=2)
        records = ds.split_records("train")[:11]
        assert len(records) % SMALL_GAN.batch
        return (ds, records, fit_shape_decoder(ds), train_semantic(ds, sem_cfg),
                build_generator(SMALL_GAN))

    def test_shape_decode_bitwise(self, models):
        from shapesem.shape_decoder import decode_shape, decode_shape_batch

        ds, records, dec, _, _ = models
        single = np.stack([decode_shape(dec, r, ds.layout) for r in records])
        assert np.array_equal(decode_shape_batch(dec, records, ds.layout), single)

    def test_semantic_features_match(self, models):
        from shapesem.semantic import semantic_features, semantic_features_batch

        ds, records, _, net, _ = models
        single = np.stack([semantic_features(net, r, ds.layout) for r in records])
        batched = semantic_features_batch(net, records, ds.layout)
        assert batched.shape == single.shape
        assert np.max(np.abs(batched - single)) <= 1e-6

    def test_reconstruction_matches_per_record_generate(self, models):
        from shapesem.gan import generate
        from shapesem.semantic import semantic_features
        from shapesem.shape_decoder import decode_shape

        ds, records, dec, net, gen = models
        shapes, recons = reconstruct_records(gen, dec, net, records, ds.layout)
        single = np.stack([generate(gen, decode_shape(dec, r, ds.layout),
                                    semantic_features(net, r, ds.layout))
                           for r in records])
        assert np.array_equal(shapes, np.stack([decode_shape(dec, r, ds.layout)
                                                for r in records]))
        assert recons.shape == single.shape == (11, 16, 16)
        assert np.max(np.abs(recons - single)) <= 1e-6

    def test_accuracy_is_mean_of_classify(self, models):
        from shapesem.semantic import accuracy, classify_batch

        ds, records, _, net, _ = models
        hits = [classify_batch(net, [r], ds.layout)[0] == r.category_id
                for r in records]
        assert accuracy(net, ds, records) == np.mean(hits)


class TestReports:
    def test_csv_layout(self, tmp_path):
        report = EvalReport([0.5, 0.6], [0.7, 0.8], 0.75)
        path = tmp_path / "report.csv"
        write_report_csv(path, report_rows(report, "full"))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["metric", "label", "run", "value"]
        metrics = {r[0] for r in rows[1:]}
        assert {"win_rate", "mean_win_rate", "ssim",
                "reference_win_rate"} <= metrics

    def test_montage_written(self, tmp_path):
        rng = np.random.default_rng(7)
        triplets = [(rng.random((16, 16)), rng.random((16, 16)),
                     rng.random((16, 16))) for _ in range(3)]
        path = tmp_path / "montage.pgm"
        write_montage(path, triplets)
        img = read_pgm(path)
        assert img.shape == (3 * 16 + 2 * 2, 3 * 16 + 2 * 2)
