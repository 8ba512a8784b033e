import numpy as np
import pytest

from shapesem.dataset import Dataset, TrialRecord
from shapesem.errors import ConfigError, LayoutError
from shapesem.evaluation import pairwise_win_rate, ssim
from shapesem.patches import extract_patch_features, upsample_nearest
from shapesem.shape_decoder import (decode_shape, fit_base_decoders,
                                    fit_combiner, fit_shape_decoder,
                                    load_shape_decoder, save_shape_decoder)


class TestPatchFeatures:
    def test_all_foreground(self):
        assert np.allclose(extract_patch_features(np.ones((32, 32)), 8), 1.0)

    def test_all_background(self):
        assert np.allclose(extract_patch_features(np.zeros((32, 32)), 8), 0.0)

    def test_half_filled_block(self):
        img = np.zeros((16, 16))
        img[:4, :8] = 1.0  # 32 of the 64 pixels in block (0, 0)
        grid = extract_patch_features(img, 8)
        assert grid[0, 0] == pytest.approx(0.5)
        assert grid[1, 1] == 0.0

    def test_indivisible_patch_size(self):
        with pytest.raises(ConfigError):
            extract_patch_features(np.zeros((10, 10)), 3)
        with pytest.raises(ConfigError):
            extract_patch_features(np.zeros((2, 16, 8)), 8)

    def test_projection_property(self):
        """On a (..., S, S) stack too, where each grid is byte for byte the
        grid of its image alone."""
        rng = np.random.default_rng(0)
        stack = rng.random((2, 3, 32, 32))
        grids = extract_patch_features(stack, 8)
        assert grids.shape == (2, 3, 4, 4)
        for img, grid in zip(stack.reshape(-1, 32, 32), grids.reshape(-1, 4, 4)):
            assert extract_patch_features(img, 8).tobytes() == grid.tobytes()
        again = extract_patch_features(upsample_nearest(grids, 8), 8)
        assert np.allclose(grids, again, atol=1e-6)


def projected(mask, m=8):
    return upsample_nearest(extract_patch_features(mask, m), m)


class TestBaseDecoders:
    def test_noiseless_training_residual(self, noiseless_sim):
        ds, truth = noiseless_sim
        decoders = fit_base_decoders(ds, ("V1", "V2", "V3"), lam=0.0)
        for roi, dec in decoders.items():
            for r in ds.split_records("train")[:20]:
                pred = dec.predict(ds.layout.matrix([r], roi))[0]
                target = truth.patch_grids[r.stimulus_id]
                assert np.max(np.abs(pred - target)) < 1e-4, roi

    def test_identity_encoder_recovers_identity(self):
        # voxels == patch vector directly; with lam=0 the map is identity
        from test_dataset import tiny_layout

        rng = np.random.default_rng(1)
        layout = tiny_layout(4)  # 24 voxels total; V1 = first 4
        g2 = 4  # 16x16 image, m=8 -> 2x2 grid
        records, stimuli, masks = [], {}, {}
        for i in range(40):
            sid = "train_%04d" % i
            mask = np.zeros((16, 16), dtype=np.float32)
            fill = rng.random(4)
            for b in range(4):
                blk = np.zeros(64)
                blk[: int(round(fill[b] * 64))] = 1
                rng.shuffle(blk)
                r0, c0 = 8 * (b // 2), 8 * (b % 2)
                mask[r0 : r0 + 8, c0 : c0 + 8] = blk.reshape(8, 8)
            p = extract_patch_features(mask, 8).reshape(-1)
            vox = np.zeros(24, dtype=np.float32)
            vox[:4] = p
            records.append(TrialRecord(sid, 0, "train", 0, vox))
            stimuli[sid] = mask
            masks[sid] = mask
        ds = Dataset(layout, records, stimuli, masks, ["a"])
        dec = fit_base_decoders(ds, ("V1",), lam=0.0)["V1"]
        assert np.max(np.abs(dec.weights - np.eye(g2))) < 1e-4
        assert np.max(np.abs(dec.bias)) < 1e-4

    def test_huge_lambda_collapses_to_mean(self, noiseless_sim):
        ds, truth = noiseless_sim
        dec = fit_base_decoders(ds, ("V1",), lam=1e6)["V1"]
        train = ds.split_records("train")
        mean_p = np.mean([truth.patch_grids[r.stimulus_id] for r in train], axis=0)
        preds = [dec.predict(ds.layout.matrix([r], "V1"))[0] for r in train[:10]]
        for p in preds:
            assert np.max(np.abs(p - mean_p)) < 0.05

    def test_unknown_roi(self, noiseless_sim):
        ds, _ = noiseless_sim
        with pytest.raises(LayoutError):
            fit_base_decoders(ds, ("V9",))

    def test_zero_voxels_gives_clipped_bias(self, noiseless_sim):
        ds, _ = noiseless_sim
        dec = fit_base_decoders(ds, ("V1",))["V1"]
        rec = ds.split_records("train")[0]
        zero = TrialRecord(rec.stimulus_id, rec.category_id, "train", 99,
                           np.zeros_like(rec.voxels))
        pred = dec.predict(ds.layout.matrix([zero], "V1"))[0]
        expect = np.clip(dec.bias, 0, 1).reshape(dec.grid, dec.grid)
        assert np.allclose(pred, expect, atol=1e-6)
        assert pred.min() >= 0.0 and pred.max() <= 1.0


class TestCombiner:
    def test_perfect_roi_gets_unit_weight(self):
        rng = np.random.default_rng(2)
        n, g = 60, 4
        target = rng.random((n, g, g))
        preds = {"V1": target.copy(),
                 "V2": rng.random((n, g, g)),
                 "V3": rng.random((n, g, g))}
        comb = fit_combiner(preds, target)
        # per-pixel least-squares oracle agrees
        assert np.allclose(comb.weights[..., 0], 1.0, atol=5e-2)
        combined = np.stack([comb.combine({r: preds[r][i] for r in preds})
                             for i in range(n)])
        assert np.max(np.abs(combined - np.clip(target, 0, 1))) < 5e-2

    def test_single_roi_exact(self):
        rng = np.random.default_rng(3)
        target = rng.random((20, 4, 4))
        comb = fit_combiner({"V1": target.copy()}, target)
        assert np.allclose(comb.weights, 1.0, atol=1e-8)

    def test_identical_predictions_minimum_norm(self):
        rng = np.random.default_rng(4)
        target = rng.random((20, 4, 4)) * 0.8 + 0.1
        preds = {k: target.copy() for k in ("V1", "V2", "V3")}
        comb = fit_combiner(preds, target)
        assert np.allclose(comb.weights, 1.0 / 3.0, atol=1e-6)

    def test_all_zero_pixel_uniform_fallback(self):
        preds = {k: np.zeros((10, 2, 2)) for k in ("V1", "V2")}
        comb = fit_combiner(preds, np.zeros((10, 2, 2)))
        assert np.allclose(comb.weights, 0.5)


class TestDecodeShape:
    def test_noiseless_end_to_end(self, noiseless_sim):
        ds, truth = noiseless_sim
        dec = fit_shape_decoder(ds)
        test = ds.split_records("test")
        shapes = [decode_shape(dec, r, ds.layout) for r in test]
        targets = [projected(ds.masks[r.stimulus_id]) for r in test]
        vals = [ssim(s, t) for s, t in zip(shapes, targets)]
        assert np.mean(vals) > 0.95
        report = pairwise_win_rate(shapes, targets, runs=3, seed=0)
        assert report.mean_win_rate == 1.0

    def test_output_clipped_and_blockwise_constant(self, noiseless_sim):
        ds, _ = noiseless_sim
        dec = fit_shape_decoder(ds)
        out = decode_shape(dec, ds.split_records("test")[0], ds.layout)
        assert out.min() >= 0.0 and out.max() <= 1.0
        m = dec.patch_size
        g = out.shape[0] // m
        blocks = out.reshape(g, m, g, m)
        assert np.allclose(blocks, blocks[:, :1, :, :1])

    def test_combiner_not_worse_than_best_single(self, noisy_sim):
        ds, truth = noisy_sim
        from shapesem.shape_decoder import _targets

        decoders = fit_base_decoders(ds, ("V1", "V2", "V3"))
        train = ds.split_records("train")
        preds = {roi: np.stack([d.predict(ds.layout.matrix([r], roi))[0]
                                for r in train])
                 for roi, d in decoders.items()}
        g = ds.image_size // 8
        targets = _targets(ds, train, 8).reshape(-1, g, g)
        comb = fit_combiner(preds, targets)
        stack = np.stack([preds[r] for r in comb.rois], axis=-1)
        combined = np.einsum("nijk,ijk->nij", stack.astype(np.float64), comb.weights)
        mse_comb = ((combined - targets) ** 2).mean(axis=0)
        for roi in preds:
            mse_single = ((preds[roi] - targets) ** 2).mean(axis=0)
            assert np.all(mse_comb <= mse_single + 1e-9)

    def test_persistence_roundtrip(self, noiseless_sim, tmp_path):
        ds, _ = noiseless_sim
        dec = fit_shape_decoder(ds)
        path = tmp_path / "dec.shd"
        save_shape_decoder(dec, path)
        back = load_shape_decoder(path)
        assert path.read_bytes()[:4] == b"SHD1"
        rec = ds.split_records("test")[0]
        a = decode_shape(dec, rec, ds.layout)
        b = decode_shape(back, rec, ds.layout)
        assert np.allclose(a, b, atol=1e-6)
