import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapesem.dataset import (Dataset, RoiLayout, SyntheticConfig, TrialRecord,
                              average_test_trials, binarize_mask, load_dataset,
                              otsu_threshold, read_pgm, save_dataset, simulate,
                              write_pgm)
from shapesem.errors import ConfigError, DataError, LayoutError


def tiny_layout(n_per_roi=4):
    spans = []
    pos = 0
    for name in ("V1", "V2", "V3", "LOC", "FFA", "PPA"):
        spans.append((name, (pos, pos + n_per_roi)))
        pos += n_per_roi
    return RoiLayout(tuple(spans))


def tiny_dataset():
    layout = tiny_layout()
    n = layout.total_voxels
    rng = np.random.default_rng(0)
    img = np.round(rng.random((16, 16)) * 255) / 255.0
    mask = (img > 0.5).astype(np.float32)
    records = [
        TrialRecord("train_0000", 0, "train", 0, rng.standard_normal(n)),
        TrialRecord("test_0000", 1, "test", 0, rng.standard_normal(n)),
    ]
    stimuli = {"train_0000": img.astype(np.float32),
               "test_0000": (1 - img).astype(np.float32)}
    masks = {"train_0000": mask, "test_0000": 1 - mask}
    return Dataset(layout, records, stimuli, masks, ["a", "b"])


class TestRoiLayout:
    def test_missing_roi_rejected(self):
        with pytest.raises(LayoutError):
            RoiLayout((("V1", (0, 4)), ("V2", (4, 8))))

    def test_gap_rejected(self):
        spans = [("V1", (0, 4)), ("V2", (5, 8)), ("V3", (8, 9)),
                 ("LOC", (9, 10)), ("FFA", (10, 11)), ("PPA", (11, 12))]
        with pytest.raises(LayoutError):
            RoiLayout(tuple(spans))

    def test_index_unions(self):
        layout = tiny_layout()
        assert layout.total_voxels == 24
        assert layout.indices("LVC").tolist() == list(range(12))
        assert layout.indices("HVC").tolist() == list(range(12, 24))
        assert layout.indices("VC").tolist() == list(range(24))
        with pytest.raises(LayoutError):
            layout.indices("V9")


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        ds = tiny_dataset()
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert back.layout == ds.layout
        assert back.category_names == ds.category_names
        assert len(back.records) == len(ds.records)
        for a, b in zip(ds.records, back.records):
            assert (a.stimulus_id, a.category_id, a.split, a.trial_index) == \
                (b.stimulus_id, b.category_id, b.split, b.trial_index)
            assert np.array_equal(np.asarray(a.voxels, dtype=np.float32), b.voxels)
        for sid in ds.stimuli:
            assert np.array_equal(ds.stimuli[sid], back.stimuli[sid])
            assert np.array_equal(ds.masks[sid], back.masks[sid])

    def test_unknown_roi_in_manifest(self, tmp_path):
        ds = tiny_dataset()
        save_dataset(ds, tmp_path / "d")
        mf = json.loads((tmp_path / "d" / "manifest.json").read_text())
        mf["rois"][0][0] = "V9"
        (tmp_path / "d" / "manifest.json").write_text(json.dumps(mf))
        with pytest.raises(LayoutError):
            load_dataset(tmp_path / "d")

    def test_duplicate_record_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(DataError):
            Dataset(ds.layout, ds.records + [ds.records[0]], ds.stimuli,
                    ds.masks, ds.category_names)

    def test_voxel_length_mismatch_rejected(self):
        ds = tiny_dataset()
        bad = TrialRecord("train_0000", 0, "train", 1, np.zeros(5))
        with pytest.raises(DataError):
            Dataset(ds.layout, ds.records + [bad], ds.stimuli, ds.masks,
                    ds.category_names)

    def test_train_test_overlap_rejected(self):
        ds = tiny_dataset()
        bad = TrialRecord("train_0000", 0, "test", 3,
                          np.zeros(ds.layout.total_voxels))
        with pytest.raises(DataError):
            Dataset(ds.layout, ds.records + [bad], ds.stimuli, ds.masks,
                    ds.category_names)

    def test_full_scale_counts(self, tmp_path):
        # 1200 train / 50 test stimulus manifest loads with those counts
        layout = tiny_layout(1)
        n = layout.total_voxels
        records, stimuli, masks = [], {}, {}
        img = np.zeros((16, 16), dtype=np.float32)
        for i in range(1200):
            sid = "train_%04d" % i
            records.append(TrialRecord(sid, 0, "train", 0, np.zeros(n)))
            stimuli[sid] = img
            masks[sid] = img
        for i in range(50):
            sid = "test_%04d" % i
            records.append(TrialRecord(sid, 1, "test", 0, np.zeros(n)))
            stimuli[sid] = img
            masks[sid] = img
        ds = Dataset(layout, records, stimuli, masks, ["a", "b"])
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert len({r.stimulus_id for r in back.split_records("train")}) == 1200
        assert len({r.stimulus_id for r in back.split_records("test")}) == 50


class TestPgm:
    def test_roundtrip(self, tmp_path):
        img = np.linspace(0, 1, 64, dtype=np.float32).reshape(8, 8)
        img = np.round(img * 255) / 255
        write_pgm(tmp_path / "x.pgm", img)
        back = read_pgm(tmp_path / "x.pgm")
        assert np.allclose(back, img, atol=1e-7)
        assert (tmp_path / "x.pgm").read_bytes()[:2] == b"P5"

    @pytest.mark.parametrize("maxval", [0, 65535])
    def test_maxval_outside_8_bit_rejected(self, tmp_path, maxval):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n%d\n" % maxval + bytes(8))
        with pytest.raises(DataError, match="m.pgm"):
            read_pgm(path)

    @pytest.mark.parametrize("header", [b"P5\nab 16\n255\n",
                                        b"P5\n# no newline",
                                        b"P5\n-2 -2\n255\n" + bytes(4),
                                        b"P5\n2 2\n255\n" + bytes(4) + b"junkjunk",
                                        b"P5\n2 2\n100\n" + bytes([0, 100, 101, 255])])
    def test_malformed_header_names_file(self, tmp_path, header):
        path = tmp_path / "h.pgm"
        path.write_bytes(header)
        with pytest.raises(DataError, match="h.pgm"):
            read_pgm(path)

    def test_header_and_payload_fuzz(self, tmp_path_factory):
        """A PGM with any sizes, maxval, separators and comments, up to two
        header tokens replaced by junk and its payload cut or padded, reads
        as a float32 (h, w) image in [0, 1], or raises a DataError naming
        the file."""
        path = tmp_path_factory.mktemp("pgm") / "f.pgm"
        gap = st.sampled_from([" ", "\n", "\t", "\r", " #c d\n", "\n#c\n"])
        junk = st.sampled_from(["0", "-1", "", "x", "+3", "1_0", "3.0", "0x4",
                                "9" * 30, "P2", "#", " #c\n", "  "])

        @settings(max_examples=200, deadline=500, database=None)
        @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 255),
               st.lists(gap, min_size=3, max_size=3),
               st.lists(st.tuples(st.integers(0, 4), junk), max_size=2),
               st.lists(st.integers(-2, 2), max_size=1), st.data())
        def reads_unit_image_or_names_file(w, h, maxval, gaps, damage, cut,
                                           data):
            tokens = ["P5", str(w), str(h), str(maxval), "\n"]
            for i, bad in damage:
                tokens[i] = bad
            header = "".join(a + b for a, b in zip(tokens, gaps + ["", ""]))
            n = max(0, w * h + sum(cut))
            path.write_bytes(header.encode()
                             + data.draw(st.binary(min_size=n, max_size=n)))
            try:
                img = read_pgm(path)
            except DataError as exc:
                assert "f.pgm" in str(exc)
            else:
                assert img.dtype == np.float32 and img.ndim == 2
                assert img.shape == (h, w) or damage
                assert 0.0 <= img.min() and img.max() <= 1.0

        reads_unit_image_or_names_file()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_match_whole_image_quantisation(self, tmp_path, dtype):
        """Row-block quantisation writes the bytes of clip, scale by 255 and
        round on the whole image in float64, also across block edges, for
        out-of-range pixels and for exact half steps."""
        rng = np.random.default_rng(0)
        img = rng.uniform(-0.5, 1.5, (700, 130)).astype(dtype)
        half = (np.arange(256) + 0.5) / 255.0
        img[:2, :128] = half.reshape(2, 128)
        img[2, :5] = [-np.inf, -1e-9, 1.0 + 1e-9, 7.0, np.inf]
        for name, image in (("tall", img), ("strided", img[::3, ::2]),
                            ("one_row", img[:1])):
            path = tmp_path / (name + ".pgm")
            write_pgm(path, image)
            data = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
            px = np.round(data * 255.0).astype(np.uint8)
            assert path.read_bytes() == (b"P5\n%d %d\n255\n" % px.shape[::-1]
                                         + px.tobytes()), name


class TestAverageTestTrials:
    def test_single_trial_unchanged(self):
        ds = tiny_dataset()
        out = average_test_trials(ds)
        rec = out.split_records("test")[0]
        assert np.allclose(rec.voxels,
                           ds.split_records("test")[0].voxels, atol=1e-7)

    def test_opposite_trials_cancel(self):
        ds = tiny_dataset()
        v = ds.split_records("test")[0].voxels
        extra = TrialRecord("test_0000", 1, "test", 1, -v)
        ds2 = Dataset(ds.layout, ds.records + [extra], ds.stimuli, ds.masks,
                      ds.category_names)
        rec = average_test_trials(ds2).split_records("test")[0]
        assert np.max(np.abs(rec.voxels)) < 1e-6

    def test_24_trials_match_independent_mean(self):
        ds = tiny_dataset()
        rng = np.random.default_rng(5)
        n = ds.layout.total_voxels
        trials = [rng.standard_normal(n).astype(np.float32) for _ in range(24)]
        records = [r for r in ds.records if r.split == "train"]
        records += [TrialRecord("test_0000", 1, "test", t, v)
                    for t, v in enumerate(trials)]
        ds2 = Dataset(ds.layout, records, ds.stimuli, ds.masks, ds.category_names)
        avg = average_test_trials(ds2)
        test = avg.split_records("test")
        assert len(test) == 1
        # independent two-pass oracle
        expect = np.zeros(n, dtype=np.float64)
        for v in trials:
            expect += v
        expect /= 24
        assert np.max(np.abs(test[0].voxels - expect)) < 1e-6

    def test_idempotent(self):
        ds = tiny_dataset()
        once = average_test_trials(ds)
        twice = average_test_trials(once)
        for a, b in zip(once.records, twice.records):
            assert np.array_equal(a.voxels, b.voxels)


class TestBinarize:
    def test_idempotent_on_binary(self):
        img = (np.random.default_rng(0).random((16, 16)) > 0.5).astype(np.float32)
        assert np.array_equal(binarize_mask(img), img)

    def test_step_threshold(self):
        img = np.full((8, 8), 0.2, dtype=np.float32)
        img[:, 4:] = 0.9
        assert 0.2 < otsu_threshold(img) <= 0.9
        mask = binarize_mask(img)
        assert mask[:, :4].sum() == 0 and mask[:, 4:].min() == 1

    def test_otsu_matches_brute_force(self):
        rng = np.random.default_rng(1)
        img = np.where(rng.random((32, 32)) < 0.4, 0.1, 0.8).astype(np.float32)
        auto = binarize_mask(img)
        assert np.array_equal(auto, (img >= 0.45).astype(np.float32))
        # brute force over all 256 bin-edge thresholds
        best_t, best_v = 0.0, -1.0
        flat = img.reshape(-1).astype(np.float64)
        for k in range(1, 256):
            t = k / 256
            lo, hi = flat[flat < t], flat[flat >= t]
            if lo.size == 0 or hi.size == 0:
                continue
            w0, w1 = lo.size / flat.size, hi.size / flat.size
            v = w0 * w1 * (lo.mean() - hi.mean()) ** 2
            if v > best_v:
                best_t, best_v = t, v
        mask_bf = (img >= best_t).astype(np.float32)
        assert np.array_equal(auto, mask_bf)

    def test_constant_image_warns_empty(self):
        img = np.full((8, 8), 0.3, dtype=np.float32)
        with pytest.warns(RuntimeWarning):
            mask = binarize_mask(img)
        assert mask.sum() == 0


class TestSimulator:
    def test_noiseless_lvc_is_linear_in_patches(self):
        cfg = SyntheticConfig(n_train=5, n_test=2, noise_sigma=0.0, seed=3)
        ds, truth = simulate(cfg)
        rec = ds.split_records("train")[0]
        p = truth.patch_grids[rec.stimulus_id].reshape(-1).astype(np.float64)
        expect = truth.lvc_maps["V1"].astype(np.float64) @ p
        idx = ds.layout.indices("V1")
        assert np.max(np.abs(rec.voxels[idx] - expect)) < 1e-5

    def test_same_seed_bitwise_identical(self):
        cfg = SyntheticConfig(n_train=6, n_test=3, seed=11)
        a, _ = simulate(cfg)
        b, _ = simulate(cfg)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.voxels, rb.voxels)
        for sid in a.stimuli:
            assert np.array_equal(a.stimuli[sid], b.stimuli[sid])

    def test_mask_foreground_fraction(self):
        cfg = SyntheticConfig(n_train=100, n_test=2, seed=7)
        ds, _ = simulate(cfg)
        for sid, mask in ds.masks.items():
            assert set(np.unique(mask)).issubset({0.0, 1.0})
            frac = mask.mean()
            assert 0.05 <= frac <= 0.6, (sid, frac)

    def test_too_many_categories_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(categories=31)

    @pytest.mark.parametrize("count", [None, 0, -5, 100.5, float("inf")])
    def test_roi_without_voxels_rejected(self, count):
        """Every ROI needs a whole number of voxels, at least one: the
        float budget sums the counts and the simulator sizes its maps by
        them."""
        voxels = {"V1": count, "V2": 4, "V3": 4, "LOC": 4, "FFA": 4, "PPA": 4}
        if count is None:
            del voxels["V1"]
        with pytest.raises(ConfigError, match="V1"):
            SyntheticConfig(voxels_per_roi=voxels)

    def test_noiseless_patch_features_exactly_decodable(self):
        from shapesem.linalg import ridge_solve

        cfg = SyntheticConfig(n_train=80, n_test=5, noise_sigma=0.0, seed=2)
        ds, truth = simulate(cfg)
        train = ds.split_records("train")
        idx = ds.layout.indices("LVC")
        x = np.stack([r.voxels[idx] for r in train]).astype(np.float64)
        p = np.stack([truth.patch_grids[r.stimulus_id].reshape(-1)
                      for r in train]).astype(np.float64)
        w = ridge_solve(x, p, 0.0)
        assert np.max(np.abs(x @ w - p)) < 1e-6


def _reference_simulate(cfg):
    """The simulator as first written, kept as a bitwise reference: patch
    grids image by image, and per record six float64 matrix-vector products
    and one noise draw per ROI.  Returns (records as (stimulus_id, split,
    trial_index, voxels)), stimuli, masks, patch grids)."""
    from shapesem.dataset import (HVC_ROIS, HVC_SHAPE_LEAK, LVC_ROIS,
                                  REQUIRED_ROIS, _category_intensity,
                                  _render_template)
    from shapesem.patches import extract_patch_features

    rng = np.random.default_rng(cfg.seed)
    s, m, ncat = cfg.image_size, cfg.patch_size, cfg.categories
    g2 = (s // m) ** 2
    lvc, hvc_cat, hvc_shape = {}, {}, {}
    for roi in LVC_ROIS:
        d = cfg.voxels_per_roi[roi]
        lvc[roi] = (rng.standard_normal((d, g2)) / np.sqrt(g2)).astype(np.float32)
    for roi in HVC_ROIS:
        d = cfg.voxels_per_roi[roi]
        hvc_cat[roi] = rng.standard_normal((d, ncat)).astype(np.float32)
        hvc_shape[roi] = (rng.standard_normal((d, g2)) / np.sqrt(g2)).astype(np.float32)
    intensities = _category_intensity(ncat)
    stimuli, masks, grids, cats = {}, {}, {}, {}
    for split, count in (("train", cfg.n_train), ("test", cfg.n_test)):
        for i in range(count):
            sid = "%s_%04d" % (split, i)
            cats[sid] = i % ncat
            masks[sid] = _render_template(i % ncat, s, rng, cfg.identical_shapes)
            stimuli[sid] = (masks[sid] * intensities[i % ncat]).astype(np.float32)
            grids[sid] = extract_patch_features(masks[sid], m)

    def encode(sid):
        p = grids[sid].reshape(-1).astype(np.float64)
        onehot = np.zeros(ncat)
        onehot[cats[sid]] = 1.0
        parts = []
        for roi in REQUIRED_ROIS:
            if roi in LVC_ROIS:
                mean = lvc[roi].astype(np.float64) @ p
            else:
                mean = (hvc_cat[roi].astype(np.float64) @ onehot
                        + HVC_SHAPE_LEAK * (hvc_shape[roi].astype(np.float64) @ p))
            noise = (cfg.noise_sigma * rng.standard_normal(cfg.voxels_per_roi[roi])
                     if cfg.noise_sigma > 0 else 0.0)
            parts.append(mean + noise)
        return np.concatenate(parts).astype(np.float32)

    records = [(sid, split, t, encode(sid))
               for split, count, trials in (("train", cfg.n_train, cfg.train_trials),
                                            ("test", cfg.n_test, cfg.test_trials))
               for sid in ("%s_%04d" % (split, i) for i in range(count))
               for t in range(trials)]
    return records, stimuli, masks, grids


@pytest.mark.parametrize("cfg", [
    SyntheticConfig(n_train=12, n_test=4, noise_sigma=0.0, seed=5),
    SyntheticConfig(n_train=10, n_test=3, train_trials=2, seed=6),
    SyntheticConfig(categories=30, n_train=60, n_test=30, seed=7),
    SyntheticConfig(image_size=64, patch_size=4, categories=3, n_train=9,
                    n_test=3, identical_shapes=True, seed=8,
                    voxels_per_roi={"V1": 70, "V2": 60, "V3": 50, "LOC": 40,
                                    "FFA": 30, "PPA": 20}),
], ids=["noiseless", "train_trials_2", "30_categories", "s64_m4"])
def test_simulate_matches_reference_bitwise(cfg):
    """The batched simulator writes the voxels, stimuli, masks and patch
    grids of the per-record reference loop, byte for byte."""
    ds, truth = simulate(cfg)
    records, stimuli, masks, grids = _reference_simulate(cfg)
    assert len(ds.records) == len(records)
    for rec, (sid, split, t, voxels) in zip(ds.records, records):
        assert (rec.stimulus_id, rec.split, rec.trial_index) == (sid, split, t)
        assert rec.voxels.tobytes() == voxels.tobytes()
    for ours, ref in ((ds.stimuli, stimuli), (ds.masks, masks),
                      (truth.patch_grids, grids)):
        assert list(ours) == list(ref)
        assert all(ours[k].dtype == ref[k].dtype
                   and ours[k].tobytes() == ref[k].tobytes() for k in ref)
