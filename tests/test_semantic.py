import numpy as np
import pytest

from shapesem.dataset import Dataset, TrialRecord
from shapesem.errors import ConfigError, DataError
from shapesem.semantic import (accuracy, category_average, classify_batch,
                               load_semantic_net, save_semantic_net,
                               semantic_features, train_semantic)


def holdout(ds, n=40):
    from shapesem.evaluation import _holdout_validation

    return _holdout_validation(ds, n)


class TestTraining:
    def test_heldout_accuracy(self, noisy_sim):
        ds, _ = noisy_sim
        ds2 = holdout(ds, 40)
        net = train_semantic(ds2, roi_set="HVC", seed=0)
        assert accuracy(net, ds2, ds2.split_records("test")) >= 0.95

    def test_determinism(self, noisy_sim):
        ds, _ = noisy_sim
        a = train_semantic(ds, roi_set="HVC", seed=5)
        b = train_semantic(ds, roi_set="HVC", seed=5)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_permuted_labels_give_chance(self, noisy_sim):
        ds, _ = noisy_sim
        rng = np.random.default_rng(9)
        records = []
        for r in ds.records:
            if r.split == "train":
                records.append(TrialRecord(r.stimulus_id,
                                           int(rng.integers(ds.n_categories)),
                                           "train", r.trial_index, r.voxels))
            else:
                records.append(r)
        shuffled = Dataset(ds.layout, records, ds.stimuli, ds.masks,
                           ds.category_names)
        ds2 = holdout(shuffled, 40)
        net = train_semantic(ds2, roi_set="HVC", seed=0)
        acc = accuracy(net, ds2, ds2.split_records("test"))
        assert abs(acc - 1.0 / ds.n_categories) <= 0.1

    def test_single_category_rejected(self, noisy_sim):
        ds, _ = noisy_sim
        records = [TrialRecord(r.stimulus_id, 0, r.split, r.trial_index, r.voxels)
                   for r in ds.records]
        flat = Dataset(ds.layout, records, ds.stimuli, ds.masks, ds.category_names)
        with pytest.raises(ConfigError):
            train_semantic(flat)


@pytest.mark.parametrize("dims", [(5, 2, 8, 2), (90, 32, 8, 4), (300, 256, 64, 10)])
def test_parameter_count_matches_built_net(dims):
    from shapesem.semantic import SemanticNet, SemanticNetConfig

    in_dim, hidden1, hidden2, n_classes = dims
    cfg = SemanticNetConfig(in_dim=in_dim, n_classes=n_classes, hidden1=hidden1,
                            hidden2=hidden2)
    assert cfg.parameter_count() == sum(p.data.size
                                        for p in SemanticNet(cfg, "HVC").parameters())


@pytest.mark.parametrize("field", ["in_dim", "hidden1", "hidden2",
                                   "n_classes"])
def test_parameter_budget(field):
    """Too wide a net is refused by its config, before any tensor of it
    exists, with the oversized field and its value in the message."""
    from shapesem.semantic import SemanticNetConfig

    dims = dict(in_dim=10, n_classes=2)
    dims[field] = 10 ** 15
    with pytest.raises(ConfigError, match="%s %d" % (field, 10 ** 15)):
        SemanticNetConfig(**dims)


class TestFeatures:
    def test_shape_and_range(self, noisy_sim):
        ds, _ = noisy_sim
        net = train_semantic(ds, roi_set="HVC", seed=0)
        f = semantic_features(net, ds.split_records("test")[0], ds.layout)
        assert f.shape == (net.config.hidden2,)
        assert np.all(f > -1.0) and np.all(f < 1.0)

    def test_same_category_features_cluster(self, noisy_sim):
        ds, _ = noisy_sim
        net = train_semantic(ds, roi_set="HVC", seed=0)
        test = ds.split_records("test")
        feats = [semantic_features(net, r, ds.layout) for r in test]
        labels = [r.category_id for r in test]

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        same, cross = [], []
        for i in range(len(test)):
            for j in range(i + 1, len(test)):
                (same if labels[i] == labels[j] else cross).append(
                    cos(feats[i], feats[j]))
        assert np.mean(same) > np.mean(cross)


class TestClassify:
    def test_argmax_and_tie_rule(self, noisy_sim):
        ds, _ = noisy_sim
        net = train_semantic(ds, roi_set="HVC", seed=0)
        rec = ds.split_records("test")[0]
        from shapesem.tensor import Tensor

        x = rec.voxels[ds.layout.indices("HVC")]
        scores = net.scores(Tensor(net._normalize(x)[None])).data[0]
        assert classify_batch(net, [rec], ds.layout)[0] == int(np.argmax(scores))
        # exact tie breaks to index 0
        assert int(np.argmax(np.zeros(5))) == 0

    def test_hvc_beats_lvc(self, noisy_sim):
        ds, _ = noisy_sim
        ds2 = holdout(ds, 40)
        val = ds2.split_records("test")
        hvc = train_semantic(ds2, roi_set="HVC", seed=0)
        lvc = train_semantic(ds2, roi_set="LVC", seed=0)
        acc_hvc = accuracy(hvc, ds2, val)
        acc_lvc = accuracy(lvc, ds2, val)
        assert acc_hvc >= 0.9
        assert acc_hvc > acc_lvc


class TestCategoryAverage:
    def test_single_sample_identity(self):
        f = np.array([0.1, -0.2], dtype=np.float32)
        out = category_average([f], [3])
        assert np.allclose(out[3], f)

    def test_symmetric_pair_cancels(self):
        f = np.array([0.5, -0.5], dtype=np.float32)
        out = category_average([f, -f], [1, 1])
        assert np.max(np.abs(out[1])) < 1e-7

    def test_matches_two_pass_mean(self):
        rng = np.random.default_rng(1)
        feats = [rng.standard_normal(8).astype(np.float32) for _ in range(50)]
        labels = rng.integers(0, 4, size=50).tolist()
        out = category_average(feats, labels)
        for lab in set(labels):
            sel = [f for f, l in zip(feats, labels) if l == lab]
            mean = np.zeros(8)
            for f in sel:
                mean += f
            mean /= len(sel)
            assert np.max(np.abs(out[lab] - mean)) < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            category_average([], [])


def test_persistence_roundtrip(noisy_sim, tmp_path):
    ds, _ = noisy_sim
    net = train_semantic(ds, roi_set="HVC", seed=0)
    path = tmp_path / "net.sem"
    save_semantic_net(net, path)
    back = load_semantic_net(path)
    assert path.read_bytes()[:4] == b"SEM1"
    rec = ds.split_records("test")[0]
    assert np.allclose(semantic_features(net, rec, ds.layout),
                       semantic_features(back, rec, ds.layout), atol=1e-6)
    assert (classify_batch(net, [rec], ds.layout)
            == classify_batch(back, [rec], ds.layout))
