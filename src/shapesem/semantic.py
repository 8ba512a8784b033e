"""Semantic decoding from higher-visual-cortex voxels.

A small two-hidden-layer classifier (Tanh between hidden layers, per-class
sigmoid output) is trained on HVC voxels; its penultimate activations are
the semantic feature space, and per-category means of those features supply
the augmentation vectors.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .dataset import Dataset, TrialRecord
from .errors import ConfigError, DataError
from .nn import Linear, check_budget, check_fields
from .optim import Adam
from .serial import check_shapes, open_artifact, save_artifact
from .tensor import Tensor

NET_MAGIC = b"SEM1"


@dataclass
class SemanticNetConfig:
    in_dim: int
    n_classes: int
    hidden1: int = 256
    hidden2: int = 64  # semantic feature dimension
    epochs: int = 60
    lr: float = 1e-3
    batch: int = 32
    seed: int = 0

    def __post_init__(self):
        check_fields(self, in_dim=1, n_classes=2, hidden1=1, hidden2=2,
                     epochs=1, lr=0, batch=1, seed=0)
        if not self.lr > 0:
            raise ConfigError("lr must be > 0, got %r" % self.lr)
        check_budget(self, self.parameter_count(), "parameters", "in_dim",
                     "hidden1", "hidden2", "n_classes")

    def shapes(self) -> list:
        """Shapes of the three linear layers' weights and biases, in the
        order of ``SemanticNet.parameters``."""
        dims = (self.in_dim, self.hidden1, self.hidden2, self.n_classes)
        return [s for a, b in zip(dims, dims[1:]) for s in ((a, b), (b,))]

    def parameter_count(self) -> int:
        """Parameters of the three linear layers, counted without building
        them."""
        return sum(math.prod(s) for s in self.shapes())


class SemanticNet:
    def __init__(self, config: SemanticNetConfig, roi_set: str):
        self.config = config
        self.roi_set = roi_set
        rng = np.random.default_rng(config.seed)
        self.l1 = Linear(config.in_dim, config.hidden1, rng)
        self.l2 = Linear(config.hidden1, config.hidden2, rng)
        self.l3 = Linear(config.hidden2, config.n_classes, rng)
        # input standardization, frozen from the training set
        self.x_mean = np.zeros(config.in_dim, dtype=np.float32)
        self.x_std = np.ones(config.in_dim, dtype=np.float32)

    def parameters(self):
        return self.l1.parameters() + self.l2.parameters() + self.l3.parameters()

    def _normalize(self, x: np.ndarray) -> np.ndarray:
        return ((x - self.x_mean) / self.x_std).astype(np.float32)

    def penultimate(self, x: Tensor) -> Tensor:
        return T.tanh(self.l2(T.tanh(self.l1(x))))

    def scores(self, x: Tensor) -> Tensor:
        return T.sigmoid(self.l3(self.penultimate(x)))


def train_semantic(ds: Dataset, config: SemanticNetConfig | None = None,
                   roi_set: str = "HVC", seed: int = 0) -> SemanticNet:
    """Fit the classifier on one ROI set with per-class sigmoid cross-entropy."""
    train = ds.split_records("train")
    labels = np.array([r.category_id for r in train])
    if len(set(labels.tolist())) < 2:
        raise ConfigError("training set has a single category")
    idx = ds.layout.indices(roi_set)
    if config is None:
        config = SemanticNetConfig(in_dim=len(idx), n_classes=ds.n_categories,
                                   seed=seed)
    if config.in_dim != len(idx):
        raise ConfigError("config.in_dim %d != ROI voxel count %d"
                          % (config.in_dim, len(idx)))
    x = ds.layout.matrix(train, roi_set)
    net = SemanticNet(config, roi_set)
    net.x_mean = x.mean(axis=0)
    net.x_std = x.std(axis=0) + 1e-6
    xn = net._normalize(x)
    onehot = np.zeros((len(train), config.n_classes), dtype=np.float32)
    onehot[np.arange(len(train)), labels] = 1.0

    opt = Adam(net.parameters(), lr=config.lr)
    rng = np.random.default_rng(config.seed + 1)
    n = len(train)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, config.batch):
            sel = order[lo : lo + config.batch]
            s = net.scores(Tensor(xn[sel]))
            t = Tensor(onehot[sel])
            loss = T.tmean(-(t * T.log_clamped(s)
                             + (1.0 - t) * T.log_clamped(1.0 - s)))
            opt.zero_grad()
            loss.backward()
            opt.step()
    return net


def _inputs(net: SemanticNet, records, layout) -> Tensor:
    return Tensor(net._normalize(layout.matrix(records, net.roi_set)))


def semantic_features_batch(net: SemanticNet, records, layout) -> np.ndarray:
    """(n, hidden2) penultimate Tanh activations; values in (-1, 1)."""
    return net.penultimate(_inputs(net, records, layout)).data


def semantic_features(net: SemanticNet, record: TrialRecord, layout) -> np.ndarray:
    """Penultimate Tanh activations for one record; values in (-1, 1)."""
    return semantic_features_batch(net, [record], layout)[0]


def classify_batch(net: SemanticNet, records, layout) -> np.ndarray:
    """Argmax over sigmoid output scores; ties break to the lowest index."""
    return np.argmax(net.scores(_inputs(net, records, layout)).data, axis=1)


def accuracy(net: SemanticNet, ds: Dataset, records) -> float:
    labels = np.array([r.category_id for r in records])
    return float(np.mean(classify_batch(net, records, ds.layout) == labels))


def category_average(features, labels) -> dict:
    """Arithmetic mean of (n, d) semantic features per category (the R_sm
    table)."""
    features = np.asarray(features, dtype=np.float64)
    if not len(features) or len(features) != len(labels):
        raise DataError("features and labels must be nonempty and aligned")
    cats, inverse = np.unique(np.asarray(labels, dtype=np.int64),
                              return_inverse=True)
    # np.add.at adds in record order, as a running sum per category would
    sums = np.zeros((len(cats), features.shape[1]))
    np.add.at(sums, inverse, features)
    means = sums / np.bincount(inverse)[:, None]
    return dict(zip(cats.tolist(), means.astype(np.float32)))


# -- persistence --------------------------------------------------------

def save_semantic_net(net: SemanticNet, path) -> None:
    header = dict(asdict(net.config), roi_set=net.roi_set)
    save_artifact(path, NET_MAGIC, header, [net.x_mean, net.x_std]
                  + [p.data for p in net.parameters()])


def load_semantic_net(path) -> SemanticNet:
    with open_artifact(path, NET_MAGIC) as (header, arrays):
        roi_set = header.pop("roi_set")
        if not isinstance(roi_set, str):
            raise DataError("roi_set must be a string, got %r" % (roi_set,))
        config = SemanticNetConfig(**header)
        # the input moments, then the layers: checked before the net exists
        check_shapes(arrays, [(config.in_dim,)] * 2 + config.shapes())
        net = SemanticNet(config, roi_set)
        net.x_mean, net.x_std = arrays[:2]
        for p, saved in zip(net.parameters(), arrays[2:]):
            p.data = saved
    return net
