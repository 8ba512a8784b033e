"""Shape decoding from lower-visual-cortex voxels.

Per-ROI linear base decoders map voxel vectors to patch grids; a per-pixel
least-squares combiner merges the ROI predictions, and the combined grid is
block-replicated back to stimulus resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LVC_ROIS, Dataset, TrialRecord
from .errors import ConfigError, DataError
from .linalg import ridge_solve
from .patches import extract_patch_features, upsample_nearest
from .serial import check_shapes, open_artifact, save_artifact

DECODER_MAGIC = b"SHD1"
DEFAULT_LAMBDA = 1e-2  # scaled by trace(X'X)/d at fit time


@dataclass
class BaseShapeDecoder:
    """Affine map from one ROI's voxels to the flattened patch grid."""

    roi: str
    weights: np.ndarray  # (d_voxels, g*g)
    bias: np.ndarray  # (g*g,)
    grid: int
    lam: float

    def predict(self, voxels: np.ndarray) -> np.ndarray:
        """Affine map then clip to [0,1]; (..., d) voxels -> (..., g, g)."""
        out = voxels.astype(np.float64) @ self.weights + self.bias
        out = np.clip(out, 0.0, 1.0).astype(np.float32)
        return out.reshape(voxels.shape[:-1] + (self.grid, self.grid))


@dataclass
class ShapeCombiner:
    """Per-pixel linear weights across ROI predictions (no intercept)."""

    rois: list
    weights: np.ndarray  # (g, g, K)

    def combine(self, predictions: dict) -> np.ndarray:
        """roi -> (..., g, g) predictions to one (..., g, g) combined grid."""
        stack = np.stack([predictions[r] for r in self.rois], axis=-1)
        out = np.einsum("...ijk,ijk->...ij", stack.astype(np.float64), self.weights)
        return np.clip(out, 0.0, 1.0).astype(np.float32)


@dataclass
class ShapeDecoder:
    decoders: dict  # roi -> BaseShapeDecoder
    combiner: ShapeCombiner
    patch_size: int


def _targets(ds: Dataset, records, m: int) -> np.ndarray:
    """(n, g, g) patch grids of the records' masks."""
    return extract_patch_features(
        np.stack([ds.masks[r.stimulus_id] for r in records]), m)


def fit_base_decoders(ds: Dataset, rois, lam: float = DEFAULT_LAMBDA,
                      m: int = 8) -> dict:
    """Ridge-fit one base decoder per ROI against the patch-grid targets.

    Inputs and targets are centered so the bias absorbs the means; ``lam``
    is scaled by trace(X'X)/d to make the default resolution independent of
    voxel count and signal scale.
    """
    if not 0 <= lam < np.inf:
        raise ConfigError("shape_lambda must be finite and >= 0, got %r" % lam)
    train = ds.split_records("train")
    if len(train) < 2:
        raise DataError("need at least 2 training records")
    p = _targets(ds, train, m).reshape(len(train), -1).astype(np.float64)
    g = ds.image_size // m
    p_mean = p.mean(axis=0)
    out = {}
    for roi in rois:
        x = ds.layout.matrix(train, roi).astype(np.float64)
        x_mean = x.mean(axis=0)
        xc, pc = x - x_mean, p - p_mean
        lam_eff = lam * np.trace(xc.T @ xc) / xc.shape[1] if lam > 0 else 0.0
        w = ridge_solve(xc, pc, lam_eff)
        bias = p_mean - x_mean @ w
        out[roi] = BaseShapeDecoder(roi, w, bias, g, lam)
    return out


def fit_combiner(base_predictions: dict, targets: np.ndarray) -> ShapeCombiner:
    """Solve the per-pixel least-squares weighting across ROIs.

    ``base_predictions``: roi -> (n, g, g) stacked predictions on the
    training set; ``targets``: (n, g, g).  Singular pixels take the
    minimum-norm solution; an all-zero pixel falls back to uniform 1/K.
    """
    rois = list(base_predictions)
    stack = np.stack([base_predictions[r] for r in rois], axis=-1).astype(np.float64)
    n, g, _, k = stack.shape
    targets = np.asarray(targets, dtype=np.float64)
    weights = np.zeros((g, g, k))
    for i in range(g):
        for j in range(g):
            a = stack[:, i, j, :]
            if not a.any():
                weights[i, j, :] = 1.0 / k
                continue
            weights[i, j, :] = np.linalg.lstsq(a, targets[:, i, j], rcond=None)[0]
    return ShapeCombiner(rois, weights)


def fit_shape_decoder(ds: Dataset, rois=LVC_ROIS,
                      lam: float = DEFAULT_LAMBDA, m: int = 8) -> ShapeDecoder:
    decoders = fit_base_decoders(ds, rois, lam, m)
    train = ds.split_records("train")
    preds = {roi: dec.predict(ds.layout.matrix(train, roi))
             for roi, dec in decoders.items()}
    return ShapeDecoder(decoders, fit_combiner(preds, _targets(ds, train, m)), m)


def decode_shape_batch(decoder: ShapeDecoder, records, layout) -> np.ndarray:
    """(n, S, S) full-resolution decoded shape images in [0,1]."""
    preds = {roi: dec.predict(layout.matrix(records, roi))
             for roi, dec in decoder.decoders.items()}
    return upsample_nearest(decoder.combiner.combine(preds), decoder.patch_size)


def decode_shape(decoder: ShapeDecoder, record: TrialRecord, layout) -> np.ndarray:
    """Full-resolution decoded shape image in [0,1]."""
    return decode_shape_batch(decoder, [record], layout)[0]


# -- persistence --------------------------------------------------------

def save_shape_decoder(decoder: ShapeDecoder, path) -> None:
    decs, cw = decoder.decoders, decoder.combiner.weights
    header = {"patch_size": decoder.patch_size, "grid": cw.shape[0],
              "rois": [[roi, d.weights.shape[0], d.lam] for roi, d in decs.items()]}
    arrays = [a for d in decs.values() for a in (d.weights, d.bias)]
    save_artifact(path, DECODER_MAGIC, header, arrays + [cw])


def load_shape_decoder(path) -> ShapeDecoder:
    with open_artifact(path, DECODER_MAGIC) as (header, arrays):
        g, rois, m = header["grid"], header["rois"], header["patch_size"]
        if type(g) is not int or type(m) is not int:
            raise DataError("grid %r and patch_size %r must be integers"
                            % (g, m))
        names = [roi for roi, _, _ in rois]
        if not names or len(set(names)) != len(names):
            raise DataError("rois must name one ROI or more, each once, got %r"
                            % (names,))
        check_shapes(arrays, [s for _, n, _ in rois for s in ((n, g * g), (g * g,))]
                     + [(g, g, len(rois))])
        w = [a.astype(np.float64) for a in arrays]
        return ShapeDecoder({roi: BaseShapeDecoder(roi, w[2 * i], w[2 * i + 1], g, lam)
                             for i, (roi, _, lam) in enumerate(rois)},
                            ShapeCombiner(names, w[-1]), m)
