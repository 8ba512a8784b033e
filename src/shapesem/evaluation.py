"""SSIM metric, pairwise identification protocol, and experiment runners."""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, average_test_trials, write_pgm
from .errors import DataError, DimensionError
from .gan import (GanTrainConfig, build_discriminator, build_generator,
                  generate_batch, make_augmented_pairs, train)
from .patches import extract_patch_features, upsample_nearest
from .semantic import (SemanticNetConfig, accuracy, category_average,
                       semantic_features_batch, train_semantic)
from .serial import write_csv
from .shape_decoder import DEFAULT_LAMBDA, decode_shape_batch, fit_shape_decoder

# published win rates, kept in reports for orientation only, never asserted
REFERENCE_WIN_RATES = {
    "full": 0.653,
    "no_semantics": 0.625,
    "no_augmentation": 0.636,
}


# SSIM of Wang et al. 2004 (IEEE TIP 13(4)) on images in [0, 1]: an 11 x 11
# Gaussian window of sigma 1.5, K1 0.01 and K2 0.03
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    ax = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    w = np.outer(g, g)
    return w / w.sum()


_PAIR_CHUNK = 256  # image pairs per float64 block of cross terms


@functools.lru_cache(maxsize=8)
def _band(size: int) -> np.ndarray:
    """(size - SSIM_WINDOW + 1, size) rows of the normalised 1-D Gaussian at
    every valid offset, so that ``band @ x @ band.T`` is the windowed mean of
    x."""
    if SSIM_WINDOW > size:
        raise DimensionError("image side %d is below the SSIM window" % size)
    g = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA).sum(axis=0)
    band = np.zeros((size - SSIM_WINDOW + 1, size))
    for r in range(len(band)):
        band[r, r : r + SSIM_WINDOW] = g
    band.flags.writeable = False  # cached and shared by every caller
    return band


def _filter(stack: np.ndarray) -> np.ndarray:
    """Windowed means of each image of an (n, H, W) stack: one small gemm per
    image and side, so no result depends on its position in the stack."""
    _, h, w = stack.shape
    return _band(h) @ stack @ _band(w).T


def _ssim_pairs(a, b, i, j) -> np.ndarray:
    """Mean SSIM of a[i[k]] against b[j[k]] for every k: local means and
    variances once per image, per pair only the cross term, in chunks."""
    if a.shape[1:] != b.shape[1:]:
        raise DimensionError("ssim inputs differ: %s vs %s" % (a.shape[1:], b.shape[1:]))
    mu_a, mu_b = _filter(a), _filter(b)
    var_a = _filter(a * a) - mu_a ** 2
    var_b = _filter(b * b) - mu_b ** 2
    out = np.empty(len(i))
    for lo in range(0, len(i), _PAIR_CHUNK):
        ii, jj = i[lo : lo + _PAIR_CHUNK], j[lo : lo + _PAIR_CHUNK]
        ma, mb = mu_a[ii], mu_b[jj]
        cov = _filter(a[ii] * b[jj]) - ma * mb
        num = (2 * ma * mb + SSIM_C1) * (2 * cov + SSIM_C2)
        den = ((ma ** 2 + mb ** 2 + SSIM_C1)
               * (var_a[ii] + var_b[jj] + SSIM_C2))
        out[lo : lo + len(ii)] = (num / den).mean(axis=(1, 2))
    return out


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structural similarity over sliding Gaussian windows."""
    a, b = (np.asarray(x, dtype=np.float64)[None] for x in (a, b))
    return float(_ssim_pairs(a, b, [0], [0])[0])


@dataclass
class EvalReport:
    per_image_ssim: list
    run_win_rates: list
    mean_win_rate: float


def pairwise_win_rate(recons, ground_truths, runs: int = 5,
                      seed: int = 0) -> EvalReport:
    """Two-alternative identification: a reconstruction wins when it is more
    similar to its own ground truth than to a random other test image."""
    if len(recons) != len(ground_truths) or len(recons) < 2:
        raise DataError("need aligned lists with at least 2 images")
    if runs < 1:
        raise DataError("runs must be >= 1, got %d" % runs)
    n = len(recons)
    idx = np.arange(n)
    # pair keys i * n + j: row 0 the own pairs, row r + 1 run r's distractors,
    # drawn in one sized call that yields the same values as n scalar draws
    keys = [idx * (n + 1)]
    for run in range(runs):
        j = np.random.default_rng([seed, run]).integers(n - 1, size=n)
        keys.append(idx * n + j + (j >= idx))
    pairs, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    a, b = (np.asarray(x, dtype=np.float64) for x in (recons, ground_truths))
    scores = _ssim_pairs(a, b, pairs // n, pairs % n)
    own, other = np.split(scores[inverse].reshape(runs + 1, n), [1])
    wins = ((own > other) + 0.5 * (own == other)).sum(axis=1)
    run_rates = [float(w) / n for w in wins]
    return EvalReport(own[0].tolist(), run_rates, float(np.mean(run_rates)))


# -- pipeline stages over whole record lists ----------------------------

def decode_records(shape_dec, sem_net, records, layout):
    """(n, S, S) decoded shapes and (n, d) semantic features of the records;
    the features are None when there is no semantic net."""
    shapes = decode_shape_batch(shape_dec, records, layout)
    if sem_net is None:
        return shapes, None
    return shapes, semantic_features_batch(sem_net, records, layout)


def fit_gan(ds: Dataset, shape_dec, sem_net, gan_config: GanTrainConfig,
            augment_images=None):
    """Train the GAN on (decoded shape, semantics, stimulus) pairs of the
    training records, plus one pair per augmentation image (image,
    category_id) of a category that has training records, its shape taken
    at the shape decoder's patch size.  The GAN's ``semantic_dim`` is the semantic net's
    ``hidden2``, or 0 without a net, whatever ``gan_config`` says.  Returns
    (generator, loss log); the discriminator only serves training."""
    gan_config = replace(gan_config,
                         semantic_dim=sem_net.config.hidden2 if sem_net else 0)
    records = ds.split_records("train")
    shapes, sems = decode_records(shape_dec, sem_net, records, ds.layout)
    pairs = list(zip(shapes, [None] * len(records) if sems is None else sems,
                     [ds.stimuli[r.stimulus_id] for r in records]))
    if augment_images:
        labels = [r.category_id for r in records]
        averages = (dict.fromkeys(labels) if sems is None
                    else category_average(sems, labels))
        pairs.extend(make_augmented_pairs(augment_images, averages,
                                          shape_dec.patch_size))
    gen = build_generator(gan_config)
    return gen, train(gen, build_discriminator(gan_config), pairs, gan_config)


def reconstruct_records(generator, shape_dec, sem_net, records, layout):
    """Decode and render every record; returns (shapes, reconstructions),
    each (n, S, S).  ``sem_net`` is None for an unconditioned generator."""
    shapes, sems = decode_records(shape_dec, sem_net, records, layout)
    return shapes, generate_batch(generator, shapes, sems)


def projected_masks(ds: Dataset, records, m: int) -> np.ndarray:
    """(n, S, S): each record's mask averaged over m x m patches and
    replicated back to S x S, the shape-identification target at the
    decoder's resolution."""
    masks = np.stack([ds.masks[r.stimulus_id] for r in records])
    return upsample_nearest(extract_patch_features(masks, m), m)


# -- experiment runners -------------------------------------------------

def _holdout_validation(ds: Dataset, n_validation: int = 40) -> Dataset:
    """Move the last ``n_validation`` training stimuli into the test split,
    dropping the original test records."""
    train = ds.split_records("train")
    train_ids = list(dict.fromkeys(r.stimulus_id for r in train))
    if len(train_ids) <= n_validation:
        raise DataError("not enough training stimuli to reserve %d" % n_validation)
    held = set(train_ids[-n_validation:])
    return replace(ds, records=[replace(r, split="test") if r.stimulus_id in held
                                else r for r in train])


def roi_ablation(ds: Dataset, roi_sets=("V1", "V2", "V3", "LVC", "HVC", "VC"),
                 n_validation: int = 40, shape_lambda: float = DEFAULT_LAMBDA,
                 patch_size: int = 8, seed: int = 0, runs: int = 5,
                 semantic_config: SemanticNetConfig | None = None):
    """Shape win-rate and semantic accuracy per ROI set on held-out samples.
    Each set's classifier is ``semantic_config`` with that set's voxel count
    as ``in_dim``, or by default ``train_semantic``'s own."""
    if not roi_sets:
        raise DataError("roi_sets must be nonempty")
    ds2 = _holdout_validation(ds, n_validation)
    val = ds2.split_records("test")
    gts = projected_masks(ds2, val, patch_size)
    table = []
    for roi_set in roi_sets:
        members = ds2.layout.members(roi_set)
        dec = fit_shape_decoder(ds2, members, shape_lambda, patch_size)
        shapes, _ = decode_records(dec, None, val, ds2.layout)
        report = pairwise_win_rate(shapes, gts, runs=runs, seed=seed)
        sem_cfg = None if semantic_config is None else replace(
            semantic_config, in_dim=len(ds2.layout.indices(roi_set)))
        net = train_semantic(ds2, sem_cfg, roi_set=roi_set, seed=seed)
        table.append({
            "roi_set": roi_set,
            "shape_win_rate": report.mean_win_rate,
            "semantic_accuracy": accuracy(net, ds2, val),
        })
    return table


@dataclass
class PipelineResult:
    mode: str
    shape_decoder: object
    semantic_net: object
    generator: object
    loss_log: list
    reconstructions: list
    test_records: list
    report: EvalReport


def run_pipeline(ds: Dataset, gan_config: GanTrainConfig, mode: str = "full",
                 shape_lambda: float = DEFAULT_LAMBDA, patch_size: int = 8,
                 semantic_config: SemanticNetConfig | None = None,
                 augment_images=None, runs: int = 5) -> PipelineResult:
    """Train all stages on one dataset and evaluate on the averaged test set.

    ``mode``: full | no_semantics.  ``augment_images`` is a list of (image,
    category_id) used for GAN data augmentation; without it the GAN trains
    on the voxel records alone.
    """
    if mode not in ("full", "no_semantics"):
        raise DataError("unknown mode %r" % mode)
    ds = average_test_trials(ds)
    test_recs = ds.split_records("test")
    shape_dec = fit_shape_decoder(ds, lam=shape_lambda, m=patch_size)
    sem_net = train_semantic(ds, semantic_config, roi_set="HVC",
                             seed=gan_config.seed) if mode == "full" else None
    gen, loss_log = fit_gan(ds, shape_dec, sem_net, gan_config, augment_images)

    _, recons = reconstruct_records(gen, shape_dec, sem_net, test_recs, ds.layout)
    gts = [ds.stimuli[r.stimulus_id] for r in test_recs]
    report = pairwise_win_rate(recons, gts, runs=runs, seed=gan_config.seed)
    return PipelineResult(mode, shape_dec, sem_net, gen, loss_log,
                          list(recons), test_recs, report)


# -- reports ------------------------------------------------------------

def write_report_csv(path, rows) -> None:
    """Rows of (metric, label, run, value), then the published win rates."""
    write_csv(path, ["metric", "label", "run", "value"],
              list(rows) + [("reference_win_rate", label, "", value)
                            for label, value in REFERENCE_WIN_RATES.items()])


def report_rows(report: EvalReport, label: str):
    rows = [("win_rate", label, i, r) for i, r in enumerate(report.run_win_rates)]
    rows.append(("mean_win_rate", label, "", report.mean_win_rate))
    rows.extend(("ssim", label, i, s) for i, s in enumerate(report.per_image_ssim))
    return rows


def write_montage(path, triplets) -> None:
    """Grid of (ground truth, decoded shape, reconstruction) rows as one PGM."""
    if not triplets:
        raise DataError("no triplets to render")
    s = np.asarray(triplets[0][0]).shape[0]
    gap = 2
    rows = len(triplets)
    canvas = np.ones((rows * s + (rows - 1) * gap, 3 * s + 2 * gap), dtype=np.float32)
    for r, triple in enumerate(triplets):
        for c, img in enumerate(triple):
            y0 = r * (s + gap)
            x0 = c * (s + gap)
            canvas[y0 : y0 + s, x0 : x0 + s] = np.clip(img, 0.0, 1.0)
    write_pgm(path, canvas)
