"""Dataset model, on-disk format, preprocessing and the synthetic cortex
simulator used as the verification oracle for the whole pipeline.

Directory layout::

    root/
      manifest.json     # ROI layout, categories, record table
      voxels.bin        # serial artifact "VOX1": one (n_voxels,) tensor per record
      stimuli/<id>.pgm  # binary P5, maxval 255, grayscale in [0,1]
      masks/<id>.pgm    # binary P5, values 0/255
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, LayoutError
from .nn import check_budget, check_fields
from .patches import extract_patch_features
from .serial import check_shapes, open_artifact, save_artifact

REQUIRED_ROIS = ("V1", "V2", "V3", "LOC", "FFA", "PPA")
LVC_ROIS = ("V1", "V2", "V3")
HVC_ROIS = ("LOC", "FFA", "PPA")
VOXEL_MAGIC = b"VOX1"


@dataclass(frozen=True)
class RoiLayout:
    """Ordered (roi_name, (start, stop)) voxel index ranges."""

    rois: tuple

    def __post_init__(self):
        names = [n for n, _ in self.rois]
        for req in REQUIRED_ROIS:
            if req not in names:
                raise LayoutError("missing required ROI %r" % req)
        if len(set(names)) != len(names):
            raise LayoutError("duplicate ROI names")
        spans = sorted((lo, hi) for _, (lo, hi) in self.rois)
        pos = 0
        for lo, hi in spans:
            if lo != pos or hi <= lo:
                raise LayoutError("ROI ranges must be disjoint and cover [0, n)")
            pos = hi
        object.__setattr__(self, "rois", tuple((n, (int(lo), int(hi)))
                                               for n, (lo, hi) in self.rois))

    @property
    def total_voxels(self) -> int:
        return max(hi for _, (_, hi) in self.rois)

    def members(self, set_name: str):
        """Expand an ROI-set name to its constituent ROIs."""
        if set_name == "LVC":
            return list(LVC_ROIS)
        if set_name == "HVC":
            return list(HVC_ROIS)
        if set_name == "VC":
            return list(REQUIRED_ROIS)
        if set_name in dict(self.rois):
            return [set_name]
        raise LayoutError("unknown ROI or ROI set %r" % set_name)

    def indices(self, set_name: str) -> np.ndarray:
        spans = dict(self.rois)
        idx = []
        for name in self.members(set_name):
            lo, hi = spans[name]
            idx.append(np.arange(lo, hi))
        return np.concatenate(idx)

    def matrix(self, records, set_name: str) -> np.ndarray:
        """One ROI set's voxels as an (n_records, n_voxels) matrix."""
        if not records:
            raise DataError("no records to read %s voxels from" % set_name)
        idx = self.indices(set_name)
        return np.stack([r.voxels[idx] for r in records])


@dataclass
class TrialRecord:
    stimulus_id: str
    category_id: int
    split: str  # "train" | "test"
    trial_index: int
    voxels: np.ndarray

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels, dtype=np.float32)
        if self.split not in ("train", "test"):
            raise DataError("bad split %r" % self.split)
        if not np.all(np.isfinite(self.voxels)):
            raise DataError("non-finite voxels in record %s" % self.stimulus_id)


@dataclass
class Dataset:
    layout: RoiLayout
    records: list
    stimuli: dict  # stimulus_id -> S x S float image in [0, 1]
    masks: dict  # stimulus_id -> S x S float binary mask
    category_names: list

    def __post_init__(self):
        n = self.layout.total_voxels
        seen = set()
        train_ids, test_ids = set(), set()
        for r in self.records:
            if len(r.voxels) != n:
                raise DataError("record %s has %d voxels, layout wants %d"
                                % (r.stimulus_id, len(r.voxels), n))
            key = (r.stimulus_id, r.split, r.trial_index)
            if key in seen:
                raise DataError("duplicate record %s" % (key,))
            seen.add(key)
            if r.stimulus_id not in self.stimuli:
                raise DataError("record %s has no stimulus image" % r.stimulus_id)
            if not 0 <= r.category_id < len(self.category_names):
                raise DataError("category id %d out of range" % r.category_id)
            (train_ids if r.split == "train" else test_ids).add(r.stimulus_id)
        if train_ids & test_ids:
            raise DataError("train and test stimulus sets overlap")

    @property
    def image_size(self) -> int:
        return next(iter(self.stimuli.values())).shape[0]

    @property
    def n_categories(self) -> int:
        return len(self.category_names)

    def split_records(self, split: str):
        return [r for r in self.records if r.split == split]


# -- PGM I/O ------------------------------------------------------------

def write_pgm(path, image: np.ndarray) -> None:
    """Write a [0,1] float image as binary P5, maxval 255, quantised in
    float64 a block of rows at a time rather than as a whole-image copy."""
    image = np.asarray(image)
    h, w = image.shape
    step = max(1, (1 << 16) // max(w, 1))
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        for lo in range(0, h, step):
            block = np.clip(image[lo : lo + step].astype(np.float64), 0.0, 1.0)
            fh.write(np.round(block * 255.0).astype(np.uint8).tobytes())


def read_pgm(path) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError("unreadable image %s: %s" % (path, exc))
    fields = []
    pos = 0
    while len(fields) < 4:
        if pos >= len(raw):
            raise DataError("truncated PGM header in %s" % path)
        if raw[pos : pos + 1] == b"#":
            pos = raw.find(b"\n", pos) + 1
            if pos == 0:
                raise DataError("truncated PGM header in %s" % path)
            continue
        end = pos
        while end < len(raw) and not raw[end : end + 1].isspace():
            end += 1
        if end > pos:
            fields.append(raw[pos:end])
        pos = end + 1
    if fields[0] != b"P5":
        raise DataError("%s is not a binary PGM" % path)
    try:
        w, h, maxval = (int(f) for f in fields[1:])
    except ValueError:
        raise DataError("non-numeric PGM header field in %s" % path) from None
    if w < 1 or h < 1:
        raise DataError("PGM size %dx%d in %s" % (w, h, path))
    if not 1 <= maxval <= 255:
        raise DataError("PGM maxval %d outside 1..255 in %s" % (maxval, path))
    px = np.frombuffer(raw[pos:], dtype=np.uint8)
    if px.size != w * h:
        raise DataError("PGM payload of %d bytes in %s, expected %d"
                        % (px.size, path, w * h))
    if maxval < 255 and px.max() > maxval:
        raise DataError("PGM pixel %d above maxval %d in %s"
                        % (px.max(), maxval, path))
    return (px.reshape(h, w).astype(np.float32) / maxval).astype(np.float32)


# -- save / load --------------------------------------------------------

def save_dataset(ds: Dataset, root) -> list:
    """Write ``ds`` under ``root``; returns the paths of the files written."""
    root = Path(root)
    (root / "stimuli").mkdir(parents=True, exist_ok=True)
    (root / "masks").mkdir(parents=True, exist_ok=True)
    manifest = {
        "rois": [[name, lo, hi] for name, (lo, hi) in ds.layout.rois],
        "categories": list(ds.category_names),
        "image_size": ds.image_size,
        "records": [
            {"stimulus_id": r.stimulus_id, "category_id": r.category_id,
             "split": r.split, "trial_index": r.trial_index}
            for r in ds.records
        ],
    }
    with open(root / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    save_artifact(root / "voxels.bin", VOXEL_MAGIC, {},
                  (r.voxels for r in ds.records))
    written = [root / "manifest.json", root / "voxels.bin"]
    for folder, images in (("stimuli", ds.stimuli), ("masks", ds.masks)):
        for sid, img in images.items():
            path = root / folder / (sid + ".pgm")
            write_pgm(path, img)
            written.append(path)
    return written


def _integers(what, *values):
    """TypeError unless every value is a JSON integer: a float, a bool or a
    string is not taken for one."""
    for v in values:
        if type(v) is not int:
            raise TypeError("%s: %r is not an integer" % (what, v))


def load_dataset(root) -> Dataset:
    root = Path(root)
    path = root / "manifest.json"
    try:
        with open(path) as fh:
            manifest = json.load(fh)
        rois = [(name, (lo, hi)) for name, lo, hi in manifest["rois"]]
        _integers("ROI bounds", *(b for _, span in rois for b in span))
        layout = RoiLayout(tuple(rois))
        meta = [(m["stimulus_id"], m["category_id"], m["split"],
                 m["trial_index"]) for m in manifest["records"]]
        if not meta:
            raise ValueError("no records")
        for sid, cat, split, trial in meta:
            if not isinstance(sid, str):
                raise TypeError("stimulus_id must be a string")
            if sid in ("", ".", "..") or set(sid) & set("/\\\0"):
                raise ValueError("stimulus_id %r is not a plain file name" % sid)
            _integers("category_id and trial_index", cat, trial)
            if split not in ("train", "test"):
                raise ValueError("bad split %r" % (split,))
        categories = manifest["categories"]
        if not (isinstance(categories, list)
                and all(isinstance(c, str) for c in categories)):
            raise TypeError("categories must be a list of strings")
        size = manifest["image_size"]
        _integers("image_size", size)
    except OSError as exc:
        raise DataError("cannot read manifest: %s" % exc)
    except LayoutError as exc:
        raise LayoutError("%s: %s" % (path, exc)) from None
    except (ValueError, TypeError, KeyError) as exc:
        raise DataError("%s: %s: %s" % (path, type(exc).__name__, exc)) from exc
    with open_artifact(root / "voxels.bin", VOXEL_MAGIC) as (_, rows):
        check_shapes(rows, [(layout.total_voxels,)] * len(meta))
    records = [TrialRecord(*m, voxels) for m, voxels in zip(meta, rows)]
    stimuli, masks = {}, {}
    for sid, *_ in meta:
        if sid in stimuli:
            continue
        for folder, images in (("stimuli", stimuli), ("masks", masks)):
            pgm = root / folder / (sid + ".pgm")
            img = images[sid] = read_pgm(pgm)
            if img.shape != (size, size):
                raise DataError("%s is %dx%d, but the manifest's image_size "
                                "is %d" % (pgm, img.shape[1], img.shape[0], size))
    try:
        return Dataset(layout, records, stimuli, masks, categories)
    except DataError as exc:
        raise DataError("%s: %s" % (path, exc)) from None


# -- preprocessing ------------------------------------------------------

def average_test_trials(ds: Dataset) -> Dataset:
    """Collapse repeated test trials of one stimulus into their mean."""
    groups = {}  # in the order of each stimulus's first test trial
    for r in ds.records:
        if r.split == "test":
            groups.setdefault(r.stimulus_id, []).append(r)
    new_records = [r for r in ds.records if r.split == "train"]
    for sid, trials in groups.items():
        mean = np.mean([t.voxels for t in trials], axis=0, dtype=np.float64)
        new_records.append(TrialRecord(sid, trials[0].category_id, "test", 0,
                                       mean.astype(np.float32)))
    return replace(ds, records=new_records)


def binarize_mask(image: np.ndarray) -> np.ndarray:
    """Threshold a [0,1] grayscale image to a {0,1} mask at its Otsu
    threshold on a 256-bin histogram.  A constant image yields an
    all-background mask and a RuntimeWarning rather than an error.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.min() < 0 or image.max() > 1:
        raise DataError("image values must lie in [0, 1]")
    if image.max() == image.min():
        warnings.warn("constant image: Otsu threshold yields empty mask",
                      RuntimeWarning)
        return np.zeros_like(image, dtype=np.float32)
    return (image >= otsu_threshold(image)).astype(np.float32)


def otsu_threshold(image: np.ndarray) -> float:
    """Threshold maximizing between-class variance of a 256-bin histogram."""
    hist, edges = np.histogram(np.asarray(image).ravel(), bins=256, range=(0.0, 1.0))
    p = hist.astype(np.float64) / hist.sum()
    centers = (edges[:-1] + edges[1:]) / 2.0
    omega = np.cumsum(p)
    mu = np.cumsum(p * centers)
    mu_t = mu[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma_b = (mu_t * omega - mu) ** 2 / (omega * (1.0 - omega))
    sigma_b[~np.isfinite(sigma_b)] = -1.0
    k = int(np.argmax(sigma_b))
    return float(edges[k + 1])


# -- synthetic simulator ------------------------------------------------

DEFAULT_VOXELS = {"V1": 500, "V2": 500, "V3": 500, "LOC": 400, "FFA": 400, "PPA": 400}
MAX_CATEGORIES = 30  # 3 template families x 10 size bands
HVC_SHAPE_LEAK = 0.1  # weight of the patch features in the HVC responses


@dataclass
class SyntheticConfig:
    image_size: int = 32
    patch_size: int = 8
    categories: int = 10
    n_train: int = 300
    n_test: int = 40
    train_trials: int = 1
    test_trials: int = 3
    voxels_per_roi: dict = field(default_factory=lambda: dict(DEFAULT_VOXELS))
    noise_sigma: float = 0.1  # the same in every ROI
    identical_shapes: bool = False
    seed: int = 0

    def __post_init__(self):
        check_fields(self, image_size=16, patch_size=1, categories=1,
                     n_train=1, n_test=1, train_trials=1, test_trials=1,
                     noise_sigma=0, seed=0)
        s = self.image_size
        if s & (s - 1):
            raise ConfigError("image_size must be a power of two, got %d" % s)
        if s % self.patch_size:
            raise ConfigError("patch_size must divide image_size, got %d"
                              % self.patch_size)
        if self.categories > MAX_CATEGORIES:
            raise ConfigError("categories must be <= %d" % MAX_CATEGORIES)
        for roi in REQUIRED_ROIS:
            count = self.voxels_per_roi.get(roi)
            if not isinstance(count, int) or count < 1:
                raise ConfigError("voxels_per_roi needs an integer %r >= 1, "
                                  "got %r" % (roi, count))
        # floats the simulator holds: the voxel maps, the voxel records, and
        # the stimuli with their masks, counted before any is allocated
        voxels = sum(self.voxels_per_roi[roi] for roi in REQUIRED_ROIS)
        records = self.n_train * self.train_trials + self.n_test * self.test_trials
        n = (voxels * (s // self.patch_size) ** 2 + records * voxels
             + 2 * (self.n_train + self.n_test) * s * s)
        check_budget(self, n, "floats", "image_size", "patch_size", "n_train",
                     "n_test", "train_trials", "test_trials", "voxels_per_roi")


@dataclass
class SimTruth:
    """Hidden ground-truth encoders, kept out of the Dataset on purpose."""

    lvc_maps: dict  # roi -> A (d x g^2)
    hvc_cat_maps: dict  # roi -> E (d x n_categories)
    hvc_shape_maps: dict  # roi -> F (d x g^2)
    patch_grids: dict  # stimulus_id -> g x g grid
    intensities: np.ndarray  # per-category foreground gray level


def _category_intensity(n: int) -> np.ndarray:
    if n == 1:
        return np.array([0.8])
    return 0.35 + 0.6 * np.arange(n) / (n - 1)


def _render_template(category: int, s: int, rng: np.random.Generator,
                     identical: bool) -> np.ndarray:
    """Raster one jittered shape template as a binary S x S mask."""
    c = 0 if identical else category
    family, band = c % 3, c // 3
    scale = (0.15 + 0.018 * band) * s
    scale *= rng.uniform(0.85, 1.15)
    aspect = rng.uniform(0.8, 1.2)
    cx = s / 2 + rng.uniform(-0.08, 0.08) * s
    cy = s / 2 + rng.uniform(-0.08, 0.08) * s
    yy, xx = np.mgrid[0:s, 0:s] + 0.5
    if family == 0:  # ellipse
        mask = ((xx - cx) / scale) ** 2 + ((yy - cy) / (scale * aspect)) ** 2 <= 1.0
    elif family == 1:  # rectangle
        mask = (np.abs(xx - cx) <= scale) & (np.abs(yy - cy) <= 0.8 * scale * aspect)
    else:  # upright isoceles triangle, enlarged to match the other areas
        a = 1.4 * scale
        h = 1.6 * a
        y0 = cy - h / 2
        inside = (yy >= y0) & (yy <= y0 + h)
        half_width = a * (yy - y0) / h
        mask = inside & (np.abs(xx - cx) <= half_width)
    return mask.astype(np.float32)


def simulate(config: SyntheticConfig):
    """Generate a synthetic dataset plus its hidden encoders.

    Voxel model: LVC ROIs respond linearly to the patch-feature vector p;
    HVC ROIs respond to the category one-hot plus a small shape leak.
    """
    rng = np.random.default_rng(config.seed)
    s, m = config.image_size, config.patch_size
    g2 = (s // m) ** 2
    ncat = config.categories
    sigma = float(config.noise_sigma)

    lvc_maps, hvc_cat_maps, hvc_shape_maps = {}, {}, {}
    for roi in LVC_ROIS:
        d = config.voxels_per_roi[roi]
        lvc_maps[roi] = (rng.standard_normal((d, g2)) / np.sqrt(g2)).astype(np.float32)
    for roi in HVC_ROIS:
        d = config.voxels_per_roi[roi]
        hvc_cat_maps[roi] = rng.standard_normal((d, ncat)).astype(np.float32)
        hvc_shape_maps[roi] = (rng.standard_normal((d, g2)) / np.sqrt(g2)).astype(np.float32)

    spans = []
    pos = 0
    for roi in REQUIRED_ROIS:
        d = config.voxels_per_roi[roi]
        spans.append((roi, (pos, pos + d)))
        pos += d
    layout = RoiLayout(tuple(spans))

    intensities = _category_intensity(ncat)
    stims = [("%s_%04d" % (split, i), split, i % ncat)
             for split, count in (("train", config.n_train), ("test", config.n_test))
             for i in range(count)]
    masks = {sid: _render_template(cat, s, rng, config.identical_shapes)
             for sid, _, cat in stims}
    stimuli = {sid: (masks[sid] * intensities[cat]).astype(np.float32)
               for sid, _, cat in stims}
    grids = extract_patch_features(np.stack(list(masks.values())), m)

    # noise-free response of every voxel to every stimulus, one product per
    # ROI; its float64 sums may round apart from per-stimulus products in
    # the last bits, which the float32 voxels do not keep
    p = grids.reshape(len(stims), -1).astype(np.float64)
    cats = [cat for _, _, cat in stims]
    means = np.concatenate([
        p @ lvc_maps[roi].astype(np.float64).T if roi in LVC_ROIS
        else (hvc_cat_maps[roi].T[cats].astype(np.float64)
              + HVC_SHAPE_LEAK * (p @ hvc_shape_maps[roi].astype(np.float64).T))
        for roi in REQUIRED_ROIS], axis=1)

    trials = {"train": config.train_trials, "test": config.test_trials}
    records = []
    for (sid, split, cat), mean in zip(stims, means):
        for t in range(trials[split]):
            noise = sigma * rng.standard_normal(len(mean)) if sigma > 0 else 0.0
            records.append(TrialRecord(sid, cat, split, t,
                                       (mean + noise).astype(np.float32)))

    ds = Dataset(layout, records, stimuli, masks,
                 ["category_%02d" % c for c in range(ncat)])
    truth = SimTruth(lvc_maps, hvc_cat_maps, hvc_shape_maps,
                     dict(zip(masks, grids)), np.asarray(intensities))
    return ds, truth
