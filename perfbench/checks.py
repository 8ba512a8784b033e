"""Correctness checks made apart from the package.

Each check recomputes a figure independently (direct-summation SSIM, the
ridge normal equations, a PGM parser, sha256) or tests a property the
method must have.  A failed check appends a message to ``Checks.failures``;
the run then reports ``"correct": false``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np


class Checks:
    def __init__(self):
        self.failures = []
        self.passed = 0

    def expect(self, ok, message):
        if ok:
            self.passed += 1
        else:
            self.failures.append(message)
        return ok


def direct_ssim(a, b, size=11, sigma=1.5, k1=0.01, k2=0.03, dynamic_range=1.0):
    """Mean SSIM by summing each window offset's weighted contribution."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    g = [math.exp(-((i - (size - 1) / 2.0) ** 2) / (2.0 * sigma * sigma))
         for i in range(size)]
    total = sum(g) ** 2
    oh, ow = a.shape[0] - size + 1, a.shape[1] - size + 1
    mu_a, mu_b, ea2, eb2, eab = (np.zeros((oh, ow)) for _ in range(5))
    for i in range(size):
        for j in range(size):
            w = g[i] * g[j] / total
            pa = a[i:i + oh, j:j + ow]
            pb = b[i:i + oh, j:j + ow]
            mu_a += w * pa
            mu_b += w * pb
            ea2 += w * pa * pa
            eb2 += w * pb * pb
            eab += w * pa * pb
    c1 = (k1 * dynamic_range) ** 2
    c2 = (k2 * dynamic_range) ** 2
    var_a = ea2 - mu_a ** 2
    var_b = eb2 - mu_b ** 2
    cov = eab - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def check_ssim(checks, ssim, recons, gts, rng):
    """evaluation.ssim against direct summation on sampled (own, other)
    pairs, and ssim(a, a) == 1."""
    n = len(recons)
    worst = 0.0
    for _ in range(3):
        i, j = (int(k) for k in rng.integers(n, size=2))
        for a, b in ((recons[i], gts[i]), (recons[i], gts[j])):
            worst = max(worst, abs(ssim(a, b) - direct_ssim(a, b)))
    checks.expect(worst <= 1e-6, "ssim differs from direct summation by %.3g"
                  % worst)
    i = int(rng.integers(n))
    checks.expect(ssim(gts[i], gts[i]) == 1.0, "ssim(a, a) != 1")


def block_means(mask, m):
    s = mask.shape[0]
    g = s // m
    out = np.zeros((g, g))
    for i in range(g):
        for j in range(g):
            out[i, j] = mask[i * m:(i + 1) * m, j * m:(j + 1) * m].mean()
    return out.reshape(-1)


def check_ridge(checks, decoder, ds):
    """Each base decoder solves (Xc'Xc + lam_eff I) W = Xc'Pc, with Xc the
    centred training voxels and Pc the centred patch-grid targets, to a
    relative residual of at most 1e-4, and its bias is p_mean - x_mean W."""
    train = [r for r in ds.records if r.split == "train"]
    spans = dict(ds.layout.rois)
    p = np.stack([block_means(np.asarray(ds.masks[r.stimulus_id], np.float64),
                              decoder.patch_size) for r in train])
    pc = p - p.mean(axis=0)
    for roi, base in decoder.decoders.items():
        lo, hi = spans[roi]
        x = np.stack([r.voxels[lo:hi] for r in train]).astype(np.float64)
        x_mean = x.mean(axis=0)
        xc = x - x_mean
        gram = xc.T @ xc
        lam_eff = base.lam * np.trace(gram) / xc.shape[1]
        rhs = xc.T @ pc
        resid = (gram + lam_eff * np.eye(gram.shape[0])) @ base.weights - rhs
        rel = np.linalg.norm(resid) / np.linalg.norm(rhs)
        checks.expect(rel <= 1e-4, "ridge residual %.3g for %s" % (rel, roi))
        bias_err = np.max(np.abs(base.bias - (p.mean(axis=0) - x_mean @ base.weights)))
        checks.expect(bias_err <= 1e-4, "bias mismatch %.3g for %s"
                      % (bias_err, roi))


def check_images(checks, images, what):
    arr = np.asarray(images, dtype=np.float64)
    checks.expect(bool(np.all(np.isfinite(arr))), "%s not finite" % what)
    checks.expect(bool(arr.min() >= 0.0 and arr.max() <= 1.0),
                  "%s outside [0, 1]" % what)


def check_loss_log(checks, log):
    vals = [row[k] for row in log for k in ("d_loss", "g_adv", "g_l1", "g_total")]
    checks.expect(bool(np.all(np.isfinite(vals))), "non-finite GAN loss")
    checks.expect(log[-1]["g_l1"] < log[0]["g_l1"],
                  "g_l1 did not fall: %r -> %r" % (log[0]["g_l1"], log[-1]["g_l1"]))


def mean_abs_error(recons, gts):
    a = np.asarray(recons, dtype=np.float64)
    b = np.asarray(gts, dtype=np.float64)
    return float(np.mean(np.abs(a - b)))


def read_pgm(path):
    """Binary P5 with maxval 255 and no comments, as the package writes it."""
    with open(path, "rb") as fh:
        magic, dims, maxval, payload = fh.read().split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError("unexpected PGM header in %s" % path)
    w, h = (int(v) for v in dims.split())
    if len(payload) != w * h:
        raise ValueError("PGM payload of %s is %d bytes, not %d"
                         % (path, len(payload), w * h))
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w) / 255.0


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def check_manifest(checks, out_dir, subcommand):
    """Every artifact listed in run_manifest_<cmd>.json hashes as listed.
    Returns the artifact table, for comparing repeated runs."""
    path = os.path.join(out_dir, "run_manifest_%s.json" % subcommand.replace("-", "_"))
    with open(path) as fh:
        artifacts = json.load(fh)["artifacts"]
    bad = [rel for rel, digest in artifacts.items()
           if sha256(os.path.join(out_dir, rel)) != digest]
    checks.expect(bool(artifacts) and not bad, "%s: sha256 mismatch for %s"
                  % (subcommand, bad[:3] or "empty manifest"))
    return artifacts


def read_report(path):
    """Row count per metric of a (metric, label, run, value) report CSV."""
    counts = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            float(row["value"])
            counts[row["metric"]] = counts.get(row["metric"], 0) + 1
    return counts
