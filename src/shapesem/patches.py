"""Contrast-defined patch features: block averages over m x m pixel patches."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def extract_patch_features(image: np.ndarray, m: int) -> np.ndarray:
    """Average non-overlapping m x m blocks of the last two axes of a
    (..., S, S) image stack -> (..., g, g) grids.

    Row-major flattening of a grid defines the shape vector fed to the
    decoders.
    """
    image = np.asarray(image, dtype=np.float64)
    s = image.shape[-1]
    if m < 1 or image.shape[-2:] != (s, s) or s % m:
        raise ConfigError("patch_size %d must be a positive divisor of the "
                          "image size %s" % (m, image.shape[-2:]))
    g = s // m
    blocks = image.reshape(image.shape[:-2] + (g, m, g, m))
    return blocks.mean(axis=(-3, -1)).astype(np.float32)


def upsample_nearest(grid: np.ndarray, m: int) -> np.ndarray:
    """Block-replicate the last two axes of a (..., g, g) grid to g*m."""
    grid = np.asarray(grid, dtype=np.float32)
    return np.repeat(np.repeat(grid, m, axis=-2), m, axis=-1)
