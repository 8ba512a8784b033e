"""Regularized least-squares solver."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError


def ridge_solve(a: np.ndarray, b: np.ndarray, lam: float = 0.0) -> np.ndarray:
    """Minimize ||A W - B||^2 + lam ||W||^2 for W (d x t).

    For lam > 0, an LU solve of the normal equations; for lam == 0, the
    minimum-norm least-squares solution, which also covers a rank-deficient A.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NumericalError("ridge_solve requires finite inputs")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if lam == 0:
        return np.linalg.lstsq(a, b, rcond=None)[0]
    return np.linalg.solve(a.T @ a + lam * np.eye(a.shape[1]), a.T @ b)
