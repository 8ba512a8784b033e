"""Regularized least-squares solver."""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NumericalError


def ridge_solve(a: np.ndarray, b: np.ndarray, lam: float = 0.0) -> np.ndarray:
    """Minimize ||A W - B||^2 + lam ||W||^2 for W (d x t).

    Solved through the normal equations with a Cholesky factorization; when
    lam == 0 and the Gram matrix is singular, falls back to the minimum-norm
    solution via lstsq.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NumericalError("ridge_solve requires finite inputs")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    gram = a.T @ a
    rhs = a.T @ b
    if lam > 0:
        gram = gram + lam * np.eye(a.shape[1])
        w = cho_solve(cho_factor(gram), rhs)
    else:
        # unregularized path must return the minimum-norm solution when A is
        # rank deficient; Cholesky on a singular Gram matrix is unreliable
        try:
            if np.linalg.cond(gram) > 1e12:
                raise np.linalg.LinAlgError
            w = cho_solve(cho_factor(gram), rhs)
        except np.linalg.LinAlgError:
            w = np.linalg.lstsq(a, b, rcond=None)[0]
    return w
