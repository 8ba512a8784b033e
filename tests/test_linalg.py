import numpy as np
import pytest

from shapesem.errors import NumericalError
from shapesem.linalg import ridge_solve


def test_identity_design_returns_targets():
    b = np.random.default_rng(0).standard_normal((5, 3))
    w = ridge_solve(np.eye(5), b, 0.0)
    assert np.allclose(w, b, atol=1e-10)


def test_one_dimensional_normal_equation():
    a = np.array([[1.0], [2.0]])
    b = np.array([1.0, 2.0])
    w = ridge_solve(a, b, 0.0)
    assert w[0] == pytest.approx(1.0)


def test_large_lambda_shrinks_weights():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((30, 10))
    b = rng.standard_normal((30, 4))
    w = ridge_solve(a, b, 1e6)
    assert np.max(np.abs(w)) < 1e-3


def test_minimum_norm_on_rank_deficiency():
    # duplicated column: infinitely many solutions, min-norm splits evenly
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([2.0, 4.0])
    w = ridge_solve(a, b, 0.0)
    assert np.allclose(w, [1.0, 1.0], atol=1e-8)


def test_rejects_nonfinite():
    with pytest.raises(NumericalError):
        ridge_solve(np.array([[np.inf]]), np.array([1.0]), 0.0)


@pytest.mark.parametrize(
    "seed, zero_lam",
    [pytest.param(seed, False, id=str(seed)) for seed in range(10)]
    + [pytest.param(seed, True, id="lam0-%d" % seed) for seed in range(10)])
def test_normal_equation_residual(seed, zero_lam):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 200))
    d = int(rng.integers(2, 100))
    t = int(rng.integers(1, 5))
    lam = 0.0 if zero_lam else float(rng.uniform(0, 2.0))
    a = rng.standard_normal((n, d))
    b = rng.standard_normal((n, t))
    w = ridge_solve(a, b, lam)
    res = a.T @ (a @ w - b) + lam * w
    scale = max(1.0, np.abs(a.T @ b).max())
    assert np.max(np.abs(res)) / scale < 1e-4


def test_unregularized_full_rank_matches_normal_equations():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((120, 30))
    b = rng.standard_normal((120, 3))
    w = ridge_solve(a, b, 0.0)
    assert np.allclose(w, np.linalg.solve(a.T @ a, a.T @ b), rtol=0, atol=1e-10)


def test_one_dimensional_target_with_ridge():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((40, 6))
    b = rng.standard_normal(40)
    w = ridge_solve(a, b, 0.5)
    assert w.shape == (6,)
    assert np.allclose(w, ridge_solve(a, b[:, None], 0.5)[:, 0])
