"""Plain oracle for varsel data generation.

``varsel.covariance_matrix`` takes one ``exp`` per lag, and
``varsel._design_factor`` factors a scaled covariance and zeroes the
entries below ``varsel._FACTOR_FLOOR``.  Here the covariance takes one
``exp`` per entry, the factor is a plain Cholesky factor (with subnormal
entries at p=500 for the ``moderate`` kind), and the design product uses
that factor as it is; the fast path is checked against them bit for bit.
"""

from __future__ import annotations

import numpy as np

from discretemh.core import philox_rng
from discretemh.varsel import default_signal


def plain_covariance(p: int, kind: str) -> np.ndarray:
    idx = np.arange(p)
    diff = np.abs(idx[:, None] - idx[None, :])
    sigma = np.exp(-2.0 * diff) if kind == "moderate" else np.exp(-diff / 4.0)
    np.fill_diagonal(sigma, 1.0)
    return sigma


def plain_factor(p: int, kind: str) -> np.ndarray:
    return np.linalg.cholesky(plain_covariance(p, kind))


def zeroed(chol: np.ndarray, floor: float) -> np.ndarray:
    """``chol`` with its entries below ``floor`` in magnitude set to zero."""
    chol = chol.copy()
    chol[np.abs(chol) < floor] = 0.0
    return chol


def plain_statistics(p: int, n: int, kind: str, seed) -> tuple[np.ndarray, np.ndarray, float]:
    """Gram matrix, X'y and y'y of ``varsel.generate_data(p, n, kind, seed)``
    with the default signal, drawn through the plain factor."""
    rng = philox_rng(seed)
    x = rng.standard_normal((n, p)) @ plain_factor(p, kind).T
    y = x @ default_signal(p, n) + rng.standard_normal(n)
    return x.T @ x, x.T @ y, float(y @ y)
