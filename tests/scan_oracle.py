"""Wrapper-based oracle for the varsel single-flip scan.

``varsel._n1_scan`` calls LAPACK's ``trtrs``/``potrs`` directly and solves
``L z = X'y`` once.  The function here is the scan as it was written on
scipy's checked wrappers (``solve_triangular``, ``cho_solve``), with the
second solve for ``z``; the library's scan must match it bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from discretemh.varsel import (SingularModel, _fresh_chol, _log_post_from_r2, log_posterior,
                               neighbors)


def wrapper_scan(data, hyper, delta, cap, hard):
    """Neighbors of ``delta`` and their log posteriors, through the wrappers."""
    gram, xty, yty = data.gram, data.xty, data.yty
    ns = neighbors(delta, "n1", s_max=cap, hard=hard)
    d = np.array(delta, dtype=bool)
    active = np.flatnonzero(d).tolist()
    size = len(active)
    try:
        chol = _fresh_chol(data, active)
    except SingularModel:
        return ns, np.array([log_posterior(data, hyper, m) for m in ns])
    explained = 0.0
    if size:
        z = solve_triangular(chol, xty[active], lower=True)
        explained = float(z @ z)
    expl = np.full(data.p, -np.inf)
    inactive = np.flatnonzero(~d)
    if len(inactive):
        if size:
            w = solve_triangular(chol, gram[np.ix_(active, inactive)], lower=True)
            z = solve_triangular(chol, xty[active], lower=True)  # solved a second time
            d2 = np.diag(gram)[inactive] - np.einsum("ij,ij->j", w, w)
            num = xty[inactive] - w.T @ z
        else:
            d2 = np.diag(gram)[inactive].astype(float)
            num = xty[inactive].astype(float)
        ok = d2 > data.pivot_tol
        gain = np.divide(num**2, d2, out=np.zeros_like(d2), where=ok)
        expl[inactive] = np.where(ok, explained + gain, -np.inf)
    if size:
        inv = cho_solve((chol, True), np.eye(size))
        beta = inv @ xty[active]
        expl[active] = explained - beta**2 / np.diag(inv)
    s_max = data.p if hyper.s_max is None else hyper.s_max
    expl = expl[ns.coords]
    new_size = np.where(d[ns.coords], size - 1, size + 1)
    ok = (expl != -np.inf) & (new_size <= s_max) & (new_size <= data.n)
    lps = np.full(len(ns), -np.inf)
    r2 = np.minimum(np.maximum(expl[ok] / yty, 0.0), 1.0)
    lps[ok] = _log_post_from_r2(data, hyper, new_size[ok], r2)
    return ns, lps
