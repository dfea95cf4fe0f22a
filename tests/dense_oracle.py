"""Dense oracle for the sparse chain operator.

The library keeps one CSR transition matrix per chain and reads gaps,
restricted gaps, congestion and drift from it with Lanczos iterations,
triangular solves and sparse mat-vecs.  The functions here redo each of
those on the n x n dense matrix, the way the library computed them before:
dense assembly, full symmetric eigensolves, a null-space projection for the
restricted gap, an explicit visit matrix for the congestion DP and matrix
powers for mixing times.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh, null_space
from scipy.special import logsumexp

from discretemh.core import tabulate
from discretemh.samplers import RANDOM_WALK, log_clip_weight, log_mh_ratio


def dense_matrix(target, spec, states) -> np.ndarray:
    """The n x n transition matrix, assembled densely from the table."""
    space = tabulate(target, states)
    n = len(space)
    i, k = np.nonzero(space.nbr >= 0)
    j = space.nbr[i, k]
    if spec.family == RANDOM_WALK:
        log_k = -np.log(space.deg)
        fwd, rev = log_k[i], log_k[j]
    else:
        nbr_lp = np.where(space.nbr >= 0, space.log_pis[space.nbr], -np.inf)
        log_w = log_clip_weight(nbr_lp - space.log_pis[:, None], spec.ell, spec.big_l)
        log_w[np.arange(log_w.shape[1]) >= space.deg[:, None]] = -np.inf
        log_q = log_w - logsumexp(log_w, axis=1)[:, None]
        fwd, rev = log_q[i, k], log_q[j, space.rev[i, k]]
    log_alpha = log_mh_ratio(space.log_pis[i], space.log_pis[j], fwd, rev)
    P = np.zeros((n, n))
    P[i, j] = np.exp(fwd + np.minimum(0.0, log_alpha))
    P[np.arange(n), np.arange(n)] = np.maximum(1.0 - P.sum(axis=1), 0.0)
    if spec.lazy:
        P = 0.5 * (P + np.eye(n))
    return P


def symmetrized(P: np.ndarray) -> np.ndarray:
    s = np.sqrt(P * P.T)
    np.fill_diagonal(s, np.diag(P))
    return s


def spectrum(P: np.ndarray) -> np.ndarray:
    """Every eigenvalue of the pi-symmetrized matrix, ascending."""
    return eigh(symmetrized(P), eigvals_only=True)


def restricted_gap(P: np.ndarray, pi: np.ndarray, idx) -> float:
    """Restricted gap on the positions ``idx`` by projecting out sqrt(pi)."""
    idx = np.asarray(idx)
    idx = idx[pi[idx] > 0.0]
    pi0 = pi[idx]
    s0 = np.sqrt(pi0)
    sub = P[np.ix_(idx, idx)]
    a_mat = np.diag(sub.sum(axis=1)) - symmetrized(sub)
    q = null_space(s0[None, :])
    return float(np.linalg.eigvalsh(q.T @ a_mat @ q)[0] / pi0.sum())


def congestion_dp(fg, q: float, P: np.ndarray) -> float:
    """A_exact of the flow graph with the visit matrix R = (I - T)^-1 formed
    explicitly."""
    chain = fg.chain
    k = fg.n_live
    t = fg.t_mat.toarray()
    lp = chain.log_pis
    log_norm = logsumexp(lp)
    pos = {i: p for p, i in enumerate(fg.live)}
    w_mat = np.zeros((k, k))
    for a, b in fg.edges:
        w_mat[pos[a], pos[b]] = math.exp(-q * (lp[a] - log_norm))
    wt = w_mat * t
    r_visit = np.linalg.solve(np.eye(k) - t, np.eye(k))
    m_vec = r_visit @ wt.sum(axis=1)
    a_len = r_visit @ wt @ r_visit
    pis = chain.pi[fg.live]
    alpha = pis * (pis.sum() - pis)
    beta = pis * (pis @ m_vec - pis * m_vec)
    s_alpha_r, s_alpha_a, s_beta_r = alpha @ r_visit, alpha @ a_len, beta @ r_visit
    worst = 0.0
    for a, b in fg.edges:
        ap, bp = pos[a], pos[b]
        w = w_mat[ap, bp]
        l_e = t[ap, bp] * ((w + m_vec[bp]) * s_alpha_r[ap] + s_alpha_a[ap] + s_beta_r[ap])
        for tail, head in ((a, b), (b, a)):
            worst = max(worst, l_e / (chain.pi[tail] * P[tail, head] * w))
    return worst


def drift_lambda(P: np.ndarray, log_pis: np.ndarray) -> float:
    """Largest (P V)(x) / V(x) over non-mode states, V = pi^(1/log pi_min)."""
    lp = log_pis - logsumexp(log_pis)
    v = np.exp(lp / lp.min())
    ratios = (P @ v) / v
    ratios[np.argmax(lp)] = -np.inf
    return float(ratios.max())


def tv_at(P: np.ndarray, pi: np.ndarray, i: int, t: int) -> float:
    return 0.5 * float(np.abs(np.linalg.matrix_power(P, t)[i] - pi).sum())


def first_time(tv, epsilon: float, t_cap: int = 1_000_000) -> int | None:
    """First t with ``tv(t)`` at most epsilon, by doubling then bisection."""
    if tv(0) <= epsilon:
        return 0
    hi = 1
    while tv(hi) > epsilon:
        hi *= 2
        if hi > t_cap:
            return None
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if tv(mid) <= epsilon else (mid, hi)
    return hi


def tau(P: np.ndarray, pi: np.ndarray, i: int, epsilon: float) -> int | None:
    """Mixing time from position ``i`` over matrix powers."""
    return first_time(lambda t: tv_at(P, pi, i, t), epsilon)


def mixing_time(P: np.ndarray, pi: np.ndarray, epsilon: float) -> int | None:
    """Worst-case mixing time over all initial states."""
    return first_time(
        lambda t: float((0.5 * np.abs(np.linalg.matrix_power(P, t) - pi).sum(axis=1)).max()),
        epsilon,
    )
