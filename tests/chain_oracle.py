"""Exact-path oracle for the Metropolis-Hastings transition.

``samplers._transition`` rejects an informed proposal on a bound when it
can, without the scan at the proposed state, remembers the proposal and the
bound, and draws proposals by bisecting a list of cumulative weights.  The
functions here are the transition as it was written before those changes:
every fresh proposal is worked out with ``_move``, reverse scan and all,
the proposal index comes from ``np.searchsorted`` on the array of
cumulative weights, and a stay remembers only ``(log pi(y), log alpha)`` of
each rejected move, in a dict of its own.  The library's chains must make
the same moves with the same random draws.
"""

from __future__ import annotations

import math

import numpy as np

from discretemh.core import philox_rng
from discretemh.samplers import _move, scan_at


def searchsorted_index(rng, cdf: np.ndarray) -> int:
    """The proposal index drawn from the cumulative weights ``cdf``."""
    u = rng.random() * cdf[-1]
    return min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)


class Stay:
    """What the oracle knows at the current state: its scan, the array of
    cumulative proposal weights and the rejected moves."""

    def __init__(self, sx):
        self.sx = sx
        self.cdf = None if sx.log_q is None else np.cumsum(np.exp(sx.log_q))
        self.rejected = {}


def exact_transition(target, x, x_log_pi, stay, spec, rng, stats=None):
    """The next state, its log pi, the accepted and lazy-stay flags, and
    what the oracle knows at the next state."""
    if spec.lazy and rng.random() < 0.5:
        return x, x_log_pi, False, True, stay
    if stay is None:
        stay = Stay(scan_at(target, x, x_log_pi, spec, stats))
    sx = stay.sx
    if stay.cdf is None:
        j = int(rng.integers(len(sx.neighbors)))
    else:
        j = searchsorted_index(rng, stay.cdf)
    y = sx.neighbors[j]
    remembered = stay.rejected.get(j)
    if remembered is None:
        lp_y, sy, log_alpha, _ = _move(target, sx, j, y, spec)
    else:
        (lp_y, log_alpha), sy = remembered, None

    if log_alpha >= 0:
        accepted = True
    else:
        accepted = math.log(rng.random()) < log_alpha if log_alpha > -math.inf else False
    if accepted:
        if sy is None:
            sy = _move(target, sx, j, y, spec)[1]
        return y, lp_y, True, False, Stay(sy)
    if remembered is None:
        stay.rejected[j] = (lp_y, log_alpha)
    return x, x_log_pi, False, False, stay


def exact_chain(target, init, spec, n_steps, seed) -> dict:
    """``n_steps`` exact transitions from ``init`` in ``run_chain``'s draw
    order: the states, their log pis and the per-step flags."""
    rng = philox_rng(seed)
    stats = None if target.stats_at is None else target.stats_at(init)
    x = init
    lp = target.log_pi(x) if stats is None else stats.log_posterior()
    out = {"states": [x], "log_pis": [lp], "accepted": [], "lazy_stays": []}
    stay = None
    for _ in range(n_steps):
        x, lp, accepted, lazy_stay, stay = exact_transition(
            target, x, lp, stay, spec, rng, stats if stay is None else None
        )
        out["states"].append(x)
        out["log_pis"].append(lp)
        out["accepted"].append(accepted)
        out["lazy_stays"].append(lazy_stay)
    return out
