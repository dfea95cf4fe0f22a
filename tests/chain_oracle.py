"""Exact-path oracle for the Metropolis-Hastings transition.

``samplers._transition`` rejects an informed proposal on a bound when it
can, without the scan at the proposed state.  The functions here are the
transition as it was written before that test: every fresh proposal is
worked out with ``_move``, reverse scan and all.  The library's chains must
make the same moves with the same random draws.
"""

from __future__ import annotations

import math

from discretemh.core import philox_rng
from discretemh.samplers import _move, _sample_index, scan_at


def exact_transition(target, x, x_log_pi, sx, spec, rng, stats=None):
    """The next state, its log pi, the accepted and lazy-stay flags, and the
    scan at the next state."""
    if spec.lazy and rng.random() < 0.5:
        return x, x_log_pi, False, True, sx
    if sx is None:
        sx = scan_at(target, x, x_log_pi, spec, stats)
    if sx.log_q is None:
        j = int(rng.integers(len(sx.neighbors)))
    else:
        j = _sample_index(rng, sx.cdf)
    y = sx.neighbors[j]
    remembered = sx.moves.get(j)
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
        return y, lp_y, True, False, sy
    if remembered is None:
        sx.moves[j] = (lp_y, log_alpha)
    return x, x_log_pi, False, False, sx


def exact_chain(target, init, spec, n_steps, seed) -> dict:
    """``n_steps`` exact transitions from ``init`` in ``run_chain``'s draw
    order: the states, their log pis and the per-step flags."""
    rng = philox_rng(seed)
    stats = None if target.stats_at is None else target.stats_at(init)
    x = init
    lp = target.log_pi(x) if stats is None else stats.log_posterior()
    out = {"states": [x], "log_pis": [lp], "accepted": [], "lazy_stays": []}
    sx = None
    for _ in range(n_steps):
        x, lp, accepted, lazy_stay, sx = exact_transition(
            target, x, lp, sx, spec, rng, stats if sx is None else None
        )
        out["states"].append(x)
        out["log_pis"].append(lp)
        out["accepted"].append(accepted)
        out["lazy_stays"].append(lazy_stay)
    return out
