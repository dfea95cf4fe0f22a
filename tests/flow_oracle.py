"""Path-enumeration oracle for the congestion DP.

``flowbound.congestion`` aggregates every through-the-mode route with
triangular solves over the uphill DAG and never lists one.  The functions
here list them: every upward path from each live state to the mode, every
combined route between two states with its flow, and the load of every
edge summed route by route, the way the library computed congestion before
the DP was its only algorithm.  Only small fixtures can afford this.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp


def path_counts(fg) -> np.ndarray:
    """Number of upward paths to the mode from each live position."""
    k = fg.n_live
    counts = np.zeros(k)
    counts[-1] = 1.0
    t = fg.t_mat
    for a in range(k - 2, -1, -1):
        counts[a] = counts[t.indices[t.indptr[a]:t.indptr[a + 1]]].sum()
    return counts


def combined_path_count(fg) -> float:
    """Number of positive-flow routes over all ordered state pairs."""
    per_state = path_counts(fg)
    total = per_state.sum()
    return float(total * total - (per_state**2).sum())


def upward_paths(fg) -> list[list[tuple]]:
    """All upward paths per live position, as (probability, edge sequence)
    pairs from the state to the mode.  Edge sequences are live-position
    index pairs."""
    k = fg.n_live
    paths: list[list[tuple]] = [[] for _ in range(k)]
    paths[-1] = [(1.0, ())]
    t = fg.t_mat
    for a in range(k - 2, -1, -1):
        row = slice(t.indptr[a], t.indptr[a + 1])
        paths[a] = [
            (step * prob, ((a, int(b)),) + edge_seq)
            for b, step in zip(t.indices[row], t.data[row])
            for prob, edge_seq in paths[b]
        ]
    return paths


def edge_weights(fg, q: float) -> dict:
    """Weight pi(lower endpoint)^-q of each uphill edge (i, j), keyed by
    state indices and computed one edge at a time from log pi."""
    lp = fg.chain.log_pis
    log_norm = logsumexp(lp)
    return {(int(a), int(b)): math.exp(-q * (lp[a] - log_norm)) for a, b in fg.edges}


def enumerate_flow(fg, x, x_prime):
    """All positive-flow paths between two states with their flow values.

    Routes go up from ``x`` to the mode and back down to ``x_prime``; the
    flow of a combined route is the product of the two segment
    probabilities under the auxiliary chain times pi(x) pi(x').
    """
    chain = fg.chain
    pos = {i: k for k, i in enumerate(fg.live)}
    ix, iy = chain.index[x], chain.index[x_prime]
    assert ix != iy and ix in pos and iy in pos
    paths = upward_paths(fg)
    mass = chain.pi[ix] * chain.pi[iy]

    def states_along(start, edge_seq):
        return [start] + [fg.live[b] for _, b in edge_seq]

    out = []
    for prob_up, edges_up in paths[pos[ix]]:
        for prob_down, edges_down in paths[pos[iy]]:
            full = states_along(ix, edges_up) + states_along(iy, edges_down)[::-1][1:]
            out.append(([chain.states[i] for i in full], prob_up * prob_down * mass))
    return out


def congestion(fg, q: float) -> float:
    """A_exact: the worst ratio of routed weighted length to edge capacity,
    with every route's load added edge by edge."""
    chain = fg.chain
    P = chain.P.toarray()
    weights = edge_weights(fg, q)
    paths = upward_paths(fg)
    live = fg.live
    pis = chain.pi[live]
    lengths = [
        [sum(weights[(live[a], live[b])] for a, b in seq) for _, seq in plist]
        for plist in paths
    ]
    load: dict[tuple, float] = {}
    for xp in range(fg.n_live):
        for yp in range(fg.n_live):
            if xp == yp:
                continue
            mass = pis[xp] * pis[yp]
            for (p_up, seq_up), len_up in zip(paths[xp], lengths[xp]):
                for (p_dn, seq_dn), len_dn in zip(paths[yp], lengths[yp]):
                    phi = p_up * p_dn * mass
                    if phi == 0.0:
                        continue
                    routed = (len_up + len_dn) * phi
                    for a, b in seq_up:
                        e = (live[a], live[b])
                        load[e] = load.get(e, 0.0) + routed
                    for a, b in seq_dn:
                        e = (live[b], live[a])  # traversed downhill
                        load[e] = load.get(e, 0.0) + routed
    worst = 0.0
    for (a, b), val in load.items():
        w = weights[(a, b) if (a, b) in weights else (b, a)]
        worst = max(worst, val / (chain.pi[a] * P[a, b] * w))
    return worst
