"""Constructive spectral-gap certificates: flows, congestion and drift.

The flow route builds an auxiliary uphill chain whose edges gain at least a
factor S in probability, routes mass between every ordered state pair
through the mode, and reads off the worst edge congestion; its reciprocal
lower-bounds the spectral gap (restricted variants bound the restricted
gap).  Congestion comes from one dynamic program over the uphill DAG: three
triangular solves aggregate the traversal probabilities and expected
weighted lengths of every route in closed form, so no route is enumerated.

The drift route certifies a contraction rate for the potential
``V = pi^(1/log pi_min)`` away from the mode, which converts into pointwise
total-variation decay for chains with nonnegative spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import BoundInapplicable, DegenerateSpace, DiscreteMHError, State, logsumexp
from .diagnostics import DenseChain, c_of_rho


class HypothesisViolated(DiscreteMHError):
    """A non-mode state has no neighbor gaining the required factor S."""


class NoCertificate(DiscreteMHError):
    """The drift inequality fails: contraction rate at least one."""


@dataclass
class FlowGraph:
    """Uphill DAG of ratio-S moves plus the absorbing auxiliary chain.

    ``live`` lists the participating state indices (a restriction or the
    whole space), topologically ordered by increasing probability.  ``t_mat``
    holds the auxiliary chain restricted to live transient states as a
    strictly upper-triangular CSR array in ``live`` order: row z is the
    analyzed chain's row renormalized on z's uphill targets.
    """

    chain: DenseChain
    s_threshold: float
    live: list
    edges: np.ndarray  # (E, 2) uphill index pairs, pi(j) >= S * pi(i), in live order
    t_mat: object
    escape: np.ndarray  # P(z, uphill targets of z), indexed like live
    restricted: bool

    @property
    def n_live(self) -> int:
        return len(self.live)


def build_flow_graph(chain: DenseChain, s_threshold: float, x0=None) -> FlowGraph:
    """Uphill flow graph at ratio threshold ``S`` (> 1), on the states
    ``x0`` or on the whole space; S <= 1 raises :class:`BoundInapplicable`.

    Every live state except the top one must have an uphill neighbor whose
    probability is at least S times its own (that is, S <= R); otherwise
    the construction has no route out of that state and the hypothesis is
    reported as violated.
    """
    from scipy import sparse

    if not s_threshold > 1.0:
        raise BoundInapplicable(f"flow threshold S = {s_threshold:g} must exceed 1")
    log_s = math.log(s_threshold)
    restricted = x0 is not None
    live = [chain.index[s] for s in x0] if restricted else range(chain.n)
    if len(live) < 2:
        raise DegenerateSpace("a flow needs at least two live states")
    lp = chain.log_pis
    live = sorted(live, key=lambda i: (lp[i], _sort_key(chain.states[i])))
    pos = np.full(chain.n, -1)
    pos[live] = np.arange(len(live))

    a, b = chain.P.nonzero()  # moves with positive probability
    gain = lp[b] - lp[a]
    slack = 1e-9 * max(1.0, abs(log_s))
    on = (pos[a] >= 0) & (pos[b] >= 0) & (gain > 0) & (gain >= log_s - slack)
    order = np.argsort(pos[a[on]], kind="stable")  # live order, then by target
    a, b = a[on][order], b[on][order]
    p_ab = chain.P[a, b]
    k = len(live)
    escape = np.bincount(pos[a], p_ab, minlength=k)
    stuck = np.flatnonzero(escape[:-1] == 0)
    if len(stuck):
        raise HypothesisViolated(
            f"state {chain.states[live[stuck[0]]]!r} has no uphill neighbor at ratio {s_threshold:g}"
        )
    t_mat = sparse.csr_array((p_ab / escape[pos[a]], (pos[a], pos[b])), shape=(k, k))
    return FlowGraph(
        chain=chain,
        s_threshold=s_threshold,
        live=live,
        edges=np.stack([a, b], axis=1).astype(np.intp, copy=False),
        t_mat=t_mat,
        escape=escape,
        restricted=restricted,
    )


def _sort_key(state):
    return state if isinstance(state, tuple) else (state,)


def default_weight_exponent(s_threshold: float, max_degree: int) -> float:
    """q = log(S/M) / (2 log S); requires S > M."""
    if s_threshold <= max_degree:
        raise BoundInapplicable(
            f"weight exponent needs S > M, got S = {s_threshold:g}, M = {max_degree}"
        )
    return math.log(s_threshold / max_degree) / (2.0 * math.log(s_threshold))


@dataclass
class CongestionReport:
    """Worst-edge congestion of the constructed flow and its closed form.

    ``gap_lower_bound`` controls the variational (Rayleigh) gap, one minus
    the second-largest eigenvalue; for lazy chains that coincides with the
    two-sided spectral gap.  On a non-lazy chain with strongly negative
    eigenvalues the bound can legitimately exceed 1 - max(lam2, |lam_min|).
    """

    s_threshold: float
    q: float
    a_exact: float
    a_closed_form: float | None
    restricted: bool
    worst_edge: tuple | None = None

    @property
    def gap_lower_bound(self) -> float:
        return 1.0 / self.a_exact

    def to_json_dict(self) -> dict:
        return {
            "S": self.s_threshold,
            "q": self.q,
            "A_exact": self.a_exact,
            "A_closed_form": self.a_closed_form,
            "gap_lower_bound": self.gap_lower_bound,
            "restricted": self.restricted,
            "worst_edge": [
                _jsonable(s) for s in self.worst_edge
            ] if self.worst_edge else None,
        }


def _jsonable(state):
    return list(state) if isinstance(state, tuple) else state


def congestion(fg: FlowGraph, q: float | None = None) -> CongestionReport:
    """Worst-edge congestion of the through-the-mode flow.

    The closed form is the ratio-S congestion bound
    ``c(S/M)/2 * max 1/P(z, uphill)`` with M the chain's maximum degree; it
    needs S > M, as does the default weight exponent.
    """
    max_degree = fg.chain.max_degree
    if q is None:
        q = default_weight_exponent(fg.s_threshold, max_degree)
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    a_exact, worst = _congestion_dp(fg, q)
    closed = None
    if fg.s_threshold > max_degree:
        closed = c_of_rho(fg.s_threshold / max_degree) / 2.0 * float(1.0 / fg.escape[:-1].min())
    return CongestionReport(
        s_threshold=fg.s_threshold,
        q=q,
        a_exact=a_exact,
        a_closed_form=closed,
        restricted=fg.restricted,
        worst_edge=worst,
    )


def _congestion_dp(fg: FlowGraph, q: float):
    """Edge loads in closed form over the DAG.  With R = (I - T)^-1 the
    visit matrix (T is strictly upper triangular, so R is too), the load of
    an edge needs only the column m = R (W o T) 1 and the row vectors
    alpha R, beta R and (alpha R)(W o T) R: three triangular solves."""
    from scipy import sparse
    from scipy.sparse.linalg import spsolve_triangular

    chain, t = fg.chain, fg.t_mat
    if not len(fg.edges):
        return 0.0, None
    a, b = fg.edges.T
    pos = np.empty(chain.n, dtype=np.intp)
    pos[fg.live] = np.arange(fg.n_live)
    ap, bp = pos[a], pos[b]
    # an edge weighs pi(lower endpoint)^-q in both orientations, from log pi
    w = np.exp(-q * (chain.log_pis[a] - logsumexp(chain.log_pis)))
    t_e = t[ap, bp]
    wt = sparse.csr_array((w * t_e, (ap, bp)), shape=t.shape)
    i_minus_t = sparse.eye_array(fg.n_live, format="csr") - t
    m_vec = spsolve_triangular(i_minus_t, wt.sum(axis=1), lower=False)  # expected w-length to the mode
    pis = chain.pi[fg.live]
    mass = float(pis.sum())
    t_sum = float(pis @ m_vec)
    alpha = pis * (mass - pis)
    beta = pis * (t_sum - pis * m_vec)
    # row vectors times R: solves against the lower-triangular transpose
    rows = spsolve_triangular(i_minus_t.T, np.stack([alpha, beta], axis=1), lower=True)
    s_alpha_r, s_beta_r = rows.T
    s_alpha_a = spsolve_triangular(i_minus_t.T, s_alpha_r @ wt, lower=True)  # expected length at a visit

    l_e = t_e * ((w + m_vec[bp]) * s_alpha_r[ap] + s_alpha_a[ap] + s_beta_r[ap])
    q_e = np.stack([chain.pi[a] * chain.P[a, b], chain.pi[b] * chain.P[b, a]], axis=1)
    ratio = (l_e[:, None] / (q_e * w[:, None])).ravel()  # each edge uphill, then downhill
    k = int(np.argmax(ratio))
    tail, head = (a[k // 2], b[k // 2]) if k % 2 == 0 else (b[k // 2], a[k // 2])
    return float(ratio[k]), (chain.states[tail], chain.states[head])


# ---------------------------------------------------------------------------
# drift certificates


@dataclass
class DriftCertificate:
    """Certified contraction of V = pi^(1/log pi_min) away from the mode.

    ``lam`` is the largest one-step expected shrinkage ratio over non-mode
    states.  For chains with nonnegative spectra it implies pointwise decay
    ``TV(t) <= 2 V(x) lam^(t+1)`` and the corresponding mixing bound.
    """

    lam: float
    v: np.ndarray = field(repr=False)
    index: dict = field(repr=False)  # state -> position in v
    x_star: State
    worst_state: State
    min_eigenvalue: float
    log_pi_min: float

    def v_of(self, x: State) -> float:
        return float(self.v[self.index[x]])

    def tv_bound(self, x: State, t: int) -> float:
        return 2.0 * self.v_of(x) * self.lam ** (t + 1)

    def mixing_bound(self, x: State, epsilon: float) -> float:
        return math.log(2.0 * self.v_of(x) / epsilon) / (1.0 - self.lam)

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "min_eigenvalue": self.min_eigenvalue,
            "x_star": _jsonable(self.x_star),
            "worst_state": _jsonable(self.worst_state),
            "v_range": [float(self.v.min()), float(self.v.max())],
        }


def drift_certificate(chain: DenseChain) -> DriftCertificate:
    """Certify (P V)(x) <= lam V(x) for all x except the mode.

    Raises :class:`NoCertificate` when the best achievable lam is >= 1,
    reporting the violating state.  The total-variation consequences assume
    nonnegative eigenvalues, so a chain with a negative one is refused (use
    the lazy chain instead).
    """
    lp = chain.log_pis - logsumexp(chain.log_pis)
    log_pi_min = float(lp.min())
    v = np.exp(lp / log_pi_min)
    x_star_idx = int(np.argmax(lp))
    pv = chain.P @ v
    ratios = pv / v
    ratios[x_star_idx] = -np.inf
    worst_idx = int(np.argmax(ratios))
    lam = float(ratios[worst_idx])
    min_eig = float(chain.eigensystem()[0])
    if min_eig < -1e-10:
        raise BoundInapplicable(
            f"chain has negative eigenvalue {min_eig:.3g}; certify the lazy chain instead"
        )
    if lam >= 1.0:
        raise NoCertificate(
            f"drift fails at state {chain.states[worst_idx]!r}: lambda = {lam:.6g}"
        )
    return DriftCertificate(
        lam=lam,
        v=v,
        index=chain.index,
        x_star=chain.states[x_star_idx],
        worst_state=chain.states[worst_idx],
        min_eigenvalue=min_eig,
        log_pi_min=log_pi_min,
    )
