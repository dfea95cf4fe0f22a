"""Exact dense diagnostics on enumerable spaces.

Builds the literal transition matrix of either kernel family, then reads
off spectral gaps, restricted spectral gaps, total-variation curves,
expected hitting times and the named relaxation/mixing bounds.  Dense
eigensolves keep everything exact at desk scale; nothing here is meant to
touch spaces beyond a few thousand states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import eigh, null_space
from scipy.special import logsumexp

from .core import (
    DEFAULT_ENUM_CAP,
    CapExceeded,
    DiscreteMHError,
    DiscreteTarget,
    IsolatedState,
    NeighborhoodStats,
    State,
    enumerate_space,
    tabulate,
)
from .samplers import INFORMED, RANDOM_WALK, KernelSpec, log_clip_weight, log_mh_ratio

EIG_RESIDUAL_RTOL = 1e-9


class NotReversible(DiscreteMHError):
    """Detailed balance fails beyond tolerance; spectral analysis refused."""


class NotIrreducible(DiscreteMHError):
    """The hitting-time system is singular."""


class DegenerateRestriction(DiscreteMHError):
    """The restricted variance form vanishes identically."""


class DenseChain:
    """A transition matrix, its stationary law and cached eigensystem."""

    def __init__(self, states: list, P: np.ndarray, log_pis: np.ndarray,
                 spec: KernelSpec, name: str = "", max_degree: int | None = None):
        self.states = list(states)
        self.index = {s: i for i, s in enumerate(self.states)}
        self.P = P
        self.log_pis = np.asarray(log_pis, dtype=float)
        self.pi = np.exp(self.log_pis - logsumexp(self.log_pis))
        self.spec = spec
        self.name = name
        self.max_degree = max_degree if max_degree is not None else int((P > 0).sum(axis=1).max())
        self._eig: tuple | None = None

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def lazy(self) -> bool:
        return self.spec.lazy

    def validate(self, balance_rtol: float = 1e-12) -> None:
        row_err = float(np.abs(self.P.sum(axis=1) - 1.0).max())
        if row_err > 1e-12:
            raise ValueError(f"rows do not sum to 1 (err {row_err:.2e})")
        stat_err = float(np.abs(self.pi @ self.P - self.pi).max())
        if stat_err > 1e-10:
            raise ValueError(f"pi is not stationary (err {stat_err:.2e})")
        err = self.detailed_balance_error()
        if err > balance_rtol:
            raise NotReversible(f"detailed balance violated (rel err {err:.2e})")

    def detailed_balance_error(self) -> float:
        flow = self.pi[:, None] * self.P
        denom = np.maximum(np.maximum(flow, flow.T), 1e-300)
        return float((np.abs(flow - flow.T) / denom).max())

    def symmetrized(self) -> np.ndarray:
        # sqrt(P o P^T) equals D^{1/2} P D^{-1/2} under detailed balance and
        # stays finite where pi underflows.
        s = np.sqrt(self.P * self.P.T)
        np.fill_diagonal(s, np.diag(self.P))
        return s

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            if self.detailed_balance_error() > 1e-8:
                raise NotReversible("chain is not reversible; no symmetric eigensystem")
            s = self.symmetrized()
            vals, vecs = eigh(s)
            resid = float(np.abs(s @ vecs - vecs * vals).max())
            scale = float(np.abs(s).max())
            if resid > EIG_RESIDUAL_RTOL * max(scale, 1.0):
                raise ValueError(f"eigensolve residual {resid:.2e} too large")
            self._eig = (vals, vecs)
        return self._eig

    def power(self, t: int) -> np.ndarray:
        """P^t by repeated squaring; stable even at extreme mass ratios."""
        if t == 0:
            return np.eye(self.n)
        return np.linalg.matrix_power(self.P, t)

    def tv_all(self, t: int) -> np.ndarray:
        pt = self.power(t)
        return 0.5 * np.abs(pt - self.pi[None, :]).sum(axis=1)


def build_transition_matrix(
    target: DiscreteTarget,
    spec: KernelSpec,
    states: Sequence[State] | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> DenseChain:
    """Exact dense transition matrix of the kernel on an enumerated space.

    Off-diagonal entries are proposal times acceptance, assembled in the log
    domain from the space's table (``states`` may be a :class:`Space`); the
    diagonal absorbs rejections (including proposals onto zero-probability
    states outside the enumeration).  Lazy kernels halve every off-diagonal
    entry.
    """
    if states is None:
        states = enumerate_space(target, cap)
    n = len(states)
    if n > cap:
        raise CapExceeded(f"{n} states exceeds cap {cap}")
    if n < 2:
        raise ValueError("need at least two states")
    space = tabulate(target, states)
    if not space.deg.all():
        raise IsolatedState(f"state {space[int(np.argmin(space.deg))]!r} has no neighbors")
    i, k = np.nonzero(space.nbr >= 0)
    j = space.nbr[i, k]
    if spec.family == RANDOM_WALK:
        log_k = -np.log(space.deg)
        fwd, rev = log_k[i], log_k[j]
    else:  # clipped ratio weights normalized per state; moves off the space weigh clip(0)
        nbr_lp = np.where(space.nbr >= 0, space.log_pis[space.nbr], -np.inf)
        log_w = log_clip_weight(nbr_lp - space.log_pis[:, None], spec.ell, spec.big_l)
        log_w[np.arange(log_w.shape[1]) >= space.deg[:, None]] = -np.inf
        log_z = logsumexp(log_w, axis=1)
        if np.isneginf(log_z).any():
            bad = space[int(np.argmin(log_z))]
            raise IsolatedState(f"state {bad!r} has no neighbor with positive weight")
        log_q = log_w - log_z[:, None]
        fwd, rev = log_q[i, k], log_q[j, space.rev[i, k]]
    log_alpha = log_mh_ratio(space.log_pis[i], space.log_pis[j], fwd, rev)

    P = np.zeros((n, n))
    P[i, j] = np.exp(fwd + np.minimum(0.0, log_alpha))
    np.fill_diagonal(P, 0.0)
    P[np.arange(n), np.arange(n)] = np.maximum(1.0 - P.sum(axis=1), 0.0)
    if spec.lazy:
        P = 0.5 * (P + np.eye(n))
    chain = DenseChain(space.states, P, space.log_pis, spec, name=target.name,
                       max_degree=int(space.deg.max()))
    chain.validate()
    return chain


@dataclass
class GapReport:
    """Spectral summary plus any named bounds attached to it."""

    gap: float
    rayleigh_gap: float
    n_states: int
    pi_min: float
    lazy: bool
    kernel: str
    restricted_gap: float | None = None
    theorem_bounds: dict = field(default_factory=dict)

    @property
    def relaxation_time(self) -> float:
        return math.inf if self.gap <= 0 else 1.0 / self.gap

    def to_json_dict(self) -> dict:
        return {
            "gap": self.gap,
            "rayleigh_gap": self.rayleigh_gap,
            "relaxation_time": None if self.gap <= 0 else self.relaxation_time,
            "restricted_gap": self.restricted_gap,
            "n_states": self.n_states,
            "pi_min": self.pi_min,
            "lazy": self.lazy,
            "kernel": self.kernel,
            "theorem_bounds": {
                k: v.to_json_dict() if isinstance(v, BoundResult) else v
                for k, v in self.theorem_bounds.items()
            },
        }


def spectral_gap(chain: DenseChain) -> GapReport:
    """Exact spectral gap via the pi-symmetrized dense eigensolve.

    ``gap`` guards against negative eigenvalues; ``rayleigh_gap`` is one
    minus the second-largest eigenvalue.  They agree for lazy chains, whose
    spectra are nonnegative.
    """
    vals, _ = chain.eigensystem()
    lam2 = float(vals[-2])
    lam_min = float(vals[0])
    return GapReport(
        gap=1.0 - max(lam2, abs(lam_min)),
        rayleigh_gap=1.0 - lam2,
        n_states=chain.n,
        pi_min=float(chain.pi.min()),
        lazy=chain.lazy,
        kernel=chain.spec.describe(),
    )


def restricted_gap(chain: DenseChain, x0: Sequence[State]) -> float:
    """Smallest restricted Rayleigh quotient over non-constant functions.

    Both the Dirichlet form and the variance form are restricted to pairs in
    ``x0``.  Substituting g = sqrt(pi) f turns the variance form into
    ``mass * I`` minus a rank-one projector, so the infimum is an ordinary
    symmetric eigenvalue problem on the complement of sqrt(pi); this stays
    exact even when the restriction spans hundreds of orders of magnitude
    in mass.  States whose probability underflows to zero cannot move
    either quadratic form and are dropped; if fewer than two states remain
    the variance form is identically zero.
    """
    idx = np.array([chain.index[s] for s in x0])
    if len(idx) < 2:
        raise DegenerateRestriction("restriction needs at least two states")
    pi0 = chain.pi[idx]
    live = pi0 > 0.0
    idx = idx[live]
    pi0 = pi0[live]
    if len(idx) < 2:
        raise DegenerateRestriction("variance form vanishes on the restriction")
    mass = float(pi0.sum())
    s0 = np.sqrt(pi0)
    sub = chain.P[np.ix_(idx, idx)]
    sym = np.sqrt(sub * sub.T)
    np.fill_diagonal(sym, np.diag(sub))
    inside = sub.sum(axis=1)  # P(x, x0), diagonal included
    a_mat = np.diag(inside) - sym
    q = null_space(s0[None, :])
    reduced = q.T @ a_mat @ q
    return float(np.linalg.eigvalsh(reduced)[0] / mass)


@dataclass
class TVCurve:
    tv: np.ndarray

    def tau(self, epsilon: float) -> int | None:
        hits = np.nonzero(self.tv <= epsilon)[0]
        return int(hits[0]) if len(hits) else None


def _tv_walk(chain: DenseChain, init: State):
    """Total variation to stationarity at t = 0, 1, ... from one state,
    walking the row vector v P^t."""
    v = np.zeros(chain.n)
    v[chain.index[init]] = 1.0
    while True:
        yield 0.5 * float(np.abs(v - chain.pi).sum())
        v = v @ chain.P


def tv_curve(chain: DenseChain, init: State, t_max: int) -> TVCurve:
    """Total variation to stationarity for t = 0..t_max from one state."""
    return TVCurve(tv=np.fromiter(itertools.islice(_tv_walk(chain, init), t_max + 1), float))


def tau_x(chain: DenseChain, x: State, epsilon: float, t_cap: int = 1_000_000) -> int | None:
    """First t with TV from ``x`` at most epsilon, None past ``t_cap``.

    TV from a point never increases in t.  The row vector v P^t is walked
    for up to n steps, which cost about one dense matrix product; a later
    tau is found by doubling and bisection over matrix powers.
    """
    walk = itertools.islice(_tv_walk(chain, x), min(chain.n, t_cap) + 1)
    tau = next((t for t, tv in enumerate(walk) if tv <= epsilon), None)
    if tau is None and t_cap > chain.n:
        i = chain.index[x]
        tau = _first_time(
            lambda t: 0.5 * float(np.abs(chain.power(t)[i] - chain.pi).sum()), epsilon, t_cap
        )
    return tau


def _first_time(tv_at, epsilon: float, t_cap: int) -> int | None:
    """First t with ``tv_at(t)`` at most epsilon, by doubling then bisection
    (TV is monotone in t); None if ``tv_at(t_cap)`` exceeds epsilon."""
    if tv_at(0) <= epsilon:
        return 0
    lo, hi = 0, 1
    while tv_at(hi) > epsilon:
        if hi >= t_cap:
            return None
        lo, hi = hi, min(2 * hi, t_cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tv_at(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def mixing_time(chain: DenseChain, epsilon: float, t_cap: int = 1_000_000) -> int | None:
    """Worst-case mixing time over all initial states."""
    return _first_time(lambda t: float(chain.tv_all(t).max()), epsilon, t_cap)


def expected_hitting_time(chain: DenseChain, target_state: State) -> np.ndarray:
    """Expected steps to reach ``target_state``, per starting state.

    Solves the linear system with the target row and column removed; the
    entry for the target itself is zero.
    """
    i = chain.index[target_state]
    keep = [k for k in range(chain.n) if k != i]
    minor = chain.P[np.ix_(keep, keep)]
    try:
        h = np.linalg.solve(np.eye(len(keep)) - minor, np.ones(len(keep)))
    except np.linalg.LinAlgError as exc:
        raise NotIrreducible(str(exc)) from exc
    if not np.all(np.isfinite(h)) or np.any(h < 0):
        raise NotIrreducible("hitting-time system produced invalid values")
    out = np.zeros(chain.n)
    out[keep] = h
    return out


# ---------------------------------------------------------------------------
# named bounds


def c_of_rho(rho: float) -> float:
    """4 / (1 - rho^{-1/2})^3, the constant in the relaxation bounds."""
    if rho <= 1:
        raise ValueError("c(rho) needs rho > 1")
    return 4.0 / (1.0 - rho ** -0.5) ** 3


@dataclass
class BoundResult:
    applicable: bool
    value: float | None = None
    reason: str | None = None
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "value": self.value,
            "reason": self.reason,
            **({"extras": self.extras} if self.extras else {}),
        }


@dataclass(frozen=True)
class RestrictedContext:
    """Inputs for warm-start bounds: restricted stats, the restriction's
    mass, and the largest log ratio from inside to an outside neighbor."""

    stats: NeighborhoodStats
    mass: float
    boundary_log_ratio: float


def _na(reason: str) -> BoundResult:
    return BoundResult(applicable=False, reason=reason)


def theorem_bounds(
    stats: NeighborhoodStats,
    spec: KernelSpec,
    pi_min: float,
    epsilon: float,
    eta: float | None = None,
    restricted: RestrictedContext | None = None,
) -> dict[str, BoundResult]:
    """Named relaxation/mixing bounds with their hypothesis checks.

    Every entry is emitted; inapplicable ones carry the failed hypothesis
    instead of a value.  Relaxation bounds dominate the lazy chain's inverse
    spectral gap; mixing bounds dominate worst-case (or warm-start) mixing
    times of the lazy chain.
    """
    m = stats.m
    log_m = math.log(m)
    out: dict[str, BoundResult] = {}
    log_inv_err = math.log(1.0 / (epsilon * pi_min))

    if stats.rho > 1:
        out["c_rho"] = BoundResult(True, c_of_rho(stats.rho), extras={"rho": stats.rho})
    else:
        out["c_rho"] = _na(f"rho = {stats.rho:.4g} <= 1")

    # uniform-proposal chain: relaxation c(rho) M
    if spec.family != RANDOM_WALK:
        out["rw_relaxation"] = _na("kernel is not random-walk")
        out["rw_mixing"] = _na("kernel is not random-walk")
    elif stats.rho <= 1:
        out["rw_relaxation"] = _na(f"needs rho > 1, got {stats.rho:.4g}")
        out["rw_mixing"] = _na(f"needs rho > 1, got {stats.rho:.4g}")
    else:
        c = c_of_rho(stats.rho)
        out["rw_relaxation"] = BoundResult(True, c * m)
        out["rw_mixing"] = BoundResult(True, c * m * log_inv_err)

    # clipped informed chain with ell = M and M^2 < L <= R
    def informed_hypothesis() -> str | None:
        if spec.family != INFORMED:
            return "kernel is not informed"
        if not math.isclose(spec.ell, m, rel_tol=1e-12):
            return f"needs ell = M = {m}, got ell = {spec.ell:g}"
        if not spec.big_l > m**2:
            return f"needs L > M^2 = {m**2}, got L = {spec.big_l:g}"
        if not math.log(spec.big_l) <= stats.log_r + 1e-12:
            return f"needs L <= R, got log L = {math.log(spec.big_l):.4g} > log R = {stats.log_r:.4g}"
        return None

    fail = informed_hypothesis()
    if fail is None:
        rho_t = spec.big_l / m**2
        c_t = c_of_rho(rho_t)
        out["informed_relaxation"] = BoundResult(True, 2 * c_t, extras={"rho_tilde": rho_t})
        out["informed_mixing"] = BoundResult(True, 2 * c_t * log_inv_err)
        side = m**2 * math.log(1.0 / pi_min) / (spec.big_l * (math.log(spec.big_l) - log_m))
        out["drift_mixing"] = BoundResult(
            True,
            4.0 * math.log(2.0 * math.e / epsilon) / (math.log(spec.big_l) - log_m)
            * math.log(1.0 / pi_min),
            extras={"side_condition": side},
        )
    else:
        out["informed_relaxation"] = _na(fail)
        out["informed_mixing"] = _na(fail)
        out["drift_mixing"] = _na(fail)

    # warm-start variants on a restriction
    if restricted is None or eta is None:
        reason = "no restriction context" if restricted is None else "no warm-start level eta"
        out["warm_rw_mixing"] = _na(reason)
        out["warm_informed_mixing"] = _na(reason)
        return out

    mass_needed = 1.0 - epsilon**2 * eta**2 / 5.0
    log_warm = math.log(1.0 / (2.0 * epsilon**2 * eta**2))
    rstats = restricted.stats
    rho0 = rstats.rho

    if spec.family != RANDOM_WALK:
        out["warm_rw_mixing"] = _na("kernel is not random-walk")
    elif rho0 <= 1:
        out["warm_rw_mixing"] = _na(f"needs restricted rho > 1, got {rho0:.4g}")
    elif restricted.mass < mass_needed:
        out["warm_rw_mixing"] = _na(
            f"mass {restricted.mass:.6g} below 1 - eps^2 eta^2/5 = {mass_needed:.6g}"
        )
    else:
        out["warm_rw_mixing"] = BoundResult(True, c_of_rho(rho0) * m * log_warm)

    def warm_informed_hypothesis() -> str | None:
        if spec.family != INFORMED:
            return "kernel is not informed"
        if not math.isclose(spec.ell, m, rel_tol=1e-12):
            return f"needs ell = M = {m}, got ell = {spec.ell:g}"
        if not spec.big_l > m**2:
            return f"needs L > M^2 = {m**2}, got L = {spec.big_l:g}"
        if not math.log(spec.big_l) <= rstats.log_r + 1e-12:
            return "needs L <= restricted R"
        if restricted.mass < mass_needed:
            return f"mass {restricted.mass:.6g} below {mass_needed:.6g}"
        if not restricted.boundary_log_ratio < math.log(spec.big_l) - log_m:
            return "boundary ratio reaches L / M"
        return None

    fail = warm_informed_hypothesis()
    if fail is None:
        out["warm_informed_mixing"] = BoundResult(
            True, 2 * c_of_rho(spec.big_l / m**2) * log_warm
        )
    else:
        out["warm_informed_mixing"] = _na(fail)
    return out


def boundary_log_ratio(
    target: DiscreteTarget, states: Sequence[State], x0: Sequence[State]
) -> float:
    """Largest log pi(outside neighbor) - log pi(inside state) over the rim."""
    space = tabulate(target, states)
    inside = space.mask(x0)
    rows = np.flatnonzero(inside)
    nbr = space.nbr[rows]
    rim = np.where((nbr >= 0) & ~inside[nbr], space.log_pis[nbr], -np.inf)
    return float((rim - space.log_pis[rows, None]).max(initial=-math.inf))


def warm_start_mass_threshold(epsilon: float, b: float, m: float = math.inf) -> float:
    """Required restriction mass for a warm start with density bound ``b``
    in the L^m norm; the default m = inf is the point-mass case."""
    if b < 1:
        raise ValueError("b must be at least 1")
    base = epsilon**2 / (5.0 * b**2)
    power = 1.0 if math.isinf(m) else 1.0 + 2.0 / (m - 2.0)
    return 1.0 - base**power


def warm_start_mixing_bound(gap_x0: float, epsilon: float, b: float) -> float:
    if gap_x0 <= 0:
        raise ValueError("gap must be positive")
    return math.log(b**2 / (2.0 * epsilon**2)) / gap_x0
