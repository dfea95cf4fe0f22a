"""Exact diagnostics on enumerable spaces.

Builds the transition matrix of either kernel family as a sparse (CSR)
array with one stored entry per move and per diagonal, then reads off
spectral gaps, restricted spectral gaps, total-variation curves, expected
hitting times and the named relaxation/mixing bounds.  Eigenvalues come
from Lanczos iterations (ARPACK) on the pi-symmetrized matrix, started from
a fixed vector, and from SciPy 1.17 on draw their restart vectors from a
fixed stream, so that repeated solves agree to the last bit; the spaces
are those ``enumerate_space`` reaches under its cap.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    DegenerateSpace,
    DiscreteMHError,
    DiscreteTarget,
    IsolatedState,
    NeighborhoodStats,
    Space,
    State,
    enumerate_space,
    logsumexp,
    philox_rng,
    tabulate,
)
from .samplers import INFORMED, RANDOM_WALK, KernelSpec, log_clip_weight, log_mh_ratio


class NotReversible(DiscreteMHError):
    """Detailed balance fails beyond tolerance; spectral analysis refused."""


class NotIrreducible(DiscreteMHError):
    """The hitting-time system is singular."""


class DegenerateRestriction(DiscreteMHError):
    """The restricted variance form vanishes identically."""


class DenseTooLarge(DiscreteMHError):
    """A dense fallback would build an n x n array past ``DENSE_MAX_STATES``."""


#: The dense fallbacks (every eigenvalue when ARPACK stalls, matrix powers
#: for a late tau) refuse spaces above this many states: 0.5 GB per array.
DENSE_MAX_STATES = 8192


def _check_dense(n: int) -> None:
    if n > DENSE_MAX_STATES:
        raise DenseTooLarge(
            f"a dense {n} x {n} array would take {8 * n * n:,} bytes; the dense "
            f"fallback stops at {DENSE_MAX_STATES} states"
        )


class DenseChain:
    """A chain on a tabulated space: its transition matrix ``P`` (a scipy
    CSR array), its stationary law, and its cached extreme eigenvalues and
    detailed-balance error.

    ``states`` and ``index`` (state to position) are the space's own.
    """

    def __init__(self, space: Space, P, spec: KernelSpec, name: str = ""):
        self.states, self.index, self.log_pis = space.states, space.pos, space.log_pis
        self.P, self.spec, self.name = P, spec, name
        self.pi = np.exp(self.log_pis - logsumexp(self.log_pis))
        self.max_degree = int(space.deg.max())
        self._eig: np.ndarray | None = None
        self._balance_err: float | None = None

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
        """Largest relative gap between pi(x) P(x, y) and pi(y) P(y, x) over
        the stored entries; computed once, for ``validate`` and
        ``eigensystem`` alike."""
        if self._balance_err is None:
            i, j = self.P.nonzero()
            flow, back = self.pi[i] * self.P[i, j], self.pi[j] * self.P[j, i]
            denom = np.maximum(np.maximum(flow, back), 1e-300)
            self._balance_err = float((np.abs(flow - back) / denom).max(initial=0.0))
        return self._balance_err

    def eigensystem(self) -> np.ndarray:
        """Ascending (lambda_min, lambda_2, lambda_1) of the pi-symmetrized
        matrix (every eigenvalue when n <= 3); computed once."""
        if self._eig is None:
            if self.detailed_balance_error() > 1e-8:
                raise NotReversible("chain is not reversible; no symmetric eigensystem")
            self._eig = _extreme_eigvals(_symmetrized(self.P), 3, "BE")
        return self._eig


def _symmetrized(P):
    """sqrt(P o P^T) off the diagonal and P's diagonal on it: D^{1/2} P D^{-1/2}
    under detailed balance, finite where pi underflows."""
    from scipy import sparse

    diag = sparse.diags_array(P.diagonal())
    off = P - diag
    return off.multiply(off.T).sqrt() + diag


@functools.cache
def _takes_rng(eigsh) -> bool:
    """Whether ``eigsh`` takes an ``rng`` for ARPACK's restart vectors, as
    it does from SciPy 1.17 on.  Before, ARPACK draws them from its own
    stream, which carries on from call to call."""
    return "rng" in inspect.signature(eigsh).parameters


def _extreme_eigvals(mat, k: int, which: str) -> np.ndarray:
    """``k`` extreme eigenvalues of a symmetric sparse matrix or operator,
    ascending.  ARPACK starts from a fixed vector and, where ``eigsh`` takes
    an ``rng``, draws any restart vector from a fixed stream (its own are
    random per call), so a call gives the same value each time.  Below four
    states, where ARPACK cannot run, and where it stalls on clustered
    extreme eigenvalues (a nearly reducible chain), every eigenvalue of the
    dense matrix is returned instead, up to ``DENSE_MAX_STATES`` states
    (:class:`DenseTooLarge` past it)."""
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    n = mat.shape[0]
    try:
        if n > 3:
            rng = philox_rng(0)
            v0 = rng.standard_normal(n)
            seeded = {"rng": rng} if _takes_rng(eigsh) else {}
            return np.sort(eigsh(mat, k=k, which=which, v0=v0, return_eigenvectors=False,
                                 **seeded))
    except ArpackNoConvergence:
        pass
    _check_dense(n)
    return np.linalg.eigvalsh(mat @ np.eye(n))


def build_transition_matrix(
    target: DiscreteTarget,
    spec: KernelSpec,
    states: Sequence[State] | None = None,
) -> DenseChain:
    """Exact transition matrix of the kernel on an enumerated space, as CSR.

    Off-diagonal entries are proposal times acceptance, assembled in the log
    domain from the space's table (``states`` may be a :class:`Space`); the
    diagonal absorbs rejections (including proposals onto zero-probability
    states outside the enumeration).  Lazy kernels halve every off-diagonal
    entry.  Entries that underflow to zero are not stored.  Without
    ``states`` the space is enumerated under ``enumerate_space``'s default
    cap; the enumeration owns the cap, so given states are not capped again.
    """
    from scipy import sparse

    if states is None:
        states = enumerate_space(target)
    n = len(states)
    if n < 2:
        raise DegenerateSpace("need at least two states")
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

    off = np.exp(fwd + np.minimum(0.0, log_alpha))
    diag = np.maximum(1.0 - np.bincount(i, off, minlength=n), 0.0)
    if spec.lazy:
        off, diag = 0.5 * off, 0.5 * (diag + 1.0)
    P = sparse.csr_array((np.r_[off, diag], (np.r_[i, :n], np.r_[j, :n])), shape=(n, n))
    P.eliminate_zeros()
    chain = DenseChain(space, P, spec, name=target.name)
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
    """Exact spectral gap from the extreme eigenvalues of the pi-symmetrized
    matrix.

    ``gap`` guards against negative eigenvalues; ``rayleigh_gap`` is one
    minus the second-largest eigenvalue.  They agree for lazy chains, whose
    spectra are nonnegative.
    """
    vals = chain.eigensystem()
    lam_min, lam2 = float(vals[0]), float(vals[-2])
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
    ``x0``.  Substituting g = sqrt(pi) f turns the Dirichlet form into a
    matrix A with spectrum in [0, 2] and sqrt(pi) in its kernel, and the
    variance form into ``mass * I`` on the complement of sqrt(pi); with
    sqrt(pi) lifted to eigenvalue 2, the infimum is the smallest eigenvalue,
    exact even across hundreds of orders of magnitude in mass.  States whose
    probability underflows to zero cannot move either quadratic form and are
    dropped; if fewer than two remain the variance form vanishes.
    """
    from scipy import sparse
    from scipy.sparse.linalg import LinearOperator

    idx = np.array([chain.index[s] for s in x0])
    if len(idx) < 2:
        raise DegenerateRestriction("restriction needs at least two states")
    idx = idx[chain.pi[idx] > 0.0]
    pi0 = chain.pi[idx]
    if len(idx) < 2:
        raise DegenerateRestriction("variance form vanishes on the restriction")
    mass = float(pi0.sum())
    s0 = np.sqrt(pi0)
    sub = chain.P[idx][:, idx]
    a_mat = sparse.diags_array(sub.sum(axis=1)) - _symmetrized(sub)  # P(x, x0) on the diagonal
    lifted = LinearOperator(a_mat.shape, dtype=float, matvec=lambda g: (
        a_mat @ g.ravel() + s0 * (2.0 / mass * (s0 @ g.ravel()))))
    return float(_extreme_eigvals(lifted, 1, "SA")[0] / mass)


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
    for up to n steps; a later tau is found by doubling and bisection over
    powers of the densified matrix, up to ``DENSE_MAX_STATES`` states
    (:class:`DenseTooLarge` past it).
    """
    walk = itertools.islice(_tv_walk(chain, x), min(chain.n, t_cap) + 1)
    tau = next((t for t, tv in enumerate(walk) if tv <= epsilon), None)
    if tau is None and t_cap > chain.n:
        _check_dense(chain.n)
        dense, i = chain.P.toarray(), chain.index[x]
        tau = _first_time(
            lambda t: 0.5 * float(np.abs(np.linalg.matrix_power(dense, t)[i] - chain.pi).sum()),
            epsilon, t_cap,
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
        lo, hi = (lo, mid) if tv_at(mid) <= epsilon else (mid, hi)
    return hi


def expected_hitting_time(chain: DenseChain, target_state: State) -> np.ndarray:
    """Expected steps to reach ``target_state``, per starting state.

    Solves the sparse linear system with the target row and column removed;
    the entry for the target itself is zero.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    i = chain.index[target_state]
    keep = np.array([k for k in range(chain.n) if k != i])
    minor = chain.P[keep][:, keep]
    try:
        h = splu(sparse.eye_array(len(keep), format="csc") - minor.tocsc()).solve(np.ones(len(keep)))
    except RuntimeError as exc:  # exactly singular
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

    # clipped informed chain with ell = M and M^2 < L <= R (R read from log_r)
    def informed_hypothesis(log_r: float, r_name: str = "R") -> str | None:
        if spec.family != INFORMED:
            return "kernel is not informed"
        if not math.isclose(spec.ell, m, rel_tol=1e-12):
            return f"needs ell = M = {m}, got ell = {spec.ell:g}"
        if not spec.big_l > m**2:
            return f"needs L > M^2 = {m**2}, got L = {spec.big_l:g}"
        if not math.log(spec.big_l) <= log_r + 1e-12:
            return (f"needs L <= {r_name}, got log L = {math.log(spec.big_l):.4g}"
                    f" > log {r_name} = {log_r:.4g}")
        return None

    fail = informed_hypothesis(stats.log_r)
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
    low_mass = None
    if restricted.mass < mass_needed:
        low_mass = f"mass {restricted.mass:.6g} below 1 - eps^2 eta^2/5 = {mass_needed:.6g}"

    if spec.family != RANDOM_WALK:
        out["warm_rw_mixing"] = _na("kernel is not random-walk")
    elif rstats.rho <= 1:
        out["warm_rw_mixing"] = _na(f"needs restricted rho > 1, got {rstats.rho:.4g}")
    elif low_mass:
        out["warm_rw_mixing"] = _na(low_mass)
    else:
        out["warm_rw_mixing"] = BoundResult(True, c_of_rho(rstats.rho) * m * log_warm)

    fail = informed_hypothesis(rstats.log_r, "restricted R") or low_mass
    if fail is None and not restricted.boundary_log_ratio < math.log(spec.big_l) - log_m:
        fail = "boundary ratio reaches L / M"
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
