"""Spike-and-slab variable selection with a g-prior slab.

The marginal posterior over inclusion vectors depends on the data only
through the Gram matrix, X'y and y'y, so those sufficient statistics are
the only thing kept after data generation.  Model states are 0/1 tuples.
Every evaluation takes a fresh Cholesky factor of the active Gram block; a
vectorized one-shot scan evaluates every single-flip neighbor from one
factor for informed proposals.  The ``n1`` space is tabulated without a
search: states are ranked as integers (coordinate c is bit p-1-c, so the
integer order is the tuple order), and log pi is evaluated model size by
model size, with one ``cholesky`` call on the stack of active Gram blocks
of each size and one solve per model, to the bits of ``log_posterior``.
The solves call LAPACK's ``trtrs`` and ``potrs`` directly, with the
arguments scipy's ``solve_triangular`` and ``cho_solve`` pass, so they
give the wrappers' bits without their checks: ``VarSelData`` checks the
statistics finite once, and a nonzero ``info`` raises ``LapackError``.
Every path takes ``log1p`` of ``g (1 - R^2)`` with ``np.log1p``, which gives
a scalar the bits of the same element of an array, so the size batches
match ``log_posterior`` bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import get_lapack_funcs, toeplitz

from .core import (
    DegenerateSpace,
    DiscreteMHError,
    DiscreteTarget,
    Flips,
    InvalidInit,
    Space,
    enumerate_space,
    philox_rng,
)

# Pivot smaller than this times the largest Gram diagonal counts as singular.
PIVOT_RTOL = 1e-10
# Design covariances (correlation exp(-2|i-j|), exp(-|i-j|/4)) and neighbor
# schemes (single flips, add-delete-swap).
COVARIANCES = ("moderate", "high")
NEIGHBORHOODS = ("n1", "ads")


class SingularModel(DiscreteMHError):
    """The active Gram block is numerically singular."""


class InvalidGram(DiscreteMHError):
    """A Gram specification that is not positive semidefinite."""


class NonFiniteData(DiscreteMHError):
    """Sufficient statistics with a NaN or infinite entry."""


class LapackError(DiscreteMHError):
    """A LAPACK routine returned a nonzero ``info``."""


_TRTRS, _POTRS = get_lapack_funcs(("trtrs", "potrs"), (np.empty((1, 1)),))


def _lapack(name: str, x: np.ndarray, info: int) -> np.ndarray:
    if info:
        raise LapackError(f"{name} returned info={info}")
    return x


def _solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``chol^-1 b`` for a C-ordered lower factor, as ``solve_triangular(chol,
    b, lower=True)`` computes it: as the transposed upper system.  ``b`` is
    a temporary of the caller's, which LAPACK may overwrite."""
    return _lapack("trtrs", *_TRTRS(chol.T, b, lower=0, trans=1, overwrite_b=1))


def _chol_inverse(chol: np.ndarray) -> np.ndarray:
    """``(chol chol')^-1`` from a lower factor, as ``cho_solve((chol, True),
    eye)`` computes it."""
    return _lapack("potrs", *_POTRS(chol, np.eye(len(chol)), lower=1, overwrite_b=1))


@dataclass(frozen=True)
class VarSelData:
    """Sufficient statistics of a regression dataset."""

    gram: np.ndarray
    xty: np.ndarray
    yty: float
    n: int
    p: int

    def __post_init__(self):
        gram = np.asarray(self.gram, dtype=float)
        xty = np.asarray(self.xty, dtype=float)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "xty", xty)
        for name, value in (("gram", gram), ("xty", xty), ("yty", self.yty)):
            if not np.isfinite(value).all():
                raise NonFiniteData(f"{name} must be finite")
        if gram.shape != (self.p, self.p):
            raise ValueError("gram must be p x p")
        # x'x is exactly symmetric; only another gram needs the tolerance
        if not (gram == gram.T).all() and not np.allclose(
                gram, gram.T, atol=1e-8 * max(1.0, float(np.abs(gram).max()))):
            raise InvalidGram("gram must be symmetric")
        if self.yty <= 0:
            raise ValueError("yty must be positive")

    @cached_property
    def pivot_tol(self) -> float:
        return PIVOT_RTOL * float(np.max(np.diag(self.gram)))


@dataclass(frozen=True)
class VarSelHyper:
    """Prior hyperparameters: g-prior scale, sparsity penalty, optional cap."""

    g: float
    kappa: float
    s_max: int | None = None

    def __post_init__(self):
        if self.g <= 0 or self.kappa <= 0:
            raise ValueError("g and kappa must be positive")
        if self.s_max is not None and self.s_max < 1:
            raise ValueError("s_max must be >= 1 when present")


def _fresh_chol(data: VarSelData, active: list[int]) -> np.ndarray | None:
    if not active:
        return None
    try:
        chol = np.linalg.cholesky(data.gram[active][:, active])
    except np.linalg.LinAlgError as exc:
        raise SingularModel(str(exc)) from exc
    if float(chol.diagonal().min() ** 2) <= data.pivot_tol:
        raise SingularModel("pivot below tolerance")
    return chol


def _explained(data: VarSelData, chol: np.ndarray | None, active: list[int]) -> float:
    if chol is None:
        return 0.0
    z = _solve_lower(chol, data.xty[active])
    return float(z @ z)


def _active(delta) -> list[int]:
    """Active coordinates of a 0/1 model: a tuple or an integer array."""
    if isinstance(delta, np.ndarray):
        return np.flatnonzero(delta).tolist()
    # bytes() reads each 0/1 entry (int, bool or np.int64) as one byte
    return np.flatnonzero(np.frombuffer(bytes(delta), np.uint8)).tolist()


def r_squared(data: VarSelData, delta) -> float:
    """Coefficient of determination of the submodel selected by ``delta``."""
    return _r_squared(data, _active(delta))


def _r_squared(data: VarSelData, active: list[int]) -> float:
    chol = _fresh_chol(data, active)
    r2 = _explained(data, chol, active) / data.yty
    return float(min(max(r2, 0.0), 1.0))


def _log_post_from_r2(data: VarSelData, hyper: VarSelHyper, size, r2):
    """Log posterior from model size and R^2, for scalars or arrays alike.

    Arrays take the same operations in the same order as scalars, and
    ``np.log1p`` gives a scalar the bits of the same element of an array,
    so a vectorized scan gives exactly the values of one-at-a-time
    evaluation.  A scalar comes back as a Python float.
    """
    out = (
        -hyper.kappa * size * math.log(data.p)
        - 0.5 * size * math.log1p(hyper.g)
        - 0.5 * data.n * np.log1p(hyper.g * (1.0 - r2))
    )
    return out if np.ndim(out) else float(out)


def log_posterior(data: VarSelData, hyper: VarSelHyper, delta) -> float:
    """Marginal log posterior of a model, up to one global constant.

    Zero-probability states (sparsity cap exceeded, more variables than
    observations, or a numerically singular Gram block) return -inf.
    """
    active = _active(delta)
    size = len(active)
    if hyper.s_max is not None and size > hyper.s_max:
        return -math.inf
    if size > data.n:
        return -math.inf
    try:
        r2 = _r_squared(data, active)
    except SingularModel:
        return -math.inf
    return _log_post_from_r2(data, hyper, size, r2)


def _log_posts_of_size(data: VarSelData, hyper: VarSelHyper, active: np.ndarray) -> np.ndarray:
    """``log_posterior`` of the models whose active coordinates are the rows
    of ``active`` (increasing, one size s for all), bit for bit.

    The Gram blocks are factored in one stacked ``cholesky`` call, and each
    model takes its own triangular solve and dot product, as the scalar path
    does: a batched solve rounds differently.  A stack that ``cholesky``
    refuses is evaluated model by model.
    """
    n_models, size = active.shape
    out = np.full(n_models, -np.inf)
    if (hyper.s_max is not None and size > hyper.s_max) or size > data.n:
        return out
    explained = np.zeros(n_models)
    ok = np.ones(n_models, dtype=bool)
    if size:
        try:
            chol = np.linalg.cholesky(data.gram[active[:, :, None], active[:, None, :]])
        except np.linalg.LinAlgError:
            delta = np.zeros(data.p, dtype=int)
            for m, row in enumerate(active):
                delta[:] = 0
                delta[row] = 1
                out[m] = log_posterior(data, hyper, delta)
            return out
        ok = ~(np.diagonal(chol, axis1=1, axis2=2).min(axis=1) ** 2 <= data.pivot_tol)
        explained[ok] = [z @ z for z in map(_solve_lower, chol[ok], data.xty[active[ok]])]
    r2 = np.minimum(np.maximum(explained[ok] / data.yty, 0.0), 1.0)
    out[ok] = _log_post_from_r2(data, hyper, size, r2)
    return out


def _flip_coords(delta, size: int, s_max: int | None, hard: bool) -> np.ndarray:
    """Flippable coordinates of a model of ``size`` variables (a 0/1 tuple
    or a bool mask): all of them, or with ``hard`` only those whose flip
    stays within the cap ``s_max``."""
    if not hard or s_max is None or size + 1 <= s_max:
        return np.arange(len(delta))
    return np.flatnonzero(np.where(np.asarray(delta, dtype=bool), size - 1, size + 1) <= s_max)


def neighbors(delta, scheme: str = "n1", s_max: int | None = None, hard: bool = False):
    """Single-flip (``n1``) or add-delete-swap (``ads``) neighbor models.

    By default models beyond the sparsity cap are still emitted (they carry
    zero posterior mass, so proposing them is an automatic rejection); with
    ``hard=True`` they are dropped from the list instead.  The single flips
    come as a :class:`Flips`.
    """
    if scheme not in NEIGHBORHOODS:
        raise ValueError(f"unknown neighborhood scheme {scheme!r}")
    flips = Flips(delta, _flip_coords(delta, sum(delta), s_max, hard), 1)
    if scheme == "n1":
        return flips
    p = len(delta)
    out = list(flips)
    for j in range(p):
        if not delta[j]:
            continue
        for k in range(p):
            if delta[k]:
                continue
            swapped = list(delta)
            swapped[j], swapped[k] = 0, 1
            out.append(tuple(swapped))
    return out


def _n1_scan(data: VarSelData, hyper: VarSelHyper, cap: int, hard: bool):
    """Vectorized log posteriors of all single-flip neighbors of a model.

    ``cap`` is the largest model size with mass: ``s_max`` or fewer, and at
    most n.  Flips past it get -inf without being solved for."""
    gram, xty, yty = data.gram, data.xty, data.yty
    gram_diag = np.diag(gram).copy()
    tol = data.pivot_tol

    def scan(delta):
        # bytes() reads each 0/1 entry (int, bool or np.int64) as one byte
        d = np.frombuffer(bytes(delta), np.uint8) != 0
        active = np.flatnonzero(d).tolist()
        size = len(active)
        ns = Flips(delta, _flip_coords(d, size, cap, hard), 1)
        try:
            chol = _fresh_chol(data, active)
        except SingularModel:
            # current state carries no mass; fall back to per-model evals
            return ns, np.array([log_posterior(data, hyper, m) for m in ns])
        if size:
            z = _solve_lower(chol, xty[active])
            explained = float(z @ z)
        else:
            explained = 0.0
        lps = np.full(data.p, -np.inf)  # by coordinate
        if size < cap and size < data.p:  # adding a variable keeps mass
            inactive = np.flatnonzero(~d)
            if size:
                w = _solve_lower(chol, gram[active].take(inactive, axis=1))
                d2 = gram_diag[inactive] - np.einsum("ij,ij->j", w, w)
                num = xty[inactive] - w.T @ z
            else:
                d2 = gram_diag[inactive]
                num = xty[inactive]
            ok = d2 > tol
            if not ok.all():
                inactive, num, d2 = inactive[ok], num[ok], d2[ok]
            r2 = np.minimum(np.maximum((explained + num**2 / d2) / yty, 0.0), 1.0)
            lps[inactive] = _log_post_from_r2(data, hyper, size + 1, r2)
        if size and size <= cap + 1:  # dropping a variable keeps mass
            inv = _chol_inverse(chol)
            beta = inv @ xty[active]
            r2 = np.minimum(np.maximum((explained - beta**2 / inv.diagonal()) / yty, 0.0), 1.0)
            lps[active] = _log_post_from_r2(data, hyper, size - 1, r2)
        return ns, lps if len(ns) == data.p else lps[ns.coords]

    return scan


def _n1_space(data: VarSelData, hyper: VarSelHyper, cap: int, hard: bool,
              bfs: DiscreteTarget):
    """``DiscreteTarget.space`` of the ``n1`` target: the models of at most
    ``cap`` variables, ranked by their integer codes, tabulated in one pass.

    With ``hard``, a model at the cap flips only its active coordinates.  A
    space with more candidate models than the enumeration cap (or too many
    variables for an int64 code) is left to the breadth-first search of
    ``bfs``, which raises :class:`CapExceeded` as soon as it is over.
    """
    p = data.p
    cap = min(cap, p)  # no model holds more than p variables
    shift = p - 1 - np.arange(p)  # coordinate c is bit p-1-c

    def space(enum_cap: int) -> Space:
        if p > 62 or sum(math.comb(p, k) for k in range(cap + 1)) > enum_cap:
            return enumerate_space(bfs, enum_cap)
        by_size = [np.array(list(itertools.combinations(range(p), k)), dtype=np.intp)
                   .reshape(math.comb(p, k), k) for k in range(cap + 1)]
        codes = np.concatenate([(1 << shift[a]).sum(axis=1) for a in by_size])
        order = np.argsort(codes)
        codes = codes[order]
        log_pis = np.concatenate([_log_posts_of_size(data, hyper, a) for a in by_size])[order]
        if log_pis[0] == -np.inf:
            raise DegenerateSpace("seed state has zero probability")

        # move k of state i flips coordinate coords[i, k]: every coordinate,
        # or only the active ones of a state at a hard cap
        bits = (codes[:, None] >> shift) & 1
        size = bits.sum(axis=1)
        at_cap = hard & (size == cap)
        deg = np.where(at_cap, size, p).astype(np.intp)
        coords = np.tile(np.arange(p), (len(codes), 1))
        coords[at_cap, :cap] = np.nonzero(bits[at_cap])[1].reshape(at_cap.sum(), cap)
        coords = coords[:, :deg.max()]
        moves = np.arange(coords.shape[1]) < deg[:, None]
        flipped = codes[:, None] ^ (1 << shift[coords])
        nbr = np.minimum(np.searchsorted(codes, flipped), len(codes) - 1)
        moves &= codes[nbr] == flipped
        # the reverse move flips the same coordinate: its rank among the
        # neighbor's active coordinates when the neighbor is at the cap
        before = np.cumsum(bits, axis=1) - bits
        rev = np.where(at_cap[nbr], before[nbr, coords], coords)

        finite = log_pis > -np.inf
        if not finite.all():
            # the seed's component among the states with mass
            keep = np.zeros(len(codes), dtype=bool)
            keep[0] = True
            frontier = np.zeros(1, dtype=np.intp)
            while len(frontier):
                step = nbr[frontier][moves[frontier]]
                frontier = np.unique(step[finite[step] & ~keep[step]])
                keep[frontier] = True
            moves &= keep[nbr]
            rank = np.cumsum(keep) - 1
            log_pis, bits, deg = log_pis[keep], bits[keep], deg[keep]
            nbr, rev, moves = rank[nbr[keep]], rev[keep], moves[keep]
        nbr = np.where(moves, nbr, -1)
        rev = np.where(moves, rev, -1)
        states = list(map(tuple, bits.tolist()))
        space = Space(states, dict(zip(states, range(len(states)))), log_pis, nbr, deg, rev)
        space.log_pi_evals = len(order)
        return space

    return space


def varsel_target(
    data: VarSelData,
    hyper: VarSelHyper,
    neighborhood: str = "n1",
    hard_space: bool = True,
    name: str = "",
) -> DiscreteTarget:
    """Discrete target for the model posterior.

    ``hard_space=True`` keeps neighbor lists inside the allowed space (the
    graph the mixing theory is stated on); ``hard_space=False`` emits
    cap-violating proposals that are rejected through zero posterior mass.
    """
    cap = hyper.s_max if hyper.s_max is not None else data.p
    cap = min(cap, data.n)

    def log_pi(delta):
        return log_posterior(data, hyper, delta)

    def nbrs(delta):
        return neighbors(delta, neighborhood, s_max=cap, hard=hard_space)

    scan = _n1_scan(data, hyper, cap, hard_space) if neighborhood == "n1" else None
    target = DiscreteTarget(
        log_pi=log_pi,
        neighbors=nbrs,
        seed_state=tuple([0] * data.p),
        name=name or f"varsel(p={data.p}, n={data.n}, {neighborhood})",
        neighbor_log_pis=scan,
    )
    if neighborhood != "n1":
        return target
    return replace(target, space=_n1_space(data, hyper, cap, hard_space, target))


# ---------------------------------------------------------------------------
# data generation


def covariance_matrix(p: int, kind: str) -> np.ndarray:
    """Design covariance: unit diagonal, exponentially decaying correlation,
    the Toeplitz matrix of one ``exp`` per lag."""
    if kind not in COVARIANCES:
        raise ValueError(f"unknown covariance kind {kind!r}")
    lag = np.arange(p)
    return toeplitz(np.exp(-2.0 * lag) if kind == "moderate" else np.exp(-lag / 4.0))


# The design factor is computed at 2**500 times its scale and scaled back.
# A power of two scales normal numbers exactly, so the entries above the
# floor keep the bits of the plain factor, and the scaled factor, which the
# factorization reads back, has no subnormal entry.
_FACTOR_SCALE = 2.0**500
# Entries below this are set to zero: times a standard normal they are far
# below half an ulp of any sum they enter, and as subnormals they would slow
# every design product.
_FACTOR_FLOOR = 2.0**-600


@lru_cache(maxsize=8)
def _design_factor(p: int, covariance: str) -> np.ndarray:
    """Lower Cholesky factor of ``covariance_matrix(p, covariance)`` with its
    entries below ``_FACTOR_FLOOR`` zeroed, built once per process for each
    pair and shared read-only by every dataset."""
    chol = np.linalg.cholesky(covariance_matrix(p, covariance) * _FACTOR_SCALE**2)
    chol *= 1.0 / _FACTOR_SCALE
    chol = np.where(np.abs(chol) < _FACTOR_FLOOR, 0.0, chol)
    chol.flags.writeable = False
    return chol


def default_signal(p: int, n: int) -> np.ndarray:
    """Five-variable signal with scale sqrt(log p / n)."""
    beta = np.zeros(p)
    beta[:5] = math.sqrt(math.log(p) / n) * np.array([8.0, -12.0, 8.0, 8.0, -12.0])
    return beta


def generate_data(
    p: int,
    n: int,
    covariance: str = "moderate",
    seed=0,
    beta: np.ndarray | None = None,
) -> tuple[VarSelData, tuple]:
    """Draw a Gaussian design and response; return sufficient statistics only."""
    if p < 5 or n < 5:
        raise ValueError("need p >= 5 and n >= 5")
    rng = philox_rng(seed)
    x = rng.standard_normal((n, p)) @ _design_factor(p, covariance).T
    if beta is None:
        beta = default_signal(p, n)
    y = x @ beta + rng.standard_normal(n)
    data = VarSelData(gram=x.T @ x, xty=x.T @ y, yty=float(y @ y), n=n, p=p)
    truth = tuple((np.asarray(beta) != 0).astype(int).tolist())
    return data, truth


def gram_data(
    gram_over_n: np.ndarray,
    beta: np.ndarray,
    n: int,
    noise: float = 1.0,
) -> VarSelData:
    """Dataset specified directly by inner products, with no explicit design.

    The response is X beta plus a residual orthogonal to every column with
    squared norm ``noise * n``, so X'y and y'y follow exactly from the Gram
    matrix.
    """
    gram_over_n = np.asarray(gram_over_n, dtype=float)
    p = gram_over_n.shape[0]
    eigs = np.linalg.eigvalsh((gram_over_n + gram_over_n.T) / 2)
    if eigs.min() < -1e-10 * max(1.0, eigs.max()):
        raise InvalidGram(f"gram specification indefinite (min eig {eigs.min():.3g})")
    beta = np.asarray(beta, dtype=float)
    gram = gram_over_n * n
    xty = gram @ beta
    yty = float(beta @ gram @ beta + noise * n)
    return VarSelData(gram=gram, xty=xty, yty=yty, n=n, p=p)


# ---------------------------------------------------------------------------
# initialization schemes


def uniform_m_init(p: int, m: int, rng: np.random.Generator) -> tuple:
    """A uniformly random model with exactly m active variables."""
    if not 0 <= m <= p:
        raise InvalidInit(f"m={m} out of range for p={p}")
    delta = [0] * p
    for j in rng.choice(p, size=m, replace=False):
        delta[j] = 1
    return tuple(delta)


def good_bad_init(
    truth, variant: str, rng: np.random.Generator, n_false: int = 50
) -> tuple:
    """False-positive-heavy starts: ``good`` keeps the truth as a submodel,
    ``bad`` drops it entirely; both add ``n_false`` spurious variables."""
    p = len(truth)
    spurious = [j for j in range(p) if not truth[j]]
    if n_false > len(spurious):
        raise InvalidInit(f"cannot place {n_false} false positives with p={p}")
    chosen = rng.choice(len(spurious), size=n_false, replace=False)
    delta = [0] * p
    for idx in chosen:
        delta[spurious[idx]] = 1
    if variant == "good":
        for j in range(p):
            if truth[j]:
                delta[j] = 1
    elif variant != "bad":
        raise InvalidInit(f"unknown variant {variant!r}")
    return tuple(delta)


def init_scheme(
    kind: str,
    p: int,
    rng: np.random.Generator,
    truth=None,
    m: int | None = None,
    n_false: int = 50,
) -> tuple:
    if kind == "uniform-m":
        if m is None:
            raise InvalidInit("uniform-m needs m")
        return uniform_m_init(p, m, rng)
    if kind in ("good", "bad"):
        if truth is None:
            raise InvalidInit(f"{kind} init needs the true model")
        return good_bad_init(truth, kind, rng, n_false=n_false)
    raise InvalidInit(f"unknown init scheme {kind!r}")


# ---------------------------------------------------------------------------
# the three-variable fixture

EXAMPLE3_GRAM = np.array(
    [[1.0, -0.8, 0.9], [-0.8, 1.0, -0.6], [0.9, -0.6, 1.0]]
)
EXAMPLE3_BETA = np.array([1.25, 1.0, 0.0])
EXAMPLE3_N = 1000
EXAMPLE3_G = 27.0
EXAMPLE3_KAPPA = 1.0


def example3_data() -> VarSelData:
    return gram_data(EXAMPLE3_GRAM, EXAMPLE3_BETA, EXAMPLE3_N)


def example3_target(space: str = "v", neighborhood: str = "n1") -> DiscreteTarget:
    """The three-variable correlated-design fixture on V or V_2."""
    hyper = VarSelHyper(g=EXAMPLE3_G, kappa=EXAMPLE3_KAPPA, s_max=2 if space == "v2" else None)
    return varsel_target(example3_data(), hyper, neighborhood=neighborhood)
