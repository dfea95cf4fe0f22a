"""Random-walk and clipped informed Metropolis-Hastings kernels.

Both kernel families share one step primitive: draw a proposal from the
kernel's distribution on the current neighborhood, then accept with the
usual ratio.  The informed family weights each neighbor by a clipped
probability ratio; the random-walk family draws uniformly.  Laziness (stay
put with probability 1/2) is a kernel flag so that bound verification can
run on the matrices the mixing theory is stated for, while experiments run
the raw chains.

Randomness comes from counter-based Philox streams: a master seed spawns
independent substreams per replicate, so experiment results do not depend
on worker scheduling.
"""

from __future__ import annotations

import bisect
import math
import time
from collections import Counter
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (AsymmetricNeighborhood, DiscreteMHError, DiscreteTarget, Flips,
                   InvalidInit, IsolatedState, State, logsumexp, philox_rng)

RANDOM_WALK = "random-walk"
INFORMED = "informed"


class InvalidClip(DiscreteMHError):
    """Clip bounds must satisfy ell < L."""


@dataclass(frozen=True)
class KernelSpec:
    """Proposal family plus clip bounds and the laziness flag.

    ``ell = 0`` with ``big_l = inf`` is the unclipped informed kernel, whose
    weight function is the identity.  Laziness halves every off-diagonal
    transition probability.
    """

    family: str = RANDOM_WALK
    ell: float = 0.0
    big_l: float = math.inf
    lazy: bool = False

    def __post_init__(self):
        if self.family not in (RANDOM_WALK, INFORMED):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == INFORMED:
            if self.ell < 0:
                raise InvalidClip("ell must be >= 0")
            if not self.ell < self.big_l:
                raise InvalidClip(f"need ell < L, got ell={self.ell}, L={self.big_l}")

    @property
    def clipped(self) -> bool:
        return self.family == INFORMED and (self.ell > 0 or math.isfinite(self.big_l))

    def describe(self) -> str:
        if self.family == RANDOM_WALK:
            base = "random-walk"
        elif not self.clipped:
            base = "informed(unclipped)"
        else:
            base = f"informed(ell={self.ell:g}, L={self.big_l:g})"
        return base + (" lazy" if self.lazy else "")


def log_clip_weight(log_u, ell: float, big_l: float):
    """The informed weight function in the log domain: ``log_u`` clamped to
    ``[log ell, log L]``, on scalars or arrays of log ratios.  With nothing
    to clip (``ell = 0``, ``L = inf``) ``log_u`` itself is returned."""
    if not ell < big_l:
        raise InvalidClip(f"need ell < L, got ell={ell}, L={big_l}")
    if ell == 0 and big_l == math.inf:
        return log_u
    lo = math.log(ell) if ell > 0 else -math.inf
    hi = math.log(big_l) if math.isfinite(big_l) else math.inf
    return np.minimum(np.maximum(log_u, lo), hi)


@dataclass
class Scan:
    """A kernel's view of one state: its neighbors and, for informed kernels,
    their ``log_pis`` and the log proposal probabilities ``log_q``.  The
    random walk proposes uniformly and leaves both ``None``.  ``stats`` are
    the target's sufficient statistics at the state, when it has them.

    A chain carries the scan while it stays at the state, and the scan
    remembers what was worked out there: ``moves[j]`` holds ``(y, log pi(y),
    log alpha, bounded)`` of the move to the j-th neighbor y once it has
    been proposed and rejected, where ``bounded`` marks a rejection on the
    bound of :func:`_transition` and ``log alpha`` then holds that bound;
    ``cdf`` holds the informed proposal's cumulative weights once the first
    proposal has been drawn.  Both are functions of the state alone, so
    reading them gives the bits computing them again would, and both go
    with the scan when the chain moves."""

    state: State
    log_pi: float
    neighbors: Sequence
    log_q: np.ndarray | None = None
    log_pis: np.ndarray | None = None
    stats: object = None
    moves: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_evals(self) -> int:
        return 0 if self.log_pis is None else len(self.neighbors)

    @cached_property
    def cdf(self) -> list[float]:
        """Cumulative informed proposal weights, ``cumsum(exp(log_q))``, as
        a list that :func:`_sample_index` bisects."""
        return np.cumsum(np.exp(self.log_q)).tolist()

    def log_k(self, j: int) -> float:
        """Log probability of proposing the j-th neighbor."""
        return -math.log(len(self.neighbors)) if self.log_q is None else self.log_q[j]


def scan_at(
    target: DiscreteTarget, x: State, x_log_pi: float, spec: KernelSpec, stats=None
) -> Scan:
    """Neighbors of x with the kernel's proposal; the random walk evaluates
    no ``log_pi``, the informed kernel normalizes clipped weights.  A target
    with ``stats_at`` gets its statistics at x built unless ``stats`` are
    passed, and its informed scan reads the neighbors' ``log_pi`` from them."""
    if target.stats_at is not None and stats is None:
        stats = target.stats_at(x)
    if spec.family == RANDOM_WALK:
        ns, lps = target.neighbors(x), None
    elif stats is not None:
        ns = target.neighbors(x)
        lps = stats.flip_log_pis(x)[ns.coords]
    else:
        ns, lps = target.neighbors_with_log_pi(x)
    if not isinstance(ns, Flips):
        ns = list(ns)
    if not ns:
        raise IsolatedState(f"state {x!r} has no neighbors")
    if lps is None:
        return Scan(x, x_log_pi, ns, stats=stats)
    log_w = log_clip_weight(lps - x_log_pi, spec.ell, spec.big_l)
    log_z = float(logsumexp(log_w))
    if log_z == -math.inf:
        raise IsolatedState(f"state {x!r} has no neighbor with positive weight")
    return Scan(x, x_log_pi, ns, log_w - log_z, lps, stats)


def log_mh_ratio(lp_x, lp_y, log_k_fwd, log_k_rev):
    """log of pi(y) K(y, x) / (pi(x) K(x, y)) from log pi at both ends and
    the forward and reverse log proposal probabilities, on scalars or
    arrays."""
    return lp_y - lp_x + log_k_rev - log_k_fwd


def _reverse_index(sx: Scan, j: int, y: State, ny: Sequence) -> int:
    """Position of x = ``sx.state`` among the neighbors ``ny`` of its j-th
    neighbor y; :class:`AsymmetricNeighborhood` if x is not among them."""
    try:
        if isinstance(sx.neighbors, Flips) and isinstance(ny, Flips):
            return ny.position(sx.neighbors.coords.item(j))
        return ny.index(sx.state)
    except ValueError:
        raise AsymmetricNeighborhood(
            f"{y!r} is a neighbor of {sx.state!r}, but not the other way round"
        ) from None


def log_acceptance(sx: Scan, sy: Scan, j: int) -> float:
    """log of pi(y) K(y, x) / (pi(x) K(x, y)) for the move from x =
    ``sx.state`` to its j-th neighbor y, given the scan ``sy`` at y.  The
    informed ratio takes pi(y) from the forward scan, as the step does."""
    i = _reverse_index(sx, j, sy.state, sy.neighbors)
    lp_y = sy.log_pi if sx.log_pis is None else sx.log_pis[j]
    return float(log_mh_ratio(sx.log_pi, lp_y, sx.log_k(j), sy.log_k(i)))


def _move(target: DiscreteTarget, sx: Scan, j: int, y: State, spec: KernelSpec):
    """log pi(y), the scan at y, log alpha and the log_pi evaluations spent
    on the move to the j-th neighbor y; a zero-probability y is rejected
    unscanned, and its scan is ``None``."""
    stats_y = None
    if sx.stats is not None:
        stats_y = sx.stats.flip(sx.state, sx.neighbors.coords.item(j))
    if sx.log_pis is not None:
        lp_y, n_evals = float(sx.log_pis[j]), 0
    elif stats_y is not None:
        lp_y, n_evals = stats_y.log_posterior(), 1
    else:
        lp_y, n_evals = float(target.log_pi(y)), 1
    if lp_y == -math.inf:
        return lp_y, None, -math.inf, n_evals
    sy = scan_at(target, y, lp_y, spec, stats_y)
    return lp_y, sy, log_acceptance(sx, sy, j), n_evals + sy.n_evals


def informed_proposal_dist(
    target: DiscreteTarget, x: State, spec: KernelSpec
) -> tuple[Sequence[State], np.ndarray]:
    """Informed proposal distribution over the neighborhood of ``x``.

    Each neighbor's probability is its clipped ratio weight over the
    normalizer; weights are computed in the log domain and exponentiated
    after a log-sum-exp.
    """
    if spec.family != INFORMED:
        raise ValueError("informed_proposal_dist requires an informed KernelSpec")
    sx = scan_at(target, x, target.log_pi(x), spec)
    return sx.neighbors, np.exp(sx.log_q)


def acceptance_log_ratio(
    target: DiscreteTarget, x: State, x_prime: State, spec: KernelSpec
) -> float:
    """log of pi(x') K(x', x) / (pi(x) K(x, x')) for a proposed move.

    The acceptance probability of the move is ``min(1, exp(value))``; -inf
    encodes a proposal onto a zero-probability state.
    """
    sx = scan_at(target, x, target.log_pi(x), spec)
    try:
        j = sx.neighbors.index(x_prime)
    except ValueError:
        raise ValueError(f"{x_prime!r} is not a neighbor of {x!r}") from None
    return float(_move(target, sx, j, x_prime, spec)[2])


@dataclass(slots=True)
class StepMeta:
    """One transition's record.  ``bounded`` marks an informed proposal
    rejected on the bound log pi(y) - log pi(x) - log K(x, y), which takes
    K(y, x) as 1 and so needs no scan at y; ``log_alpha`` then holds that
    bound, which is at least the exact log acceptance ratio and below 0."""

    proposal: State | None
    accepted: bool
    lazy_stay: bool
    log_alpha: float
    n_evals: int
    next_log_pi: float
    n_scans: int = 0
    n_reused: int = 0
    bounded: bool = False


def _sample_index(rng: np.random.Generator, cdf: list[float]) -> int:
    """An index drawn with the weights whose cumulative sums are ``cdf``:
    the first whose sum exceeds u times the total, at most the last."""
    return min(bisect.bisect_right(cdf, rng.random() * cdf[-1]), len(cdf) - 1)


def _repeat_counts(move: tuple) -> tuple[int, bool, bool]:
    """The counters a rejected repeat of the remembered move ``(y, log
    pi(y), log alpha, bounded)`` (see :class:`Scan`) adds: the scans reused
    (the carried scan at x, and the reverse scan an exact rejection onto a
    positive-probability y had), a rejection for zero probability and a
    rejection on the bound."""
    _, lp_y, log_alpha, bounded = move
    return 1 + (not bounded and lp_y > -math.inf), log_alpha == -math.inf, bounded


def _transition(
    target: DiscreteTarget,
    x: State,
    x_log_pi: float,
    sx: Scan | None,
    spec: KernelSpec,
    rng: np.random.Generator,
    stats=None,
) -> tuple[State, StepMeta, Scan | None]:
    """One transition from ``x``, given the scan at x if the previous step
    left it, or else the target's statistics at x if they are at hand.
    ``rng`` needs the generator's ``random`` and, for the random walk, its
    ``integers``; an informed step draws nothing else.  Returns the next
    state, the step's record and the scan at the next state: the scan at y
    when y is accepted, the scan at x otherwise.

    A move the scan at x remembers (see :class:`Scan`) is not worked out
    again unless it is accepted, which needs the scan at y.

    An informed move is first tested against the bound that K(y, x) <= 1
    gives: log alpha <= log pi(y) - log pi(x) - log K(x, y).  When the bound
    is below 0, so is the finite exact ratio, and the acceptance uniform is
    drawn at once; a uniform at or above the bound rejects the move without
    the scan at y, just as the exact ratio would.  Every ``log_q`` is at most
    0 in floating point too (``logsumexp`` is never below the largest term),
    so the computed bound is never below the computed ratio.  The first such
    rejection of a move checks that y lists x, and the scan at x remembers
    the bound: a repeat draws its uniform at the same point and, below the
    bound, works out the exact move as a fresh proposal would."""
    if spec.lazy and rng.random() < 0.5:
        return x, StepMeta(None, False, True, 0.0, 0, x_log_pi), sx
    n_evals = n_scans = n_reused = 0
    if sx is None:
        sx = scan_at(target, x, x_log_pi, spec, stats)
        n_evals, n_scans = sx.n_evals, 1
    else:
        n_reused = 1
    if sx.log_q is None:
        j = int(rng.integers(len(sx.neighbors)))
    else:
        j = _sample_index(rng, sx.cdf)
    remembered = sx.moves.get(j)
    log_u = None
    if remembered is not None:
        y, lp_y, log_alpha, bounded = remembered
        # the acceptance uniform is drawn only when alpha is positive
        if log_alpha == -math.inf or (log_u := math.log(rng.random())) >= log_alpha:
            n_reused = _repeat_counts(remembered)[0]
            return x, StepMeta(y, False, False, log_alpha, 0, x_log_pi, 0, n_reused,
                               bounded), sx
        if not bounded:  # an exact rejection, accepted this time
            _, sy, _, n = _move(target, sx, j, y, spec)
            return y, StepMeta(y, True, False, log_alpha, n, lp_y, 1, 1), sy
    else:
        y, bounded = sx.neighbors[j], False
        if sx.log_pis is not None and sx.log_pis[j] > -math.inf:
            lp_y = float(sx.log_pis[j])
            # the bound, until the exact move is worked out
            log_alpha = float(log_mh_ratio(x_log_pi, lp_y, sx.log_k(j), 0.0))
            bounded = log_alpha < 0
        if bounded:
            log_u = math.log(rng.random())
            if log_u >= log_alpha:
                _reverse_index(sx, j, y, target.neighbors(y))
                sx.moves[j] = (y, lp_y, log_alpha, True)
                meta = StepMeta(y, False, False, log_alpha, n_evals, x_log_pi, n_scans,
                                n_reused, bounded=True)
                return x, meta, sx
    lp_y, sy, log_alpha, n = _move(target, sx, j, y, spec)
    n_evals += n
    n_scans += sy is not None
    if log_alpha >= 0:
        accepted = True
    elif log_alpha == -math.inf:
        accepted = False
    else:
        if log_u is None:
            log_u = math.log(rng.random())
        accepted = log_u < log_alpha
    if accepted:
        return y, StepMeta(y, True, False, log_alpha, n_evals, lp_y, n_scans, n_reused), sy
    sx.moves[j] = (y, lp_y, log_alpha, False)
    return x, StepMeta(y, False, False, log_alpha, n_evals, x_log_pi, n_scans, n_reused), sx


class _Uniforms:
    """``rng.random()`` for a chain that draws nothing else, served from
    blocks of ``rng.random(k)``, which holds the numbers k single draws
    would.  ``us[t:]`` are the uniforms not yet drawn: a reader may look
    ahead in them and draws those it moves ``t`` past."""

    __slots__ = ("_rng", "us", "t")

    def __init__(self, rng: np.random.Generator):
        self._rng, self.us, self.t = rng, [], 0

    def ahead(self, k: int) -> list[float]:
        """The block, with at least ``k`` undrawn uniforms from ``t`` on."""
        if len(self.us) - self.t < k:
            self.us = self.us[self.t:] + self._rng.random(max(k, 256)).tolist()
            self.t = 0
        return self.us

    def random(self) -> float:
        t = self.t
        if t == len(self.us):
            self.ahead(1)
            t = 0
        self.t = t + 1
        return self.us[t]


def _stay_run(sx: Scan, spec: KernelSpec, src: _Uniforms, n_max: int):
    """Settle up to ``n_max`` steps of a stay at ``sx.state`` under an
    informed kernel, as :func:`_transition` would, while each step proposes
    a move the carried scan remembers and rejects it again.

    Each step reads its draws from the uniforms ahead in ``src``, in
    ``_transition``'s order: the lazy coin, the proposal (the bisect of
    ``sx.cdf`` that :func:`_sample_index` makes) and, for a move of positive
    alpha, the acceptance uniform, which must not fall below the remembered
    alpha.  The loop writes these out rather than call the helpers: a
    helper call per step costs about as much as the rest of the step.  The
    run stops before the first step it cannot settle (an unremembered move,
    or a uniform below the remembered alpha), having drawn only the
    uniforms of the steps it settled, so ``_transition`` takes that step
    with the draws it would have had.  Returns the settled steps' lazy-stay
    flags and the scans reused, zero-probability rejections and bound
    rejections they add."""
    cdf, moves, lazy = sx.cdf, sx.moves, spec.lazy
    top, get, log = cdf[-1], moves.get, math.log
    lazies, settled = [], []
    us, t = src.us, src.t
    while len(lazies) < n_max:
        if len(us) - t < 3:  # a step draws at most three uniforms
            src.t = t
            us, t = src.ahead(3), src.t
        s = t
        if lazy:
            s += 1
            if us[t] < 0.5:
                lazies.append(True)
                t = s
                continue
        # an index past the last, which _sample_index clamps, is no move
        # remembered: the step is left to _transition
        j = bisect.bisect_right(cdf, us[s] * top)
        move = get(j)
        if move is None:
            break
        s += 1
        if move[2] > -math.inf:
            if log(us[s]) < move[2]:
                break
            s += 1
        settled.append(j)
        lazies.append(False)
        t = s
    src.t = t
    reused = neg_inf = bounded = 0
    for j, n in Counter(settled).items():
        r, z, b = _repeat_counts(moves[j])
        reused += n * r
        neg_inf += n * z
        bounded += n * b
    return lazies, reused, neg_inf, bounded


def step(
    target: DiscreteTarget,
    x: State,
    spec: KernelSpec,
    rng: np.random.Generator,
    x_log_pi: float | None = None,
) -> tuple[State, StepMeta]:
    """One Metropolis-Hastings transition from ``x``.

    Draw order is fixed (lazy coin, proposal, acceptance uniform) so traces
    are reproducible from the generator state.  ``run_chain`` makes the
    same transitions but carries the scan at the current state along.
    """
    if x_log_pi is None:
        x_log_pi = target.log_pi(x)
    y, meta, _ = _transition(target, x, x_log_pi, None, spec, rng)
    return y, meta


@dataclass
class ChainTrace:
    """A realized chain: states, their log probabilities, per-step flags and
    counters.  ``evals`` counts the ``log_pi`` evaluations made and
    ``scans`` the neighborhood scans computed.  ``scans_reused`` counts the
    scans a step needed but did not compute: the forward scan carried from
    the step before, and the reverse scan of a move that was proposed again
    during the same stay and rejected again.
    ``neg_inf_rejects`` counts proposals rejected for zero probability, and
    ``bound_rejects`` informed proposals rejected on the bound that needs no
    reverse scan (see :class:`StepMeta`).  Neither kind needs one, so over
    the ``moves`` non-lazy steps ``scans + scans_reused + bound_rejects ==
    2 * moves - neg_inf_rejects``.  ``states`` is ``None`` for a chain run
    without its state list."""

    seed: object
    spec: KernelSpec
    states: list | None
    log_pis: np.ndarray
    accepted: np.ndarray
    lazy_stays: np.ndarray
    evals: int
    scans: int
    scans_reused: int
    neg_inf_rejects: int
    bound_rejects: int
    hit_iteration: int | None
    elapsed: float
    elapsed_to_hit: float | None


def run_chain(
    target: DiscreteTarget,
    init: State,
    spec: KernelSpec,
    n_steps: int,
    seed,
    stop_at=None,
    stop_early: bool = False,
    *,
    keep_states: bool = True,
) -> ChainTrace:
    """Run a chain for ``n_steps`` transitions from ``init``.

    ``stop_at`` may be a single state or a set; the first iteration whose
    state lies in it is recorded, and the run terminates there when
    ``stop_early`` is set (traces are fixed-length otherwise so that
    replicate aggregation stays rectangular).  The chain makes the same
    transitions as repeated :func:`step` calls, with the same random draws,
    but it reuses work: one scan serves as the reverse scan of a move and
    as the forward scan of the next step, and while the chain stays at a
    state, a move proposed again is read from that scan's memory of
    rejected moves instead of being worked out again.  Like ``step``, it
    rejects an informed proposal on the bound of :func:`_transition` when
    it can, without the scan at the proposed state.  An informed chain
    draws its uniforms in blocks (:class:`_Uniforms`), and once a step of a
    stay repeats a rejection the carried scan remembers, the steps after it
    that do so too are settled in one run (:func:`_stay_run`).  Without
    ``keep_states`` the trace's ``states`` is ``None`` and no state list is
    built.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    rng = philox_rng(seed)
    informed = spec.family == INFORMED
    if informed:  # an informed chain draws nothing but uniforms
        rng = _Uniforms(rng)
    stop = ()
    if stop_at is not None:
        # model states are tuples; collections of stop states are sets/lists
        stop = frozenset(stop_at if isinstance(stop_at, (set, frozenset, list)) else [stop_at])
        # ``in`` on a tuple compares with ==, which returns at the first entry
        # that differs; a set would hash the whole state on every lookup,
        # since tuples do not cache their hash
        stop = tuple(stop)

    x = init
    # a target with statistics builds them once: log pi at the start is read
    # from them, and they serve the first scan
    stats = None if target.stats_at is None else target.stats_at(x)
    lp = target.log_pi(x) if stats is None else stats.log_posterior()
    if lp == -math.inf:
        raise InvalidInit("initial state has zero probability")
    states = [x] if keep_states else None
    log_pis = [lp]
    accepted = []
    lazy_stays = []
    evals = scans = reused = neg_inf = bounded = 0
    hit = 0 if x in stop else None
    t0 = time.perf_counter()
    t_hit = 0.0 if hit is not None else None
    sx = None
    i = 0
    while i < n_steps and not (hit is not None and stop_early):
        n_moves = -1 if sx is None else len(sx.moves)
        x, meta, sx = _transition(target, x, lp, sx, spec, rng, stats if n_moves < 0 else None)
        i += 1
        lp = meta.next_log_pi
        if keep_states:
            states.append(x)
        log_pis.append(lp)
        accepted.append(meta.accepted)
        lazy_stays.append(meta.lazy_stay)
        reused += meta.n_reused
        evals += meta.n_evals
        scans += meta.n_scans
        neg_inf += meta.log_alpha == -math.inf
        bounded += meta.bounded
        if meta.accepted:
            if hit is None and x in stop:
                hit = i
                t_hit = time.perf_counter() - t0
        elif (informed and meta.proposal is not None and len(sx.moves) == n_moves
              and i < n_steps):
            # the step repeated a rejection the carried scan remembers
            lazies, n_reused, n_neg_inf, n_bounded = _stay_run(sx, spec, rng, n_steps - i)
            n = len(lazies)
            if keep_states:
                states += [x] * n
            log_pis += [lp] * n
            accepted += [False] * n
            lazy_stays += lazies
            reused += n_reused
            neg_inf += n_neg_inf
            bounded += n_bounded
            i += n
    elapsed = time.perf_counter() - t0
    return ChainTrace(
        seed=seed,
        spec=spec,
        states=states,
        log_pis=np.array(log_pis),
        accepted=np.array(accepted, dtype=bool),
        lazy_stays=np.array(lazy_stays, dtype=bool),
        evals=evals,
        scans=scans,
        scans_reused=reused,
        neg_inf_rejects=neg_inf,
        bound_rejects=bounded,
        hit_iteration=hit,
        elapsed=elapsed,
        elapsed_to_hit=t_hit,
    )


@dataclass
class ExperimentSummary:
    """Aggregate of replicated hitting runs: success count plus medians, and
    each replicate's trace in replicate order."""

    n_runs: int
    budget: int
    success: int
    median_hit_iteration: float | None
    median_elapsed: float
    median_elapsed_to_hit: float | None
    runs: list[ChainTrace] = field(repr=False, default_factory=list)

    @property
    def majority_success(self) -> bool:
        return self.success >= self.n_runs / 2


def _run_replicate(args):
    """The replicate's trace, without a state list."""
    factory, index, seedseq, spec, budget, stop_early = args
    data_seq, chain_seq = seedseq.spawn(2)
    target, init, truth = factory(index, data_seq)
    return run_chain(target, init, spec, budget, chain_seq, stop_at=truth,
                     stop_early=stop_early, keep_states=False)


def hitting_experiment(
    factory: Callable[[int, np.random.SeedSequence], tuple],
    spec: KernelSpec,
    n_runs: int,
    budget: int,
    master_seed,
    workers: int = 1,
    stop_early: bool = True,
) -> ExperimentSummary:
    """Replicated hitting-time experiment under a per-replicate seed tree.

    Each replicate gets an independent substream of the master seed, so the
    summary is identical for any worker count.  Success counts runs whose
    chain reaches a truth state within the budget; iteration and wall-time
    medians are taken over successful runs.  Each replicate's trace keeps
    everything but its state list, which is never built.
    """
    children = np.random.SeedSequence(master_seed).spawn(n_runs)
    jobs = [
        (factory, i, children[i], spec, budget, stop_early)
        for i in range(n_runs)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(_run_replicate, jobs))
    else:
        traces = [_run_replicate(j) for j in jobs]
    hits = [t.hit_iteration for t in traces if t.hit_iteration is not None]
    t_hits = [t.elapsed_to_hit for t in traces if t.elapsed_to_hit is not None]
    return ExperimentSummary(
        n_runs=n_runs,
        budget=budget,
        success=len(hits),
        median_hit_iteration=float(np.median(hits)) if hits else None,
        median_elapsed=float(np.median([t.elapsed for t in traces])),
        median_elapsed_to_hit=float(np.median(t_hits)) if t_hits else None,
        runs=traces,
    )
