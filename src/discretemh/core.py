"""Shared state-space, target-distribution and neighborhood machinery.

A target is a triple: a finite set of states reachable from a seed state, a
symmetric neighborhood relation, and an unnormalized log probability.  States
are opaque hashable values with a total (lexicographic) order; models use
tuples of small ints.  All probability arithmetic stays in the log domain,
with -inf encoding excluded states.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass, replace

import numpy as np

State = Hashable

#: States beyond this count are refused by the exact diagnostics.
DEFAULT_ENUM_CAP = 4096


class DiscreteMHError(Exception):
    """Base class for all library errors."""


class CapExceeded(DiscreteMHError):
    """The state space is too large for exact enumeration-based diagnostics."""


class DegenerateSpace(DiscreteMHError):
    """A space (or restriction) with fewer than two states; R is undefined."""


class DisconnectedRestriction(DiscreteMHError):
    """The restriction of the neighborhood graph to a subset is disconnected."""


class BoundInapplicable(DiscreteMHError):
    """A bound was requested outside the hypotheses under which it holds."""


class IsolatedState(DiscreteMHError):
    """A state with an empty neighborhood was reached."""


class AsymmetricNeighborhood(DiscreteMHError):
    """A state is a neighbor of x, but x is not a neighbor of that state."""


class InvalidInit(DiscreteMHError):
    """An initialization scheme that is unknown or has out-of-range parameters."""


class Flips(Sequence):
    """The single-coordinate flips of a tuple state, addressed by coordinate.

    Move j flips coordinate ``coords[j]`` (increasing) of ``state``, taking
    value v to ``flip_sum - v``.  Only the states that are asked for are
    built; the reverse of "flip c" is "flip c", found by ``position``.
    """

    __slots__ = ("state", "coords", "flip_sum")

    def __init__(self, state: tuple, coords: np.ndarray, flip_sum: int):
        self.state = state
        self.coords = coords
        self.flip_sum = flip_sum

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, j: int) -> tuple:
        return self._flip(self.coords.item(j))

    def __iter__(self):
        return map(self._flip, self.coords.tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    def _flip(self, c: int) -> tuple:
        y = list(self.state)
        y[c] = self.flip_sum - y[c]
        return tuple(y)

    def position(self, c: int) -> int:
        """Index of the move that flips coordinate ``c``."""
        if len(self.coords) == len(self.state):  # every coordinate flips
            return c
        j = int(np.searchsorted(self.coords, c))
        if j == len(self.coords) or self.coords[j] != c:
            raise ValueError(f"coordinate {c} of {self.state!r} is not flippable")
        return j

    def index(self, y) -> int:
        x = self.state
        if isinstance(y, tuple) and len(y) == len(x):
            diff = [c for c, (a, b) in enumerate(zip(x, y)) if a != b]
            if len(diff) == 1 and y[diff[0]] == self.flip_sum - x[diff[0]]:
                return self.position(diff[0])
        raise ValueError(f"{y!r} is not a flip of {x!r}")


@dataclass(frozen=True)
class DiscreteTarget:
    """Finite discrete target: log probability plus neighborhood closure.

    ``log_pi`` must be pure (same state -> same value, -inf allowed) and safe
    to call concurrently.  ``neighbors`` must be irreflexive and symmetric;
    it may return a :class:`Flips`, which samplers index by coordinate.
    ``neighbor_log_pis``, when provided, returns ``(neighbors, log_pi_array)``
    in one call; samplers use it to batch informed proposal scans.

    ``stats_at``, when provided, builds the sufficient statistics of a state
    whose neighbors are a :class:`Flips`; a chain carries them from state to
    state instead of recomputing them, and reads log pi at its start from
    them.  The statistics object has ``log_posterior()`` (``log_pi`` of
    the state, bit for bit), ``flip(x, c)`` (the statistics after flipping
    coordinate c of x) and ``flip_log_pis(x)`` (log pi of every single flip
    of x, in coordinate order).

    ``space``, when provided, tabulates the space in one call:
    ``space(cap)`` returns the :class:`Space` that the breadth-first search
    of :func:`enumerate_space` would build from ``log_pi`` and ``neighbors``
    (the same states, positions, table and log pi, to the last bit), or
    raises :class:`CapExceeded` as it would.  It must agree with
    ``log_pi``, ``neighbors`` and ``seed_state``: a copy that replaces any
    of them sets ``space=None``.
    """

    log_pi: Callable[[State], float]
    neighbors: Callable[[State], Sequence[State]]
    seed_state: State
    name: str = ""
    neighbor_log_pis: Callable[[State], tuple[Sequence[State], np.ndarray]] | None = None
    stats_at: Callable[[State], object] | None = None
    space: Callable[[int], Space] | None = None

    def neighbors_with_log_pi(self, x: State) -> tuple[Sequence[State], np.ndarray]:
        if self.neighbor_log_pis is not None:
            ns, lps = self.neighbor_log_pis(x)
            return ns, np.asarray(lps, dtype=float)
        ns = list(self.neighbors(x))
        return ns, np.array([self.log_pi(y) for y in ns], dtype=float)


@dataclass(frozen=True)
class NeighborhoodStats:
    """Neighborhood size / unimodality summary of an enumerated space.

    ``m`` is the maximum neighborhood size.  ``log_r`` is the log of the
    unimodality ratio: the worst best-neighbor probability ratio over
    non-mode states.  ``x_star`` is the mode, ties broken by the smallest
    state in the total order.
    """

    m: int
    log_r: float
    x_star: State
    n_states: int

    @property
    def r(self) -> float:
        try:
            return math.exp(self.log_r)
        except OverflowError:
            return math.inf

    @property
    def rho(self) -> float:
        try:
            return math.exp(self.log_r - math.log(self.m))
        except OverflowError:
            return math.inf

    @property
    def unimodal(self) -> bool:
        return self.log_r > 0.0

    def to_json_dict(self) -> dict:
        return {
            "M": self.m,
            "R": self.r,
            "log_R": self.log_r,
            "rho": self.rho,
            "x_star": list(self.x_star) if isinstance(self.x_star, tuple) else self.x_star,
            "n_states": self.n_states,
        }


def enumerate_space(target: DiscreteTarget, cap: int = DEFAULT_ENUM_CAP) -> Space:
    """Breadth-first closure of the neighborhood relation from the seed state,
    tabulated as it is found; ``target.space(cap)`` instead when the target
    provides it.

    States with ``log_pi = -inf`` are skipped: they are proposal-only and carry
    no mass.  Every reachable state has its ``log_pi`` and its neighborhood
    evaluated once; the states come back in sorted order as a :class:`Space`.
    Raises :class:`CapExceeded` once more than ``cap`` states have been found.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    if target.space is not None:
        return target.space(cap)
    seed = target.seed_state
    found = {seed: target.log_pi(seed)}
    if found[seed] == -math.inf:
        raise DegenerateSpace("seed state has zero probability")
    rows = {}
    evals = 1
    queue = deque([seed])
    while queue:
        x = queue.popleft()
        rows[x] = list(target.neighbors(x))
        for y in rows[x]:
            if y in found:
                continue
            lp = target.log_pi(y)
            evals += 1
            if lp == -math.inf:
                continue
            found[y] = lp
            if len(found) > cap:
                raise CapExceeded(f"more than {cap} reachable states")
            queue.append(y)
    # tabulate from what the search evaluated
    space = tabulate(replace(target, log_pi=found.__getitem__, neighbors=rows.__getitem__),
                     sorted(found))
    space.log_pi_evals = evals
    return space


def logsumexp(a, axis=None):
    """``log(sum(exp(a)))`` over ``axis`` (every entry when None) of a real
    array, bit for bit equal to ``scipy.special.logsumexp``: its steps in
    its order, without its array-API dispatch.  The entries equal to the
    maximum are counted and left out of the shifted sum, and a result that
    is not finite falls back to the direct ``log(sum(exp(a)))``."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return np.full(np.sum(a, axis=axis).shape, -np.inf)[()]
    if a.ndim <= 1:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a_max = a.max()
            top = a == a_max
            m = np.count_nonzero(top)
            # a zero sum has m >= 1, so dividing it leaves it zero, as scipy's
            # where(s == 0, s, s / m) does
            s = np.exp(np.where(top, -np.inf, a) - a_max).sum() / m
            out = np.log1p(s) + np.log(m) + a_max
            return out if np.isfinite(out) else np.log(np.exp(a).sum())
    # more axes: the same steps, keeping the reduced axes to broadcast
    red = {"axis": tuple(range(a.ndim)) if axis is None else axis, "keepdims": True}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(**red)
        top = a == a_max
        m = np.count_nonzero(top, **red)
        s = np.exp(np.where(top, -np.inf, a) - a_max).sum(**red) / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out).all():
            out = np.where(np.isfinite(out), out, np.log(np.exp(a).sum(**red)))
    return np.squeeze(out, axis=red["axis"])[()]


def philox_rng(seed) -> np.random.Generator:
    """Counter-based generator from an int, a sequence of ints or a
    SeedSequence; the one RNG constructor used throughout the package."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


class Space(Sequence):
    """An enumerated space tabulated once for a target, as the sequence of
    its states.

    ``log_pis[i]`` is log pi of state i.  Move k of state i goes to state
    ``nbr[i, k]`` for k < ``deg[i]``, the size of its neighborhood; -1 marks
    a neighbor outside the space (probability 0) and the padding past
    ``deg[i]``.  ``rev[i, k]`` is the move of ``nbr[i, k]`` back to i.
    ``pos`` maps each state to its position.  ``log_pi_evals`` counts the
    log pi evaluations that built the table: one per state, unless the
    builder that evaluated more sets it.
    """

    def __init__(self, states: list, pos: dict, log_pis, nbr, deg, rev):
        self.states, self.pos = states, pos
        self.log_pis, self.nbr, self.deg, self.rev = log_pis, nbr, deg, rev
        self.log_pi_evals = len(states)

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i):
        return self.states[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and self.states == list(other)

    def mask(self, xs) -> np.ndarray:
        """Boolean mask of the states ``xs`` over the space."""
        out = np.zeros(len(self.states), dtype=bool)
        out[[self.pos[x] for x in xs]] = True
        return out


def tabulate(target: DiscreteTarget, states: Sequence[State]) -> Space:
    """One ``log_pi`` and one neighborhood per state, neighbors as positions.

    Raises :class:`AsymmetricNeighborhood` where a state of the space lists
    a neighbor in the space that does not list it back.  A :class:`Space`
    is returned as it is.
    """
    if isinstance(states, Space):
        return states
    states = list(states)
    pos = {x: i for i, x in enumerate(states)}
    rows = [[pos.get(y, -1) for y in target.neighbors(x)] for x in states]
    deg = np.array([len(r) for r in rows], dtype=np.intp)
    nbr = np.full((len(states), max(deg, default=0)), -1, dtype=np.intp)
    rev = nbr.copy()
    move = {}
    for i, r in enumerate(rows):
        nbr[i, :len(r)] = r
        move.update(((i, j), k) for k, j in enumerate(r) if j >= 0)
    for (i, j), k in move.items():
        if (j, i) not in move:
            raise AsymmetricNeighborhood(
                f"{states[j]!r} is a neighbor of {states[i]!r}, but not the other way round"
            )
        rev[i, k] = move[j, i]
    log_pis = np.array([target.log_pi(x) for x in states], dtype=float)
    return Space(states, pos, log_pis, nbr, deg, rev)


def _ratio_stats(space: Space, inside: np.ndarray) -> NeighborhoodStats:
    """Mode and unimodality ratio of the states ``inside``, moves leaving
    them excluded; M over the whole space."""
    members = np.flatnonzero(inside)
    lp = space.log_pis[members]
    i_star = min(members[lp == lp.max()], key=space.__getitem__)  # ties: smallest state
    nbr = space.nbr[members]
    best = np.where((nbr >= 0) & inside[nbr], space.log_pis[nbr], -np.inf)
    gain = best.max(axis=1, initial=-np.inf) - lp
    gain[members == i_star] = math.inf
    return NeighborhoodStats(
        m=int(space.deg.max()), log_r=float(gain.min()), x_star=space[i_star],
        n_states=len(members),
    )


def unimodality_stats(target: DiscreteTarget, states: Sequence[State]) -> NeighborhoodStats:
    """Max neighborhood size, unimodality ratio and mode of a full enumeration.

    The ratio minimizes, over every state except the mode, the best
    log-probability gain available in one move.  Computed entirely in the
    log domain.
    """
    if len(states) < 2:
        raise DegenerateSpace("need at least two states to define R")
    space = tabulate(target, states)
    stats = _ratio_stats(space, np.ones(len(space), dtype=bool))
    for i in np.flatnonzero(space.deg == 0):
        if space[i] != stats.x_star:
            raise IsolatedState(f"state {space[i]!r} has no neighbors")
    return stats


def restricted_stats(
    target: DiscreteTarget, states: Sequence[State], x0: Sequence[State]
) -> NeighborhoodStats:
    """Unimodality stats with neighborhoods intersected with a subset ``x0``.

    The maximum neighborhood size is still taken over the full space; only
    the ratio and the mode are computed inside the restriction.
    """
    space = tabulate(target, states)
    x0_set = set(x0)
    if not all(x in space.pos for x in x0_set):
        raise ValueError("x0 must be a subset of the enumerated states")
    if len(x0_set) < 2:
        raise DegenerateSpace("restriction has fewer than two states")
    inside = space.mask(x0_set)
    reached = len(_bfs(space, int(np.argmax(inside)), inside))
    if reached != len(x0_set):
        raise DisconnectedRestriction(
            f"restriction splits into components ({reached} of {len(x0_set)} reachable)"
        )
    return _ratio_stats(space, inside)


def _bfs(space: Space, start: int, inside: np.ndarray) -> dict[int, int]:
    """Graph distance from position ``start`` to every position it reaches
    through states ``inside``."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        i = queue.popleft()
        for j in space.nbr[i].tolist():
            if j >= 0 and inside[j] and j not in dist:
                dist[j] = dist[i] + 1
                queue.append(j)
    return dist


def tail_mass_bound(stats: NeighborhoodStats, k: int) -> float:
    """Geometric bound ``(M/R)^k`` on the mass of states at distance >= k
    from the mode.  Requires ``R > M`` and ``k >= 1``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if stats.log_r <= math.log(stats.m):
        raise BoundInapplicable(f"need R > M, got log R = {stats.log_r:.4g}, M = {stats.m}")
    return float(np.exp(k * (math.log(stats.m) - stats.log_r)))


def exact_tail_mass(
    target: DiscreteTarget, states: Sequence[State], stats: NeighborhoodStats, k: int
) -> float:
    """Exactly normalized mass of the layer of states at graph distance ``k``
    from the mode (breadth-first layers of the neighborhood graph)."""
    space = tabulate(target, states)
    dist = distances_to_state(target, space, stats.x_star)
    log_pis = space.log_pis
    lz = logsumexp(log_pis)
    mask = np.array([dist[x] == k for x in space])
    if not mask.any():
        return 0.0
    return float(np.exp(logsumexp(log_pis[mask]) - lz))


def distances_to_state(
    target: DiscreteTarget, states: Sequence[State], origin: State
) -> dict[State, int]:
    """BFS distance from every enumerated state to ``origin``."""
    space = tabulate(target, states)
    dist = _bfs(space, space.pos[origin], np.ones(len(space), dtype=bool))
    return {space[i]: d for i, d in dist.items()}
