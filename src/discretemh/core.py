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
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np
from scipy.special import logsumexp

State = Hashable

#: States beyond this count are refused by dense diagnostics (O(n^3) eigensolves).
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


@dataclass(frozen=True)
class DiscreteTarget:
    """Finite discrete target: log probability plus neighborhood closure.

    ``log_pi`` must be pure (same state -> same value, -inf allowed) and safe
    to call concurrently.  ``neighbors`` must be irreflexive and symmetric.
    ``neighbor_log_pis``, when provided, returns ``(neighbors, log_pi_array)``
    in one call; samplers and dense diagnostics use it to batch informed
    proposal scans.
    """

    log_pi: Callable[[State], float]
    neighbors: Callable[[State], Sequence[State]]
    seed_state: State
    name: str = ""
    neighbor_log_pis: Callable[[State], tuple[list[State], np.ndarray]] | None = None

    def neighbors_with_log_pi(self, x: State) -> tuple[list[State], np.ndarray]:
        if self.neighbor_log_pis is not None:
            ns, lps = self.neighbor_log_pis(x)
            return list(ns), np.asarray(lps, dtype=float)
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


def enumerate_space(target: DiscreteTarget, cap: int = DEFAULT_ENUM_CAP) -> list[State]:
    """Breadth-first closure of the neighborhood relation from the seed state.

    States with ``log_pi = -inf`` are skipped: they are proposal-only and carry
    no mass.  Returns the reachable states in sorted order, or raises
    :class:`CapExceeded` once more than ``cap`` states have been found.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    seed = target.seed_state
    if target.log_pi(seed) == -math.inf:
        raise DegenerateSpace("seed state has zero probability")
    seen = {seed}
    queue = deque([seed])
    while queue:
        x = queue.popleft()
        for y in target.neighbors(x):
            if y in seen:
                continue
            if target.log_pi(y) == -math.inf:
                continue
            seen.add(y)
            if len(seen) > cap:
                raise CapExceeded(f"more than {cap} reachable states")
            queue.append(y)
    return sorted(seen)


def philox_rng(seed) -> np.random.Generator:
    """Counter-based generator from an int, a sequence of ints or a
    SeedSequence; the one RNG constructor used throughout the package."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def unimodality_stats(target: DiscreteTarget, states: Sequence[State]) -> NeighborhoodStats:
    """Max neighborhood size, unimodality ratio and mode of a full enumeration.

    The ratio minimizes, over every state except the mode, the best
    log-probability gain available in one move.  Computed entirely in the
    log domain.
    """
    if len(states) < 2:
        raise DegenerateSpace("need at least two states to define R")
    log_pis = {x: target.log_pi(x) for x in states}
    x_star = min(states, key=lambda x: (-log_pis[x], x))
    m = 0
    log_r = math.inf
    for x in states:
        ns = list(target.neighbors(x))
        m = max(m, len(ns))
        if x == x_star:
            continue
        if not ns:
            raise IsolatedState(f"state {x!r} has no neighbors")
        best = max(target.log_pi(y) for y in ns)
        log_r = min(log_r, best - log_pis[x])
    return NeighborhoodStats(m=m, log_r=log_r, x_star=x_star, n_states=len(states))


def restricted_stats(
    target: DiscreteTarget, states: Sequence[State], x0: Sequence[State]
) -> NeighborhoodStats:
    """Unimodality stats with neighborhoods intersected with a subset ``x0``.

    The maximum neighborhood size is still taken over the full space; only
    the ratio and the mode are computed inside the restriction.
    """
    x0_set = set(x0)
    if not x0_set <= set(states):
        raise ValueError("x0 must be a subset of the enumerated states")
    if len(x0_set) < 2:
        raise DegenerateSpace("restriction has fewer than two states")
    _check_restriction_connected(target, x0_set)
    log_pis = {x: target.log_pi(x) for x in x0_set}
    x_star0 = min(x0_set, key=lambda x: (-log_pis[x], x))
    m = max(len(list(target.neighbors(x))) for x in states)
    log_r = math.inf
    for x in x0_set:
        if x == x_star0:
            continue
        inside = [y for y in target.neighbors(x) if y in x0_set]
        best = max((target.log_pi(y) for y in inside), default=-math.inf)
        log_r = min(log_r, best - log_pis[x])
    return NeighborhoodStats(m=m, log_r=log_r, x_star=x_star0, n_states=len(x0_set))


def _check_restriction_connected(target: DiscreteTarget, x0_set: set) -> None:
    start = next(iter(x0_set))
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in target.neighbors(x):
            if y in x0_set and y not in seen:
                seen.add(y)
                queue.append(y)
    if seen != x0_set:
        raise DisconnectedRestriction(
            f"restriction splits into components ({len(seen)} of {len(x0_set)} reachable)"
        )


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
    dist = distances_to_state(target, states, stats.x_star)
    log_pis = np.array([target.log_pi(x) for x in states])
    lz = logsumexp(log_pis)
    mask = np.array([dist[x] == k for x in states])
    if not mask.any():
        return 0.0
    return float(np.exp(logsumexp(log_pis[mask]) - lz))


def distances_to_state(
    target: DiscreteTarget, states: Sequence[State], origin: State
) -> dict[State, int]:
    """BFS distance from every enumerated state to ``origin``."""
    state_set = set(states)
    dist = {origin: 0}
    queue = deque([origin])
    while queue:
        x = queue.popleft()
        for y in target.neighbors(x):
            if y in state_set and y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def check_neighborhood_axioms(
    target: DiscreteTarget, states: Sequence[State]
) -> None:
    """Verify irreflexivity and symmetry of the neighborhood relation on an
    enumeration, raising ``AssertionError`` with the offending states."""
    state_set = set(states)
    for x in states:
        ns = list(target.neighbors(x))
        assert x not in ns, f"neighborhood of {x!r} contains itself"
        assert len(ns) == len(set(ns)), f"duplicate neighbors at {x!r}"
        for y in ns:
            if y in state_set:
                assert x in target.neighbors(y), f"asymmetric pair {x!r} -> {y!r}"


def space_summary(target: DiscreteTarget, states: Sequence[State]) -> dict:
    """JSON-ready summary of an enumeration: states, log_pi and stats."""
    stats = unimodality_stats(target, states)
    return {
        "states": [list(s) if isinstance(s, tuple) else s for s in states],
        "log_pi": [target.log_pi(s) for s in states],
        **stats.to_json_dict(),
    }

