"""Differential checks of the tabulated space against the slow paths.

``enumerate_space`` and ``tabulate`` evaluate ``log_pi`` and the
neighborhood once per state and store every neighborhood as positions.  Statistics, matrices and mixing times read from
the table must equal what the per-state, per-neighbor loops compute: the
unimodality statistics by brute force, the matrix built from a plain state
list, and tau by doubling and bisection over dense matrix powers.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import dense_oracle
from discretemh.core import (
    DiscreteTarget,
    Space,
    distances_to_state,
    enumerate_space,
    restricted_stats,
    tabulate,
    unimodality_stats,
)
from discretemh import diagnostics
from discretemh.diagnostics import (
    DenseTooLarge,
    boundary_log_ratio,
    build_transition_matrix,
    spectral_gap,
    tau_x,
)
from discretemh.samplers import AsymmetricNeighborhood, KernelSpec
from test_core import brute_force_stats
from test_transition import KERNELS, ZOO_NAMES

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _ball(target, states, center, radius):
    dist = distances_to_state(target, states, center)
    return [x for x in states if dist.get(x, math.inf) <= radius]


def _brute_restricted(target, states, x0):
    """Double loop over x0 and each neighborhood, one log_pi per call."""
    x0_set = set(x0)
    lps = {x: target.log_pi(x) for x in x0}
    best = max(lps.values())
    x_star = min(x for x in x0 if lps[x] == best)
    m = max(len(list(target.neighbors(x))) for x in states)
    log_r = math.inf
    for x in x0:
        if x != x_star:
            inside = [target.log_pi(y) for y in target.neighbors(x) if y in x0_set]
            log_r = min(log_r, max(inside, default=-math.inf) - lps[x])
    return m, log_r, x_star


def _brute_boundary(target, x0):
    x0_set = set(x0)
    return max(
        (target.log_pi(y) - target.log_pi(x)
         for x in x0 for y in target.neighbors(x) if y not in x0_set),
        default=-math.inf,
    )


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_table_is_consistent(fixture_zoo, zoo_enumerations, name):
    target, enumerated = fixture_zoo[name], zoo_enumerations[name]
    states = list(enumerated)
    space = tabulate(target, states)
    assert list(space) == states and len(space) == len(states)
    for table in ("log_pis", "nbr", "deg", "rev"):  # the enumeration's own table
        assert np.array_equal(getattr(space, table), getattr(enumerated, table))
    assert np.array_equal(space.log_pis, [target.log_pi(x) for x in states])
    for i, x in enumerate(states):
        ns = list(target.neighbors(x))
        assert space.deg[i] == len(ns)
        for k, y in enumerate(ns):
            j = space.nbr[i, k]
            assert j == space.pos.get(y, -1)
            if j >= 0:
                assert space.nbr[j, space.rev[i, k]] == i
        assert (space.nbr[i, len(ns):] == -1).all()


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_stats_from_table_equal_brute_force(fixture_zoo, zoo_enumerations, name):
    target, states = fixture_zoo[name], list(zoo_enumerations[name])
    space = tabulate(target, states)
    stats = unimodality_stats(target, space)
    assert stats == unimodality_stats(target, states)
    assert (stats.m, stats.log_r, stats.x_star) == brute_force_stats(target, states)

    x0 = _ball(target, states, stats.x_star, 2)
    if len(x0) < 2:
        return
    rstats = restricted_stats(target, space, x0)
    assert rstats == restricted_stats(target, states, x0)
    assert (rstats.m, rstats.log_r, rstats.x_star) == _brute_restricted(target, states, x0)
    assert boundary_log_ratio(target, space, x0) == _brute_boundary(target, x0)


SPECS = {**KERNELS, "clipped-lazy": KernelSpec("informed", ell=2.0, big_l=50.0, lazy=True)}


@pytest.mark.parametrize("kernel", sorted(SPECS))
@pytest.mark.parametrize("name", ZOO_NAMES)
def test_matrix_from_table_equals_list_form(fixture_zoo, zoo_enumerations, name, kernel):
    target, states, spec = fixture_zoo[name], zoo_enumerations[name], SPECS[kernel]
    from_table = build_transition_matrix(target, spec, tabulate(target, states))
    from_list = build_transition_matrix(target, spec, list(states))
    assert from_table.states == from_list.states == states
    assert np.array_equal(from_table.P.toarray(), from_list.P.toarray())
    assert np.array_equal(from_table.log_pis, from_list.log_pis)
    assert from_table.max_degree == from_list.max_degree


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("name", ZOO_NAMES)
def test_detailed_balance_to_rounding(fixture_zoo, zoo_enumerations, name, kernel):
    # one log pi per state serves both ends of every entry
    chain = build_transition_matrix(fixture_zoo[name], KERNELS[kernel], zoo_enumerations[name])
    assert chain.detailed_balance_error() <= 5e-14


@pytest.mark.parametrize("kernel", ["rw", "clipped"])
@pytest.mark.parametrize("name", ZOO_NAMES)
def test_tau_walk_equals_matrix_power_search(fixture_zoo, zoo_enumerations, name, kernel):
    target, states = fixture_zoo[name], zoo_enumerations[name]
    spec = KERNELS[kernel]
    chain = build_transition_matrix(target, KernelSpec(spec.family, spec.ell, spec.big_l, lazy=True), states)
    starts = {min(states, key=target.log_pi), max(states, key=target.log_pi), states[0]}
    for x in starts:
        for eps in (0.25, 0.1, 0.01):
            assert tau_x(chain, x, eps) == dense_oracle.tau(
                chain.P.toarray(), chain.pi, chain.index[x], eps), (x, eps)


def _tau_pair():
    # pi = (3/4, 1/4): TV from state 0 after t steps is (1/4) (1/3)^t
    return build_transition_matrix(
        DiscreteTarget(log_pi=[0.0, -math.log(3.0)].__getitem__, neighbors=lambda s: [1 - s],
                       seed_state=0),
        KernelSpec(),
    )


def test_tau_cap():
    pair = _tau_pair()
    assert tau_x(pair, 0, 0.01) == tau_x(pair, 0, 0.01, t_cap=3) == 3
    assert tau_x(pair, 0, 0.01, t_cap=2) is None


def test_dense_fallbacks_refuse_large_spaces(fixture_zoo, monkeypatch):
    # tau = 3 > n = 2 takes the matrix-power search; ARPACK stalls on the
    # random walk over varsel-p6-smax3's 42 states and falls back to eigvalsh
    pair = _tau_pair()
    stalled = build_transition_matrix(fixture_zoo["varsel-p6-smax3"], KERNELS["rw"])
    monkeypatch.setattr(diagnostics, "DENSE_MAX_STATES", 1)
    with pytest.raises(DenseTooLarge, match=r"dense 2 x 2 array would take 32 bytes"):
        tau_x(pair, 0, 0.01)
    with pytest.raises(DenseTooLarge, match=r"dense 42 x 42 array would take 14,112 bytes"):
        spectral_gap(stalled)
    monkeypatch.setattr(diagnostics, "DENSE_MAX_STATES", 42)
    assert tau_x(pair, 0, 0.01) == 3 and spectral_gap(stalled).n_states == 42


def test_tabulate_raises_on_asymmetric_neighborhood():
    nb = {0: [1], 1: [0, 2], 2: [1, 0]}
    target = DiscreteTarget(
        log_pi={0: 0.0, 1: -1.0, 2: -2.0}.__getitem__, neighbors=nb.__getitem__, seed_state=0
    )
    with pytest.raises(AsymmetricNeighborhood, match=r"0 is a neighbor of 2"):
        tabulate(target, [0, 1, 2])


def test_space_is_the_state_sequence(example3_v_n1):
    states = sorted({(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)})
    space = tabulate(example3_v_n1, states)
    assert isinstance(space, Space) and tabulate(example3_v_n1, space) is space
    assert space[3] == states[3] and list(space) == states and (0, 1, 1) in space
    assert list(np.flatnonzero(space.mask([(1, 1, 1), (0, 0, 0)]))) == [0, 7]
    assert space.index((0, 1, 1)) == 3 and space.pos[(0, 1, 1)] == 3


def _counting(target, calls, space):
    """``target`` with ``log_pi`` and ``neighbors`` counted into ``calls``."""
    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    return dataclasses.replace(
        target, log_pi=counted("log_pi", target.log_pi),
        neighbors=counted("neighbors", target.neighbors), space=space,
    )


def test_enumeration_evaluates_each_state_once(fixture_zoo):
    # the breadth-first search, without the target's batched tabulation
    calls = {"log_pi": 0, "neighbors": 0}
    counting = _counting(fixture_zoo["varsel-p5"], calls, None)
    space = enumerate_space(counting, 4096)
    assert isinstance(space, Space) and tabulate(counting, space) is space
    build_transition_matrix(counting, KernelSpec("informed", ell=2.0, big_l=50.0), space)
    assert calls == {"log_pi": len(space), "neighbors": len(space)} and len(space) == 32
    assert space.log_pi_evals == 32


def test_batched_enumeration_makes_no_per_state_calls(fixture_zoo):
    target = fixture_zoo["varsel-p5"]
    calls = {"log_pi": 0, "neighbors": 0}
    counting = _counting(target, calls, target.space)
    space = enumerate_space(counting, 4096)
    build_transition_matrix(counting, KernelSpec("informed", ell=2.0, big_l=50.0), space)
    assert calls == {"log_pi": 0, "neighbors": 0} and space.log_pi_evals == 32
    bfs = enumerate_space(dataclasses.replace(target, space=None), 4096)
    assert space == bfs and np.array_equal(space.log_pis, bfs.log_pis)
