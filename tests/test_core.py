import math

import numpy as np
import pytest
from scipy.special import logsumexp

import toy
from discretemh import sbm, varsel
from conftest import check_neighborhood_axioms
from discretemh.core import (
    BoundInapplicable,
    CapExceeded,
    DegenerateSpace,
    DisconnectedRestriction,
    distances_to_state,
    enumerate_space,
    exact_tail_mass,
    logsumexp as core_logsumexp,
    restricted_stats,
    tail_mass_bound,
    unimodality_stats,
)


def test_enumerate_counts(example3_v_n1, example3_v2_n1):
    assert len(enumerate_space(example3_v_n1, 100)) == 8
    assert len(enumerate_space(example3_v2_n1, 100)) == 7
    data, _ = sbm.generate_sbm(4, 0.5, 0.2, seed=0)
    assert len(enumerate_space(sbm.sbm_target(data), 100)) == 16


def test_enumerate_cap(example3_v_n1):
    with pytest.raises(CapExceeded):
        enumerate_space(example3_v_n1, 3)


def test_enumeration_sorted_and_deterministic(example3_v_n1):
    states = enumerate_space(example3_v_n1, 100)
    assert states == sorted(states)
    assert states == enumerate_space(example3_v_n1, 100)


def brute_force_stats(target, states):
    """Independent double-loop recomputation of M, R and the mode."""
    lps = {x: target.log_pi(x) for x in states}
    best = max(lps.values())
    x_star = min(x for x in states if lps[x] == best)
    m = max(len(list(target.neighbors(x))) for x in states)
    log_r = math.inf
    for x in states:
        if x == x_star:
            continue
        log_r = min(
            log_r, max(target.log_pi(y) for y in target.neighbors(x)) - lps[x]
        )
    return m, log_r, x_star


@pytest.mark.parametrize(
    "name",
    ["example3-v-n1", "example3-v2-ads", "varsel-p5", "sbm-p6", "path-7", "tree-12"],
)
def test_stats_match_brute_force(fixture_zoo, zoo_enumerations, name):
    target = fixture_zoo[name]
    states = zoo_enumerations[name]
    stats = unimodality_stats(target, states)
    m, log_r, x_star = brute_force_stats(target, states)
    assert stats.m == m
    assert stats.log_r == pytest.approx(log_r, abs=0.0)
    assert stats.x_star == x_star


def test_example3_modality(example3_v2_ads, example3_v2_n1):
    states = enumerate_space(example3_v2_ads, 100)
    stats = unimodality_stats(example3_v2_ads, states)
    assert stats.unimodal
    assert stats.x_star == (1, 1, 0)
    # with single flips only, (0,1,1) is a local mode inside the cap
    states1 = enumerate_space(example3_v2_n1, 100)
    stats1 = unimodality_stats(example3_v2_n1, states1)
    assert not stats1.unimodal
    local = (0, 1, 1)
    lp = example3_v2_n1.log_pi(local)
    assert all(example3_v2_n1.log_pi(y) < lp for y in example3_v2_n1.neighbors(local))


def test_max_degree_single_flip(example3_v_n1):
    states = enumerate_space(example3_v_n1, 100)
    assert unimodality_stats(example3_v_n1, states).m == 3


def test_degenerate_space(example3_v_n1):
    with pytest.raises(DegenerateSpace):
        unimodality_stats(example3_v_n1, [(0, 0, 0)])


def test_restricted_stats_full_space_identity(example3_v_n1):
    states = enumerate_space(example3_v_n1, 100)
    full = unimodality_stats(example3_v_n1, states)
    restricted = restricted_stats(example3_v_n1, states, states)
    assert restricted.m == full.m
    assert restricted.log_r == pytest.approx(full.log_r, abs=0.0)
    assert restricted.x_star == full.x_star


def test_restricted_stats_v2_inside_full_space():
    target = varsel.example3_target("v", "ads")
    states = enumerate_space(target, 100)
    x0 = [s for s in states if sum(s) <= 2]
    stats = restricted_stats(target, states, x0)
    # brute force over the seven capped models with full neighborhoods intersected
    lps = {x: target.log_pi(x) for x in x0}
    x_star = max(x0, key=lambda x: lps[x])
    log_r = min(
        max(lps[y] for y in target.neighbors(x) if y in set(x0)) - lps[x]
        for x in x0
        if x != x_star
    )
    assert stats.x_star == (1, 1, 0)
    assert stats.log_r == pytest.approx(log_r, abs=0.0)
    # M is still the full-space maximum degree (the full model has 3 swaps + 3 drops)
    assert stats.m == max(len(list(target.neighbors(s))) for s in states)


def test_restricted_stats_errors(example3_v_n1):
    states = enumerate_space(example3_v_n1, 100)
    with pytest.raises(DegenerateSpace):
        restricted_stats(example3_v_n1, states, [(1, 1, 0)])
    with pytest.raises(DisconnectedRestriction):
        restricted_stats(example3_v_n1, states, [(0, 0, 0), (1, 1, 0)])


def test_tail_mass_bound_arithmetic():
    stats = unimodality_stats(
        toy.path_target([math.log(8.0)] * 3), list(range(4))
    )
    assert stats.m == 2
    assert tail_mass_bound(stats, 3) == pytest.approx((2.0 / 8.0) ** 3)
    with pytest.raises(ValueError):
        tail_mass_bound(stats, 0)


def test_tail_mass_bound_inapplicable():
    stats = unimodality_stats(toy.path_target([0.1] * 3), list(range(4)))
    with pytest.raises(BoundInapplicable):
        tail_mass_bound(stats, 1)


def test_exact_tail_dominated_by_bound(example3_v2_ads):
    states = enumerate_space(example3_v2_ads, 100)
    stats = unimodality_stats(example3_v2_ads, states)
    assert stats.rho > 1
    max_dist = max(
        distances_to_state(example3_v2_ads, states, stats.x_star).values()
    )
    cumulative = 0.0
    for k in range(max_dist, 0, -1):
        layer = exact_tail_mass(example3_v2_ads, states, stats, k)
        cumulative += layer
        bound = tail_mass_bound(stats, k)
        assert layer <= bound + 1e-15
        assert cumulative <= bound + 1e-15  # states needing at least k steps


def test_neighborhood_axioms_all_fixtures(fixture_zoo, zoo_enumerations):
    for name, target in fixture_zoo.items():
        check_neighborhood_axioms(target, zoo_enumerations[name])


def test_mode_mass_lower_bound(fixture_zoo, zoo_enumerations):
    # whenever rho > 1, the exactly normalized mode mass is at least 1 - 1/rho
    seen = 0
    for name, target in fixture_zoo.items():
        states = zoo_enumerations[name]
        stats = unimodality_stats(target, states)
        if stats.rho <= 1:
            continue
        seen += 1
        lps = np.array([target.log_pi(s) for s in states])
        pi_star = float(np.exp(lps.max() - logsumexp(lps)))
        assert pi_star >= 1.0 - 1.0 / stats.rho - 1e-12, name
    assert seen >= 4


def test_infinite_seed_state_rejected():
    target = varsel.example3_target("v2", "n1")
    bad = type(target)(
        log_pi=target.log_pi,
        neighbors=target.neighbors,
        seed_state=(1, 1, 1),  # outside the cap, zero mass
        name="bad",
    )
    with pytest.raises(DegenerateSpace):
        enumerate_space(bad, 100)


def _with_edge_cases(a, rng):
    """Random draws with -inf entries and ties at the maximum mixed in."""
    a = a.copy()
    a[rng.random(a.shape) < 0.2] = -np.inf
    ties = rng.random(a.shape[:-1]) < 0.5
    top = np.max(a, axis=-1, keepdims=True)
    a[..., :2] = np.where(ties[..., None], top, a[..., :2])
    return a


@pytest.mark.parametrize("scale", [1.0, 30.0, 800.0])
def test_logsumexp_is_scipys_bits_1d(scale):
    rng = np.random.default_rng(17)
    for n in range(1, 601):
        a = rng.standard_normal(n) * scale
        for x in (a, _with_edge_cases(a, rng)):
            out = core_logsumexp(x)
            assert np.array_equal(out, logsumexp(x)), n
            assert type(out) is type(logsumexp(x))


def test_logsumexp_is_scipys_bits_rows():
    rng = np.random.default_rng(18)
    for n in (1, 2, 7, 64, 600):
        a = _with_edge_cases(rng.standard_normal((40, n)) * 50, rng)
        a[3] = -np.inf  # a row without mass
        a[5, -1] = np.inf
        assert np.array_equal(core_logsumexp(a, axis=1), logsumexp(a, axis=1), equal_nan=True)
        assert np.array_equal(core_logsumexp(a), logsumexp(a))


@pytest.mark.parametrize("a", [[-np.inf], [-np.inf, -np.inf], [np.inf, 1.0], [np.inf, np.inf],
                               [3.0], [-np.inf, 2.0, 2.0], [1e308, 1e308], [0, 1, 2], []])
def test_logsumexp_edge_cases(a):
    assert np.array_equal(core_logsumexp(a), logsumexp(a))
