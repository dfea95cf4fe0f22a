import math

import numpy as np
import pytest

from discretemh import toy
from discretemh.core import BoundInapplicable, enumerate_space, philox_rng, unimodality_stats
from discretemh.diagnostics import build_transition_matrix, restricted_gap, spectral_gap
from discretemh.flowbound import (
    HypothesisViolated,
    NoCertificate,
    build_flow_graph,
    congestion,
    default_weight_exponent,
    drift_certificate,
    enumerate_flow,
    upward_paths,
)
from discretemh.samplers import KernelSpec

RW_LAZY = KernelSpec(lazy=True)


def lazy_chain(target, states=None):
    return build_transition_matrix(target, RW_LAZY, states)


class TestFlowGraph:
    def test_three_state_path_structure(self):
        target = toy.path_target([1.0, 1.5])
        chain = lazy_chain(target)
        fg = build_flow_graph(chain, math.exp(1.0))
        pairs = {(chain.states[a], chain.states[b]) for a, b in fg.edges}
        assert pairs == {(2, 1), (1, 0)}
        # topological order ends at the mode, whose auxiliary row is absorbing
        assert fg.live[-1] == chain.index[0]
        assert fg.t_mat[-1].sum() == 0.0

    def test_uphill_edges_gain_factor_s(self, example3_v2_ads):
        states = enumerate_space(example3_v2_ads, 100)
        chain = lazy_chain(example3_v2_ads, states)
        stats = unimodality_stats(example3_v2_ads, states)
        fg = build_flow_graph(chain, stats.r)
        for a, b in fg.edges:
            assert chain.log_pis[b] - chain.log_pis[a] >= stats.log_r - 1e-6

    def test_threshold_too_large(self):
        target = toy.path_target([1.0, 1.5])
        chain = lazy_chain(target)
        with pytest.raises(HypothesisViolated):
            build_flow_graph(chain, math.exp(2.0))

    def test_multimodal_full_space_violates(self):
        target, _ = toy.bimodal_target([2.0] * 3, 8.0, [1.0] * 2)
        chain = lazy_chain(target)
        with pytest.raises(HypothesisViolated):
            build_flow_graph(chain, math.exp(0.5))

    def test_custom_uphill_hook(self):
        # route every state through its single best neighbor: a canonical
        # path ensemble; the flow identity still holds and the gap bound
        # cannot beat the multicommodity version
        target = toy.random_tree_target(10, philox_rng(8), 1.5, 2.5)
        chain = lazy_chain(target)
        stats = unimodality_stats(target, chain.states)

        def best_neighbor(x):
            return [max(target.neighbors(x), key=target.log_pi)]

        fg = build_flow_graph(chain, math.exp(1.5), uphill=best_neighbor)
        for x in chain.states[:4]:
            for y in chain.states[4:8]:
                if x == y:
                    continue
                total = sum(phi for _, phi in enumerate_flow(fg, x, y))
                expected = chain.pi[chain.index[x]] * chain.pi[chain.index[y]]
                assert total == pytest.approx(expected, rel=1e-10)
        rep = congestion(fg, q=0.4, max_degree=stats.m, method="dp")
        assert spectral_gap(chain).gap >= rep.gap_lower_bound * (1 - 1e-9)

        def bad_choice(x):
            return [min(target.neighbors(x), key=target.log_pi)]

        with pytest.raises(ValueError):
            build_flow_graph(chain, math.exp(1.5), uphill=bad_choice)


class TestEnumerateFlow:
    def test_flow_sum_identity_all_pairs(self, example3_v2_ads):
        states = enumerate_space(example3_v2_ads, 100)
        chain = lazy_chain(example3_v2_ads, states)
        stats = unimodality_stats(example3_v2_ads, states)
        fg = build_flow_graph(chain, stats.r)
        for x in states:
            for y in states:
                if x == y:
                    continue
                total = sum(phi for _, phi in enumerate_flow(fg, x, y))
                expected = chain.pi[chain.index[x]] * chain.pi[chain.index[y]]
                assert total == pytest.approx(expected, rel=1e-10)

    def test_single_path_neighbor_of_mode(self):
        target = toy.path_target([1.0, 1.5])
        chain = lazy_chain(target)
        fg = build_flow_graph(chain, math.exp(1.0))
        flows = enumerate_flow(fg, 1, 2)  # 1 is adjacent to the mode 0
        # unique route: 1 -> 0 -> 1 -> 2 is impossible; route is 1 -> 0, then 0 <- 1 <- 2 reversed
        assert len(flows) == 1
        path, phi = flows[0]
        assert path[0] == 1 and path[-1] == 2 and 0 in path
        assert phi == pytest.approx(
            chain.pi[chain.index[1]] * chain.pi[chain.index[2]], rel=1e-12
        )

    def test_edge_load_inequality_per_pair(self, example3_v2_ads):
        # per-pair load on an uphill edge never exceeds the auxiliary
        # chain's step probability times the pair mass
        states = enumerate_space(example3_v2_ads, 100)
        chain = lazy_chain(example3_v2_ads, states)
        stats = unimodality_stats(example3_v2_ads, states)
        fg = build_flow_graph(chain, stats.r)
        pos = {i: k for k, i in enumerate(fg.live)}
        for x in states:
            for y in states:
                if x == y:
                    continue
                loads: dict = {}
                for path, phi in enumerate_flow(fg, x, y):
                    for a, b in zip(path, path[1:]):
                        ia, ib = chain.index[a], chain.index[b]
                        if chain.log_pis[ib] > chain.log_pis[ia]:
                            loads[(ia, ib)] = loads.get((ia, ib), 0.0) + phi
                mass = chain.pi[chain.index[x]] * chain.pi[chain.index[y]]
                for (ia, ib), load in loads.items():
                    assert load <= fg.t_mat[pos[ia], pos[ib]] * mass * (1 + 1e-9)

    def test_path_length_bound(self):
        target = toy.random_tree_target(15, philox_rng(3), 1.2, 2.5)
        states = enumerate_space(target, 50)
        chain = lazy_chain(target, states)
        stats = unimodality_stats(target, states)
        s_threshold = math.exp(1.2)
        fg = build_flow_graph(chain, s_threshold)
        q = 0.3
        from discretemh.flowbound import _edge_weights

        weights = _edge_weights(fg, q)
        paths = upward_paths(fg)
        pis = chain.pi[fg.live]
        for xp, plist in enumerate(paths):
            for yp, qlist in enumerate(paths):
                if xp == yp:
                    continue
                for _, seq_up in plist:
                    for _, seq_dn in qlist:
                        length = sum(
                            weights[(fg.live[a], fg.live[b])] for a, b in seq_up
                        ) + sum(weights[(fg.live[a], fg.live[b])] for a, b in seq_dn)
                        cap = (pis[xp] ** -q + pis[yp] ** -q) / (1 - s_threshold**-q)
                        assert length <= cap * (1 + 1e-12)


class TestCongestion:
    def test_dp_equals_enumeration_small(self):
        for target in (
            toy.path_target([1.0, 1.5]),
            toy.path_target([2.0, 1.1, 1.7, 1.3]),
            toy.star_target([3.0, 3.5, 4.0]),
            toy.random_tree_target(12, philox_rng(5), 1.4, 3.0),
        ):
            chain = lazy_chain(target)
            stats = unimodality_stats(target, chain.states)
            fg = build_flow_graph(chain, stats.r)
            q = default_weight_exponent(stats.r, stats.m) if stats.r > stats.m else 0.4
            rep_e = congestion(fg, q=q, max_degree=stats.m, method="enumerate")
            rep_d = congestion(fg, q=q, max_degree=stats.m, method="dp")
            assert rep_d.a_exact == pytest.approx(rep_e.a_exact, rel=1e-12)

    def test_gap_bound_and_closed_form(self, fixture_zoo, zoo_enumerations):
        for name in ("example3-v2-ads", "path-7", "star-5", "tree-12"):
            target = fixture_zoo[name]
            states = zoo_enumerations[name]
            chain = lazy_chain(target, states)
            stats = unimodality_stats(target, states)
            if stats.r <= stats.m:
                continue
            fg = build_flow_graph(chain, stats.r)
            rep = congestion(fg, max_degree=stats.m)
            gap = spectral_gap(chain).gap
            assert gap >= rep.gap_lower_bound * (1 - 1e-9), name
            assert rep.a_exact <= rep.a_closed_form * (1 + 1e-9), name

    def test_default_exponent_needs_headroom(self):
        with pytest.raises(BoundInapplicable):
            default_weight_exponent(2.0, 3)

    def test_bound_targets_rayleigh_gap_on_nonlazy_chains(self):
        # with strongly negative eigenvalues the two-sided gap can dip below
        # the flow bound; the variational gap (one minus the second-largest
        # eigenvalue) always dominates it
        found_split = False
        rng = philox_rng(99)
        for trial in range(12):
            k = int(rng.integers(3, 6))
            target = toy.star_target(rng.uniform(2.0, 4.0, size=k))
            chain = build_transition_matrix(target, KernelSpec())  # non-lazy
            stats = unimodality_stats(target, chain.states)
            fg = build_flow_graph(chain, stats.r)
            rep = congestion(fg, q=0.4, max_degree=stats.m)
            report = spectral_gap(chain)
            assert report.rayleigh_gap >= rep.gap_lower_bound * (1 - 1e-9)
            if report.gap < rep.gap_lower_bound:
                found_split = True
        assert found_split

    def test_informed_chain_flow(self):
        # flow bound for the clipped informed kernel at S = L / M
        target = toy.star_target([4.0, 4.2, 4.5, 5.0])
        states = enumerate_space(target, 50)
        stats = unimodality_stats(target, states)
        big_l = stats.r
        spec = KernelSpec("informed", ell=float(stats.m), big_l=big_l, lazy=True)
        chain = build_transition_matrix(target, spec, states)
        s_threshold = big_l / stats.m
        fg = build_flow_graph(chain, s_threshold)
        rep = congestion(fg, max_degree=stats.m)
        assert spectral_gap(chain).gap >= rep.gap_lower_bound * (1 - 1e-9)


class TestRestrictedCongestion:
    def test_full_space_restriction_identity(self, example3_v2_ads):
        states = enumerate_space(example3_v2_ads, 100)
        chain = lazy_chain(example3_v2_ads, states)
        stats = unimodality_stats(example3_v2_ads, states)
        rep_full = congestion(build_flow_graph(chain, stats.r), max_degree=stats.m)
        rep_restricted = congestion(build_flow_graph(chain, stats.r, x0=states))
        assert rep_restricted.a_exact == pytest.approx(rep_full.a_exact, rel=1e-12)

    def test_bimodal_cluster_certificate(self):
        target, x0 = toy.bimodal_target([2.0] * 4, 12.0, [1.5] * 3)
        chain = lazy_chain(target)
        rep = congestion(build_flow_graph(chain, math.exp(2.0), x0=x0))
        r_gap = restricted_gap(chain, x0)
        full_gap = spectral_gap(chain).gap
        assert r_gap >= rep.gap_lower_bound * (1 - 1e-9)
        assert rep.gap_lower_bound >= 10.0 * full_gap

    def test_restricted_flow_sum(self):
        target, x0 = toy.bimodal_target([2.0] * 4, 12.0, [1.5] * 3)
        chain = lazy_chain(target)
        fg = build_flow_graph(chain, math.exp(2.0), x0=x0)
        for x in x0:
            for y in x0:
                if x == y:
                    continue
                total = sum(phi for _, phi in enumerate_flow(fg, x, y))
                expected = chain.pi[chain.index[x]] * chain.pi[chain.index[y]]
                assert total == pytest.approx(expected, rel=1e-10)


class TestDriftCertificate:
    def _qualifying_chain(self):
        # star: M = 4, R = e^4 = 54.6 > M^2; informed with ell = M, L = R
        target = toy.star_target([4.0, 4.2, 4.5, 5.0])
        states = enumerate_space(target, 50)
        stats = unimodality_stats(target, states)
        spec = KernelSpec("informed", ell=float(stats.m), big_l=stats.r, lazy=True)
        return build_transition_matrix(target, spec, states), stats

    def test_potential_range(self):
        chain, _ = self._qualifying_chain()
        cert = drift_certificate(chain)
        x_min = chain.states[int(np.argmin(chain.pi))]
        assert cert.v_of(x_min) == pytest.approx(math.e, rel=1e-12)
        assert np.all(cert.v >= 1.0) and np.all(cert.v <= math.e + 1e-12)

    def test_contraction_and_rate_floor(self):
        chain, stats = self._qualifying_chain()
        cert = drift_certificate(chain)
        assert cert.lam < 1.0
        big_l, m = stats.r, stats.m
        floor = -math.log(big_l / m) / (4 * math.log(chain.pi.min())) - (
            m**2 / big_l
        ) * (math.e - 1)
        # the lazy chain contracts at least half as fast as the plain-rate floor
        assert 1 - cert.lam >= floor / 2 - 1e-12

    def test_tv_bound_pointwise(self):
        chain, _ = self._qualifying_chain()
        cert = drift_certificate(chain)
        for x in chain.states:
            v = np.zeros(chain.n)
            v[chain.index[x]] = 1.0
            for t in range(201):
                tv = 0.5 * np.abs(v - chain.pi).sum()
                assert tv <= cert.tv_bound(x, t) + 1e-12
                v = v @ chain.P

    def test_negative_spectrum_refused(self):
        target = toy.star_target([4.0, 4.2, 4.5, 5.0])
        states = enumerate_space(target, 50)
        stats = unimodality_stats(target, states)
        plain = build_transition_matrix(
            target, KernelSpec("informed", ell=float(stats.m), big_l=stats.r), states
        )
        if plain.eigensystem()[0] < -1e-10:
            with pytest.raises(ValueError):
                drift_certificate(plain)

    def test_no_certificate_at_planted_local_mode(self):
        target, _ = toy.bimodal_target([1.0] * 3, 3.0, [0.8] * 3)
        chain = lazy_chain(target)
        with pytest.raises(NoCertificate) as err:
            drift_certificate(chain)
        assert "lambda" in str(err.value)
