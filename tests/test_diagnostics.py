import math

import numpy as np
import pytest
from scipy import sparse

import dense_oracle
from discretemh import toy, varsel
from discretemh.core import DiscreteTarget, enumerate_space, tabulate, unimodality_stats
from discretemh.diagnostics import (
    DegenerateRestriction,
    DenseChain,
    NotIrreducible,
    NotReversible,
    build_transition_matrix,
    c_of_rho,
    expected_hitting_time,
    restricted_gap,
    spectral_gap,
    tau_x,
    theorem_bounds,
    tv_curve,
    warm_start_mass_threshold,
    warm_start_mixing_bound,
)
from discretemh.samplers import KernelSpec

RW = KernelSpec()
RW_LAZY = KernelSpec(lazy=True)


def three_state_chain(p):
    """A chain with matrix ``p`` on three states, uniform pi."""
    target = DiscreteTarget(
        log_pi=lambda s: 0.0, neighbors=lambda s: [t for t in range(3) if t != s], seed_state=0
    )
    return DenseChain(tabulate(target, [0, 1, 2]), sparse.csr_array(p), RW)


class TestBuildMatrix:
    def test_two_state_flip(self):
        chain = build_transition_matrix(toy.two_state_target(0.0), RW)
        assert np.allclose(chain.P.toarray(), [[0.0, 1.0], [1.0, 0.0]])

    def test_example3_row_vs_hand_oracle(self, example3_v_n1):
        # single-flip cube: every model has exactly 3 neighbors, so the row at
        # the empty model is (1/3) min(1, ratio) per neighbor
        states = enumerate_space(example3_v_n1, 100)
        chain = build_transition_matrix(example3_v_n1, RW, states)
        i = chain.index[(0, 0, 0)]
        lp0 = example3_v_n1.log_pi((0, 0, 0))
        row = np.zeros(len(states))
        for nb in example3_v_n1.neighbors((0, 0, 0)):
            ratio = math.exp(min(0.0, example3_v_n1.log_pi(nb) - lp0))
            row[chain.index[nb]] = ratio / 3.0
        row[i] = 1.0 - row.sum()
        assert np.allclose(chain.P.toarray()[i], row, atol=1e-15)
        assert chain.P[i].sum() == pytest.approx(1.0, abs=1e-12)

    def test_rows_validated_on_all_fixtures(self, fixture_zoo, zoo_enumerations):
        for name, target in fixture_zoo.items():
            states = zoo_enumerations[name]
            for spec in (RW, KernelSpec("informed", ell=2.0, big_l=50.0)):
                chain = build_transition_matrix(target, spec, states)
                assert np.abs(chain.P.sum(axis=1) - 1).max() < 1e-12
                assert chain.detailed_balance_error() < 1e-12, (name, spec.family)

    def test_lazy_is_half_plus_identity(self, example3_v2_ads):
        states = enumerate_space(example3_v2_ads, 100)
        plain = build_transition_matrix(example3_v2_ads, RW, states)
        lazy = build_transition_matrix(example3_v2_ads, RW_LAZY, states)
        assert np.allclose(lazy.P.toarray(), (plain.P.toarray() + np.eye(plain.n)) / 2, atol=1e-15)

    def test_soft_space_rejection_mass(self):
        # out-of-cap proposals are rejected in place: diagonal absorbs them
        data = varsel.example3_data()
        hyper = varsel.VarSelHyper(g=27.0, kappa=1.0, s_max=2)
        soft = varsel.varsel_target(data, hyper, hard_space=False)
        states = enumerate_space(soft, 100)
        assert len(states) == 7
        chain = build_transition_matrix(soft, RW, states)
        chain.validate()
        i = chain.index[(1, 1, 0)]
        # one of three proposals leads to the excluded full model
        assert chain.P[i, i] >= 1.0 / 3.0


class TestSpectralGap:
    def test_reference_gaps(self, example3_v_n1):
        states = enumerate_space(example3_v_n1, 100)
        g0 = spectral_gap(build_transition_matrix(example3_v_n1, RW, states))
        gh = spectral_gap(
            build_transition_matrix(
                example3_v_n1, KernelSpec("informed", ell=3.0, big_l=9.0), states
            )
        )
        assert g0.gap == pytest.approx(0.334, abs=0.005)
        assert gh.gap == pytest.approx(0.582, abs=0.005)

    def test_two_state_periodic(self):
        chain = build_transition_matrix(toy.two_state_target(0.0), RW)
        report = spectral_gap(chain)
        assert report.gap == pytest.approx(0.0, abs=1e-12)
        lazy = spectral_gap(build_transition_matrix(toy.two_state_target(0.0), RW_LAZY))
        assert lazy.gap == pytest.approx(1.0, abs=1e-12)

    def test_lazy_gap_equals_rayleigh(self, fixture_zoo, zoo_enumerations):
        for name in ("example3-v-n1", "path-7", "sbm-p6"):
            chain = build_transition_matrix(
                fixture_zoo[name], RW_LAZY, zoo_enumerations[name]
            )
            report = spectral_gap(chain)
            assert report.gap == pytest.approx(report.rayleigh_gap, abs=1e-12)

    def test_not_reversible_rejected(self):
        p = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        chain = three_state_chain(p)
        with pytest.raises(NotReversible):
            chain.eigensystem()


class TestRestrictedGap:
    def test_full_space_equals_rayleigh(self, fixture_zoo, zoo_enumerations):
        for name in ("example3-v-n1", "bimodal", "varsel-p5"):
            chain = build_transition_matrix(
                fixture_zoo[name], RW_LAZY, zoo_enumerations[name]
            )
            report = spectral_gap(chain)
            assert restricted_gap(chain, chain.states) == pytest.approx(
                report.rayleigh_gap, abs=1e-10
            )

    def test_singleton_degenerate(self):
        chain = build_transition_matrix(toy.two_state_target(1.0), RW_LAZY)
        with pytest.raises(DegenerateRestriction):
            restricted_gap(chain, [0])

    def test_bimodal_cluster_gap_dominates(self):
        target, x0 = toy.bimodal_target([2.0] * 4, 12.0, [1.5] * 3)
        chain = build_transition_matrix(target, RW_LAZY)
        full = spectral_gap(chain).gap
        cluster = restricted_gap(chain, x0)
        assert cluster >= 10.0 * full


class TestTvAndHitting:
    def test_tv_at_zero(self, example3_v2_ads):
        states = enumerate_space(example3_v2_ads, 100)
        chain = build_transition_matrix(example3_v2_ads, RW_LAZY, states)
        curve = tv_curve(chain, (0, 0, 0), 5)
        x = chain.index[(0, 0, 0)]
        assert curve.tv[0] == pytest.approx(1.0 - chain.pi[x], abs=1e-12)

    def test_tv_nonincreasing_lazy(self, fixture_zoo, zoo_enumerations):
        for name in ("example3-v2-ads", "star-5", "sbm-p6"):
            chain = build_transition_matrix(
                fixture_zoo[name], RW_LAZY, zoo_enumerations[name]
            )
            stats = unimodality_stats(fixture_zoo[name], zoo_enumerations[name])
            curve = tv_curve(chain, stats.x_star, 120)
            assert np.all(np.diff(curve.tv) <= 1e-12)

    def test_tau_consistency(self, example3_v2_ads):
        states = enumerate_space(example3_v2_ads, 100)
        chain = build_transition_matrix(example3_v2_ads, RW_LAZY, states)
        curve = tv_curve(chain, (0, 0, 0), 200)
        assert curve.tau(0.25) == tau_x(chain, (0, 0, 0), 0.25)
        assert dense_oracle.mixing_time(chain.P.toarray(), chain.pi, 0.25) == max(
            tau_x(chain, s, 0.25) for s in states
        )

    def test_relaxation_controls_mixing(self, fixture_zoo, zoo_enumerations):
        # worst-case mixing time against the relaxation-time envelope
        for name in ("example3-v-n1", "path-7", "tree-12", "varsel-p5"):
            chain = build_transition_matrix(
                fixture_zoo[name], RW_LAZY, zoo_enumerations[name]
            )
            report = spectral_gap(chain)
            for eps in (0.25, 0.1):
                bound = report.relaxation_time * math.log(1.0 / (eps * chain.pi.min()))
                assert dense_oracle.mixing_time(chain.P.toarray(), chain.pi, eps) <= bound, name

    def test_hitting_time_zero_at_target(self, example3_v2_ads):
        states = enumerate_space(example3_v2_ads, 100)
        chain = build_transition_matrix(example3_v2_ads, RW, states)
        h = expected_hitting_time(chain, (1, 1, 0))
        assert h[chain.index[(1, 1, 0)]] == 0.0
        assert np.all(h[np.arange(len(states)) != chain.index[(1, 1, 0)]] > 0)

    def test_two_state_geometric(self):
        target = toy.two_state_target(math.log(4.0))  # downhill accept prob 1/4
        chain = build_transition_matrix(target, RW)
        q = chain.P[chain.index[0], chain.index[1]]
        h = expected_hitting_time(chain, 1)
        assert h[chain.index[0]] == pytest.approx(1.0 / q, rel=1e-12)

    def test_reducible_detected(self):
        p = np.eye(3)
        chain = three_state_chain(p)
        with pytest.raises(NotIrreducible):
            expected_hitting_time(chain, 0)


class TestTheoremBounds:
    def test_c_of_rho_values(self):
        assert c_of_rho(4.0) == pytest.approx(32.0, abs=1e-12)
        assert c_of_rho(1e6) == pytest.approx(4.0, rel=0.01)
        with pytest.raises(ValueError):
            c_of_rho(1.0)

    def test_random_walk_bound_arithmetic(self):
        stats_like = unimodality_stats(
            toy.star_target([math.log(40.0)] * 10), list(range(11))
        )
        assert stats_like.m == 10 and stats_like.rho == pytest.approx(4.0)
        out = theorem_bounds(stats_like, RW, pi_min=math.exp(-10), epsilon=0.25)
        assert out["rw_relaxation"].value == pytest.approx(320.0)
        assert out["rw_mixing"].value == pytest.approx(320.0 * (10 + math.log(4)), rel=1e-9)

    def test_inapplicable_when_multimodal(self):
        target, _ = toy.bimodal_target([1.0] * 3, 5.0, [0.5] * 2)
        states = enumerate_space(target, 50)
        stats = unimodality_stats(target, states)
        out = theorem_bounds(stats, RW, pi_min=1e-6, epsilon=0.25)
        assert not out["rw_relaxation"].applicable
        assert "rho" in out["rw_relaxation"].reason

    def test_informed_hypothesis_gates(self):
        target = toy.star_target([4.0, 4.1, 4.2])
        states = enumerate_space(target, 50)
        stats = unimodality_stats(target, states)  # M = 3, R = e^4
        good = KernelSpec("informed", ell=3.0, big_l=20.0)
        out = theorem_bounds(stats, good, pi_min=1e-6, epsilon=0.25)
        assert out["informed_relaxation"].applicable
        rho_t = 20.0 / 9.0
        assert out["informed_relaxation"].value == pytest.approx(2 * c_of_rho(rho_t))
        assert out["drift_mixing"].applicable
        wrong_ell = KernelSpec("informed", ell=2.0, big_l=20.0)
        out = theorem_bounds(stats, wrong_ell, pi_min=1e-6, epsilon=0.25)
        assert not out["informed_relaxation"].applicable
        too_big_l = KernelSpec("informed", ell=3.0, big_l=1e9)
        out = theorem_bounds(stats, too_big_l, pi_min=1e-6, epsilon=0.25)
        assert not out["informed_relaxation"].applicable

    def test_warm_start_helpers(self):
        assert warm_start_mass_threshold(0.25, 1.0) == pytest.approx(1 - 0.0625 / 5)
        # finite norm index strengthens the requirement
        assert warm_start_mass_threshold(0.25, 1.0, m=4.0) > warm_start_mass_threshold(
            0.25, 1.0
        ) - 1e-12
        assert warm_start_mixing_bound(0.5, 0.25, 2.0) == pytest.approx(
            math.log(4.0 / 0.125) / 0.5
        )
