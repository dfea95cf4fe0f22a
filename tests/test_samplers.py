import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discretemh import toy, varsel
from discretemh.core import DiscreteTarget, IsolatedState, enumerate_space, philox_rng
from discretemh.diagnostics import build_transition_matrix, expected_hitting_time
from discretemh.samplers import (
    AsymmetricNeighborhood,
    InvalidClip,
    KernelSpec,
    acceptance_log_ratio,
    clip_weight,
    hitting_experiment,
    informed_proposal_dist,
    log_clip_weight,
    run_chain,
    step,
)
from conftest import N_WORKERS


class TestClipWeight:
    def test_reference_values(self):
        assert clip_weight(math.exp(90.46), 3.0, 9.0) == 9.0
        assert clip_weight(3.0, 3.0, 9.0) == 3.0
        assert clip_weight(math.exp(-2.76), 3.0, 9.0) == 3.0

    def test_invalid(self):
        with pytest.raises(InvalidClip):
            clip_weight(1.0, 9.0, 3.0)
        with pytest.raises(InvalidClip):
            KernelSpec("informed", ell=5.0, big_l=5.0)

    @given(
        u=st.floats(min_value=1e-300, max_value=1e300),
        ell=st.floats(min_value=1e-6, max_value=1e5),
        ratio=st.floats(min_value=1.0001, max_value=1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_clip_properties(self, u, ell, ratio):
        big_l = ell * ratio
        h = clip_weight(u, ell, big_l)
        assert ell <= h <= big_l
        if ell <= u <= big_l:
            assert h == u
        # log-domain version agrees
        assert math.isclose(
            math.log(h), float(log_clip_weight(math.log(u), ell, big_l)), rel_tol=1e-12
        )

    def test_unclipped_sentinel(self):
        assert float(log_clip_weight(-5.0, 0.0, math.inf)) == -5.0
        assert float(log_clip_weight(-math.inf, 0.0, math.inf)) == -math.inf


class TestInformedProposal:
    def test_reference_clipped(self, example3_v_n1):
        ns, probs = informed_proposal_dist(
            example3_v_n1, (0, 0, 0), KernelSpec("informed", ell=3.0, big_l=9.0)
        )
        assert probs[ns.index((0, 0, 1))] == pytest.approx(3.0 / 7.0, abs=1e-12)

    def test_reference_unclipped(self, example3_v_n1):
        ns, probs = informed_proposal_dist(
            example3_v_n1, (0, 0, 0), KernelSpec("informed")
        )
        assert probs[ns.index((0, 0, 1))] >= 1.0 - 1e-11

    def test_flat_target_uniform(self):
        flat = toy.table_target({0: 0.0, 1: 0.0, 2: 0.0}, [(0, 1), (0, 2), (1, 2)])
        ns, probs = informed_proposal_dist(flat, 0, KernelSpec("informed", ell=0.5, big_l=2.0))
        assert np.allclose(probs, 1.0 / len(ns))

    def test_isolated(self):
        lonely = toy.table_target({0: 0.0, 1: -1.0}, [(0, 1)])
        bad = type(lonely)(
            log_pi=lonely.log_pi, neighbors=lambda s: [], seed_state=0
        )
        with pytest.raises(IsolatedState):
            informed_proposal_dist(bad, 0, KernelSpec("informed", ell=1.0, big_l=2.0))


class TestAcceptanceRatio:
    def test_unclipped_reference(self, example3_v_n1):
        val = acceptance_log_ratio(
            example3_v_n1, (0, 0, 0), (0, 0, 1), KernelSpec("informed")
        )
        assert val == pytest.approx(-58.49, abs=0.01)

    def test_symmetric_random_walk(self):
        flat = toy.table_target({0: 0.0, 1: 0.0}, [(0, 1)])
        assert acceptance_log_ratio(flat, 0, 1, KernelSpec()) == 0.0

    def test_clipped_reference_positive(self, example3_v_n1):
        spec = KernelSpec("informed", ell=3.0, big_l=9.0)
        val = acceptance_log_ratio(example3_v_n1, (0, 0, 0), (0, 0, 1), spec)
        lp_diff = example3_v_n1.log_pi((0, 0, 1)) - example3_v_n1.log_pi((0, 0, 0))
        # hand assembly: forward weight 9 of 21 total, reverse 3 of 15
        expected = lp_diff + math.log((3.0 / 15.0) / (9.0 / 21.0))
        assert val == pytest.approx(expected, abs=1e-9)
        assert val > 0

    def test_zero_probability_proposal(self, example3_v2_n1):
        target = varsel.example3_target("v2", "n1")
        # build the soft-space variant so the full model is emitted but massless
        data = varsel.example3_data()
        hyper = varsel.VarSelHyper(g=27.0, kappa=1.0, s_max=2)
        soft = varsel.varsel_target(data, hyper, hard_space=False)
        assert acceptance_log_ratio(soft, (1, 1, 0), (1, 1, 1), KernelSpec()) == -math.inf


class TestAsymmetricNeighborhood:
    """State 2 lists 0 as a neighbor, but 0 lists only 1."""

    NB = {0: [1], 1: [0, 2], 2: [1, 0]}
    TARGET = DiscreteTarget(
        log_pi={0: 0.0, 1: -1.0, 2: -2.0}.__getitem__, neighbors=NB.__getitem__, seed_state=0
    )
    SPECS = [KernelSpec(), KernelSpec("informed"), KernelSpec("informed", ell=0.5, big_l=4.0)]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_acceptance_log_ratio(self, spec):
        with pytest.raises(AsymmetricNeighborhood, match=r"0 is a neighbor of 2"):
            acceptance_log_ratio(self.TARGET, 2, 0, spec)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_run_chain(self, spec):
        with pytest.raises(AsymmetricNeighborhood):
            run_chain(self.TARGET, 2, spec, 200, seed=1)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_build_transition_matrix(self, spec):
        with pytest.raises(AsymmetricNeighborhood):
            build_transition_matrix(self.TARGET, spec)

    def test_forward_move_must_be_a_neighbor(self):
        with pytest.raises(ValueError, match="not a neighbor"):
            acceptance_log_ratio(self.TARGET, 0, 2, KernelSpec())


class TestStep:
    def test_stay_probability_at_empty_model(self, example3_v_n1):
        # non-lazy random walk at the empty model moves with probability > 2/3
        states = enumerate_space(example3_v_n1, 100)
        chain = build_transition_matrix(example3_v_n1, KernelSpec(), states)
        i = chain.index[(0, 0, 0)]
        assert chain.P[i, i] < 1.0 / 3.0

    def test_lazy_chain_stays_on_reject(self):
        target = toy.path_target([2.0, 2.0, 2.0])
        trace = run_chain(target, 3, KernelSpec(lazy=True), 200, seed=5)
        for i in range(len(trace.accepted)):
            if not trace.accepted[i]:
                assert trace.states[i + 1] == trace.states[i]

    def test_step_determinism(self, example3_v_n1):
        spec = KernelSpec("informed", ell=3.0, big_l=9.0)
        a = step(example3_v_n1, (0, 0, 0), spec, philox_rng(3))
        b = step(example3_v_n1, (0, 0, 0), spec, philox_rng(3))
        assert a[0] == b[0] and a[1].proposal == b[1].proposal

    def test_eval_counting(self, example3_v_n1):
        rng = philox_rng(0)
        _, meta = step(example3_v_n1, (0, 0, 0), KernelSpec(), rng)
        assert meta.n_evals == 1
        _, meta = step(
            example3_v_n1, (0, 0, 0), KernelSpec("informed", ell=3.0, big_l=9.0), rng
        )
        assert meta.n_evals in (3, 6)  # forward scan, plus reverse scan unless stuck


class TestRunChain:
    def test_hit_at_zero(self, example3_v_n1):
        trace = run_chain(example3_v_n1, (1, 1, 0), KernelSpec(), 10, 0, stop_at=(1, 1, 0))
        assert trace.hit_iteration == 0

    def test_determinism(self, example3_v2_ads):
        kw = dict(n_steps=300, seed=12345)
        a = run_chain(example3_v2_ads, (0, 0, 0), KernelSpec(), **kw)
        b = run_chain(example3_v2_ads, (0, 0, 0), KernelSpec(), **kw)
        assert a.states == b.states
        assert np.array_equal(a.accepted, b.accepted)

    def test_log_pis_consistent(self, example3_v2_ads):
        trace = run_chain(example3_v2_ads, (0, 0, 0), KernelSpec(), 100, 3)
        for s, lp in zip(trace.states, trace.log_pis):
            assert lp == pytest.approx(example3_v2_ads.log_pi(s), abs=0.0)

    def test_mean_hitting_time_vs_linear_solve(self, example3_v2_ads):
        states = enumerate_space(example3_v2_ads, 100)
        chain = build_transition_matrix(example3_v2_ads, KernelSpec(), states)
        exact = expected_hitting_time(chain, (1, 1, 0))
        start = (0, 0, 0)
        n_runs = 400
        hits = []
        for s in range(n_runs):
            tr = run_chain(
                example3_v2_ads, start, KernelSpec(), 2000, seed=(77, s),
                stop_at=(1, 1, 0), stop_early=True,
            )
            assert tr.hit_iteration is not None
            hits.append(tr.hit_iteration)
        hits = np.array(hits, dtype=float)
        mean_exact = exact[chain.index[start]]
        se = hits.std(ddof=1) / math.sqrt(n_runs)
        assert abs(hits.mean() - mean_exact) <= 3.0 * se


class TestErgodicAverages:
    def test_occupancy_matches_stationary(self):
        target = toy.star_target([1.0, 1.5, 0.7])
        states = enumerate_space(target, 10)
        chain = build_transition_matrix(target, KernelSpec(lazy=True), states)
        trace = run_chain(target, 0, KernelSpec(lazy=True), 60_000, 2024)
        counts = {s: 0 for s in states}
        for s in trace.states:
            counts[s] += 1
        n = len(trace.states)
        for s in states:
            freq = counts[s] / n
            p = chain.pi[chain.index[s]]
            # crude Monte Carlo tolerance with serial correlation allowance
            assert abs(freq - p) <= 6.0 * math.sqrt(p * (1 - p) / n) + 5e-3


class TestHittingExperiment:
    @staticmethod
    def _factory(index, seedseq):
        target = toy.path_target([1.0, 1.0, 1.0, 1.0])
        rng = philox_rng(seedseq)
        init = int(rng.integers(2, 5))
        return target, init, frozenset([0])

    def test_budget_zero(self):
        summary = hitting_experiment(self._factory, KernelSpec(), 8, 0, 42)
        assert summary.success == 0
        assert summary.median_hit_iteration is None

    def test_worker_invariance(self):
        one = hitting_experiment(self._factory, KernelSpec(), 10, 100, 7, workers=1)
        two = hitting_experiment(self._factory, KernelSpec(), 10, 100, 7, workers=N_WORKERS)
        assert [r.hit_iteration for r in one.runs] == [r.hit_iteration for r in two.runs]
        assert one.success == two.success
