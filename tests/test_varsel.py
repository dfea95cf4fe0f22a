import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discretemh import varsel
from discretemh.core import check_neighborhood_axioms, enumerate_space, philox_rng
from discretemh.varsel import (
    InvalidGram,
    InvalidInit,
    ModelState,
    SingularModel,
    VarSelData,
    VarSelHyper,
    example3_data,
    generate_data,
    good_bad_init,
    gram_data,
    init_scheme,
    log_posterior,
    neighbors,
    r_squared,
    uniform_m_init,
    update_model,
)

# frozen from 50-digit evaluation of the closed-form posterior on the
# embedded three-variable dataset
EXACT_TABLE = {
    (0, 0, 0): (1.0, 0.0),
    (1, 0, 0): (0.8704, 63.9846555044),
    (0, 1, 0): (1.0, -2.76471454376),
    (0, 0, 1): (0.8236, 90.4603191451),
    (1, 1, 0): (0.64, 207.669042987),
    (1, 0, 1): (0.821894736842, 88.6872856007),
    (0, 1, 1): (0.724375, 148.944706035),
    (1, 1, 1): (0.64, 204.904328443),
}


@pytest.fixture(scope="module")
def e3():
    data = example3_data()
    hyper = VarSelHyper(g=27.0, kappa=1.0)
    return data, hyper


class TestPosterior:
    def test_r_squared_exact(self, e3):
        data, _ = e3
        for delta, (one_minus_r2, _) in EXACT_TABLE.items():
            assert 1.0 - r_squared(data, delta) == pytest.approx(one_minus_r2, abs=1e-6)

    def test_empty_model(self, e3):
        assert r_squared(e3[0], (0, 0, 0)) == 0.0

    def test_log_posterior_exact(self, e3):
        data, hyper = e3
        base = log_posterior(data, hyper, (0, 0, 0))
        for delta, (_, expected) in EXACT_TABLE.items():
            assert log_posterior(data, hyper, delta) - base == pytest.approx(
                expected, abs=1e-5
            )

    def test_sparsity_cap_excludes(self, e3):
        data, _ = e3
        hyper = VarSelHyper(g=27.0, kappa=1.0, s_max=2)
        assert log_posterior(data, hyper, (1, 1, 1)) == -math.inf

    def test_more_actives_than_observations(self):
        gram = np.eye(5) * 3.0
        data = VarSelData(gram=gram, xty=np.zeros(5), yty=4.0, n=2, p=5)
        hyper = VarSelHyper(g=8.0, kappa=1.0)
        assert log_posterior(data, hyper, (1, 1, 1, 0, 0)) == -math.inf

    def test_singular_submodel_is_massless(self):
        # exactly duplicated columns make any model containing both singular
        x = np.array([[1.0, 1.0, 0.4], [0.5, 0.5, 1.2], [-0.3, -0.3, 0.7], [2.0, 2.0, 0.1]])
        gram = x.T @ x
        data = VarSelData(gram=gram, xty=np.array([1.0, 1.0, 0.5]), yty=9.0, n=50, p=3)
        hyper = VarSelHyper(g=27.0, kappa=1.0)
        with pytest.raises(SingularModel):
            r_squared(data, (1, 1, 0))
        assert log_posterior(data, hyper, (1, 1, 0)) == -math.inf

    @given(size_a=st.integers(0, 6), size_b=st.integers(0, 6))
    @settings(max_examples=50, deadline=None)
    def test_penalty_monotone_at_fixed_fit(self, size_a, size_b):
        # orthonormal design, null response: fit is zero for every model
        p = 6
        data = VarSelData(gram=np.eye(p) * 40, xty=np.zeros(p), yty=4.0, n=40, p=p)
        hyper = VarSelHyper(g=p**3, kappa=1.0)
        da = tuple(1 if j < size_a else 0 for j in range(p))
        db = tuple(1 if j < size_b else 0 for j in range(p))
        la, lb = log_posterior(data, hyper, da), log_posterior(data, hyper, db)
        if size_a < size_b:
            assert la > lb
        elif size_a == size_b:
            assert la == lb


class TestNeighborhoods:
    def test_single_flip_counts(self):
        assert len(neighbors((0, 0, 0), "n1")) == 3

    def test_ads_counts(self):
        out = neighbors((1, 0, 0), "ads")
        assert len(out) == 5  # three flips plus two swaps
        assert (0, 1, 0) in out and (0, 0, 1) in out

    def test_ads_capped_growth(self):
        # |ads neighbors within the cap| is at most p + s (p - s)
        for p, s in [(6, 2), (8, 3), (10, 4)]:
            delta = tuple(1 if j < s else 0 for j in range(p))
            capped = [m for m in neighbors(delta, "ads") if sum(m) <= s]
            assert len(set(capped)) <= p + s * (p - s)

    def test_axioms_on_targets(self, e3):
        data, hyper = e3
        for scheme in ("n1", "ads"):
            target = varsel.varsel_target(data, hyper, neighborhood=scheme)
            check_neighborhood_axioms(target, enumerate_space(target, 100))

    def test_scan_matches_pointwise(self):
        data, _ = generate_data(8, 120, "moderate", seed=5)
        hyper = VarSelHyper(g=512.0, kappa=1.0, s_max=4)
        target = varsel.varsel_target(data, hyper)
        rng = philox_rng(0)
        for _ in range(20):
            delta = tuple(int(b) for b in rng.integers(0, 2, size=8))
            if sum(delta) > 4:
                continue
            ns, lps = target.neighbors_with_log_pi(delta)
            assert ns == list(target.neighbors(delta))
            for nb, lp in zip(ns, lps):
                assert lp == pytest.approx(log_posterior(data, hyper, nb), abs=1e-9)


class TestIncrementalUpdates:
    def test_add_then_drop_roundtrip(self, e3):
        data, hyper = e3
        state = ModelState.from_delta(data, hyper, (0, 1, 0))
        back = update_model(update_model(state, ("add", 2)), ("drop", 2))
        assert back.delta == state.delta
        assert back.log_pi == pytest.approx(state.log_pi, abs=1e-9)

    def test_swap_is_drop_then_add(self, e3):
        data, hyper = e3
        state = ModelState.from_delta(data, hyper, (1, 0, 0))
        via_swap = update_model(state, ("swap", 0, 2))
        via_steps = update_model(update_model(state, ("drop", 0)), ("add", 2))
        assert via_swap.delta == via_steps.delta == (0, 0, 1)
        assert via_swap.log_pi == via_steps.log_pi

    def test_thousand_random_moves_match_scratch(self):
        p = 20
        data, _ = generate_data(p, 150, "moderate", seed=9)
        hyper = VarSelHyper(g=float(p**3), kappa=1.0)
        rng = philox_rng(17)
        state = ModelState.from_delta(data, hyper, tuple([0] * p))
        worst = 0.0
        for step_idx in range(1000):
            active = [j for j in range(p) if state.delta[j]]
            inactive = [j for j in range(p) if not state.delta[j]]
            options = []
            if inactive:
                options.append(("add", int(rng.choice(inactive))))
            if active:
                options.append(("drop", int(rng.choice(active))))
            if active and inactive:
                options.append(
                    ("swap", int(rng.choice(active)), int(rng.choice(inactive)))
                )
            move = options[int(rng.integers(len(options)))]
            state = update_model(state, move)
            worst = max(worst, abs(state.log_pi - log_posterior(data, hyper, state.delta)))
        assert worst < 1e-6

    def test_refresh_counter_resets(self, e3):
        data, hyper = e3
        state = ModelState.from_delta(data, hyper, (0, 0, 0))
        for i in range(6):
            state = update_model(state, ("add" if i % 2 == 0 else "drop", 0))
        assert state.n_updates == 6
        assert state.log_pi == pytest.approx(log_posterior(data, hyper, state.delta))

    def test_singular_add_raises(self):
        x = np.array([[1.0, 1.0, 0.4], [0.5, 0.5, 1.2], [-0.3, -0.3, 0.7], [2.0, 2.0, 0.1]])
        gram = x.T @ x
        data = VarSelData(gram=gram, xty=np.array([1.0, 1.0, 0.5]), yty=9.0, n=50, p=3)
        hyper = VarSelHyper(g=27.0, kappa=1.0)
        state = ModelState.from_delta(data, hyper, (1, 0, 0))
        with pytest.raises(SingularModel):
            update_model(state, ("add", 1))


class TestDataGeneration:
    def test_covariance_unit_diagonal(self):
        for kind in ("moderate", "high"):
            sigma = varsel.covariance_matrix(12, kind)
            assert np.allclose(np.diag(sigma), 1.0)
            assert np.allclose(sigma, sigma.T)

    def test_signal_support(self):
        data, truth = generate_data(10, 50, seed=4)
        assert truth == (1, 1, 1, 1, 1, 0, 0, 0, 0, 0)
        beta = varsel.default_signal(10, 50)
        assert np.count_nonzero(beta) == 5

    def test_gram_concentrates_to_covariance(self):
        p, n = 8, 10_000
        data, _ = generate_data(p, n, "moderate", seed=21)
        sigma = varsel.covariance_matrix(p, "moderate")
        assert np.max(np.abs(data.gram / n - sigma)) < 0.05

    def test_json_roundtrip(self, tmp_path, e3):
        path = tmp_path / "d.json"
        varsel.save_data(e3[0], path, seed=1, covariance="moderate")
        loaded = varsel.load_data(path)
        assert np.allclose(loaded.gram, e3[0].gram)
        assert loaded.yty == e3[0].yty and loaded.n == e3[0].n

    def test_checked_in_fixture_matches_analytic(self):
        loaded = varsel.load_data(varsel.example3_fixture_path())
        fresh = example3_data()
        assert np.array_equal(loaded.gram, fresh.gram)
        assert np.array_equal(loaded.xty, fresh.xty)
        assert loaded.yty == fresh.yty


class TestGramSpecification:
    def test_example3_inner_products(self):
        data = example3_data()
        assert data.xty[0] == pytest.approx(0.45 * data.n)
        assert data.xty[1] == pytest.approx(0.0)
        assert data.yty == pytest.approx(1.5625 * data.n)

    def test_null_response_makes_empty_model_the_mode(self):
        data = gram_data(np.eye(4), np.zeros(4), n=100)
        hyper = VarSelHyper(g=64.0, kappa=1.0)
        vals = {
            d: log_posterior(data, hyper, d)
            for d in itertools.product([0, 1], repeat=4)
        }
        assert max(vals, key=vals.get) == (0, 0, 0, 0)

    def test_indefinite_gram_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(InvalidGram):
            gram_data(bad, np.zeros(2), n=10)


class TestInitSchemes:
    def test_empty_model_deterministic(self):
        assert uniform_m_init(8, 0, philox_rng(0)) == (0,) * 8

    def test_uniform_m_sizes(self):
        rng = philox_rng(5)
        for _ in range(50):
            assert sum(uniform_m_init(12, 4, rng)) == 4

    def test_good_bad_sizes(self):
        truth = tuple(1 if j < 5 else 0 for j in range(500))
        rng = philox_rng(9)
        good = good_bad_init(truth, "good", rng, n_false=50)
        bad = good_bad_init(truth, "bad", rng, n_false=50)
        assert sum(good) == 55 and all(good[j] for j in range(5))
        assert sum(bad) == 50 and not any(bad[j] for j in range(5))

    def test_uniform_m_support_uniformity(self):
        from scipy.stats import chisquare

        p, m, draws = 6, 2, 4500
        rng = philox_rng(31)
        counts: dict = {}
        for _ in range(draws):
            key = uniform_m_init(p, m, rng)
            counts[key] = counts.get(key, 0) + 1
        supports = list(itertools.combinations(range(p), m))
        observed = [
            counts.get(tuple(1 if j in sup else 0 for j in range(p)), 0)
            for sup in supports
        ]
        assert chisquare(observed).pvalue > 0.01

    def test_invalid(self):
        with pytest.raises(InvalidInit):
            uniform_m_init(4, 9, philox_rng(0))
        with pytest.raises(InvalidInit):
            init_scheme("unknown", 4, philox_rng(0))
        with pytest.raises(InvalidInit):
            good_bad_init((1, 1, 0, 0), "good", philox_rng(0), n_false=3)
