import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp

from discretemh import sbm
from discretemh.core import (
    check_neighborhood_axioms,
    enumerate_space,
    philox_rng,
    unimodality_stats,
)
from discretemh.sbm import (
    BlockCounts,
    SbmData,
    corrupt_labels,
    flip_update,
    generate_sbm,
    label_switched,
    log_posterior_sbm,
    sbm_init,
    sbm_target,
    true_labels,
)


def quad_log_posterior(data: SbmData, z) -> float:
    """Oracle: integrate each block pair's Bernoulli likelihood numerically."""
    counts = BlockCounts.from_labels(data, z)
    total = 0.0
    for n_uv, m_uv in zip(counts.n_pairs, counts.m_edges):
        val, _ = quad(
            lambda q: q**m_uv * (1 - q) ** (n_uv - m_uv), 0.0, 1.0,
            epsabs=1e-300, epsrel=1e-12,
        )
        total += math.log(val)
    return total


class TestCollapsedPosterior:
    def test_two_nodes_no_edge(self):
        data = SbmData.from_adjacency(np.zeros((2, 2), dtype=int))
        assert log_posterior_sbm(data, (1, 1)) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_matches_quadrature(self):
        rng = philox_rng(77)
        for trial in range(20):
            p = int(rng.integers(2, 6))
            data, _ = generate_sbm(p, 0.6, 0.3, seed=(5, trial))
            z = tuple(int(v) for v in rng.integers(1, 3, size=p))
            lp = log_posterior_sbm(data, z)
            assert lp == pytest.approx(quad_log_posterior(data, z), rel=1e-8)

    @given(st.lists(st.integers(1, 2), min_size=2, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_label_switching_exact(self, labels):
        z = tuple(labels)
        data, _ = generate_sbm(len(z), 0.5, 0.2, seed=3)
        assert log_posterior_sbm(data, z) == log_posterior_sbm(data, label_switched(z))

    def test_total_mass_normalizes(self):
        import itertools

        data, _ = generate_sbm(9, 0.7, 0.1, seed=2)
        lps = [
            log_posterior_sbm(data, z)
            for z in itertools.product((1, 2), repeat=9)
        ]
        # every assignment is a disjoint explanation of the same graph under
        # the uniform mixture, so the exact normalization must be finite and
        # the normalized masses sum to one
        pis = np.exp(np.array(lps) - logsumexp(lps))
        assert pis.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_blocks_are_legal(self):
        data, _ = generate_sbm(5, 0.5, 0.1, seed=1)
        val = log_posterior_sbm(data, (1, 1, 1, 1, 1))
        assert np.isfinite(val)


class TestGammaLn:
    def test_integer_range_accuracy(self):
        # every argument the collapsed posterior uses is an integer + 1;
        # compare against exact log factorial via compensated summation
        ks = [1, 2, 3, 7, 50, 123, 1000, 4951, 5002]
        for k in ks:
            exact = math.fsum(math.log(i) for i in range(1, k))  # log (k-1)!
            assert abs(float(gammaln(k)) - exact) <= 1e-12 * max(1.0, abs(exact))


class TestFlipUpdate:
    def test_involution(self):
        data, _ = generate_sbm(10, 0.5, 0.2, seed=4)
        z = tuple(int(v) for v in philox_rng(1).integers(1, 3, size=10))
        counts = BlockCounts.from_labels(data, z)
        z_after = list(z)
        once = flip_update(counts, z, 3)
        z_after[3] = 3 - z_after[3]
        back = flip_update(once, tuple(z_after), 3)
        assert back.sizes == counts.sizes
        assert back.m_edges == counts.m_edges
        assert np.array_equal(back.tallies, counts.tallies)

    def test_long_random_sequence_matches_scratch(self):
        p = 50
        data, _ = generate_sbm(p, 0.2, 0.05, seed=8)
        rng = philox_rng(9)
        z = list(true_labels(p))
        counts = BlockCounts.from_labels(data, tuple(z))
        worst = 0.0
        for _ in range(10_000):
            j = int(rng.integers(p))
            counts = flip_update(counts, tuple(z), j)
            z[j] = 3 - z[j]
            worst = max(
                worst,
                abs(counts.log_posterior() - log_posterior_sbm(data, tuple(z))),
            )
        assert worst < 1e-9
        fresh = BlockCounts.from_labels(data, tuple(z))
        assert counts.sizes == fresh.sizes and counts.m_edges == fresh.m_edges

    def test_isolated_node_changes_pairs_only(self):
        adj = np.zeros((4, 4), dtype=int)
        adj[1, 2] = adj[2, 1] = 1
        data = SbmData.from_adjacency(adj)
        z = (1, 1, 2, 2)
        counts = BlockCounts.from_labels(data, z)
        flipped = flip_update(counts, z, 0)  # node 0 has no edges
        assert flipped.m_edges == counts.m_edges
        assert flipped.n_pairs != counts.n_pairs


class TestGeneration:
    def test_zero_rates_empty_graph(self):
        data, _ = generate_sbm(10, 0.0, 0.0, seed=0)
        assert data.adjacency.sum() == 0

    def test_within_block_density(self):
        p = 200
        data, z_star = generate_sbm(p, 0.3, 0.01, seed=6)
        same = np.equal.outer(z_star, z_star)
        mask = np.triu(same, k=1)
        n_pairs = int(mask.sum())
        density = data.adjacency[mask].mean()
        se = math.sqrt(0.3 * 0.7 / n_pairs)
        assert abs(density - 0.3) <= 3 * se

    def test_true_labels_split(self):
        assert sum(1 for v in true_labels(7) if v == 1) == 4
        assert sum(1 for v in true_labels(10) if v == 1) == 5

    def test_csv_roundtrip(self, tmp_path):
        data, _ = generate_sbm(12, 0.4, 0.1, seed=3)
        path = tmp_path / "graph.csv"
        sbm.save_sbm(data, path, seed=3, rates=(0.4, 0.1))
        loaded = sbm.load_sbm(path)
        assert np.array_equal(loaded.adjacency, data.adjacency)


class TestInit:
    def test_zero_flips_identity(self):
        z = true_labels(9)
        assert corrupt_labels(z, 0, philox_rng(0)) == z

    def test_half_wrong_distance(self):
        z = true_labels(1000)
        out = sbm_init("half-wrong", z, philox_rng(2))
        assert sum(a != b for a, b in zip(out, z)) == 500

    def test_third_wrong_distance(self):
        z = true_labels(10)
        for s in range(20):
            out = sbm_init("third-wrong", z, philox_rng(s))
            assert sum(a != b for a, b in zip(out, z)) == 3

    def test_flip_positions_uniform(self):
        p, draws = 10, 4000
        z = true_labels(p)
        rng = philox_rng(11)
        flips = np.zeros(p)
        for _ in range(draws):
            out = sbm_init("half-wrong", z, rng)
            flips += [a != b for a, b in zip(out, z)]
        freq = flips / draws
        se = math.sqrt(0.5 * 0.5 / draws)
        assert np.all(np.abs(freq - 0.5) <= 4 * se)


class TestTargetStructure:
    def test_flip_degree_is_p(self):
        data, _ = generate_sbm(8, 0.5, 0.2, seed=0)
        target = sbm_target(data)
        states = enumerate_space(target, 300)
        assert len(states) == 2**8
        stats = unimodality_stats(target, states)
        assert stats.m == 8
        check_neighborhood_axioms(target, states)

    def test_scan_matches_pointwise(self):
        data, _ = generate_sbm(9, 0.6, 0.1, seed=12)
        target = sbm_target(data)
        rng = philox_rng(4)
        for _ in range(10):
            z = tuple(int(v) for v in rng.integers(1, 3, size=9))
            ns, lps = target.neighbors_with_log_pi(z)
            for nb, lp in zip(ns, lps):
                assert lp == pytest.approx(log_posterior_sbm(data, nb), abs=1e-10)
