import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp

from conftest import check_neighborhood_axioms
from discretemh import sbm
from discretemh.core import (
    enumerate_space,
    philox_rng,
    unimodality_stats,
)
from discretemh.core import DiscreteMHError
from discretemh.samplers import KernelSpec, run_chain
from discretemh.sbm import (
    BlockCounts,
    InvalidGraph,
    SbmData,
    corrupt_labels,
    generate_sbm,
    label_switched,
    log_posterior_sbm,
    sbm_init,
    sbm_target,
    true_labels,
)


def three_array_log_posterior(counts: BlockCounts) -> float:
    """Oracle: the collapsed log posterior as three beta terms evaluated on
    arrays, with three gammaln calls, combined within blocks first."""
    n_uv, m_uv = np.array(counts.n_pairs), np.array(counts.m_edges)
    terms = gammaln(m_uv + 1) + gammaln(n_uv - m_uv + 1) - gammaln(n_uv + 2)
    return float((terms[0] + terms[2]) + terms[1])


def gammaln_flip_log_pis(counts: BlockCounts, z) -> np.ndarray:
    """Oracle: the log posteriors of all single flips of ``z`` with one
    ``gammaln`` call per beta term argument, each pair count worked out per
    node."""
    p = counts.data.p
    c1 = counts.sizes[0]
    m11, m12, m22 = counts.m_edges
    d1 = counts.d1
    d2 = counts.data.degrees - d1
    to2 = np.array(z) == 1
    c1_new = np.where(to2, c1 - 1, c1 + 1)
    c2_new = p - c1_new
    m11_new = np.where(to2, m11 - d1, m11 + d1)
    m12_new = np.where(to2, m12 + d1 - d2, m12 - d1 + d2)
    m22_new = np.where(to2, m22 + d2, m22 - d2)
    n11_new = c1_new * (c1_new - 1) // 2
    n12_new = c1_new * c2_new
    n22_new = c2_new * (c2_new - 1) // 2

    def beta_term(n_uv, m_uv):
        return gammaln(m_uv + 1) + gammaln(n_uv - m_uv + 1) - gammaln(n_uv + 2)

    return (beta_term(n11_new, m11_new) + beta_term(n22_new, m22_new)) + beta_term(
        n12_new, m12_new
    )


def rates_matrix_sbm(p: int, p_within: float, p_between: float, seed) -> np.ndarray:
    """Oracle: the graph generator's adjacency built from a p x p rates
    matrix and an outer comparison of the planted labels."""
    rng = philox_rng(seed)
    z_star = true_labels(p)
    rates = np.where(np.equal.outer(z_star, z_star), p_within, p_between)
    upper = np.triu(rng.random((p, p)) < rates, k=1)
    return (upper | upper.T).astype(np.uint8)


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

    def test_counts_match_literal_pair_count(self):
        data, _ = generate_sbm(61, 0.3, 0.1, seed=9)
        z = tuple(int(v) for v in philox_rng(3).integers(1, 3, size=61))
        counts = BlockCounts.from_labels(data, z)
        edges = {(1, 1): 0, (1, 2): 0, (2, 2): 0}
        tallies = np.zeros((61, 2), dtype=np.int64)
        for i in range(61):
            for j in range(61):
                if data.adjacency[i, j]:
                    tallies[i, z[j] - 1] += 1
                    if i < j:
                        edges[tuple(sorted((z[i], z[j])))] += 1
        assert counts.m_edges == (edges[1, 1], edges[1, 2], edges[2, 2])
        assert counts.tallies.dtype == np.int64
        assert np.array_equal(counts.tallies, tallies)
        assert counts.sizes == (z.count(1), z.count(2))

    @given(st.lists(st.integers(1, 2), min_size=2, max_size=60), st.integers(0, 50))
    @settings(max_examples=80, deadline=None)
    def test_one_gammaln_call_is_bit_equal_to_three_arrays(self, labels, seed):
        z = tuple(labels)
        data, _ = generate_sbm(len(z), 0.4, 0.1, seed=seed)
        counts = BlockCounts.from_labels(data, z)
        lp = counts.log_posterior()
        assert type(lp) is float
        assert lp == three_array_log_posterior(counts)

    def test_block2_tallies_are_degree_less_block1(self):
        data, _ = generate_sbm(80, 0.3, 0.05, seed=2)
        assert data.degrees.dtype == np.int64
        assert np.array_equal(data.degrees, data.adjacency.sum(axis=1))
        z = tuple(int(v) for v in philox_rng(5).integers(1, 3, size=80))
        counts = BlockCounts.from_labels(data, z)
        assert counts.d1.dtype == np.int64 and counts.tallies.shape == (80, 2)
        assert np.array_equal(counts.tallies[:, 0], counts.d1)
        assert np.array_equal(counts.tallies.sum(axis=1), data.degrees)

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
        once = counts.flip(z, 3)
        z_after[3] = 3 - z_after[3]
        back = once.flip(tuple(z_after), 3)
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
            counts = counts.flip(tuple(z), j)
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
        flipped = counts.flip(z, 0)  # node 0 has no edges
        assert flipped.m_edges == counts.m_edges
        assert flipped.n_pairs != counts.n_pairs


class TestLogGammaTable:
    def test_zoo_scans_equal_gammaln_oracle(self, fixture_zoo, zoo_enumerations):
        for name in ("sbm-p6", "sbm-p7"):
            target = fixture_zoo[name]
            for z in zoo_enumerations[name]:
                counts = target.stats_at(z)
                got, want = counts.flip_log_pis(z), gammaln_flip_log_pis(counts, z)
                assert got.tobytes() == want.tobytes(), (name, z)

    def test_p1000_scans_equal_gammaln_oracle(self):
        # the sbm-full-* model: corrupted starts, the truth, its mirror, and
        # labellings with an empty or a one-node block
        data, z_star = generate_sbm(1000, 0.1, 1e-8, seed=7)
        rng = philox_rng(21)
        states = [sbm_init(kind, z_star, rng) for kind in ("half-wrong", "third-wrong")
                  for _ in range(8)]
        states += [z_star, label_switched(z_star), (1,) * 1000, (2,) * 1000,
                   (2,) + (1,) * 999, (1,) * 999 + (2,)]
        for z in states:
            counts = BlockCounts.from_labels(data, z)
            got, want = counts.flip_log_pis(z), gammaln_flip_log_pis(counts, z)
            assert got.tobytes() == want.tobytes()
        assert len(states) >= 20

    def test_built_once_per_p_and_read_only(self):
        p = 23
        data, z_star = generate_sbm(p, 0.5, 0.1, seed=4)
        counts = BlockCounts.from_labels(data, z_star)
        sbm._log_gamma_table.cache_clear()
        counts.flip_log_pis(z_star)
        counts.flip_log_pis(label_switched(z_star))
        assert sbm._log_gamma_table.cache_info().misses == 1
        table = sbm._log_gamma_table(p)
        assert table is sbm._log_gamma_table(p)
        assert table.shape == (p * (p - 1) // 2 + 3,) and not table.flags.writeable
        assert table.tobytes() == gammaln(np.arange(len(table), dtype=float)).tobytes()
        with pytest.raises(ValueError):
            table[1] = 0.0

    def test_random_walk_builds_no_table(self, monkeypatch):
        calls = []
        table = sbm._log_gamma_table

        def recorded(p):
            calls.append(p)
            return table(p)

        monkeypatch.setattr(sbm, "_log_gamma_table", recorded)
        data, z_star = generate_sbm(1000, 0.1, 1e-8, seed=7)
        target = sbm_target(data)
        init = sbm_init("half-wrong", z_star, philox_rng(7))
        run_chain(target, init, KernelSpec(), 40, 11, stop_at=z_star)
        assert calls == []
        run_chain(target, init, KernelSpec("informed", ell=1e-3, big_l=1e9), 2, 11)
        assert calls and set(calls) == {1000}


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

    @pytest.mark.parametrize("p", [5, 6, 101, 1000])
    @pytest.mark.parametrize("rates", [(0.3, 0.02), (0.0, 1.0), (1.0, 0.0), (1, 1), (0, 0)])
    def test_matches_rates_matrix_construction(self, p, rates):
        data, z_star = generate_sbm(p, *rates, seed=(p, 7))
        assert z_star == true_labels(p)
        assert data.adjacency.dtype == np.uint8
        assert np.array_equal(data.adjacency, rates_matrix_sbm(p, *rates, seed=(p, 7)))

    def test_true_labels_split(self):
        assert sum(1 for v in true_labels(7) if v == 1) == 4
        assert sum(1 for v in true_labels(10) if v == 1) == 5


class TestInvalidGraph:
    def test_is_a_library_error(self):
        assert issubclass(InvalidGraph, DiscreteMHError)

    def test_not_square(self):
        with pytest.raises(InvalidGraph, match="p x p"):
            SbmData(adjacency=np.zeros((3, 4), dtype=np.uint8), p=3)
        with pytest.raises(InvalidGraph, match="p x p"):
            SbmData(adjacency=np.zeros((3, 3), dtype=np.uint8), p=4)

    def test_asymmetric(self):
        adj = np.zeros((3, 3), dtype=int)
        adj[0, 1] = 1
        with pytest.raises(InvalidGraph, match="symmetric"):
            SbmData.from_adjacency(adj)

    def test_nonzero_diagonal(self):
        with pytest.raises(InvalidGraph, match="zero diagonal"):
            SbmData.from_adjacency(np.eye(3, dtype=np.uint8))

    @pytest.mark.parametrize("value", [2, 256, -1, 0.5])
    def test_entries_outside_zero_one(self, value):
        # uint8 would keep 2 as a double edge and wrap 256 to 0
        adj = np.zeros((3, 3), dtype=type(value))
        adj[0, 1] = adj[1, 0] = value
        with pytest.raises(InvalidGraph, match="0 or 1"):
            SbmData.from_adjacency(adj)

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.float64, np.uint8])
    def test_zero_one_of_any_dtype_is_kept(self, dtype):
        adj = np.zeros((3, 3), dtype=dtype)
        adj[0, 2] = adj[2, 0] = 1
        data = SbmData.from_adjacency(adj)
        assert data.adjacency.dtype == np.uint8
        assert np.array_equal(data.adjacency, adj)
        assert data.degrees.tolist() == [1, 0, 1]


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
            ns, lps = target.neighbors(z), target.stats_at(z).flip_log_pis(z)
            for nb, lp in zip(ns, lps):
                assert lp == pytest.approx(log_posterior_sbm(data, nb), abs=1e-10)

    def test_flips_share_one_read_only_coordinate_array(self):
        data, _ = generate_sbm(9, 0.6, 0.1, seed=12)
        target = sbm_target(data)
        a, b = target.neighbors(true_labels(9)), target.neighbors(label_switched(true_labels(9)))
        assert a.coords is b.coords
        assert np.array_equal(a.coords, np.arange(9)) and not a.coords.flags.writeable
        assert sbm_target(data).neighbors(true_labels(9)).coords is not a.coords
