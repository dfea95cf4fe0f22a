"""Differential and trace-pin checks on the Metropolis-Hastings transition.

The dense matrix, the single-move acceptance ratio and the sampler's step
must describe one kernel: every off-diagonal matrix entry is the proposal
probability times the acceptance probability of that move, the step
reports the same log acceptance ratio for the proposal it drew, a chain
that carries its scan and model statistics from step to step, and
remembers the moves it rejected while it stays put, makes the same moves
as repeated stateless steps, and chain traces at a fixed seed stay
bit-identical to recorded digests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from discretemh.cli import load_config, make_factory, resolve_config
from discretemh.core import enumerate_space, philox_rng
from discretemh.diagnostics import build_transition_matrix
from discretemh.samplers import (
    KernelSpec,
    _transition,
    acceptance_log_ratio,
    informed_proposal_dist,
    run_chain,
    scan_at,
    step,
)
from discretemh.sbm import BlockCounts, generate_sbm, sbm_init, sbm_target
from conftest import stateless_chain

KERNELS = {
    "rw": KernelSpec(),
    "unclipped": KernelSpec("informed"),
    "clipped": KernelSpec("informed", ell=2.0, big_l=50.0),
}

ZOO_NAMES = [
    "example3-v-n1", "example3-v2-n1", "example3-v2-ads", "varsel-p5",
    "varsel-p6-smax3", "varsel-p5-ads", "sbm-p6", "sbm-p7", "path-7", "star-5",
    "tree-12", "bimodal",
]


def _proposal(target, x, spec):
    """K(x, .) as a dict over the neighborhood of x."""
    if spec.family == "informed":
        ns, probs = informed_proposal_dist(target, x, spec)
        return dict(zip(ns, probs))
    ns = list(target.neighbors(x))
    return {y: 1.0 / len(ns) for y in ns}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("name", ZOO_NAMES)
def test_matrix_entries_are_proposal_times_acceptance(fixture_zoo, zoo_enumerations, name, kernel):
    target, states, spec = fixture_zoo[name], zoo_enumerations[name], KERNELS[kernel]
    chain = build_transition_matrix(target, spec, states)
    expected = np.zeros((chain.n, chain.n))
    for i, x in enumerate(states):
        for y, k_xy in _proposal(target, x, spec).items():
            j = chain.index.get(y)
            if j is None:
                continue
            log_alpha = acceptance_log_ratio(target, x, y, spec)
            expected[i, j] = k_xy * min(1.0, math.exp(log_alpha))
    off = ~np.eye(chain.n, dtype=bool)
    err = np.abs(chain.P.toarray()[off] - expected[off])
    assert np.all(err <= 1e-12 * np.abs(expected[off])), float(err.max())


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("name", ZOO_NAMES)
def test_step_log_alpha_is_acceptance_log_ratio(fixture_zoo, zoo_enumerations, name, kernel):
    target, spec = fixture_zoo[name], KERNELS[kernel]
    rng = philox_rng(5)
    for x in zoo_enumerations[name]:
        for _ in range(3):
            _, meta = step(target, x, spec, rng)
            assert meta.log_alpha == acceptance_log_ratio(target, x, meta.proposal, spec)


CHAIN_SPECS = {**KERNELS, "clipped-lazy": KernelSpec("informed", ell=2.0, big_l=50.0, lazy=True)}


@pytest.mark.parametrize("kernel", sorted(CHAIN_SPECS))
@pytest.mark.parametrize("name", ZOO_NAMES)
def test_carried_chain_equals_stateless_steps(fixture_zoo, zoo_enumerations, name, kernel):
    target, spec = fixture_zoo[name], CHAIN_SPECS[kernel]
    start = min(zoo_enumerations[name], key=target.log_pi)
    trace = run_chain(target, start, spec, 400, 31)
    ref = stateless_chain(target, start, spec, 400, 31)
    assert trace.states == ref["states"]
    assert np.array_equal(trace.log_pis, ref["log_pis"])
    assert np.array_equal(trace.accepted, ref["accepted"])
    assert np.array_equal(trace.lazy_stays, ref["lazy_stays"])
    moves = 400 - int(trace.lazy_stays.sum())
    assert trace.scans + trace.scans_reused == moves + (moves - trace.neg_inf_rejects)
    counters = ("evals", "scans", "scans_reused", "neg_inf_rejects")
    assert [getattr(trace, c) for c in counters] == [ref[c] for c in counters]


def _check_carried_block_counts(target, spec):
    """2,000 carried transitions from the seed state; the block counts the
    chain carries equal a fresh build at the final state."""
    rng = philox_rng(8)
    x = target.seed_state
    lp, sx, n_accepted = target.log_pi(x), None, 0
    for _ in range(2000):
        x, meta, sx = _transition(target, x, lp, sx, spec, rng)
        lp = meta.next_log_pi
        n_accepted += meta.accepted
    assert n_accepted > 100 and sx.state == x
    fresh = BlockCounts.from_labels(target.stats_at(x).data, x)
    assert (sx.stats.sizes, sx.stats.m_edges) == (fresh.sizes, fresh.m_edges)
    assert np.array_equal(sx.stats.tallies, fresh.tallies)
    assert sx.stats.log_posterior() == target.log_pi(x)


@pytest.mark.parametrize("kernel", sorted(CHAIN_SPECS))
def test_carried_block_counts_match_fresh(fixture_zoo, kernel):
    _check_carried_block_counts(fixture_zoo["sbm-p7"], CHAIN_SPECS[kernel])


@pytest.mark.parametrize("kernel", sorted(CHAIN_SPECS))
def test_carried_block_counts_match_fresh_p200(kernel):
    data, _ = generate_sbm(200, 0.1, 0.02, seed=3)
    _check_carried_block_counts(sbm_target(data), CHAIN_SPECS[kernel])


@pytest.mark.parametrize("kernel", sorted(CHAIN_SPECS))
def test_sbm_chain_builds_start_statistics_once(fixture_zoo, kernel):
    # log pi at the start is read from the statistics the first scan uses
    target, spec = fixture_zoo["sbm-p7"], CHAIN_SPECS[kernel]
    calls = {"log_pi": 0, "stats_at": 0}

    def counting(name, fn):
        def wrapped(z):
            calls[name] += 1
            return fn(z)
        return wrapped

    counted = dataclasses.replace(target, log_pi=counting("log_pi", target.log_pi),
                                  stats_at=counting("stats_at", target.stats_at))
    start = min(target.neighbors(target.seed_state), key=target.log_pi)
    trace = run_chain(counted, start, spec, 300, 23)
    assert calls == {"log_pi": 0, "stats_at": 1}
    ref = stateless_chain(target, start, spec, 300, 23)
    assert trace.states == ref["states"]
    assert np.array_equal(trace.log_pis, ref["log_pis"])
    counters = ("evals", "scans", "scans_reused", "neg_inf_rejects")
    assert [getattr(trace, c) for c in counters] == [ref[c] for c in counters]


def test_p1000_random_walk_chain_equals_stateless_steps():
    # the sbm-full-rw model at the benchmark's size: 40 steps from half-wrong
    data, z_star = generate_sbm(1000, 0.1, 1e-8, seed=7)
    target = sbm_target(data)
    init = sbm_init("half-wrong", z_star, philox_rng(7))
    trace = run_chain(target, init, KernelSpec(), 40, 11)
    ref = stateless_chain(target, init, KernelSpec(), 40, 11)
    assert trace.states == ref["states"]
    assert np.array_equal(trace.log_pis, ref["log_pis"])
    assert np.array_equal(trace.accepted, ref["accepted"]) and trace.accepted.any()
    counters = ("evals", "scans", "scans_reused", "neg_inf_rejects")
    assert [getattr(trace, c) for c in counters] == [ref[c] for c in counters]


def _desk_unclipped():
    """The first replicate of ``varsel-desk-imh-unclipped.yaml`` at seed 7
    (p=30): its target, start, kernel and chain seed."""
    template = Path(__file__).resolve().parents[1] / "src" / "discretemh" / "templates"
    cfg = resolve_config(load_config(template / "varsel-desk-imh-unclipped.yaml"), seed=7)
    data_seq, chain_seq = np.random.SeedSequence(7).spawn(1)[0].spawn(2)
    target, init, _ = make_factory(cfg)(0, data_seq)
    return target, init, cfg.spec, chain_seq


def test_unclipped_desk_chain_reuses_rejected_moves():
    # the unclipped kernel stalls: most steps propose a move already rejected
    target, init, spec, seed = _desk_unclipped()
    trace = run_chain(target, init, spec, 300, seed, stop_early=False)
    ref = stateless_chain(target, init, spec, 300, seed)
    assert trace.states == ref["states"]
    assert np.array_equal(trace.log_pis, ref["log_pis"])
    assert np.array_equal(trace.accepted, ref["accepted"])
    counters = ("evals", "scans", "scans_reused", "neg_inf_rejects")
    assert [getattr(trace, c) for c in counters] == [ref[c] for c in counters]
    proposals = set(zip(ref["states"], ref["proposals"]))
    # the scan at the start, then one per distinct proposal: 4 scans, 3 proposals
    assert trace.scans - 1 <= len(proposals) < 300 // 10


def _remembered_then_accepted(target, start, spec, n_steps, seed):
    """Walk ``_transition`` and yield (y, log pi(y), scan carried to y) for
    every accepted move that had been proposed and rejected before during
    the same stay."""
    rng = philox_rng(seed)
    x, lp, sx, rejected = start, target.log_pi(start), None, set()
    for _ in range(n_steps):
        x, meta, sx = _transition(target, x, lp, sx, spec, rng)
        lp = meta.next_log_pi
        if meta.accepted:
            if meta.proposal in rejected:
                yield x, lp, sx
            rejected = set()
        elif not meta.lazy_stay:
            rejected.add(meta.proposal)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("name", ["example3-v-n1", "sbm-p7", "tree-12"])
def test_remembered_move_accepted_carries_fresh_scan(fixture_zoo, zoo_enumerations, name, kernel):
    target, spec = fixture_zoo[name], KERNELS[kernel]
    start = min(zoo_enumerations[name], key=target.log_pi)
    n = 0
    for y, lp_y, sy in _remembered_then_accepted(target, start, spec, 2000, 17):
        fresh = scan_at(target, y, lp_y, spec)
        assert sy.state == y and list(sy.neighbors) == list(fresh.neighbors)
        assert np.array_equal(sy.log_q, fresh.log_q)
        assert np.array_equal(sy.log_pis, fresh.log_pis)
        if fresh.stats is not None:
            assert (sy.stats.sizes, sy.stats.m_edges) == (fresh.stats.sizes, fresh.stats.m_edges)
            assert np.array_equal(sy.stats.tallies, fresh.stats.tallies)
        n += 1
    assert n > 0


def test_move_memory_is_bounded_and_freed_on_a_move():
    target, init, spec, seed = _desk_unclipped()
    rng = philox_rng(seed)
    x, lp, sx, largest = init, target.log_pi(init), None, 0
    for _ in range(1500):
        x, meta, sx = _transition(target, x, lp, sx, spec, rng)
        lp = meta.next_log_pi
        assert len(sx.moves) <= len(sx.neighbors)
        if meta.accepted:
            assert not sx.moves
        largest = max(largest, len(sx.moves))
    assert largest > 0


# sha256 of repr(states) over 300 steps at seed 2024 from the least probable
# state, recorded before the transition primitive was factored out
TRACE_DIGESTS = {
    ("example3-v-n1", "clipped"): "a7fc235b1a189880bc7c7ed8540b05b79825c110af5f03e8280f789473e1340b",
    ("example3-v-n1", "rw"): "fea5729d533671acea0eff7035d74037e69d952ba330650fe2142fbd7adae270",
    ("example3-v-n1", "unclipped"): "64c3ef40e50f6577adc049ba65f286850d94c73476689c6e856790ab9b33679c",
    ("varsel-p5", "clipped"): "590913515a0f889ad0366422560739f990e4d335fb522593c88877c308c88505",
    ("varsel-p5", "rw"): "dd81984cb6912b1b99064b44c003bba463522e07f05b1e78e3e35134b7901c85",
    ("varsel-p5", "unclipped"): "b405bf3ccf1ffd18d97c3f143d2146220ffefe766cf1ce523232b66dd3d47413",
    ("sbm-p7", "clipped"): "66ad94cbabd7d80b062c08ec002e0a9d3eee7814648894084babc7ac003f7275",
    ("sbm-p7", "rw"): "fa845d3666ea6e162dddfc24430aee1c897900d980bb01c9616b9881a92d7c00",
    ("sbm-p7", "unclipped"): "878d8fdf18d9a0616cdbe955c18b3647249d9de2d9f9587fbfcc541fa3ed17d5",
    ("tree-12", "clipped"): "c58ad097716110e5e0a62256d6289db42c9b375f0ccd50a66638aef8bcff1358",
    ("tree-12", "rw"): "7a81f32c3bc05621397a02608e2fb3e3ff9a027f9fb23dcad6b7753714b496d0",
    ("tree-12", "unclipped"): "e165961df6aabf0c1cb11c23e935a53cade3d6562ccb47e6224f9cef7a1ed77a",
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("name", ["example3-v-n1", "varsel-p5", "sbm-p7", "tree-12"])
def test_trace_digest_pinned(fixture_zoo, zoo_enumerations, name, kernel):
    target = fixture_zoo[name]
    start = min(zoo_enumerations[name], key=target.log_pi)
    trace = run_chain(target, start, KERNELS[kernel], 300, 2024)
    digest = hashlib.sha256(repr(trace.states).encode()).hexdigest()
    assert digest == TRACE_DIGESTS[name, kernel]
