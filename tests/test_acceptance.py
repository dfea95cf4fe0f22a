"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them).

Criterion 1 compares the two-strong-variable model's log posterior against
the erratum 207.67, not the published 207.70: the print contradicts its own
exact fit column (which gives 207.669) and no data at the table's
hyperparameters can produce it together with the print for the full model.
``tests/test_cli.py::TestGolden::test_example3_erratum_proof`` proves this
from the checked-in fixture alone.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import toy
from discretemh import sbm, varsel
from discretemh.cli import (
    SbmFactory,
    VarselFactory,
    golden_example3,
    golden_example4,
    golden_example5,
)
from discretemh.core import (
    distances_to_state,
    enumerate_space,
    exact_tail_mass,
    philox_rng,
    restricted_stats,
    tail_mass_bound,
    unimodality_stats,
)
from discretemh.diagnostics import (
    build_transition_matrix,
    c_of_rho,
    restricted_gap,
    spectral_gap,
    tau_x,
)
from discretemh.flowbound import build_flow_graph, congestion, drift_certificate
from discretemh.samplers import (
    KernelSpec,
    acceptance_log_ratio,
    hitting_experiment,
    step,
)
from discretemh.varsel import VarSelHyper, log_posterior

import flow_oracle
from conftest import N_WORKERS, check_neighborhood_axioms
from varsel_oracle import ModelState, update_model

RW = KernelSpec()
RW_LAZY = KernelSpec(lazy=True)
EPSILONS = (0.25, 0.1, 0.01)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# criteria 1-3: golden fixtures


def test_criterion_1_reference_table():
    t0 = time.perf_counter()
    checks = golden_example3()
    elapsed = time.perf_counter() - t0
    failures = [c for c in checks if not c.ok]
    ok = not failures and elapsed < 1.0
    detail = (
        f"{len(checks) - len(failures)}/{len(checks)} table values within "
        f"tolerance in {elapsed:.3f}s"
    )
    if failures:
        detail += f"; failing: {[c.name for c in failures]}"
    report(1, ok, detail)
    assert elapsed < 1.0
    assert not failures, (
        "reference table values outside tolerance (against the published "
        f"prints, or the erratum where one is recorded): {[c.line() for c in failures]}"
    )


def test_criterion_2_unclipped_proposal():
    t0 = time.perf_counter()
    checks = golden_example4()
    elapsed = time.perf_counter() - t0
    ok = all(c.ok for c in checks) and elapsed < 1.0
    report(2, ok, f"K >= 1 - 1e-11 and log ratio -58.49 +- 0.01 in {elapsed:.3f}s")
    assert elapsed < 1.0
    for c in checks:
        assert c.ok, c.line()


def test_criterion_3_clipped_proposal():
    t0 = time.perf_counter()
    checks, notes = golden_example5()
    elapsed = time.perf_counter() - t0
    ok = all(c.ok for c in checks) and elapsed < 1.0
    report(3, ok, f"K_h = 3/7 and gaps 0.334/0.582 +- 0.005 in {elapsed:.3f}s")
    assert elapsed < 1.0
    assert notes == [], "primary full-space comparison should not need the fallback"
    for c in checks:
        assert c.ok, c.line()


# ---------------------------------------------------------------------------
# criterion 4: theorem bounds against exact quantities


def _theorem_fixtures():
    """Deterministic enumerable fixtures for the bound-verification sweep."""
    rng = philox_rng(20260809)
    fixtures = []
    for i, (lo, hi, length) in enumerate(
        [
            (0.8, 1.2, 6), (0.9, 1.3, 12), (1.6, 2.4, 8), (1.7, 2.2, 20),
            (2.5, 4.0, 10), (2.6, 3.4, 30), (3.0, 4.5, 15), (1.1, 1.4, 25),
        ]
    ):
        drops = rng.uniform(lo, hi, size=length)
        fixtures.append((f"path-{i}", toy.path_target(drops), None))
    for i, k in enumerate((3, 4, 5, 6, 8)):
        drops = rng.uniform(2.2 * math.log(k), 2.2 * math.log(k) + 1.5, size=k)
        fixtures.append((f"star-{i}", toy.star_target(drops), None))
    for i, n_states in enumerate((10, 14, 18, 24)):
        fixtures.append(
            (
                f"tree-{i}",
                toy.random_tree_target(n_states, rng, 2.6, 4.0, max_children=2),
                None,
            )
        )
    for i, (p, n, seed) in enumerate([(5, 400, 2), (5, 800, 5), (6, 500, 8), (8, 600, 3)]):
        data, _ = varsel.generate_data(p, n, "moderate", seed=seed)
        hyper = VarSelHyper(g=float(p**3), kappa=1.0)
        fixtures.append((f"varsel-{i}", varsel.varsel_target(data, hyper), None))
    for i, (p, seed) in enumerate([(6, 1), (8, 4)]):
        data, _ = sbm.generate_sbm(p, 0.7, 0.05, seed=seed)
        fixtures.append((f"sbm-{i}", sbm.sbm_target(data), None))
    for i, (drops, bridge, rises) in enumerate(
        [
            ([2.5] * 6, 16.0, [1.5] * 3),
            ([2.2, 2.8, 2.4, 2.6, 3.0], 18.0, [1.2, 1.8]),
            ([3.0] * 4, 20.0, [2.0] * 4),
        ]
    ):
        target, x0 = toy.bimodal_target(drops, bridge, rises)
        fixtures.append((f"bimodal-{i}", target, x0))
    return fixtures


def _drift_chain(target, states, ell, big_l):
    plain = build_transition_matrix(target, KernelSpec("informed", ell=ell, big_l=big_l), states)
    if plain.eigensystem()[0] >= -1e-10:
        return plain, False
    lazy = build_transition_matrix(
        target, KernelSpec("informed", ell=ell, big_l=big_l, lazy=True), states
    )
    return lazy, True


def test_criterion_4_theorem_bounds():
    t0 = time.perf_counter()
    violations: list[str] = []
    n_useful = 0
    n_checks = 0
    for name, target, x0 in _theorem_fixtures():
        states = enumerate_space(target, 1024)
        stats = unimodality_stats(target, states)
        m = stats.m
        used = False

        if x0 is None and stats.rho > 1:
            used = True
            chain = build_transition_matrix(target, RW_LAZY, states)
            relax = 1.0 / spectral_gap(chain).gap
            bound = c_of_rho(stats.rho) * m
            n_checks += 1
            if relax > bound * (1 + 1e-9):
                violations.append(f"{name}: uniform-kernel relaxation {relax} > {bound}")

        if x0 is None and stats.log_r > 2 * math.log(m):
            used = True
            for big_l in {float(min(stats.r, m**2 * 4)), stats.r}:
                if not big_l > m**2:
                    continue
                spec = KernelSpec("informed", ell=float(m), big_l=big_l, lazy=True)
                chain = build_transition_matrix(target, spec, states)
                relax = 1.0 / spectral_gap(chain).gap
                bound = 2 * c_of_rho(big_l / m**2)
                n_checks += 1
                if relax > bound * (1 + 1e-9):
                    violations.append(f"{name}: informed relaxation {relax} > {bound} at L={big_l}")

                drift, lazy = _drift_chain(target, states, float(m), big_l)
                try:
                    cert = drift_certificate(drift)
                except Exception as exc:  # drift must certify under these hypotheses
                    violations.append(f"{name}: drift failed at L={big_l}: {exc}")
                    continue
                floor = -math.log(big_l / m) / (4 * math.log(drift.pi.min())) - (
                    m**2 / big_l
                ) * (math.e - 1)
                if lazy:
                    floor = floor / 2
                n_checks += 1
                if 1 - cert.lam < floor - 1e-12:
                    violations.append(f"{name}: contraction rate below its floor")
                worst = max(states, key=cert.v_of)
                for eps in EPSILONS:
                    exact = tau_x(drift, worst, eps)
                    n_checks += 1
                    if exact is None or exact > cert.mixing_bound(worst, eps):
                        violations.append(f"{name}: drift mixing bound violated at eps={eps}")

        if x0 is not None:
            used = True
            rstats = restricted_stats(target, states, x0)
            chain = build_transition_matrix(target, RW_LAZY, states)
            x_start = rstats.x_star
            eta = float(chain.pi[chain.index[x_start]])
            mass = float(sum(chain.pi[chain.index[s]] for s in x0))
            rho0 = rstats.rho
            assert rho0 > 1, f"{name}: bimodal fixture must be unimodal on its core"
            for eps in EPSILONS:
                assert mass >= 1 - eps**2 * eta**2 / 5, f"{name}: mass condition fails"
                exact = tau_x(chain, x_start, eps)
                bound = c_of_rho(rho0) * m * math.log(1 / (2 * eps**2 * eta**2))
                n_checks += 1
                if exact is None or exact > bound:
                    violations.append(f"{name}: warm-start walk bound violated at eps={eps}")
            if rstats.log_r > 2 * math.log(m):
                big_l = min(rstats.r, m**2 * 4.0)
                boundary = max(
                    (
                        target.log_pi(y) - target.log_pi(x)
                        for x in x0
                        for y in target.neighbors(x)
                        if y not in set(x0)
                    ),
                    default=-math.inf,
                )
                assert boundary < math.log(big_l / m), f"{name}: boundary condition fails"
                spec = KernelSpec("informed", ell=float(m), big_l=big_l, lazy=True)
                ichain = build_transition_matrix(target, spec, states)
                for eps in EPSILONS:
                    exact = tau_x(ichain, x_start, eps)
                    bound = 2 * c_of_rho(big_l / m**2) * math.log(1 / (2 * eps**2 * eta**2))
                    n_checks += 1
                    if exact is None or exact > bound:
                        violations.append(f"{name}: warm-start informed bound violated at eps={eps}")
        n_useful += used

    elapsed = time.perf_counter() - t0
    ok = not violations and n_useful >= 20 and elapsed < 120
    report(
        4,
        ok,
        f"{n_checks} bound checks on {n_useful} qualifying fixtures, "
        f"{len(violations)} violations, {elapsed:.1f}s",
    )
    assert n_useful >= 20
    assert not violations, violations
    assert elapsed < 120


# ---------------------------------------------------------------------------
# criterion 5: flow machinery


def _flow_cases():
    cases = []
    e3 = varsel.example3_target("v2", "ads")
    states = enumerate_space(e3, 100)
    stats = unimodality_stats(e3, states)
    cases.append(("example3-ads-rw", e3, states, RW_LAZY, stats.r, None))
    star = toy.star_target([4.0, 4.2, 4.5, 5.0])
    sstates = enumerate_space(star, 50)
    sstats = unimodality_stats(star, sstates)
    cases.append(
        (
            "star-informed",
            star,
            sstates,
            KernelSpec("informed", ell=float(sstats.m), big_l=sstats.r, lazy=True),
            sstats.r / sstats.m,
            None,
        )
    )
    path = toy.path_target([1.1, 1.9, 1.4, 2.2, 1.6, 1.3])
    pstates = enumerate_space(path, 50)
    cases.append(("path-rw", path, pstates, RW_LAZY, math.exp(1.1), None))
    tree = toy.random_tree_target(14, philox_rng(12), 1.3, 2.8)
    tstates = enumerate_space(tree, 50)
    cases.append(("tree-rw", tree, tstates, RW_LAZY, math.exp(1.3), None))
    bimodal, x0 = toy.bimodal_target([2.0] * 5, 14.0, [1.5] * 3)
    bstates = enumerate_space(bimodal, 50)
    cases.append(("bimodal-restricted", bimodal, bstates, RW_LAZY, math.exp(2.0), x0))
    return cases


def test_criterion_5_flow_machinery():
    t0 = time.perf_counter()
    failures: list[str] = []
    dp_compared = 0
    for name, target, states, spec, s_threshold, x0 in _flow_cases():
        chain = build_transition_matrix(target, spec, states)
        stats = unimodality_stats(target, states)
        fg = build_flow_graph(chain, s_threshold, x0=x0)
        live_states = [chain.states[i] for i in fg.live]
        for x in live_states:
            for y in live_states:
                if x == y:
                    continue
                total = sum(phi for _, phi in flow_oracle.enumerate_flow(fg, x, y))
                expected = chain.pi[chain.index[x]] * chain.pi[chain.index[y]]
                if abs(total - expected) > 1e-10 * expected:
                    failures.append(f"{name}: flow sum off for {x}->{y}")
        q = None if s_threshold > stats.m else 0.4
        rep = congestion(fg, q=q)
        gap = restricted_gap(chain, x0) if x0 is not None else spectral_gap(chain).gap
        if gap < rep.gap_lower_bound * (1 - 1e-9):
            failures.append(f"{name}: gap {gap} below flow bound {rep.gap_lower_bound}")
        if rep.a_closed_form is not None and rep.a_exact > rep.a_closed_form * (1 + 1e-9):
            failures.append(f"{name}: exact congestion above the closed form")
        if flow_oracle.combined_path_count(fg) <= 1e4:
            ref = flow_oracle.congestion(fg, rep.q)
            dp_compared += 1
            if not math.isclose(ref, rep.a_exact, rel_tol=1e-12):
                failures.append(f"{name}: DP vs enumeration mismatch")
    elapsed = time.perf_counter() - t0
    ok = not failures and dp_compared >= 3 and elapsed < 120
    report(
        5,
        ok,
        f"flow identities, gap bounds and {dp_compared} DP/enumeration "
        f"comparisons in {elapsed:.1f}s",
    )
    assert not failures, failures
    assert dp_compared >= 3
    assert elapsed < 120


# ---------------------------------------------------------------------------
# criterion 6: oracle equivalence


def test_criterion_6_oracles():
    from test_sbm import quad_log_posterior

    t0 = time.perf_counter()
    # collapsed posterior vs adaptive quadrature
    rng = philox_rng(606)
    for trial in range(20):
        p = int(rng.integers(2, 6))
        data, _ = sbm.generate_sbm(p, 0.55, 0.25, seed=(60, trial))
        z = tuple(int(v) for v in rng.integers(1, 3, size=p))
        lp = sbm.log_posterior_sbm(data, z)
        assert lp == pytest.approx(quad_log_posterior(data, z), rel=1e-8)

    # incremental posterior vs from-scratch over a long move sequence
    p = 20
    data, _ = varsel.generate_data(p, 150, "moderate", seed=61)
    hyper = VarSelHyper(g=float(p**3), kappa=1.0)
    state = ModelState.from_delta(data, hyper, tuple([0] * p))
    worst = 0.0
    for _ in range(1000):
        active = [j for j in range(p) if state.delta[j]]
        inactive = [j for j in range(p) if not state.delta[j]]
        options = []
        if inactive:
            options.append(("add", int(rng.choice(inactive))))
        if active:
            options.append(("drop", int(rng.choice(active))))
        if active and inactive:
            options.append(("swap", int(rng.choice(active)), int(rng.choice(inactive))))
        state = update_model(state, options[int(rng.integers(len(options)))])
        worst = max(worst, abs(state.log_pi - log_posterior(data, hyper, state.delta)))
    assert worst < 1e-6

    # one-step transition frequencies vs the exact matrix row
    n_samples = 100_000
    for target, spec, start in (
        (varsel.example3_target("v2", "ads"), RW, (0, 0, 0)),
        (varsel.example3_target("v", "n1"), KernelSpec("informed", ell=3.0, big_l=9.0), (0, 0, 0)),
    ):
        states = enumerate_space(target, 100)
        chain = build_transition_matrix(target, spec, states)
        row = chain.P.toarray()[chain.index[start]]
        counts = np.zeros(len(states))
        rng_step = philox_rng(62)
        lp0 = target.log_pi(start)
        for _ in range(n_samples):
            nxt, _meta = step(target, start, spec, rng_step, x_log_pi=lp0)
            counts[chain.index[nxt]] += 1
        freq = counts / n_samples
        se = np.sqrt(row * (1 - row) / n_samples)
        assert np.all(np.abs(freq - row) <= 3 * se + 1e-12), spec.family

    elapsed = time.perf_counter() - t0
    report(6, True, f"quadrature, incremental and Monte Carlo oracles agree, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: desk-scale replication


def _varsel_summary(spec, budget, seed):
    factory = VarselFactory(
        p=30, n=100, covariance="moderate", g=30.0**3, kappa=1.0, s_max=None,
        neighborhood="n1", init={"scheme": "uniform-m", "m": 2},
    )
    return hitting_experiment(
        factory, spec, n_runs=100, budget=budget, master_seed=seed, workers=N_WORKERS
    )


def _sbm_summary(spec, budget, init_scheme, seed):
    factory = SbmFactory(p=100, p_within=0.4, p_between=1e-8,
                         init={"scheme": init_scheme})
    return hitting_experiment(
        factory, spec, n_runs=50, budget=budget, master_seed=seed, workers=N_WORKERS
    )


def test_criterion_7_desk_scale_experiments():
    t0 = time.perf_counter()
    rwmh = _varsel_summary(RW, 10_000, seed=71)
    imh = _varsel_summary(KernelSpec("informed", ell=30.0, big_l=30.0**3), 1_500, seed=71)
    unclipped = _varsel_summary(KernelSpec("informed"), 1_500, seed=71)

    sbm_specs = {
        "random-walk": (RW, 700),
        "informed": (KernelSpec("informed", ell=100.0, big_l=100.0**3), 120),
    }
    sbm_results = {
        (kern, scheme): _sbm_summary(spec, budget, scheme, seed=72)
        for kern, (spec, budget) in sbm_specs.items()
        for scheme in ("third-wrong", "half-wrong")
    }
    elapsed = time.perf_counter() - t0

    detail = (
        f"selection: walk {rwmh.success}/100 (med {rwmh.median_hit_iteration}), "
        f"informed {imh.success}/100 (med {imh.median_hit_iteration}), "
        f"unclipped {unclipped.success}/100; blocks good/bad "
        + ", ".join(
            f"{kern} {sbm_results[(kern, 'third-wrong')].success}/"
            f"{sbm_results[(kern, 'half-wrong')].success}"
            for kern in sbm_specs
        )
        + f"; {elapsed:.0f}s"
    )
    ok = (
        rwmh.success >= 90
        and imh.success >= 90
        and imh.median_hit_iteration < rwmh.median_hit_iteration
        and unclipped.success <= 10
        and all(
            sbm_results[(k, "third-wrong")].success > sbm_results[(k, "half-wrong")].success
            for k in sbm_specs
        )
        and elapsed < 600
    )
    report(7, ok, detail)
    assert rwmh.success >= 90
    assert imh.success >= 90
    assert imh.median_hit_iteration < rwmh.median_hit_iteration
    assert unclipped.success <= 10
    for kern in sbm_specs:
        good = sbm_results[(kern, "third-wrong")].success
        bad = sbm_results[(kern, "half-wrong")].success
        assert good > bad, (kern, good, bad)
    assert elapsed < 600


# ---------------------------------------------------------------------------
# criterion 8: exhaustive invariants


def test_criterion_8_invariants(fixture_zoo, zoo_enumerations):
    t0 = time.perf_counter()
    failures: list[str] = []
    lemma_one_checked = 0
    half_mass_fixtures = 0

    from scipy.special import logsumexp

    from discretemh.samplers import log_clip_weight

    for name, target in fixture_zoo.items():
        states = zoo_enumerations[name]
        state_set = set(states)
        check_neighborhood_axioms(target, states)
        stats = unimodality_stats(target, states)
        m = stats.m

        informed_spec = KernelSpec(
            "informed", ell=2.0, big_l=max(4.0, float(m + 1))
        )
        for spec in (RW, RW_LAZY, informed_spec):
            chain = build_transition_matrix(target, spec, states)
            if chain.detailed_balance_error() > 1e-12:
                failures.append(f"{name}: detailed balance fails for {spec.describe()}")

        if stats.rho > 1:
            chain = build_transition_matrix(target, RW, states)
            pi_star = float(chain.pi.max())
            if pi_star < 1 - 1 / stats.rho - 1e-12:
                failures.append(f"{name}: mode mass below 1 - 1/rho")

        if stats.log_r > math.log(m):
            max_dist = max(distances_to_state(target, states, stats.x_star).values())
            for k in range(1, max_dist + 1):
                if exact_tail_mass(target, states, stats, k) > tail_mass_bound(stats, k) + 1e-15:
                    failures.append(f"{name}: tail bound fails at k={k}")

        # full-acceptance guarantee for clipped informed proposals
        for big_l in {max(float(m * m + 1), 4.0), min(stats.r, 16.0 * m * m)}:
            if not big_l > m or not math.isfinite(big_l):
                continue
            spec = KernelSpec("informed", ell=float(m), big_l=big_l)
            for x in states:
                ns, lps = target.neighbors_with_log_pi(x)
                z = float(logsumexp(log_clip_weight(lps - target.log_pi(x), spec.ell, spec.big_l)))
                if z < math.log(big_l):
                    continue
                for y, lp_y in zip(ns, lps):
                    if y not in state_set:
                        continue
                    if lp_y - target.log_pi(x) < math.log(spec.ell):
                        continue
                    lemma_one_checked += 1
                    if acceptance_log_ratio(target, x, y, spec) < -1e-9:
                        failures.append(f"{name}: guaranteed-acceptance move rejected")

        # half-mass property of the favored uphill set
        if stats.log_r > 2 * math.log(m):
            big_l = min(stats.r, 4.0 * m * m)
            if big_l > m * m:
                half_mass_fixtures += 1
                spec = KernelSpec("informed", ell=float(m), big_l=big_l)
                chain = build_transition_matrix(target, spec, states)
                log_s = math.log(big_l / m)
                for x in states:
                    if x == stats.x_star:
                        continue
                    i = chain.index[x]
                    lp_x = target.log_pi(x)
                    mass = sum(
                        chain.P[i, chain.index[y]]
                        for y in target.neighbors(x)
                        if y in state_set and target.log_pi(y) - lp_x >= log_s - 1e-12
                    )
                    if mass < 0.5 - 1e-12:
                        failures.append(
                            f"{name}: uphill mass {mass:.4f} below 1/2 at {x!r}"
                        )

    # exact label-switching symmetry on the block-model fixtures
    for name in ("sbm-p6", "sbm-p7"):
        target = fixture_zoo[name]
        for z in zoo_enumerations[name]:
            if target.log_pi(z) != target.log_pi(sbm.label_switched(z)):
                failures.append(f"{name}: label switching not exact at {z}")
                break

    elapsed = time.perf_counter() - t0
    ok = not failures and lemma_one_checked > 50 and half_mass_fixtures >= 3
    report(
        8,
        ok,
        f"invariants on {len(fixture_zoo)} fixtures "
        f"({lemma_one_checked} guaranteed-acceptance cases, "
        f"{half_mass_fixtures} half-mass fixtures), {elapsed:.1f}s",
    )
    assert not failures, failures[:5]
    assert lemma_one_checked > 50
    assert half_mass_fixtures >= 3
