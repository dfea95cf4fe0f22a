"""Shared fixtures: a zoo of small enumerable targets used by the invariant
and theorem-verification suites."""

from __future__ import annotations

import math

import pytest

import toy
from discretemh import sbm, varsel
from discretemh.core import enumerate_space
from discretemh.core import philox_rng
from discretemh.samplers import scan_at, step

N_WORKERS = 2  # results are worker-count invariant; two keeps test latency low


@pytest.fixture(scope="session")
def example3_v_n1():
    return varsel.example3_target("v", "n1")


@pytest.fixture(scope="session")
def example3_v2_n1():
    return varsel.example3_target("v2", "n1")


@pytest.fixture(scope="session")
def example3_v2_ads():
    return varsel.example3_target("v2", "ads")


@pytest.fixture(scope="session")
def example3_data():
    return varsel.example3_data()


def small_varsel_target(p=5, n=400, seed=0, neighborhood="n1", s_max=None,
                        covariance="moderate"):
    data, _ = varsel.generate_data(p, n, covariance, seed=seed)
    hyper = varsel.VarSelHyper(g=float(p) ** 3, kappa=1.0, s_max=s_max)
    return varsel.varsel_target(data, hyper, neighborhood=neighborhood)


def small_sbm_target(p=6, p_within=0.7, p_between=0.05, seed=0):
    data, z_star = sbm.generate_sbm(p, p_within, p_between, seed=seed)
    return sbm.sbm_target(data), z_star


@pytest.fixture(scope="session")
def fixture_zoo(example3_v_n1, example3_v2_n1, example3_v2_ads):
    """Named enumerable targets for exhaustive invariant checks."""
    zoo = {
        "example3-v-n1": example3_v_n1,
        "example3-v2-n1": example3_v2_n1,
        "example3-v2-ads": example3_v2_ads,
        "varsel-p5": small_varsel_target(p=5, n=400, seed=11),
        "varsel-p6-smax3": small_varsel_target(p=6, n=300, seed=7, s_max=3),
        "varsel-p5-ads": small_varsel_target(p=5, n=200, seed=3, neighborhood="ads"),
        "sbm-p6": small_sbm_target(6, seed=1)[0],
        "sbm-p7": small_sbm_target(7, 0.8, 0.1, seed=5)[0],
        "path-7": toy.path_target([1.2, 0.9, 2.0, 1.5, 0.8, 1.1]),
        "star-5": toy.star_target([3.5, 4.0, 3.8, 4.4, 5.0]),
        "tree-12": toy.random_tree_target(12, philox_rng(42), 1.5, 3.0),
        "bimodal": toy.bimodal_target([2.0] * 4, 12.0, [1.5] * 3)[0],
    }
    return zoo


@pytest.fixture(scope="session")
def zoo_enumerations(fixture_zoo):
    return {name: enumerate_space(t, 4096) for name, t in fixture_zoo.items()}


def check_neighborhood_axioms(target, states) -> None:
    """Verify irreflexivity and symmetry of the neighborhood relation on an
    enumeration, raising ``AssertionError`` with the offending states."""
    state_set = set(states)
    for x in states:
        ns = list(target.neighbors(x))
        assert x not in ns, f"neighborhood of {x!r} contains itself"
        assert len(ns) == len(set(ns)), f"duplicate neighbors at {x!r}"
        for y in ns:
            if y in state_set:
                assert x in target.neighbors(y), f"asymmetric pair {x!r} -> {y!r}"


def stateless_chain(target, start, spec, n_steps, seed) -> dict:
    """``n_steps`` stateless ``step`` calls from ``start`` in ``run_chain``'s
    draw order: the states, log pis, proposals and flags, and the counters
    ``run_chain`` must report for them under its reuse rules.  The scan at
    the current state is computed once, at the first move, and carried from
    then on.  A move proposed again while the chain stays put is not worked
    out again unless it is accepted: then its log pi and the scan at its
    target are, and a rejected repeat counts one reused scan.  A move
    rejected on the bound needs no reverse scan, and every rejection on the
    bound, a repeat too, counts as one bound rejection."""
    rng = philox_rng(seed)
    x, lp = start, target.log_pi(start)
    out = {"states": [x], "log_pis": [lp], "proposals": [], "accepted": [], "lazy_stays": [],
           "evals": 0, "scans": 0, "scans_reused": 0, "neg_inf_rejects": 0,
           "bound_rejects": 0}
    fwd_evals, rejected, carried = {}, set(), False
    for _ in range(n_steps):
        y, meta = step(target, x, spec, rng, x_log_pi=lp)
        out["proposals"].append(meta.proposal)
        out["accepted"].append(meta.accepted)
        out["lazy_stays"].append(meta.lazy_stay)
        if not meta.lazy_stay:
            if x not in fwd_evals:
                fwd_evals[x] = scan_at(target, x, lp, spec).n_evals
            if carried:
                out["scans_reused"] += 1
            else:
                out["scans"] += 1
                out["evals"] += fwd_evals[x]
                carried = True
            out["neg_inf_rejects"] += meta.log_alpha == -math.inf
            if meta.proposal in rejected and not meta.accepted:
                out["scans_reused"] += meta.log_alpha > -math.inf
            elif meta.bounded:
                out["bound_rejects"] += 1
            else:
                out["evals"] += meta.n_evals - fwd_evals[x]
                out["scans"] += meta.n_scans - 1
            if meta.accepted:
                rejected = set()
            elif not meta.bounded:
                rejected.add(meta.proposal)
        x, lp = y, meta.next_log_pi
        out["states"].append(x)
        out["log_pis"].append(lp)
    return out
