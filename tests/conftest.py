"""Shared fixtures: a zoo of small enumerable targets used by the invariant
and theorem-verification suites."""

from __future__ import annotations

import pytest

from discretemh import sbm, toy, varsel
from discretemh.core import enumerate_space
from discretemh.core import philox_rng

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
