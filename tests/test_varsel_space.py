"""The batched ``n1`` tabulation of variable selection against the
breadth-first search.

``varsel_target`` gives its ``n1`` target a ``space``: models ranked as
integers, log pi evaluated one model size at a time.  It must build the
table that ``enumerate_space`` builds from ``log_pi`` and ``neighbors``
alone: the same states, positions, neighbors, degrees and reverse moves,
with log pi equal to the last bit, under hard and soft caps and with
singular models that carry no mass.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import small_varsel_target
from discretemh import varsel
from discretemh.core import CapExceeded, enumerate_space


def _duplicated_column(eps: float) -> varsel.VarSelData:
    """Six variables whose last-but-one repeats variable 3, its norm raised
    by ``eps``: every model holding both is singular."""
    idx = [0, 1, 2, 3, 3, 4]
    gram = varsel.covariance_matrix(5, "moderate")[np.ix_(idx, idx)]
    gram[4, 4] += eps
    return varsel.gram_data(gram, np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]), 200)


def _targets() -> dict:
    data7, _ = varsel.generate_data(7, 300, seed=3)
    short, _ = varsel.generate_data(7, 5, seed=4)  # n = 5 < p caps the size at 5
    hyper = varsel.VarSelHyper(g=216.0, kappa=1.0)
    capped = varsel.VarSelHyper(g=216.0, kappa=1.0, s_max=3)
    loose = varsel.VarSelHyper(g=216.0, kappa=1.0, s_max=20)  # a cap above p never binds
    return {
        "varsel-p5": small_varsel_target(p=5, n=400, seed=11),
        "varsel-p9": small_varsel_target(p=9, n=400, seed=7),
        "example3-v": varsel.example3_target("v"),
        "example3-v2": varsel.example3_target("v2"),
        "varsel-p6-smax3": small_varsel_target(p=6, n=300, seed=7, s_max=3),
        "varsel-p7-smax3-soft": varsel.varsel_target(data7, capped, hard_space=False),
        "varsel-p7-n5": varsel.varsel_target(short, hyper),
        "varsel-p7-smax20": varsel.varsel_target(data7, loose),
        "varsel-p7-smax20-soft": varsel.varsel_target(data7, loose, hard_space=False),
        "duplicated-column": varsel.varsel_target(_duplicated_column(0.0), hyper),
        "duplicated-column-soft": varsel.varsel_target(
            _duplicated_column(0.0), capped, hard_space=False),
        "near-duplicate-column": varsel.varsel_target(_duplicated_column(1e-13), hyper),
    }


TARGETS = _targets()
SINGULAR = ("duplicated-column", "duplicated-column-soft", "near-duplicate-column")


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_batched_space_equals_breadth_first_search(name):
    target = TARGETS[name]
    fast = enumerate_space(target, 4096)
    bfs = enumerate_space(dataclasses.replace(target, space=None), 4096)
    assert fast.states == bfs.states and fast.pos == bfs.pos
    assert all(type(v) is int for v in fast.states[-1])
    for table in ("nbr", "deg", "rev", "log_pis"):
        a, b = getattr(fast, table), getattr(bfs, table)
        assert a.dtype == b.dtype and np.array_equal(a, b), table
    # every candidate model is evaluated once; the singular ones are left out
    assert (fast.log_pi_evals > len(fast)) == (name in SINGULAR)


@pytest.mark.parametrize("name", ["varsel-p9", "varsel-p6-smax3", "duplicated-column"])
def test_cap_below_state_count_raises_on_both_paths(name):
    target = TARGETS[name]
    n = len(enumerate_space(target, 4096))
    for path in (target, dataclasses.replace(target, space=None)):
        with pytest.raises(CapExceeded):
            enumerate_space(path, n - 1)
        assert len(enumerate_space(path, n)) == n


def test_size_batches_equal_log_posterior():
    # sizes past s_max and past n are -inf, as log_posterior has them
    data, _ = varsel.generate_data(7, 5, seed=4)
    hyper = varsel.VarSelHyper(g=343.0, kappa=1.0, s_max=4)
    for data in (data, _duplicated_column(0.0), _duplicated_column(1e-13)):
        for size in range(data.p + 1):
            active = np.array(list(itertools.combinations(range(data.p), size)),
                              dtype=np.intp).reshape(math.comb(data.p, size), size)
            want = [varsel.log_posterior(data, hyper, np.isin(np.arange(data.p), row))
                    for row in active]
            assert np.array_equal(varsel._log_posts_of_size(data, hyper, active), want), size
