"""Differential checks of the sparse chain operator against the dense oracle.

``build_transition_matrix`` stores one CSR entry per move and per diagonal;
gaps come from Lanczos iterations started at a fixed vector, the congestion
DP from triangular solves and drift from a sparse mat-vec.  Each must give
what the dense construction and dense linear algebra of ``dense_oracle``
give, on every zoo fixture, every kernel family, lazy and plain, and on a
two- and a three-state chain where the eigenvalues are computed densely.
Repeated solves must agree to the last bit.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
import yaml
from scipy import sparse

import dense_oracle
import flow_oracle
import toy
from discretemh.cli import main
from discretemh.core import BoundInapplicable, unimodality_stats
from discretemh.diagnostics import (
    build_transition_matrix,
    restricted_gap,
    spectral_gap,
    tau_x,
)
from discretemh.flowbound import (
    NoCertificate,
    build_flow_graph,
    congestion,
    drift_certificate,
)
from discretemh.samplers import KernelSpec
from test_transition import KERNELS, ZOO_NAMES

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TINY = {
    "two-state": toy.two_state_target(math.log(3.0)),
    "three-state": toy.path_target([1.0, 0.5]),
}


def close(got: float, want: float, rtol: float = 1e-10) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1e-3)


def _case(fixture_zoo, zoo_enumerations, name, kernel, lazy):
    if name in TINY:
        target, states = TINY[name], None
    else:
        target, states = fixture_zoo[name], zoo_enumerations[name]
    base = KERNELS[kernel]
    spec = KernelSpec(base.family, base.ell, base.big_l, lazy=lazy)
    chain = build_transition_matrix(target, spec, states)
    return target, chain, dense_oracle.dense_matrix(target, spec, chain.states)


@pytest.mark.parametrize("lazy", [False, True], ids=["plain", "lazy"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("name", ZOO_NAMES + sorted(TINY))
def test_sparse_chain_matches_dense_oracle(fixture_zoo, zoo_enumerations, name, kernel, lazy):
    target, chain, dense = _case(fixture_zoo, zoo_enumerations, name, kernel, lazy)
    n = chain.n

    # one stored entry per move and diagonal, none of them zero
    assert isinstance(chain.P, sparse.csr_array)
    assert chain.P.nnz == chain.P.count_nonzero() <= n * (chain.max_degree + 1)
    assert np.abs(chain.P.toarray() - dense).max() <= 1e-15
    assert chain.detailed_balance_error() <= 5e-14

    vals = dense_oracle.spectrum(dense)
    report = spectral_gap(chain)
    lam_min, lam2 = vals[0], vals[-2]
    assert close(chain.eigensystem()[0], lam_min)
    assert close(report.rayleigh_gap, 1.0 - lam2)
    assert close(report.gap, 1.0 - max(lam2, abs(lam_min)))

    top = sorted(range(n), key=lambda i: -chain.log_pis[i])[: max(2, (n + 1) // 2)]
    for idx in (range(n), top):
        got = restricted_gap(chain, [chain.states[i] for i in idx])
        assert close(got, dense_oracle.restricted_gap(dense, chain.pi, list(idx)))

    lam = dense_oracle.drift_lambda(dense, chain.log_pis)
    if lam < 1.0 and lam_min >= -1e-10:
        assert close(drift_certificate(chain).lam, lam)
    else:
        with pytest.raises((NoCertificate, BoundInapplicable)):
            drift_certificate(chain)

    if lazy:
        start = chain.index[min(chain.states, key=target.log_pi)]
        for eps in (0.25, 0.1, 0.01):
            assert tau_x(chain, chain.states[start], eps) == dense_oracle.tau(
                dense, chain.pi, start, eps
            )

    stats = unimodality_stats(target, chain.states)
    if stats.log_r > 0:
        fg = build_flow_graph(chain, stats.r)
        t = fg.t_mat.toarray()
        assert not np.tril(t).any()  # strictly upper triangular in live order
        inv_a = 1.0 / congestion(fg, 0.25).a_exact
        assert close(inv_a, 1.0 / dense_oracle.congestion_dp(fg, 0.25, dense))
        if flow_oracle.combined_path_count(fg) <= 20_000:
            assert close(inv_a, 1.0 / flow_oracle.congestion(fg, 0.25))


def test_repeated_lanczos_solves_are_bit_identical(fixture_zoo, zoo_enumerations):
    target, states = fixture_zoo["sbm-p7"], zoo_enumerations["sbm-p7"]
    spec = KernelSpec("informed", ell=2.0, big_l=50.0, lazy=True)
    first = spectral_gap(build_transition_matrix(target, spec, states))
    second = spectral_gap(build_transition_matrix(target, spec, states))
    assert first.gap == second.gap and first.rayleigh_gap == second.rayleigh_gap


def _certify(tmp_path, config, method, tag):
    out = tmp_path / tag
    assert main(["certify", "--config", str(config), "--method", method, "--out", str(out)]) == 0
    payload = json.loads((out / "certificate.json").read_text())
    del payload["timings"]
    return payload


def test_certify_is_bit_identical_in_either_order(tmp_path, capsys):
    config = tmp_path / "certify.yaml"
    config.write_text(yaml.safe_dump({
        "model": {"kind": "varsel", "p": 7, "n": 400, "covariance": "moderate",
                  "g": "p^3", "kappa": 1.0},
        "kernel": {"family": "informed", "ell": "p", "big_l": 127},
        "run": {"seed": 7},
        "certify": {"epsilon": 0.25, "s_threshold": 2, "q": 0.25, "x0": "all"},
    }))
    flow_first = [_certify(tmp_path, config, m, f"a-{m}") for m in ("flow", "drift")]
    drift_first = [_certify(tmp_path, config, m, f"b-{m}") for m in ("drift", "flow")]
    assert flow_first == drift_first[::-1]
    assert flow_first[0]["sizes"]["log_pi_calls"] == flow_first[0]["sizes"]["states"] == 128
    capsys.readouterr()
