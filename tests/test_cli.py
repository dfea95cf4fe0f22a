import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml

from discretemh.cli import (
    TABLE1,
    TABLE1_ERRATA,
    ConfigError,
    VarselFactory,
    build_static_target,
    cmd_certify,
    cmd_diagnose,
    cmd_experiment,
    golden_example3,
    golden_example4,
    golden_example5,
    load_config,
    main,
    make_factory,
    resolve_config,
    resolve_scale,
)
from discretemh.samplers import run_chain
from discretemh.varsel import EXAMPLE3_G, EXAMPLE3_KAPPA, example3_fixture_path
from conftest import N_WORKERS, stateless_chain

TEMPLATES = Path(__file__).resolve().parents[1] / "src" / "discretemh" / "templates"


def write_cfg(tmp_path, payload, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return path


SMALL_VARSEL = {
    "model": {"kind": "varsel", "p": 6, "n": 80, "covariance": "moderate"},
    "kernel": {"family": "random-walk"},
    "run": {
        "n_runs": 6,
        "budget": 400,
        "init": {"scheme": "uniform-m", "m": 1},
        "seed": 99,
    },
}

SMALL_SBM = {"kind": "sbm", "p": 20, "p_within": 0.5, "p_between": 0.05}


class TestConfig:
    def test_templates_all_load(self):
        for path in sorted(TEMPLATES.glob("*.yaml")):
            cfg = resolve_config(load_config(path))
            assert cfg.spec is not None

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "model:\n  kind: varsel\n  p: 6\n  n: 40\n  bogus_key: 1\n"
            "kernel:\n  family: random-walk\n"
        )
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "bogus_key" in str(err.value)
        assert ":5:" in str(err.value)

    def test_kind_specific_keys(self, tmp_path):
        payload = {
            "model": {"kind": "sbm", "p": 10, "p_within": 0.4, "p_between": 0.1,
                      "covariance": "moderate"},
        }
        with pytest.raises(ConfigError) as err:
            load_config(write_cfg(tmp_path, payload))
        assert "covariance" in str(err.value)

    def test_scale_expressions(self):
        assert resolve_scale("p^3", 30) == 27000.0
        assert resolve_scale("1/p", 30) == pytest.approx(1 / 30)
        assert resolve_scale("p^-1", 30) == pytest.approx(1 / 30)
        assert resolve_scale("p", 30) == 30.0
        assert resolve_scale(2.5, 30) == 2.5
        assert resolve_scale("inf", 30) == math.inf
        with pytest.raises(ConfigError):
            resolve_scale("q^2", 30)

    def test_missing_required(self, tmp_path):
        with pytest.raises(ConfigError):
            resolve_config(load_config(write_cfg(tmp_path, {"model": {"kind": "varsel"}})))

    def test_overrides(self, tmp_path):
        raw = load_config(write_cfg(tmp_path, SMALL_VARSEL))
        cfg = resolve_config(raw, seed=123, workers=3, out=str(tmp_path / "o"))
        assert cfg.run["seed"] == 123 and cfg.run["workers"] == 3


class TestGolden:
    def test_example4_and_5_all_pass(self):
        assert all(c.ok for c in golden_example4())
        checks, notes = golden_example5()
        assert all(c.ok for c in checks)
        assert notes == []  # primary comparison succeeded, no fallback recorded

    def test_example3_known_print_discrepancy(self):
        # the published value for the two-strong-variable model contradicts
        # its own exact fit column; it is checked against the erratum, and
        # the print it replaces stays out of tolerance and on record
        checks = golden_example3()
        assert len(checks) == 16
        assert all(c.ok for c in checks)
        corrected = [c for c in checks if c.published is not None]
        assert [c.name for c in corrected] == ["logpost(110)"]
        (c,) = corrected
        assert abs(c.computed - c.published) > c.tol

    def test_cli_exit_codes(self, capsys):
        assert main(["golden", "4"]) == 0
        assert main(["golden", "5"]) == 0
        assert main(["golden", "3"]) == 0  # passes against the recorded erratum
        out = capsys.readouterr().out
        assert "logpost(110): computed 207.669, corrected 207.67 (erratum, published 207.7)" in out

    def test_example3_erratum_proof(self):
        # proves the erratum from the checked-in fixture's inner products by
        # hand, without the model code that golden_example3 exercises
        payload = json.loads(example3_fixture_path().read_text())
        assert payload["p"] == 3
        gram = [Fraction(v) for v in payload["gram"]]
        xty = [Fraction(v) for v in payload["xty"]]
        yty, n, p = Fraction(payload["yty"]), payload["n"], payload["p"]
        g, kappa = EXAMPLE3_G, EXAMPLE3_KAPPA

        # 1 - R^2 of model 110 by 2x2 inverse: b' G^{-1} b / y'y
        g00, g01, g11 = gram[0], gram[1], gram[4]
        b0, b1 = xty[0], xty[1]
        explained = (b0 * b0 * g11 - 2 * b0 * b1 * g01 + b1 * b1 * g00) / (g00 * g11 - g01 * g01)
        one_minus_r2 = 1 - explained / yty
        assert one_minus_r2 == Fraction(16, 25)
        assert TABLE1[(1, 1, 0)][0] == 0.64

        # the closed-form log posterior relative to the empty model rounds to the erratum
        closed = (
            -2 * kappa * math.log(p)
            - math.log1p(g)
            + 0.5 * n * math.log((1 + g) / (1 + g * float(one_minus_r2)))
        )
        assert round(closed, 2) == TABLE1_ERRATA[(1, 1, 0)] == 207.67
        assert abs(closed - TABLE1[(1, 1, 0)][1]) > 0.01

        # 111 contains 110, so R^2(111) >= R^2(110) and the gap between their
        # log posteriors is at most kappa log p + log(1+g)/2 for any data;
        # the published pair, each within 0.01, needs more than that
        max_gap = kappa * math.log(p) + 0.5 * math.log1p(g)
        assert TABLE1[(1, 1, 0)][1] - TABLE1[(1, 1, 1)][1] - 2 * 0.01 > max_gap


class TestExperiment:
    def test_end_to_end_and_worker_invariance(self, tmp_path):
        raw = load_config(write_cfg(tmp_path, SMALL_VARSEL))
        out1 = tmp_path / "w1"
        out2 = tmp_path / "w2"
        assert cmd_experiment(resolve_config(raw, workers=1, out=str(out1))) == 0
        assert cmd_experiment(resolve_config(raw, workers=N_WORKERS, out=str(out2))) == 0
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
        header, names, row = (out1 / "summary.csv").read_text().splitlines()
        assert header.startswith("# config_hash=")
        assert names == "model,kernel,n_runs,budget,success,h_true"
        payload = json.loads((out1 / "summary.json").read_text())
        assert payload["n_runs"] == 6
        runs = (out1 / "runs.csv").read_text().splitlines()
        assert len(runs) == 2 + 6

    def test_runs_csv_timings_and_counters(self, tmp_path):
        cfg = {
            "model": {"kind": "sbm", "p": 20, "p_within": 0.5, "p_between": 0.05},
            "kernel": {"family": "random-walk"},
            "run": {"n_runs": 3, "budget": 40, "seed": 3, "stop_early": False,
                    "init": {"scheme": "third-wrong"}},
        }
        out = tmp_path / "o"
        resolved = resolve_config(load_config(write_cfg(tmp_path, cfg)), out=str(out))
        assert cmd_experiment(resolved) == 0
        lines = (out / "runs.csv").read_text().splitlines()
        assert lines[1] == (
            "index,hit,hit_iteration,steps,elapsed_s,elapsed_to_hit_s,"
            "evals,scans,scans_reused,neg_inf_rejects"
        )
        rows = [dict(zip(lines[1].split(","), ln.split(","))) for ln in lines[2:]]
        assert len(rows) == 3
        # random walk: one log_pi and one scan per move, but a move proposed
        # again while the chain stays put costs neither unless it is accepted
        factory = make_factory(resolved)
        counters = ("evals", "scans", "scans_reused", "neg_inf_rejects")
        for i, (row, child) in enumerate(zip(rows, np.random.SeedSequence(3).spawn(3))):
            assert float(row["elapsed_s"]) > 0
            assert int(row["steps"]) == 40
            data_seq, chain_seq = child.spawn(2)
            target, init, _ = factory(i, data_seq)
            ref = stateless_chain(target, init, resolved.spec, 40, chain_seq)
            assert [int(row[c]) for c in counters] == [ref[c] for c in counters]
        # 40 moves with no zero-probability proposal, and some repeats
        assert sum(int(row["evals"]) for row in rows) < 3 * 40
        assert all(int(row["scans"]) + int(row["scans_reused"]) == 80 for row in rows)

    def test_stalled_unclipped_chain_reuses_its_scans(self, tmp_path):
        raw = yaml.safe_load((TEMPLATES / "varsel-desk-imh-unclipped.yaml").read_text())
        raw["run"].update(n_runs=3, budget=1500, stop_early=False)
        out = tmp_path / "o"
        assert cmd_experiment(resolve_config(load_config(write_cfg(tmp_path, raw)), out=str(out))) == 0
        lines = (out / "runs.csv").read_text().splitlines()
        rows = [dict(zip(lines[1].split(","), ln.split(","))) for ln in lines[2:]]
        assert len(rows) == 3
        for row in rows:
            steps, scans = int(row["steps"]), int(row["scans"])
            assert steps == 1500
            assert scans + int(row["scans_reused"]) == 2 * steps - int(row["neg_inf_rejects"])
            assert scans < steps / 10

    def test_sbm_without_init_starts_third_wrong(self, tmp_path, capsys):
        raw = {"model": SMALL_SBM, "run": {"n_runs": 1, "budget": 5}}
        assert resolve_config(raw).run["init"] == {"scheme": "third-wrong"}
        path = write_cfg(tmp_path, raw)
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()

    def test_unknown_sbm_init_exits_two(self, tmp_path, capsys):
        raw = {"model": SMALL_SBM,
               "run": {"n_runs": 1, "budget": 5, "init": {"scheme": "uniform-m"}}}
        path = write_cfg(tmp_path, raw)
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "error: InvalidInit: unknown init scheme 'uniform-m'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, rate", [("p_within", 1.5), ("p_between", -0.1),
                                           ("p_within", "high"), ("p_between", True),
                                           ("p_within", float("nan"))])
    def test_sbm_rate_outside_unit_interval_is_config_error(self, tmp_path, capsys, key, rate):
        raw = {"model": {**SMALL_SBM, key: rate}, "run": {"n_runs": 1, "budget": 5}}
        with pytest.raises(ConfigError, match=f"model.{key} must lie in \\[0, 1\\]"):
            resolve_config(raw)
        path = write_cfg(tmp_path, raw)
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"model.{key} must lie in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", [0, 1, 0.0, 1.0])
    def test_sbm_rate_bounds_are_legal(self, rate):
        raw = {"model": {**SMALL_SBM, "p_within": rate, "p_between": rate}}
        assert resolve_config(raw).model["p_within"] == rate

    def test_sbm_rejects_varsel_init_keys(self, tmp_path, capsys):
        raw = {"model": SMALL_SBM,
               "run": {"n_runs": 1, "budget": 5, "init": {"scheme": "third-wrong", "m": 7}}}
        path = write_cfg(tmp_path, raw)
        with pytest.raises(ConfigError, match="unknown key 'm' in run.init for model kind 'sbm'"):
            load_config(path)
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "unknown key 'm'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sbm_fresh_data_false_shares_one_graph(self):
        def graphs(fresh_data):
            cfg = resolve_config({"model": SMALL_SBM, "run": {"seed": 4, "fresh_data": fresh_data}})
            factory = make_factory(cfg)
            out = []
            for i, child in enumerate(np.random.SeedSequence(4).spawn(2)):
                target, init, _ = factory(i, child.spawn(2)[0])
                out.append(target.stats_at(init).data.adjacency)
            static, _ = build_static_target(cfg)
            return out, static.stats_at(static.seed_state).data.adjacency

        (first, second), static = graphs(False)
        assert np.array_equal(first, static) and np.array_equal(second, static)
        (first, second), _ = graphs(True)
        assert not np.array_equal(first, second)

    def test_zero_budget_success_by_init_only(self, tmp_path):
        cfg = dict(SMALL_VARSEL)
        cfg["run"] = {**SMALL_VARSEL["run"], "n_runs": 1, "budget": 0}
        raw = load_config(write_cfg(tmp_path, cfg))
        out = tmp_path / "o"
        assert cmd_experiment(resolve_config(raw, out=str(out))) == 0
        body = (out / "summary.csv").read_text().splitlines()[2]
        success = int(body.split(",")[4])
        assert success in (0, 1)

    def test_trajectories_written(self, tmp_path, monkeypatch):
        cfg = {
            "model": SMALL_VARSEL["model"],
            "kernel": SMALL_VARSEL["kernel"],
            "run": {
                "n_runs": 2, "budget": 50, "seed": 5, "workers": 1,
                "init": {"scheme": "uniform-m", "m": 1},
                "save_trajectories": True,
            },
        }
        out = tmp_path / "o"
        resolved = resolve_config(load_config(write_cfg(tmp_path, cfg)), out=str(out))
        build, calls = VarselFactory.__call__, []

        def counted(factory, index, seedseq):
            calls.append(index)
            return build(factory, index, seedseq)

        with monkeypatch.context() as patch:
            patch.setattr(VarselFactory, "__call__", counted)
            assert cmd_experiment(resolved) == 0
        assert calls == [0, 1]  # one run per replicate
        lines = (out / "trajectories.csv").read_text().splitlines()
        assert lines[1] == "run,step,log_pi"
        assert len(lines) == 2 + 2 * 51  # two runs, budget + 1 rows each
        rows = [ln.split(",") for ln in lines[2:]]
        factory = make_factory(resolved)
        for i, child in enumerate(np.random.SeedSequence(5).spawn(2)):
            data_seq, chain_seq = child.spawn(2)
            target, init, _ = factory(i, data_seq)
            trace = run_chain(target, init, resolved.spec, 50, chain_seq)
            assert [r[2] for r in rows if r[0] == str(i)] == [f"{lp:.6f}" for lp in trace.log_pis]
        runs = (out / "runs.csv").read_text().splitlines()
        steps = [dict(zip(runs[1].split(","), ln.split(",")))["steps"] for ln in runs[2:]]
        assert steps == ["50", "50"]  # saved trajectories run the whole budget


class TestCertify:
    def test_example3_flow(self, tmp_path, capsys):
        raw = load_config(TEMPLATES / "certify-example3.yaml")
        cfg = resolve_config(raw, out=str(tmp_path))
        assert cmd_certify(cfg, "flow") == 0
        payload = json.loads((tmp_path / "certificate.json").read_text())
        assert all(c["ok"] for c in payload["checks"])
        assert payload["congestion"]["A_exact"] <= payload["congestion"]["A_closed_form"]
        capsys.readouterr()

    def test_unbuildable_flow_is_a_failed_check(self, tmp_path, capsys):
        # S far above the unimodality ratio: some state has no uphill move
        raw = {
            "model": {"kind": "example3"},
            "kernel": {"family": "random-walk"},
            "certify": {"s_threshold": 1e6},
        }
        path = write_cfg(tmp_path, raw)
        out = tmp_path / "o"
        assert main(["certify", "--config", str(path), "--method", "flow", "--out", str(out)]) == 1
        assert "[FAIL] flow certificate: state" in capsys.readouterr().out
        payload = json.loads((out / "certificate.json").read_text())
        assert payload["checks"][-1]["name"] == "flow certificate"
        assert payload["checks"][-1]["ok"] is False
        assert "congestion" not in payload

    @pytest.mark.parametrize("key, value", [("q", 2), ("s_threshold", 0.5), ("epsilon", 0)])
    def test_out_of_range_number_is_a_config_error(self, tmp_path, capsys, key, value):
        raw = {
            "model": {"kind": "example3", "space": "v2", "neighborhood": "ads"},
            "kernel": {"family": "random-walk"},
            "certify": {key: value},
        }
        path = write_cfg(tmp_path, raw)
        out = tmp_path / "o"
        assert main(["certify", "--config", str(path), "--method", "flow", "--out", str(out)]) == 2
        assert f"config error: certify.{key} must lie in" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [0, -1, 2.5, "many"])
    def test_bad_enum_cap_is_a_config_error(self, tmp_path, capsys, value):
        raw = {
            "model": {"kind": "example3"},
            "kernel": {"family": "random-walk"},
            "certify": {"enum_cap": value},
        }
        path = write_cfg(tmp_path, raw)
        out = tmp_path / "o"
        assert main(["certify", "--config", str(path), "--method", "flow", "--out", str(out)]) == 2
        assert "config error: certify.enum_cap must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("t_max", "many", "an integer >= 1"), ("t_max", 0, "an integer >= 1"),
        ("t_max", -1, "an integer >= 1"), ("t_max", 2.5, "an integer >= 1"),
        ("eta", "many", "null or lie in (0, 1]"), ("eta", 0, "null or lie in (0, 1]"),
        ("eta", 1.5, "null or lie in (0, 1]"),
    ])
    @pytest.mark.parametrize("command", [["certify", "--method", "flow"], ["diagnose"]])
    def test_bad_t_max_or_eta_is_a_config_error(self, tmp_path, capsys, command, key, value,
                                                 message):
        raw = {
            "model": {"kind": "example3", "space": "v2", "neighborhood": "ads"},
            "kernel": {"family": "random-walk"},
            "certify": {key: value, "x0": "smax:2"},
        }
        path = write_cfg(tmp_path, raw)
        out = tmp_path / "o"
        assert main([*command, "--config", str(path), "--out", str(out)]) == 2
        assert f"config error: certify.{key} must be {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_drift_at_the_enum_cap(self, tmp_path, capsys):
        # 2^12 = 4,096 models, the default cap, tabulated by the batched n1 space
        raw = {
            "model": {"kind": "varsel", "p": 12, "n": 400, "covariance": "moderate",
                      "g": "p^3", "kappa": 1.0},
            "kernel": {"family": "informed", "ell": "p", "big_l": "p^3"},
            "run": {"seed": 7},
        }
        path = write_cfg(tmp_path, raw)
        out = tmp_path / "o"
        assert main(["certify", "--config", str(path), "--method", "drift", "--out", str(out)]) == 0
        sizes = json.loads((out / "certificate.json").read_text())["sizes"]
        assert sizes["states"] == sizes["log_pi_calls"] == 4096
        capsys.readouterr()

    def test_informed_drift(self, tmp_path, capsys):
        raw = load_config(TEMPLATES / "certify-varsel-small.yaml")
        cfg = resolve_config(raw, out=str(tmp_path))
        code = cmd_certify(cfg, "drift")
        out = capsys.readouterr().out
        payload = json.loads((tmp_path / "certificate.json").read_text())
        if code == 0:
            assert "drift lambda" in out
        else:
            # hypotheses may fail on this random dataset; the report must say so
            assert any(not c["ok"] for c in payload["checks"])

    def test_restricted_flow_via_smax(self, tmp_path, capsys):
        raw = {
            "model": {"kind": "example3", "space": "v", "neighborhood": "ads"},
            "kernel": {"family": "random-walk"},
            "run": {"seed": 1},
            "certify": {"x0": "smax:2"},
        }
        cfg = resolve_config(raw, out=str(tmp_path))
        assert cmd_certify(cfg, "restricted-flow") == 0
        payload = json.loads((tmp_path / "certificate.json").read_text())
        assert payload["congestion"]["restricted"] is True
        assert payload["gap_report"]["restricted_gap"] is not None
        capsys.readouterr()

    def test_rho_below_one_is_reported_not_fatal(self, tmp_path, capsys):
        # single-flip neighborhood on the capped space has a second local mode
        raw = {
            "model": {"kind": "example3", "space": "v2", "neighborhood": "n1"},
            "kernel": {"family": "random-walk"},
            "run": {"seed": 1},
        }
        cfg = resolve_config(raw, out=str(tmp_path))
        assert cmd_certify(cfg, "none") == 0
        out = capsys.readouterr().out
        assert "rho" in out and "n/a" in out


class TestDiagnose:
    def test_outputs(self, tmp_path, capsys):
        raw = {
            "model": {"kind": "example3"},
            "kernel": {"family": "random-walk", "lazy": True},
            "run": {"seed": 1},
            "certify": {"x0": "top-mass:0.99", "t_max": 50},
        }
        cfg = resolve_config(raw, out=str(tmp_path))
        assert cmd_diagnose(cfg) == 0
        payload = json.loads((tmp_path / "gap_report.json").read_text())
        assert payload["gap_report"]["restricted_gap"] is not None
        tv_lines = (tmp_path / "tv.csv").read_text().splitlines()
        assert tv_lines[1].startswith("# start=")
        assert tv_lines[2] == "t,tv"
        assert len(tv_lines) == 3 + 51
        # the worst-case start needs many steps: the curve begins near one
        assert float(tv_lines[3].split(",")[1]) > 0.9
        capsys.readouterr()

    def test_cap_exceeded_exit_code(self, tmp_path, capsys):
        raw = {
            "model": {"kind": "sbm", "p": 20, "p_within": 0.4, "p_between": 0.1},
            "kernel": {"family": "random-walk"},
            "run": {"seed": 1},
            "certify": {"enum_cap": 100},
        }
        cfg = resolve_config(raw, out=str(tmp_path))
        assert cmd_diagnose(cfg) == 2
        capsys.readouterr()


@pytest.mark.parametrize("argv, error", [
    (["certify", "--method", "restricted-flow"], "DegenerateSpace"),
    (["diagnose"], "DegenerateRestriction"),
])
def test_library_error_exits_two(tmp_path, capsys, argv, error):
    # a one-state restriction: the input, not a failed check
    raw = {
        "model": {"kind": "example3", "space": "v", "neighborhood": "ads"},
        "kernel": {"family": "random-walk"},
        "run": {"seed": 1},
        "certify": {"x0": "smax:0"},
    }
    path = write_cfg(tmp_path, raw)
    assert main([argv[0], "--config", str(path), "--out", str(tmp_path / "o"), *argv[1:]]) == 2
    assert f"error: {error}: " in capsys.readouterr().err


def test_cli_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse is imported inside the functions that use it, which keeps
    # the start-up of every command flat
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, discretemh.cli; print('scipy.sparse' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout.strip() == "False"
