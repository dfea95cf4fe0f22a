import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from discretemh.cli import (
    TABLE1,
    TABLE1_ERRATA,
    ConfigError,
    cmd_certify,
    cmd_diagnose,
    cmd_experiment,
    golden_example3,
    golden_example4,
    golden_example5,
    load_config,
    main,
    resolve_config,
    resolve_scale,
)
from discretemh.varsel import EXAMPLE3_G, EXAMPLE3_KAPPA, example3_fixture_path
from conftest import N_WORKERS

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

    def test_zero_budget_success_by_init_only(self, tmp_path):
        cfg = dict(SMALL_VARSEL)
        cfg["run"] = {**SMALL_VARSEL["run"], "n_runs": 1, "budget": 0}
        raw = load_config(write_cfg(tmp_path, cfg))
        out = tmp_path / "o"
        assert cmd_experiment(resolve_config(raw, out=str(out))) == 0
        body = (out / "summary.csv").read_text().splitlines()[2]
        success = int(body.split(",")[4])
        assert success in (0, 1)

    def test_trajectories_written(self, tmp_path):
        cfg = {
            "model": SMALL_VARSEL["model"],
            "kernel": SMALL_VARSEL["kernel"],
            "run": {
                "n_runs": 2, "budget": 50, "seed": 5,
                "init": {"scheme": "uniform-m", "m": 1},
                "save_trajectories": True,
            },
        }
        out = tmp_path / "o"
        assert cmd_experiment(resolve_config(load_config(write_cfg(tmp_path, cfg)), out=str(out))) == 0
        lines = (out / "trajectories.csv").read_text().splitlines()
        assert lines[1] == "run,step,log_pi"
        assert len(lines) == 2 + 2 * 51  # two runs, budget + 1 rows each


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
