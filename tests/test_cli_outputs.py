"""What the CLI writes matches ``cli_outputs_snapshot.json``, timing aside.

The snapshot holds the files that ``certify``, ``diagnose`` and
``experiment`` write on the packaged templates (the desk experiments cut to
4 replicates and a budget of 100, with trajectories), with every timing field
removed, and each command's exit code.  Floats compare to 1e-12 relative,
everything else exactly.  Regenerate it, after a deliberate change to what a
command writes, with

    PYTHONPATH=src python tests/test_cli_outputs.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
import yaml

from discretemh.cli import main

ROOT = Path(__file__).resolve().parents[1]
TEMPLATES = ROOT / "src" / "discretemh" / "templates"
SNAPSHOT = Path(__file__).with_name("cli_outputs_snapshot.json")

# name -> (command, template, method, config overrides per section)
CASES = {
    "certify-example3-flow": ("certify", "certify-example3", "flow", {}),
    "certify-example3-none": ("certify", "certify-example3", "none", {}),
    "certify-example3-restricted-flow": ("certify", "certify-example3", "restricted-flow",
                                         {"certify": {"x0": "smax:2"}}),
    "certify-varsel-small-flow": ("certify", "certify-varsel-small", "flow", {}),
    "certify-varsel-small-none": ("certify", "certify-varsel-small", "none", {}),
    "certify-varsel-small-drift": ("certify", "certify-varsel-small", "drift", {}),
    "diagnose-example3": ("diagnose", "certify-example3", None, {}),
    "diagnose-varsel-small": ("diagnose", "certify-varsel-small", None, {}),
    **{f"experiment-{name}": ("experiment", name, None,
                              {"run": {"n_runs": 4, "budget": 100, "save_trajectories": True}})
       for name in ("varsel-desk-imh", "sbm-desk-rw")},
}

# timing fields: a JSON key or a CSV column
TIMINGS = {"timings", "time_s", "t_true_s", "elapsed_s", "elapsed_to_hit_s"}


def _csv(path: Path) -> list[list[str]]:
    """Rows of a CSV file, comment lines kept whole and timing columns cut."""
    rows = [line if line.startswith("#") else line.split(",")
            for line in path.read_text().splitlines()]
    header = next(row for row in rows if isinstance(row, list))
    cut = {i for i, name in enumerate(header) if name in TIMINGS}
    return [row if isinstance(row, str) else [cell for i, cell in enumerate(row) if i not in cut]
            for row in rows]


def _json(path: Path) -> dict:
    return {key: value for key, value in json.loads(path.read_text()).items()
            if key not in TIMINGS}


def run_case(command: str, template: str, method: str | None, overrides: dict,
             work: Path) -> dict:
    raw = yaml.safe_load((TEMPLATES / f"{template}.yaml").read_text())
    for section, values in overrides.items():
        raw.setdefault(section, {}).update(values)
    config, out = work / "cfg.yaml", work / "out"
    config.write_text(yaml.safe_dump(raw))
    argv = [command, "--config", str(config), "--out", str(out)]
    if method is not None:
        argv += ["--method", method]
    with contextlib.redirect_stdout(io.StringIO()):
        result = {"exit": main(argv)}
    for path in sorted(out.iterdir()):
        if path.name != "timing.csv":
            result[path.name] = _csv(path) if path.suffix == ".csv" else _json(path)
    return result


def run_all() -> dict:
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, case in CASES.items():
            work = Path(tmp) / name
            work.mkdir()
            results[name] = run_case(*case, work)
    return json.loads(json.dumps(results))


def _number(value):
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return value if isinstance(value, float) else None


def assert_same(got, want, where: str):
    x, y = _number(got), _number(want)
    if x is not None and y is not None:
        assert math.isclose(x, y, rel_tol=1e-12) or x == y or x != x and y != y, \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same(a, b, f"{where}[{i}]")
    else:
        assert got == want and type(got) is type(want), f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def outputs():
    return run_all()


@pytest.mark.parametrize("name", list(CASES))
def test_cli_writes_the_snapshot(outputs, name):
    assert_same(outputs[name], json.loads(SNAPSHOT.read_text())[name], name)


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(run_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {SNAPSHOT}")
