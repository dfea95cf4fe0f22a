"""Valid configs resolve to the values in ``config_snapshot.json``.

The snapshot holds, for every packaged template and for every config the
benchmark writes (each workload, full and tiny size, seeds 7 and 8), the
resolved ``model``, ``spec``, ``run``, ``formats`` and ``certify`` and the
config hash.  Regenerate it, after a deliberate change to what a config
means, with

    PYTHONPATH=src python tests/test_config_snapshot.py
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import tempfile
from pathlib import Path

from discretemh.cli import load_config, resolve_config

ROOT = Path(__file__).resolve().parents[1]
TEMPLATES = ROOT / "src" / "discretemh" / "templates"
SNAPSHOT = Path(__file__).with_name("config_snapshot.json")


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolved(path: Path) -> dict:
    cfg = resolve_config(load_config(path))
    values = {"model": cfg.model, "spec": dataclasses.asdict(cfg.spec), "run": cfg.run,
              "formats": cfg.formats, "certify": cfg.certify, "config_hash": cfg.config_hash}
    return json.loads(json.dumps(values))


def resolve_all() -> dict:
    out = {f"templates/{path.name}": _resolved(path)
           for path in sorted(TEMPLATES.glob("*.yaml"))}
    workloads = _workloads()
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for size in ("full", "tiny"):
                for seed in (7, 8):
                    work = Path(tmp) / name / size / str(seed)
                    for path in workloads.write_configs(name, seed, size, work):
                        out[f"perfbench/{name}/{size}/{seed}/{path.name}"] = _resolved(path)
    return out


def test_configs_resolve_to_the_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    resolved = resolve_all()
    assert sorted(resolved) == sorted(expected)
    for name, values in expected.items():
        assert resolved[name] == values, name


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(resolve_all(), indent=1, sort_keys=True) + "\n")
