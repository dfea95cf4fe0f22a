"""Output gates: parse job outputs and compare them with committed references.

References live in ``refs/<workload>.json`` keyed by seed; they are written
by ``run.py --write-ref`` and hold the full-size outputs only: ``summary``
(``summary.csv`` without its metadata line) and, from a traced run,
``state_digests`` (SHA-256 of each replicate's state sequence) for chain
workloads; ``datasets`` (certificate values) for certify.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

#: relative tolerance for certificate values against their references
CERT_RTOL = 1e-10


def data_lines(path: Path) -> list[str]:
    """Lines of a CSV output without its ``#`` metadata header."""
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def runs_rows(out: Path) -> list[dict]:
    return list(csv.DictReader(data_lines(out / "runs.csv")))


def summary_matches_runs(out: Path) -> bool:
    """``summary.csv`` success count and median hit agree with ``runs.csv``.

    The kernel column of ``summary.csv`` is written unquoted and holds a
    comma for clipped kernels, so the numeric fields are read from the end.
    """
    n_runs, _, success, h_true = data_lines(out / "summary.csv")[1].split(",")[-4:]
    runs = runs_rows(out)
    hits = sorted(int(r["hit_iteration"]) for r in runs if r["hit"] == "1")
    if int(success) != len(hits) or int(n_runs) != len(runs):
        return False
    if len(hits) < len(runs) / 2 or not hits:
        return h_true == "--"
    mid = len(hits) // 2
    median = hits[mid] if len(hits) % 2 else (hits[mid - 1] + hits[mid]) / 2
    return float(h_true) == median


def certificate_values(out: Path, i: int) -> dict:
    """Gap, 1/A, drift lambda and exact tau values of one dataset's certify calls."""
    flow = json.loads((out / f"{i}-flow" / "certificate.json").read_text())
    drift = json.loads((out / f"{i}-drift" / "certificate.json").read_text())
    values = {
        "gap": flow["gap_report"]["gap"],
        "inv_A": 1.0 / flow["congestion"]["A_exact"],
        "drift_lambda": drift["drift"]["lambda"],
    }
    for check in drift["checks"]:
        eps = re.fullmatch(r"drift mixing bound \(eps=(.+)\)", check["name"])
        if eps:
            tau = re.match(r"exact tau (\d+)", check["detail"])
            values[f"tau_{eps.group(1)}"] = int(tau.group(1)) if tau else None
    return values


def certificate_checks(out: Path, i: int) -> list[tuple[str, bool]]:
    """The certificate's own checks (flow lower bound, drift mixing bounds)."""
    found = []
    for method in ("flow", "drift"):
        cert = json.loads((out / f"{i}-{method}" / "certificate.json").read_text())
        found += [(f"dataset {i} {method}: {c['name']}", c["ok"]) for c in cert["checks"]]
    return found


def values_close(got: dict, want: dict, rtol: float = CERT_RTOL) -> bool:
    if got.keys() != want.keys():
        return False
    for k, w in want.items():
        g = got[k]
        if isinstance(w, float) and isinstance(g, float):
            if not math.isclose(g, w, rel_tol=rtol, abs_tol=0.0):
                return False
        elif g != w:
            return False
    return True


def load_ref(workload: str, seed: int):
    path = REFS / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def save_ref(workload: str, seed: int, entry) -> Path:
    REFS.mkdir(exist_ok=True)
    path = REFS / f"{workload}.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    refs.setdefault(str(seed), {}).update(entry)
    path.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return path
