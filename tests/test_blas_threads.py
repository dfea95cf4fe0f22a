"""One BLAS thread per process: importing discretemh sets every OpenBLAS in
the process to one thread, worker processes included, unless the BLAS's own
thread variable is set."""

from __future__ import annotations

import ctypes
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
GET_NUM_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS mapped into this process, by file name."""
    with open("/proc/self/maps") as fh:
        paths = {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}
    counts = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        getter = next(getattr(lib, n) for n in GET_NUM_THREADS if hasattr(lib, n))
        getter.argtypes, getter.restype = [], ctypes.c_int
        counts[Path(path).name] = getter()
    return counts


@dataclass(frozen=True)
class ReportingFactory:
    """Replicate factory that writes its process's BLAS thread counts."""

    inner: object
    out_dir: str

    def __call__(self, index, seedseq):
        report = {"pid": os.getpid(), "threads": blas_threads()}
        Path(self.out_dir, f"{index}.json").write_text(json.dumps(report))
        return self.inner(index, seedseq)


def run_python(code: str, **env) -> str:
    """Run ``code`` in a fresh interpreter without the BLAS thread variables."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**base, "PYTHONPATH": path, **env}, check=True, timeout=120)
    return done.stdout.strip().splitlines()[-1]


IMPORT_AND_REPORT = (
    "import json, discretemh.cli, scipy.sparse.linalg\n"
    "from test_blas_threads import blas_threads\n"
    "print(json.dumps(blas_threads()))\n"
)


def test_import_sets_one_thread():
    counts = json.loads(run_python(IMPORT_AND_REPORT))
    assert counts and set(counts.values()) == {1}, counts


def test_explicit_openblas_variable_wins():
    counts = json.loads(run_python(IMPORT_AND_REPORT, OPENBLAS_NUM_THREADS="2"))
    assert counts and set(counts.values()) == {2}, counts


def test_experiment_workers_run_one_thread(tmp_path):
    code = (
        "import json, os\n"
        "from discretemh.cli import VarselFactory\n"
        "from discretemh.samplers import KernelSpec, hitting_experiment\n"
        "from test_blas_threads import ReportingFactory\n"
        "inner = VarselFactory(p=6, n=80, covariance='moderate', g=216.0, kappa=1.0,\n"
        "                      s_max=None, neighborhood='n1', init={'scheme': 'uniform-m', 'm': 1})\n"
        f"factory = ReportingFactory(inner, {str(tmp_path)!r})\n"
        "hitting_experiment(factory, KernelSpec('informed'), n_runs=2, budget=5,\n"
        "                   master_seed=3, workers=2)\n"
        "print(os.getpid())\n"
    )
    parent = int(run_python(code))
    reports = [json.loads((tmp_path / f"{i}.json").read_text()) for i in range(2)]
    for report in reports:
        assert report["pid"] != parent  # ran in a pool worker
        assert report["threads"] and set(report["threads"].values()) == {1}, report
