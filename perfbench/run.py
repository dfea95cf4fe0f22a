"""Benchmark entry point for discretemh.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

Each job runs in a fresh interpreter (job.py) and uses the package from
``src/`` of this checkout through its public entry points.  With
``--trace 0`` a run repeats untraced jobs for about ``--seconds`` seconds
and reports the end-to-end metrics as medians over the jobs; with ``--trace 1``
it runs traced jobs (traced.py) and reports the per-layer metrics.  Output
gates (checks.py) count into ``attempted``/``failed``; any failure makes the
result incorrect and the exit code 1.  The last stdout line is the JSON
result; the lines before it are a readable table and the machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402  (sibling modules; HERE is sys.path[0])
from workloads import DEFAULT_SEED, WORKLOADS, write_configs  # noqa: E402

MIN_JOBS = {"full": 3, "tiny": 1}
JOB_TIMEOUT_S = 150
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_PROC_BIND",
    "OMP_PLACES",
)


class JobFailed(Exception):
    pass


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def launch(work: Path, tag: str, req: dict) -> tuple[dict, float]:
    """Run one job.py child; return its result and its wall time seen from here."""
    path = work / f"req-{tag}.json"
    path.write_text(json.dumps(req))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "job.py"), str(path), repr(t0)],
        cwd=ROOT, capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise JobFailed(f"{tag} ({req['mode']}) exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), elapsed


class Gates:
    """Operations attempted and failed; ``weight`` counts one check as many
    operations (a failed job fails all of its replicates)."""

    def __init__(self):
        self.attempted = 0
        self.n_failed_ops = 0
        self.failed: list[str] = []

    def check(self, name: str, ok: bool, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failed.append(name)
            self.n_failed_ops += weight


def gate_experiment(g: Gates, jobs: list, ref, n_runs: int) -> None:
    first = None
    for j, (res, out) in enumerate(jobs):
        ok = res is not None and res["rcs"] == [0]
        g.check(f"job {j}: replicates", ok, weight=n_runs)
        if not ok:
            continue
        summary = checks.data_lines(out / "summary.csv")
        g.check(f"job {j}: summary.csv agrees with runs.csv", checks.summary_matches_runs(out))
        if first is None:
            first = summary
        else:
            g.check(f"job {j}: summary.csv equals job 0's", summary == first)
        if ref is not None:
            g.check(f"job {j}: summary.csv equals reference", summary == ref["summary"])


def gate_certify(g: Gates, jobs: list, ref, n_datasets: int) -> None:
    first = None
    for j, (res, out) in enumerate(jobs):
        ok = res is not None and res["rcs"] == [0] * 2 * n_datasets
        g.check(f"job {j}: certify calls exit 0", ok, weight=2 * n_datasets)
        if not ok:
            continue
        values = [checks.certificate_values(out, i) for i in range(n_datasets)]
        for i in range(n_datasets):
            for name, passed in checks.certificate_checks(out, i):
                g.check(f"job {j}: {name}", passed)
        if first is None:
            first = values
        else:
            g.check(f"job {j}: certificate values equal job 0's", values == first)
        if ref is not None:
            for i, (got, want) in enumerate(zip(values, ref["datasets"])):
                g.check(f"job {j} dataset {i}: values equal reference",
                        checks.values_close(got, want))


def make_ref(kind: str, trace: bool, res: dict, out: Path, n_datasets: int) -> dict:
    if kind == "certify":
        return {"datasets": [checks.certificate_values(out, i) for i in range(n_datasets)]}
    if trace:
        return {"state_digests": res["state_digests"]}
    return {"summary": checks.data_lines(out / "summary.csv")}


def machine_record() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (TypeError, KeyError):
            return "unknown"

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
    }


def run_workload(args) -> int:
    if not (ROOT / "src" / "discretemh" / "__init__.py").is_file():
        print(f"run.py: no package source at {ROOT / 'src' / 'discretemh'}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    wl = WORKLOADS[args.workload]
    kind = wl["kind"]
    dims = wl["size"][args.size]
    trace = args.trace == 1
    work = HERE / ".work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    configs = [str(p) for p in write_configs(args.workload, args.seed, args.size, work)]
    g = Gates()

    def run_job() -> bool:
        n = len(jobs)
        out = work / f"job{n}"
        req = {"mode": "trace" if trace else "run", "kind": kind, "configs": configs,
               "out": str(out)}
        try:
            res, elapsed = launch(work, f"job{n}", req)
        except (JobFailed, subprocess.TimeoutExpired) as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            res, elapsed = None, JOB_TIMEOUT_S
        jobs.append((res, out))
        job_times.append(elapsed)
        return res is not None

    # The first untraced job warms the machine up; it is gated but not measured.
    warmup = 0 if trace or args.size != "full" else 1
    min_jobs = warmup + (1 if trace else MIN_JOBS[args.size])
    deadline = time.perf_counter() + args.seconds
    job_times, jobs = [], []
    ok = all(run_job() for _ in range(warmup))
    while ok and (len(jobs) < min_jobs or time.perf_counter() + max(job_times) <= deadline):
        ok = run_job()
    done = [(res, out) for res, out in jobs if res is not None]
    measured = [(res, out) for res, out in jobs[warmup:] if res is not None]

    ref = None if args.size != "full" or args.write_ref else checks.load_ref(args.workload, args.seed)
    n_datasets = dims.get("datasets", 0)
    if trace:
        for j, (res, out) in enumerate(jobs):
            g.check(f"job {j}: traced job completes", res is not None)
            for name, passed in (res or {}).get("checks", []):
                g.check(f"job {j}: {name}", passed)
            if res is not None and ref is not None and "state_digests" in ref:
                g.check(f"job {j}: state sequences equal reference",
                        res["state_digests"] == ref["state_digests"])
        if kind == "certify":
            gate_certify(g, done, ref, n_datasets)
    elif kind == "experiment":
        gate_experiment(g, jobs, ref, dims["n_runs"])
    else:
        gate_certify(g, jobs, ref, n_datasets)

    metrics = {}
    if trace:
        for name, unit in declared["per_layer"].items():
            vals = [res["metrics"].get(name, 0.0) for res, _ in measured]
            metrics[name] = {"value": statistics.median(vals) if vals else 0.0, "unit": unit}
    elif measured:
        rates = []
        for res, out in measured:
            if kind == "experiment":
                rows = checks.runs_rows(out)
                work_done = [(int(r["steps"]), float(r["elapsed_s"])) for r in rows]
            else:
                work_done = res["builds"]
            rates.append(sum(n for n, _ in work_done) / sum(s for _, s in work_done))
        values = {
            "setup_s": statistics.median(res["setup_s"] for res, _ in measured),
            "wall_s": statistics.median(res["wall_s"] for res, _ in measured),
            "steps_per_s": statistics.median(rates),
            "peak_rss_mb": max(res["peak_rss_mb"] for res, _ in measured),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in declared["end_to_end"].items()}

    correct = not g.failed and len(done) == len(jobs) and bool(metrics)
    if args.write_ref and correct:
        entry = make_ref(kind, trace, *done[0], n_datasets)
        path = checks.save_ref(args.workload, args.seed, entry)
        print(f"reference written: {path}")
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    else:
        print(f"run.py: outputs kept in {work}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}  "
          f"jobs {len(jobs)}")
    for name, m in metrics.items():
        print(f"  {name:32} {m['value']:.6g} {m['unit']}")
    fail_frac = g.n_failed_ops / g.attempted if g.attempted else 1.0
    print(f"  {'fail_frac':32} {fail_frac:.6g} ratio  ({g.n_failed_ops} of {g.attempted} operations)")
    for name in g.failed:
        print(f"  FAILED: {name}")
    print("machine: " + json.dumps(machine_record(), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(g.attempted, 1),
        "failed": g.n_failed_ops,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own interpreter; a summary table at the end."""
    rows, all_ok = [], True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        all_ok &= proc.returncode == 0 and result is not None and result["correct"]
        rows.append((name, result))
    print("summary")
    for name, result in rows:
        if result is None:
            print(f"  {name}: no result")
            continue
        cells = "  ".join(f"{k}={m['value']:.4g}{m['unit']}" for k, m in result["metrics"].items())
        print(f"  {name}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}  {cells}")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every workload for the smoke test")
    parser.add_argument("--write-ref", action="store_true",
                        help="store this run's outputs as the reference for --seed")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
