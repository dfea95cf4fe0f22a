"""One benchmark job in a fresh interpreter.

Usage: ``python3 perfbench/job.py REQUEST.json T_LAUNCH``.  The request
names the mode, the workload kind, the generated configs and the output
directory; ``T_LAUNCH`` is the parent's ``time.perf_counter()`` just before
launch (the monotonic clock is shared between processes on Linux, so the
child can report its own set-up time).  The job prints one JSON object as
its last stdout line.

Modes:
  run     untraced job: ``discretemh experiment`` or the ``certify`` calls
  trace   traced job (see traced.py)
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    if not (SRC / "discretemh" / "__init__.py").is_file():
        print(f"job: no package source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import discretemh
    from discretemh import cli

    if Path(discretemh.__file__).resolve().parent != (SRC / "discretemh").resolve():
        print(f"job: imported {discretemh.__file__}, not the checkout's", file=sys.stderr)
        sys.exit(2)
    return cli


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def quiet_main(cli, argv: list[str]) -> int:
    """``discretemh`` CLI entry point with its console report discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run_experiment(cli, configs, out: Path) -> dict:
    t0 = time.perf_counter()
    rc = quiet_main(cli, ["experiment", "--config", str(configs[0]), "--out", str(out)])
    return {"wall_s": time.perf_counter() - t0, "rcs": [rc]}


def certify_argv(config: Path, method: str, out: Path) -> list[str]:
    return ["certify", "--config", str(config), "--method", method, "--out", str(out)]


def certify_out(out: Path, i: int, method: str) -> Path:
    return out / f"{i}-{method}"


def run_certify(cli, configs, out: Path) -> dict:
    """Flow then drift certificate for each dataset.

    ``build_transition_matrix`` is timed by a two-clock-read wrapper so the
    run can report MH transitions evaluated per second of matrix build.
    """
    builds = []
    build = cli.build_transition_matrix

    def timed_build(target, spec, states=None, *args, **kwargs):
        t0 = time.perf_counter()
        chain = build(target, spec, states, *args, **kwargs)
        builds.append((chain.n * chain.max_degree, time.perf_counter() - t0))
        return chain

    rcs = []
    cli.build_transition_matrix = timed_build
    try:
        t0 = time.perf_counter()
        for i, config in enumerate(configs):
            for method in ("flow", "drift"):
                rcs.append(quiet_main(cli, certify_argv(config, method, certify_out(out, i, method))))
        wall = time.perf_counter() - t0
    finally:
        cli.build_transition_matrix = build
    return {"wall_s": wall, "rcs": rcs, "builds": builds}


def main(argv: list[str]) -> int:
    req = json.loads(Path(argv[0]).read_text())
    cli = _import_package()
    configs = [Path(c) for c in req["configs"]]
    cli.resolve_config(cli.load_config(configs[0]))
    setup_s = time.perf_counter() - float(argv[1])
    result: dict = {"setup_s": setup_s}
    out = Path(req["out"])
    if req["mode"] == "run":
        runner = run_experiment if req["kind"] == "experiment" else run_certify
        result.update(runner(cli, configs, out))
    elif req["mode"] == "trace":
        import traced

        result.update(traced.run(cli, req["kind"], configs, out))
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
