"""Traced jobs: per-layer spans and counts from wrappers around public calls.

Chain workloads rebuild each replicate exactly as ``hitting_experiment``
does, wrap the factory's ``DiscreteTarget`` callables, and drive
``samplers.step`` in ``run_chain``'s draw order.  Each replicate is also run
through ``run_chain`` untraced; the two state sequences must be equal, and
the time ratio of the two loops is the tracing overhead.

The certify workload runs the same ``certify`` calls twice per dataset,
once untraced and once with the CLI's stage functions, the dense chain's
eigensolve and the varsel target wrapped; the certificates must agree.
Untraced and traced runs alternate in order so warm-up does not favour one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time

import numpy as np

import checks
from job import certify_argv, certify_out, quiet_main
from spans import Tracer, patched


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _wrap_target(tr: Tracer, target, layer: str):
    scan = target.neighbor_log_pis
    return dataclasses.replace(
        target,
        log_pi=tr.wrap(f"{layer}.log_pi", target.log_pi),
        neighbors=tr.wrap(f"{layer}.neighbors", target.neighbors),
        neighbor_log_pis=None if scan is None else tr.wrap(f"{layer}.scan", scan),
    )


def _layer_times(tr: Tracer, layer: str, denom: float) -> dict:
    out = {}
    for call in ("scan", "log_pi", "neighbors"):
        ms = [d * 1e3 for d in tr.durations(f"{layer}.{call}")]
        out[f"{layer}.{call}_ms_p50"] = _pct(ms, 50)
        out[f"{layer}.{call}_ms_p99"] = _pct(ms, 99)
        out[f"{layer}.{call}_share"] = tr.total(f"{layer}.{call}") / denom if denom else 0.0
    out[f"{layer}.data_ms"] = tr.total(f"{layer}.data") * 1e3
    return out


def _step_loop(tr: Tracer, samplers, rng, target, init, spec, budget, truth, stop_early):
    """``run_chain``'s loop with a span around each ``step``."""
    x = init
    lp = target.log_pi(x)
    states, log_pis = [x], [lp]
    hit = x in truth
    tally = {"accepted": 0, "neg_inf": 0, "evals": 0}
    t0 = time.perf_counter()
    for _ in range(budget):
        if hit and stop_early:
            break
        with tr.span("samplers.step"):
            x, meta = samplers.step(target, x, spec, rng, x_log_pi=lp)
        lp = meta.next_log_pi
        states.append(x)
        log_pis.append(lp)
        tally["accepted"] += meta.accepted
        tally["neg_inf"] += meta.log_alpha == -math.inf
        tally["evals"] += meta.n_evals
        hit = hit or x in truth
    return states, log_pis, tally, time.perf_counter() - t0


def trace_chains(cli, config) -> dict:
    from discretemh import samplers, sbm, varsel
    from discretemh.core import philox_rng

    tr = Tracer()
    data_patches = (
        patched(varsel, {"generate_data": tr.wrap("varsel.data", varsel.generate_data)}),
        patched(sbm, {"generate_sbm": tr.wrap("sbm.data", sbm.generate_sbm)}),
    )
    results, digests = [], []
    traced_wall = traced_loop = untraced_loop = 0.0
    tally = {"accepted": 0, "neg_inf": 0, "evals": 0}
    with data_patches[0], data_patches[1]:
        t0 = time.perf_counter()
        with tr.span("cli.config"):
            cfg = cli.resolve_config(cli.load_config(config))
            factory = cli.make_factory(cfg)
        traced_wall += time.perf_counter() - t0
        layer = cfg.model["kind"]
        budget = int(cfg.run["budget"])
        stop_early = bool(cfg.run["stop_early"])
        children = np.random.SeedSequence(int(cfg.run["seed"])).spawn(int(cfg.run["n_runs"]))
        for i, child in enumerate(children):
            data_seq, chain_seq = child.spawn(2)
            t0 = time.perf_counter()
            with tr.span("cli.factory"):
                target, init, truth = factory(i, data_seq)
            traced_wall += time.perf_counter() - t0

            def untraced():
                return samplers.run_chain(
                    target, init, cfg.spec, budget, chain_seq,
                    stop_at=truth, stop_early=stop_early,
                )

            def traced():
                t0 = time.perf_counter()
                out = _step_loop(
                    tr, samplers, philox_rng(chain_seq), _wrap_target(tr, target, layer),
                    init, cfg.spec, budget, truth, stop_early,
                )
                return out, time.perf_counter() - t0

            order = (traced, untraced) if i % 2 else (untraced, traced)
            runs = {f: f() for f in order}
            (states, log_pis, counts, loop_s), wall = runs[traced]
            ref = runs[untraced]
            traced_wall += wall
            traced_loop += loop_s
            untraced_loop += ref.elapsed
            for k in tally:
                tally[k] += counts[k]
            results.append((
                f"replicate {i}: traced states equal run_chain",
                states == ref.states and np.array_equal(log_pis, ref.log_pis),
            ))
            digests.append(hashlib.sha256(repr(states).encode()).hexdigest())

    steps = [s for s in tr.spans if s.name == "samplers.step"]
    n = len(steps)
    step_total = sum(s.dur for s in steps)

    def per_step(call: str) -> float:
        name = f"{layer}.{call}"
        return sum(1 for s in tr.spans if s.name == name and s.parent == "samplers.step") / n

    metrics = {
        "samplers.step_ms_p50": _pct([s.dur * 1e3 for s in steps], 50),
        "samplers.step_ms_p99": _pct([s.dur * 1e3 for s in steps], 99),
        "samplers.self_ms_per_step": sum(s.self_dur for s in steps) * 1e3 / n,
        "samplers.scans_per_step": per_step("scan"),
        "samplers.neighbors_per_step": per_step("neighbors"),
        "samplers.log_pi_per_step": per_step("log_pi"),
        "samplers.evals_per_step": tally["evals"] / n,
        "samplers.accept_rate": tally["accepted"] / n,
        "samplers.neg_inf_reject_rate": tally["neg_inf"] / n,
        "samplers.steps": n,
        "cli.config_ms": tr.total("cli.config") * 1e3,
        "trace.overhead_frac": traced_loop / untraced_loop - 1.0,
        "trace.uncovered_share": 1.0 - tr.top_level_seconds() / traced_wall,
        **_layer_times(tr, layer, step_total),
    }
    return {"metrics": metrics, "checks": results, "state_digests": digests}


def trace_certify(cli, configs, out) -> dict:
    from discretemh import diagnostics, varsel

    tr = Tracer()
    n_states, dag_edges = [], []
    make_target = varsel.varsel_target
    cli_patches = {
        "enumerate_space": tr.wrap(
            "core.enumerate", cli.enumerate_space, on_result=lambda s: n_states.append(len(s))
        ),
        "unimodality_stats": tr.wrap("core.stats", cli.unimodality_stats),
        "build_transition_matrix": tr.wrap("diagnostics.build", cli.build_transition_matrix),
        "spectral_gap": tr.wrap("diagnostics.gap", cli.spectral_gap),
        "tau_x": tr.wrap("diagnostics.tau", cli.tau_x),
        "build_flow_graph": tr.wrap(
            "flowbound.graph", cli.build_flow_graph, on_result=lambda fg: dag_edges.append(len(fg.edges))
        ),
        "congestion": tr.wrap("flowbound.congestion", cli.congestion),
        "drift_certificate": tr.wrap("flowbound.drift", cli.drift_certificate),
    }
    varsel_patches = {
        "varsel_target": lambda *a, **kw: _wrap_target(tr, make_target(*a, **kw), "varsel"),
        "generate_data": tr.wrap("varsel.data", varsel.generate_data),
    }
    chain_patches = {"eigensystem": tr.wrap("diagnostics.eigh", diagnostics.DenseChain.eigensystem)}

    def certify(config, i, where, traced):
        t0 = time.perf_counter()
        rcs = []
        for method in ("flow", "drift"):
            argv = certify_argv(config, method, certify_out(where, i, method))
            if traced:
                with patched(cli, cli_patches), patched(varsel, varsel_patches), \
                        patched(diagnostics.DenseChain, chain_patches):
                    rcs.append(quiet_main(cli, argv))
            else:
                rcs.append(quiet_main(cli, argv))
        return rcs, time.perf_counter() - t0

    results, rcs = [], []
    traced_wall = untraced_wall = 0.0
    untraced_out = out / "untraced"
    for i, config in enumerate(configs):
        t0 = time.perf_counter()
        with tr.span("cli.config"):
            cli.resolve_config(cli.load_config(config))
        traced_wall += time.perf_counter() - t0
        order = (True, False) if i % 2 else (False, True)
        runs = {t: certify(config, i, out if t else untraced_out, t) for t in order}
        (rcs_t, wall_t), (rcs_u, wall_u) = runs[True], runs[False]
        traced_wall += wall_t
        untraced_wall += wall_u
        rcs += rcs_t
        results.append((f"dataset {i}: untraced certify exits 0", rcs_u == [0, 0]))
        if rcs_u == [0, 0] and rcs_t == [0, 0]:
            same = checks.certificate_values(out, i) == checks.certificate_values(untraced_out, i)
            results.append((f"dataset {i}: traced certificate equals untraced", same))

    n = max(n_states)
    metrics = {
        "core.enumerate_s": tr.total("core.enumerate"),
        "core.stats_s": tr.total("core.stats"),
        "core.log_pi_calls": tr.counts["varsel.log_pi"],
        "core.n_states": n,
        "diagnostics.build_s": tr.total("diagnostics.build"),
        "diagnostics.eigh_s": tr.total("diagnostics.eigh"),
        "diagnostics.tau_s": tr.total("diagnostics.tau"),
        "diagnostics.P_mbytes": n * n * 8 / 1e6,
        "flowbound.graph_s": tr.total("flowbound.graph"),
        "flowbound.congestion_s": tr.total("flowbound.congestion"),
        "flowbound.drift_s": tr.total("flowbound.drift"),
        "flowbound.dag_edges": sum(dag_edges),
        "cli.config_ms": tr.total("cli.config") * 1e3,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.uncovered_share": 1.0 - tr.top_level_seconds() / traced_wall,
        **_layer_times(tr, "varsel", traced_wall),
    }
    return {"metrics": metrics, "checks": results, "rcs": rcs}


def run(cli, kind: str, configs, out) -> dict:
    if kind == "experiment":
        return trace_chains(cli, configs[0])
    return trace_certify(cli, configs, out)
