"""Metropolis-Hastings sampling on finite discrete spaces, with exact
spectral, flow and drift certificates for the mixing behavior."""

__version__ = "0.1.0"

from .core import (
    DiscreteTarget,
    NeighborhoodStats,
    enumerate_space,
    restricted_stats,
    tail_mass_bound,
    unimodality_stats,
)
from .samplers import (
    AsymmetricNeighborhood,
    ChainTrace,
    KernelSpec,
    acceptance_log_ratio,
    clip_weight,
    hitting_experiment,
    informed_proposal_dist,
    run_chain,
    step,
)
from .diagnostics import (
    DenseChain,
    GapReport,
    build_transition_matrix,
    expected_hitting_time,
    restricted_gap,
    spectral_gap,
    theorem_bounds,
    tv_curve,
)
from .flowbound import (
    CongestionReport,
    FlowGraph,
    build_flow_graph,
    congestion,
    drift_certificate,
)

__all__ = [
    "DiscreteTarget",
    "NeighborhoodStats",
    "enumerate_space",
    "unimodality_stats",
    "restricted_stats",
    "tail_mass_bound",
    "KernelSpec",
    "ChainTrace",
    "AsymmetricNeighborhood",
    "clip_weight",
    "informed_proposal_dist",
    "acceptance_log_ratio",
    "step",
    "run_chain",
    "hitting_experiment",
    "DenseChain",
    "GapReport",
    "build_transition_matrix",
    "spectral_gap",
    "restricted_gap",
    "tv_curve",
    "expected_hitting_time",
    "theorem_bounds",
    "FlowGraph",
    "CongestionReport",
    "build_flow_graph",
    "congestion",
    "drift_certificate",
    "__version__",
]
