"""Metropolis-Hastings sampling on finite discrete spaces, with exact
spectral, flow and drift certificates for the mixing behavior."""

__version__ = "0.1.0"

import ctypes
import os

import scipy.special  # noqa: F401  (maps scipy's OpenBLAS before the pin below)

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

# OpenBLAS entry points that set the thread count, one per symbol naming
# scheme: numpy's ILP64 wheel copy, scipy's wheel copy, and system builds.
_SET_NUM_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _one_blas_thread() -> None:
    """Set every OpenBLAS mapped into this process to one thread.

    The chains call BLAS on tiny blocks (a 20x20 Cholesky, a 20x480
    triangular solve), where waking a second BLAS thread costs more than the
    solve; parallelism comes from ``run.workers`` processes instead.  An
    explicit ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is left in
    charge.  The thread count does not change any result.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        return
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for name in _SET_NUM_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


# numpy and scipy.special, imported above, map both wheel copies of
# OpenBLAS; tests/test_blas_threads.py checks that none is mapped later
# unpinned.
_one_blas_thread()
