"""Optimized Schwarz waveform relaxation for 1D heterogeneous heat transfer.

Subpackages:

* ``frequency``: convergence-factor model over the analyzed frequency band.
* ``optimize``: analytic transmission-parameter optimizers plus a grid oracle.
* ``fem``: P1 finite elements, backward Euler, monolithic and Robin solves.
* ``schwarz``: the waveform-relaxation driver over a nonoverlapping split.
* ``experiments``: scenario runners writing CSV artifacts.
* ``cli``: the ``oswr`` command-line entry point.
"""

import os
import sys

# oswr makes no BLAS call, yet OpenBLAS starts its thread pool when numpy
# loads it, and the idle workers spin.  OpenBLAS reads its thread count
# only at load time, so numpy is loaded here with one thread unless the
# user chose a count or imported numpy first; the variable is removed
# again, and the user's environment and child processes never see it.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .frequency import (
    DiffusionPair,
    FrequencyBand,
    TransmissionParams,
    frequency_band_from_grid,
    interior_critical_frequencies,
    max_rho_over_band,
    rho,
    sufficient_condition_holds,
)
from .optimize import (
    CaseDataError,
    OptimizationError,
    OptimizedResult,
    VersionICaseData,
    brute_force_minmax,
    optimize,
    optimize_v1,
    optimize_v2,
    optimize_v3,
    quartic_positive_roots,
    restriction_interval_v1,
    restriction_intervals_v3,
    v3_residual,
)
from .fem import (
    DiffusionProfile,
    HeatProblem,
    Mesh1D,
    NonFiniteSolution,
    RobinBoundaryData,
    SpaceTimeField,
    assemble_operators,
    solve_monolithic,
    solve_subdomain_robin,
    variational_flux,
)
from .schwarz import (
    ConvergenceHistory,
    Decomposition,
    IterationDiverged,
    combined_error,
    decompose,
    interface_diffusion_pairs,
    oswr_iterate,
)

__all__ = [
    "DiffusionPair",
    "FrequencyBand",
    "TransmissionParams",
    "frequency_band_from_grid",
    "interior_critical_frequencies",
    "max_rho_over_band",
    "rho",
    "sufficient_condition_holds",
    "CaseDataError",
    "OptimizationError",
    "OptimizedResult",
    "VersionICaseData",
    "brute_force_minmax",
    "optimize",
    "optimize_v1",
    "optimize_v2",
    "optimize_v3",
    "quartic_positive_roots",
    "restriction_interval_v1",
    "restriction_intervals_v3",
    "v3_residual",
    "DiffusionProfile",
    "HeatProblem",
    "Mesh1D",
    "NonFiniteSolution",
    "RobinBoundaryData",
    "SpaceTimeField",
    "assemble_operators",
    "solve_monolithic",
    "solve_subdomain_robin",
    "variational_flux",
    "ConvergenceHistory",
    "Decomposition",
    "IterationDiverged",
    "combined_error",
    "decompose",
    "interface_diffusion_pairs",
    "oswr_iterate",
]

__version__ = "0.1.0"
