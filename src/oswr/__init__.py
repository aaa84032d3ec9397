"""Optimized Schwarz waveform relaxation for 1D heterogeneous heat transfer.

Subpackages:

* ``frequency``: convergence-factor model over the analyzed frequency band.
* ``optimize``: analytic transmission-parameter optimizers plus a grid oracle.
* ``fem``: P1 finite elements, backward Euler, monolithic and Robin solves.
* ``schwarz``: the waveform-relaxation driver over a nonoverlapping split.
* ``experiments``: scenario runners writing CSV artifacts.
* ``cli``: the ``oswr`` command-line entry point.
"""

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
