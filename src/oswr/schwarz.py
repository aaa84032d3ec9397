"""Waveform-relaxation driver over a nonoverlapping domain split.

Each iteration solves every space-time subdomain over the whole window
(0, T), exchanging interface traces and variational fluxes through Robin
conditions.  A subdomain solve is affine and time-invariant in its Robin
data, so every subdomain is stepped in time only once per case for its
affine part and once per Robin end for the impulse response; an
iteration then rebuilds each subdomain solution by FFT convolution of
its Robin series with those responses.  With the variational flux the
exact discrete fixed point of the iteration is the monolithic solution,
so the per-iteration error

    e_k = max over subdomains, nodes and time levels of
          |monolithic - subdomain value|

is the natural convergence measure and is what the driver records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fem import (
    HeatProblem,
    Mesh1D,
    RobinBoundaryData,
    SpaceTimeField,
    solve_monolithic,
    solve_subdomain_robin,
    variational_flux,
)
from .frequency import DiffusionPair, FrequencyBand, TransmissionParams
from .optimize import optimize

__all__ = [
    "IterationDiverged",
    "Decomposition",
    "InterfaceState",
    "ConvergenceHistory",
    "decompose",
    "combined_error",
    "interface_params_for",
    "interface_diffusion_pairs",
    "oswr_iterate",
]

INIT_MODES = ("zero", "from_initial", "exact")
SWEEP_MODES = ("gauss_seidel", "jacobi")
DIVERGENCE_FACTOR = 1e6
_FFT_BLOCK = 8  # field columns per inverse FFT; bounds the complex temporaries


class IterationDiverged(RuntimeError):
    """Raised when the iteration error blows up instead of contracting."""


@dataclass(frozen=True)
class Decomposition:
    """Nonoverlapping split of a global mesh at interior mesh nodes."""

    global_mesh: Mesh1D
    interfaces: tuple[float, ...]
    interface_nodes: tuple[int, ...]
    submeshes: tuple[Mesh1D, ...]
    node_ranges: tuple[tuple[int, int], ...]  # global [start, stop) per subdomain

    @property
    def n_subdomains(self) -> int:
        return len(self.submeshes)


def decompose(global_mesh: Mesh1D, interfaces) -> Decomposition:
    """Split the mesh at the given interface coordinates.

    Every interface must be an interior node; neighboring subdomains share
    the interface node.  Rejects splits that would leave a subdomain with
    fewer than 2 elements.
    """
    coords = [float(x) for x in interfaces]
    if not coords:
        raise ValueError("need at least one interface")
    if any(coords[i] >= coords[i + 1] for i in range(len(coords) - 1)):
        raise ValueError("interfaces must be strictly increasing")
    idx = [global_mesh.node_index(x) for x in coords]
    if idx[0] == 0 or idx[-1] == global_mesh.n_nodes - 1:
        raise ValueError("interfaces must be interior nodes")
    bounds = [0] + idx + [global_mesh.n_nodes - 1]
    submeshes = []
    ranges = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo < 2:
            raise ValueError(
                f"subdomain between nodes {lo} and {hi} has fewer than 2 elements"
            )
        submeshes.append(Mesh1D.from_nodes(global_mesh.nodes[lo : hi + 1]))
        ranges.append((lo, hi + 1))
    return Decomposition(
        global_mesh,
        tuple(coords),
        tuple(idx),
        tuple(submeshes),
        tuple(ranges),
    )


@dataclass
class InterfaceState:
    """Trace and outward-flux series on both sides of one interface.

    ``left_*`` belongs to the subdomain left of the interface (its right
    end), ``right_*`` to the subdomain on the right (its left end).  All
    series cover time levels 1..n_steps.
    """

    left_trace: np.ndarray
    left_flux: np.ndarray
    right_trace: np.ndarray
    right_flux: np.ndarray

    def copy(self) -> "InterfaceState":
        return InterfaceState(
            self.left_trace.copy(),
            self.left_flux.copy(),
            self.right_trace.copy(),
            self.right_flux.copy(),
        )


@dataclass(frozen=True)
class ConvergenceHistory:
    """Per-iteration errors against the monolithic solution."""

    errors: tuple[float, ...]
    tolerance: float
    converged: bool
    iterations_to_tolerance: int | None
    max_iter: int


def combined_error(
    monolithic: SpaceTimeField,
    fields,
    decomposition: Decomposition,
) -> float:
    """Max-norm distance between subdomain fields and the monolithic field.

    The maximum runs over every subdomain, every node (interface nodes are
    checked on both owners) and time levels 1..n_steps.
    """
    err = 0.0
    for field, (lo, hi) in zip(fields, decomposition.node_ranges):
        diff = np.abs(field.values[1:] - monolithic.values[1:, lo:hi])
        err = max(err, float(diff.max()))
    return err


def interface_params_for(
    version: str, band: FrequencyBand, local_pair: DiffusionPair
) -> TransmissionParams:
    """Optimized coefficients for one interface from its adjacent diffusion pair."""
    return optimize(version, band, local_pair).params


def interface_diffusion_pairs(
    problem: HeatProblem, decomposition: Decomposition
) -> list[DiffusionPair]:
    """Diffusion pair seen by each interface (left layer, right layer)."""
    return [
        DiffusionPair(
            problem.diffusion.value_at(x - 0.5 * decomposition.global_mesh.dx),
            problem.diffusion.value_at(x + 0.5 * decomposition.global_mesh.dx),
        )
        for x in decomposition.interfaces
    ]


def _initial_state(
    init: str,
    problem: HeatProblem,
    decomposition: Decomposition,
    reference: SpaceTimeField,
) -> list[InterfaceState]:
    n = problem.n_steps
    states = []
    for i, x in enumerate(decomposition.interfaces):
        if init == "zero":
            z = np.zeros(n)
            states.append(InterfaceState(z.copy(), z.copy(), z.copy(), z.copy()))
        elif init == "from_initial":
            u0 = problem.initial_values(decomposition.global_mesh)
            trace = np.full(n, u0[decomposition.interface_nodes[i]])
            states.append(
                InterfaceState(trace.copy(), np.zeros(n), trace.copy(), np.zeros(n))
            )
        elif init == "exact":
            node = decomposition.interface_nodes[i]
            trace = reference.values[1:, node].copy()
            lo_l, hi_l = decomposition.node_ranges[i]
            lo_r, hi_r = decomposition.node_ranges[i + 1]
            left_field = SpaceTimeField(
                decomposition.submeshes[i],
                problem.time_step,
                reference.values[:, lo_l:hi_l],
            )
            right_field = SpaceTimeField(
                decomposition.submeshes[i + 1],
                problem.time_step,
                reference.values[:, lo_r:hi_r],
            )
            left_flux = variational_flux(
                left_field,
                decomposition.submeshes[i],
                problem.diffusion,
                "right",
                problem.source,
                problem.lumped_mass,
            )
            right_flux = variational_flux(
                right_field,
                decomposition.submeshes[i + 1],
                problem.diffusion,
                "left",
                problem.source,
                problem.lumped_mass,
            )
            states.append(
                InterfaceState(trace.copy(), left_flux, trace.copy(), right_flux)
            )
        else:
            raise ValueError(f"init must be one of {INIT_MODES}")
    return states


class _SubdomainResponse:
    """One subdomain's field and Robin-end fluxes as affine maps of its Robin data.

    Backward Euler with a fixed system matrix is linear and time-invariant
    in the Robin series g_R, so the solve with Robin series ``g`` at each
    Robin end equals the solve with zero Robin data (initial value, source,
    Dirichlet ends) plus, per Robin end, the causal convolution of ``g``
    with the response to the unit impulse ``[1, 0, ..., 0]`` at that end.
    Time stepping happens only here, once for the affine part and once per
    Robin end; ``solve`` evaluates the convolutions with FFTs of length
    2 * n_steps, which makes them exact linear (not circular) convolutions.
    """

    def __init__(self, problem: HeatProblem, mesh: Mesh1D, sigmas: dict[str, float]):
        """``sigmas`` maps each Robin end to its coefficient; other ends are Dirichlet."""
        n = problem.n_steps
        self.sides = tuple(side for side in ("left", "right") if side in sigmas)
        self.mesh = mesh
        self.time_step = problem.time_step
        self.n_steps = n
        zero = np.zeros(n)
        impulse = np.zeros(n)
        impulse[0] = 1.0

        def solve_with(prob: HeatProblem, hit: str | None) -> np.ndarray:
            ends = [
                RobinBoundaryData(side, sigmas[side], impulse if side == hit else zero)
                if side in sigmas
                else dirichlet
                for side, dirichlet in (("left", prob.bc_left), ("right", prob.bc_right))
            ]
            field, fluxes = solve_subdomain_robin(prob, mesh, *ends)
            flux_columns = [np.concatenate(([0.0], fluxes[s])) for s in self.sides]
            return np.column_stack([field.values] + flux_columns)

        # Levels 0..n_steps (rows) of every node, then of every Robin-end
        # flux (0 at level 0), as columns.
        self.base = solve_with(problem, None)
        quiet = replace(problem, source=None, initial=0.0, bc_left=0.0, bc_right=0.0)
        self.spectra = [
            np.fft.rfft(solve_with(quiet, side)[1:].T, 2 * n) for side in self.sides
        ]

    def solve(
        self, series: dict[str, np.ndarray]
    ) -> tuple[SpaceTimeField, dict[str, np.ndarray]]:
        """Field and Robin-end fluxes for the Robin series at each Robin end."""
        n = self.n_steps
        g_hat = [np.fft.rfft(series[side], 2 * n) for side in self.sides]
        out = self.base.copy()
        # A few columns at a time keep the complex temporaries small.
        for lo in range(0, out.shape[1], _FFT_BLOCK):
            cols = slice(lo, lo + _FFT_BLOCK)
            acc = self.spectra[0][cols] * g_hat[0]
            for spectrum, g in zip(self.spectra[1:], g_hat[1:]):
                acc += spectrum[cols] * g
            out[1:, cols] += np.fft.irfft(acc, 2 * n)[:, :n].T
        n_nodes = self.mesh.n_nodes
        field = SpaceTimeField(self.mesh, self.time_step, out[:, :n_nodes])
        return field, dict(zip(self.sides, out[1:, n_nodes:].T.copy()))


def oswr_iterate(
    problem: HeatProblem,
    decomposition: Decomposition,
    interface_params,
    tol: float = 1e-8,
    max_iter: int = 1000,
    init: str = "zero",
    sweep: str = "gauss_seidel",
    reference: SpaceTimeField | None = None,
) -> tuple[ConvergenceHistory, SpaceTimeField]:
    """Run the Schwarz waveform-relaxation iteration to tolerance.

    ``interface_params`` holds one TransmissionParams per interface; the
    subdomain left of interface i gets a Robin condition with sigma1 of
    params[i] at its right end, the subdomain on the right gets sigma2 at
    its left end.  The default sweep updates subdomains left to right,
    each using the freshly computed data of its left neighbor
    (Gauss-Seidel); ``jacobi`` makes all subdomains use the previous
    iteration's data.

    Stops once the error against the monolithic solution drops to ``tol``.
    Raises IterationDiverged if the error exceeds 1e6 times the first
    iterate's error; returns converged=False after ``max_iter`` otherwise.
    """
    if init not in INIT_MODES:
        raise ValueError(f"init must be one of {INIT_MODES}")
    if sweep not in SWEEP_MODES:
        raise ValueError(f"sweep must be one of {SWEEP_MODES}")
    params = list(interface_params)
    n_ifaces = len(decomposition.interfaces)
    if len(params) != n_ifaces:
        raise ValueError(f"need {n_ifaces} parameter sets, got {len(params)}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    if reference is None:
        reference = solve_monolithic(problem, decomposition.global_mesh)
    n_sub = decomposition.n_subdomains
    state = _initial_state(init, problem, decomposition, reference)
    responses = []
    for j, mesh_j in enumerate(decomposition.submeshes):
        sigmas = {}
        if j > 0:
            sigmas["left"] = params[j - 1].sigma2
        if j < n_sub - 1:
            sigmas["right"] = params[j].sigma1
        responses.append(_SubdomainResponse(problem, mesh_j, sigmas))

    errors: list[float] = []
    converged = False
    iterations = None

    for k in range(1, max_iter + 1):
        source = state if sweep == "gauss_seidel" else [s.copy() for s in state]
        fields: list[SpaceTimeField] = []
        for j in range(n_sub):
            series = {}
            if j > 0:
                sigma = params[j - 1].sigma2
                nb = source[j - 1] if sweep == "jacobi" else state[j - 1]
                series["left"] = sigma * nb.left_trace - nb.left_flux
            if j < n_sub - 1:
                sigma = params[j].sigma1
                nb = source[j]
                series["right"] = sigma * nb.right_trace - nb.right_flux
            field, fluxes = responses[j].solve(series)
            fields.append(field)
            if j > 0:
                state[j - 1].right_trace = field.values[1:, 0].copy()
                state[j - 1].right_flux = fluxes["left"]
            if j < n_sub - 1:
                state[j].left_trace = field.values[1:, -1].copy()
                state[j].left_flux = fluxes["right"]

        err = combined_error(reference, fields, decomposition)
        errors.append(err)
        if err <= tol:
            converged = True
            iterations = k
            break
        if err > DIVERGENCE_FACTOR * errors[0]:
            raise IterationDiverged(
                f"error {err} exceeds {DIVERGENCE_FACTOR} x first-iterate "
                f"error {errors[0]} at iteration {k}"
            )

    # The spectra are not needed for merging; free them before it allocates.
    del responses
    combined = _combine_fields(fields, decomposition, problem, reference)
    history = ConvergenceHistory(
        tuple(errors), tol, converged, iterations, max_iter
    )
    return history, combined


def _combine_fields(
    fields,
    decomposition: Decomposition,
    problem: HeatProblem,
    reference: SpaceTimeField,
) -> SpaceTimeField:
    """Merge subdomain fields onto the global mesh, averaging interface nodes."""
    values = np.zeros_like(reference.values)
    weight = np.zeros(decomposition.global_mesh.n_nodes)
    for field, (lo, hi) in zip(fields, decomposition.node_ranges):
        values[:, lo:hi] += field.values
        weight[lo:hi] += 1.0
    values /= weight
    values[0] = problem.initial_values(decomposition.global_mesh)
    return SpaceTimeField(decomposition.global_mesh, problem.time_step, values)
