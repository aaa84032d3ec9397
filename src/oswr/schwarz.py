"""Waveform-relaxation driver over a nonoverlapping domain split.

Each iteration solves every space-time subdomain over the whole window
(0, T) and exchanges Robin data across each interface.  A subdomain
given the series g_in at an end with coefficient sigma has the outward
flux g_in - sigma * u there, so its neighbor, whose Robin coefficient is
sigma', receives

    g_out = (sigma + sigma') * u_interface - g_in,

read from the interface value of the field alone; no flux is recovered
or stored.  A subdomain solve is affine and time-invariant in its Robin
data, and the monolithic solution restricted to subdomain j is that
solve with the exact Robin data g*.  So every subdomain field is

    u_j(g) = u_ref|_j + H_j (g - g*),

where H_j convolves a series with the subdomain's Robin impulse
responses.  The only time stepping per case is one impulse-response
solve per Robin end; the affine part comes from the monolithic
reference, and an iteration rebuilds each subdomain field by FFT
convolution.  The exact discrete fixed point of the iteration is the
monolithic solution, so the per-iteration error

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


def _exact_robin_data(
    problem: HeatProblem,
    decomposition: Decomposition,
    params: list[TransmissionParams],
    reference: SpaceTimeField,
) -> list[np.ndarray]:
    """Exact Robin series g* at both sides of every interface, two per interface.

    Entry 2i goes into the right end of subdomain i (coefficient sigma1 of
    interface i), entry 2i + 1 into the left end of subdomain i + 1
    (sigma2).  Each is sigma * u + outward flux of its subdomain, both
    taken from the monolithic solution: the data with which a subdomain
    solve reproduces that solution.
    """
    robin = []
    for i, (p, node) in enumerate(zip(params, decomposition.interface_nodes)):
        trace = reference.values[1:, node]
        lo, hi = decomposition.node_ranges[i]
        mesh = decomposition.submeshes[i]
        # Outward flux of the left subdomain; the right one's is its
        # negative, as the global interface row sums the two boundary rows.
        flux = variational_flux(
            SpaceTimeField(mesh, problem.time_step, reference.values[:, lo:hi]),
            mesh,
            problem.diffusion,
            "right",
            problem.source,
            problem.lumped_mass,
        )
        robin += [p.sigma1 * trace + flux, p.sigma2 * trace - flux]
    return robin


def _initial_robin_data(
    init: str,
    problem: HeatProblem,
    decomposition: Decomposition,
    params: list[TransmissionParams],
    exact: list[np.ndarray],
) -> list[np.ndarray]:
    """First Robin series, laid out like ``exact`` (see ``_exact_robin_data``).

    Each is sigma * u + outward flux, with u and the flux guessed as 0
    (``zero``) or as u0 at the interface node and 0 (``from_initial``);
    ``exact`` starts from the exact data.
    """
    if init == "exact":
        return list(exact)
    u0 = problem.initial_values(decomposition.global_mesh)
    robin = []
    for p, node in zip(params, decomposition.interface_nodes):
        trace = np.full(problem.n_steps, u0[node] if init == "from_initial" else 0.0)
        robin += [p.sigma1 * trace, p.sigma2 * trace]
    return robin


def _at_robin_ends(j: int, n_sub: int, per_side: list) -> dict:
    """Subdomain j's entries of a list with two per interface, by Robin end.

    The list is laid out like the Robin data: entries 2j - 1 (left end)
    and 2j (right end).
    """
    ends = {}
    if j > 0:
        ends["left"] = per_side[2 * j - 1]
    if j < n_sub - 1:
        ends["right"] = per_side[2 * j]
    return ends


class _SubdomainResponse:
    """One subdomain's field as an affine map of its Robin data.

    Backward Euler with a fixed system matrix is linear and time-invariant
    in the Robin series g_R.  So the solve with Robin series ``g`` at each
    Robin end equals any one known solve of the same map, the *anchor*
    with its series g_a, plus, per Robin end, the causal convolution of
    ``g - g_a`` with the response to the unit impulse ``[1, 0, ..., 0]``
    at that end.  ``oswr_iterate`` anchors every subdomain at the
    monolithic reference and the exact data g*, so the affine part is
    never stepped.  Time stepping happens only here, once per Robin end
    for the impulse response; the convolutions are evaluated with FFTs of
    length 2 * n_steps, which makes them exact linear (not circular)
    convolutions.
    """

    def __init__(
        self,
        problem: HeatProblem,
        mesh: Mesh1D,
        sigmas: dict[str, float],
        anchor: np.ndarray,
        anchor_series: dict[str, np.ndarray],
    ):
        """``sigmas`` maps each Robin end to its coefficient; other ends are Dirichlet.

        ``anchor`` holds levels 0..n_steps (rows) of every node (columns)
        of the solve with the Robin series ``anchor_series``, keyed like
        ``sigmas``.
        """
        n = problem.n_steps
        self.sides = tuple(side for side in ("left", "right") if side in sigmas)
        self.mesh = mesh
        self.time_step = problem.time_step
        self.n_steps = n
        zero = np.zeros(n)
        impulse = np.zeros(n)
        impulse[0] = 1.0
        quiet = replace(problem, source=None, initial=0.0, bc_left=0.0, bc_right=0.0)

        def impulse_response(hit: str) -> np.ndarray:
            ends = [
                RobinBoundaryData(side, sigmas[side], impulse if side == hit else zero)
                if side in sigmas
                else 0.0
                for side in ("left", "right")
            ]
            return solve_subdomain_robin(quiet, mesh, *ends).values[1:]

        self.spectra = [
            np.fft.rfft(impulse_response(side).T, 2 * n) for side in self.sides
        ]
        # The field for zero Robin data: the anchor minus its data's response.
        self.base = np.array(anchor, dtype=float)
        self._superpose(self.base, {side: -g for side, g in anchor_series.items()})

    def _superpose(self, out: np.ndarray, series: dict[str, np.ndarray]) -> None:
        """Add to levels 1..n_steps of ``out`` the response to ``series``."""
        n = self.n_steps
        g_hat = [np.fft.rfft(series[side], 2 * n) for side in self.sides]
        # A few columns at a time keep the complex temporaries small.
        for lo in range(0, out.shape[1], _FFT_BLOCK):
            cols = slice(lo, lo + _FFT_BLOCK)
            acc = self.spectra[0][cols] * g_hat[0]
            for spectrum, g in zip(self.spectra[1:], g_hat[1:]):
                acc += spectrum[cols] * g
            out[1:, cols] += np.fft.irfft(acc, 2 * n)[:, :n].T

    def solve(self, series: dict[str, np.ndarray]) -> SpaceTimeField:
        """Field for the Robin series at each Robin end."""
        out = self.base.copy()
        self._superpose(out, series)
        return SpaceTimeField(self.mesh, self.time_step, out)


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

    ``reference`` is the monolithic solution of ``problem`` (solved here
    when None).  Besides being the error's yardstick, it gives every
    subdomain field its affine part, so it must be that solution.

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
    exact = _exact_robin_data(problem, decomposition, params, reference)
    robin = _initial_robin_data(init, problem, decomposition, params, exact)
    sigma_sums = [p.sigma1 + p.sigma2 for p in params]
    sigmas = [s for p in params for s in (p.sigma1, p.sigma2)]
    responses = [
        _SubdomainResponse(
            problem,
            mesh_j,
            _at_robin_ends(j, n_sub, sigmas),
            reference.values[:, lo:hi],
            _at_robin_ends(j, n_sub, exact),
        )
        for j, (mesh_j, (lo, hi)) in enumerate(
            zip(decomposition.submeshes, decomposition.node_ranges)
        )
    ]

    errors: list[float] = []
    converged = False
    iterations = None

    for k in range(1, max_iter + 1):
        # Subdomain j reads entries 2j - 1 (left end) and 2j (right end) and
        # writes its neighbors' entries 2j - 2 and 2j + 1.
        data = robin if sweep == "gauss_seidel" else list(robin)
        fields: list[SpaceTimeField] = []
        for j, response in enumerate(responses):
            series = _at_robin_ends(j, n_sub, data)
            field = response.solve(series)
            fields.append(field)
            if j > 0:
                robin[2 * j - 2] = sigma_sums[j - 1] * field.values[1:, 0] - series["left"]
            if j < n_sub - 1:
                robin[2 * j + 1] = sigma_sums[j] * field.values[1:, -1] - series["right"]

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
