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
responses.  The iteration runs on this error equation: its state is the
Robin-data error g - g*, subdomain j yields its deviation
d_j = H_j (g - g*), and the exchange keeps its form,

    (g - g*)_out = (sigma + sigma') * d_j,interface - (g - g*)_in.

The monolithic reference u_ref is only the yardstick and the base of the
merged field.  A case steps nothing in time: the impulse responses come
from ``fem.robin_impulse_responses``, which powers each subdomain's
one-step propagator by doubling, and an iteration is one FFT convolution
per subdomain.  The exact discrete fixed point of the iteration is the
monolithic solution, so the per-iteration error

    e_k = max over subdomains, nodes and time levels of |d_j|

is the natural convergence measure and is what the driver records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import (
    HeatProblem,
    Mesh1D,
    SpaceTimeField,
    robin_impulse_responses,
    solve_monolithic,
    # Not called here: perfbench's tracer test wraps it through this module.
    solve_subdomain_robin,  # noqa: F401
    variational_flux,
)
from .frequency import DiffusionPair, TransmissionParams

__all__ = [
    "IterationDiverged",
    "Decomposition",
    "ConvergenceHistory",
    "decompose",
    "combined_error",
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


def combined_error(deviations) -> float:
    """Max-norm distance between the subdomain fields and the monolithic field.

    ``deviations`` holds each subdomain's field minus the monolithic field
    on its nodes, at time levels 1..n_steps, so interface nodes are
    checked on both owners.  A nan or inf entry gives a nan or inf result.
    """
    return float(np.max([np.abs(dev).max() for dev in deviations]))


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


def _initial_robin_error(
    init: str,
    problem: HeatProblem,
    decomposition: Decomposition,
    params: list[TransmissionParams],
    reference: SpaceTimeField,
) -> list[np.ndarray]:
    """First Robin-data error g - g*, two series per interface.

    Entry 2i goes into the right end of subdomain i (coefficient sigma1 of
    interface i), entry 2i + 1 into the left end of subdomain i + 1
    (sigma2).  Robin data are sigma * u + outward flux; the first guess
    takes u as 0 (``zero``) or as u0 at the interface node
    (``from_initial``) and the flux as 0, the exact data g* take both
    from the monolithic solution.  ``exact`` starts with no error.
    """
    if init == "exact":
        return [np.zeros(problem.n_steps) for _ in range(2 * len(params))]
    u0 = problem.initial_values(decomposition.global_mesh)
    delta = []
    for i, (p, node) in enumerate(zip(params, decomposition.interface_nodes)):
        guess = u0[node] if init == "from_initial" else 0.0
        miss = guess - reference.values[1:, node]
        lo, hi = decomposition.node_ranges[i]
        mesh = decomposition.submeshes[i]
        # Outward flux of the left subdomain; the right one's is its
        # negative, as the global interface row sums the two boundary rows.
        flux = variational_flux(
            SpaceTimeField(mesh, problem.time_step, reference.values[:, lo:hi]),
            problem.diffusion,
            "right",
            problem.source,
            problem.lumped_mass,
        )
        delta += [p.sigma1 * miss - flux, p.sigma2 * miss + flux]
    return delta


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
    """The linear part H_j of one subdomain solve: Robin data to field.

    Backward Euler with a fixed system matrix is linear and time-invariant
    in the Robin series.  So two solves whose Robin data differ by a series
    ``e`` at each Robin end differ by H_j e: per Robin end, the causal
    convolution of ``e`` with the response to the unit impulse
    ``[1, 0, ..., 0]`` at that end.  ``oswr_iterate`` applies it to the
    Robin-data error g - g*, which gives the subdomain's deviation from
    the monolithic reference.  The impulse responses come from
    ``fem.robin_impulse_responses`` (one assembly and one propagator for
    all Robin ends of the subdomain, no time loop); the convolutions are
    evaluated with FFTs of length 2 * n_steps, which makes them exact
    linear (not circular) convolutions.
    """

    def __init__(self, problem: HeatProblem, mesh: Mesh1D, sigmas: dict[str, float]):
        """``sigmas`` maps each Robin end to its coefficient; other ends are Dirichlet."""
        responses = robin_impulse_responses(problem, mesh, sigmas)
        self.sides = tuple(responses)
        self.n_steps = problem.n_steps
        self.spectra = [
            np.fft.rfft(h.T, 2 * self.n_steps) for h in responses.values()
        ]

    def __call__(self, series: dict[str, np.ndarray]) -> np.ndarray:
        """H_j applied to a series per Robin end: levels 1..n_steps (rows) by node."""
        n = self.n_steps
        g_hat = [np.fft.rfft(series[side], 2 * n) for side in self.sides]
        n_nodes = self.spectra[0].shape[0]
        out = np.empty((n, n_nodes))
        # A few columns at a time keep the complex temporaries small.
        for lo in range(0, n_nodes, _FFT_BLOCK):
            cols = slice(lo, lo + _FFT_BLOCK)
            acc = self.spectra[0][cols] * g_hat[0]
            for spectrum, g in zip(self.spectra[1:], g_hat[1:]):
                acc += spectrum[cols] * g
            out[:, cols] = np.fft.irfft(acc, 2 * n)[:, :n].T
        return out


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

    The iterated state is the Robin-data error g - g*, and subdomain j
    yields its deviation H_j (g - g*) from the monolithic solution.
    ``reference`` is that solution of ``problem`` (solved here when
    None); it is the error's yardstick and the base of the merged field,
    so it must be that solution.

    Stops once the error against the monolithic solution drops to ``tol``.
    Raises IterationDiverged if the error exceeds 1e6 times the first
    iterate's error, ValueError if an iterate is not finite; returns
    converged=False after ``max_iter`` otherwise.
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
    delta = _initial_robin_error(init, problem, decomposition, params, reference)
    sigma_sums = [p.sigma1 + p.sigma2 for p in params]
    sigmas = [s for p in params for s in (p.sigma1, p.sigma2)]
    responses = [
        _SubdomainResponse(problem, mesh_j, _at_robin_ends(j, n_sub, sigmas))
        for j, mesh_j in enumerate(decomposition.submeshes)
    ]

    errors: list[float] = []
    converged = False
    iterations = None

    for k in range(1, max_iter + 1):
        # Subdomain j reads entries 2j - 1 (left end) and 2j (right end) and
        # writes its neighbors' entries 2j - 2 and 2j + 1.
        data = delta if sweep == "gauss_seidel" else list(delta)
        deviations: list[np.ndarray] = []
        for j, response in enumerate(responses):
            series = _at_robin_ends(j, n_sub, data)
            dev = response(series)
            deviations.append(dev)
            if j > 0:
                delta[2 * j - 2] = sigma_sums[j - 1] * dev[:, 0] - series["left"]
            if j < n_sub - 1:
                delta[2 * j + 1] = sigma_sums[j] * dev[:, -1] - series["right"]

        err = combined_error(deviations)
        if not math.isfinite(err):
            raise ValueError(f"iterate {k} is not finite")
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
    combined = _combine_fields(deviations, decomposition, reference)
    history = ConvergenceHistory(
        tuple(errors), tol, converged, iterations, max_iter
    )
    return history, combined


def _combine_fields(
    deviations, decomposition: Decomposition, reference: SpaceTimeField
) -> SpaceTimeField:
    """The reference plus the subdomain deviations, averaged at interface nodes."""
    total = np.zeros_like(reference.values[1:])
    weight = np.zeros(decomposition.global_mesh.n_nodes)
    for dev, (lo, hi) in zip(deviations, decomposition.node_ranges):
        total[:, lo:hi] += dev
        weight[lo:hi] += 1.0
    values = reference.values.copy()
    values[1:] += total / weight
    return SpaceTimeField(reference.mesh, reference.time_step, values)
