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

The monolithic reference u_ref is only the yardstick, and the base of
the merged field, which is formed only on request.  A case steps nothing
in time: the impulse responses come from ``fem.robin_impulse_responses``,
which powers each subdomain's one-step propagator by doubling, and an
iteration is one FFT convolution per subdomain.  The exact discrete fixed
point of the iteration is the monolithic solution, so the per-iteration
error

    e_k = max over subdomains, nodes and time levels of |d_j|

is the natural convergence measure and is what the driver records.  It
is computed from the interface rows of each d_j, which the exchange
needs, and the other rows whose spectral bound (``_SubdomainResponse``)
reaches the largest value found so far; the rows skipped cannot change
the maximum, so e_k is that of the whole field bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fem import (
    HeatProblem,
    Mesh1D,
    NonFiniteSolution,
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
# A row is skipped only when its bound times this margin is below the
# largest deviation already found.  The margin covers the rounding of the
# bound (a sum of n_steps + 1 positive terms: at worst (n_steps + 1) eps
# relative) and of the inverse FFT (at worst of order log2(L) sqrt(L) eps
# relative to the bound, L = 2 n_steps): together below 1e-12 for
# n_steps <= 800 and below 2e-10 for n_steps = 1e6.
_BOUND_MARGIN = 1.0 + 2.0**-30


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
        submeshes.append(Mesh1D(global_mesh.nodes[lo : hi + 1]))
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
    """Per-iteration errors against the monolithic solution.

    ``iterations_to_tolerance`` is None if ``max_iter`` iterations did not
    reach ``tolerance``; the run converged exactly when it is set.
    """

    errors: tuple[float, ...]
    tolerance: float
    iterations_to_tolerance: int | None
    max_iter: int

    @property
    def converged(self) -> bool:
        return self.iterations_to_tolerance is not None


def combined_error(deviations) -> float:
    """Max-norm distance between the subdomain fields and the monolithic field.

    ``deviations`` holds arrays of subdomain field minus monolithic field
    at time levels 1..n_steps: each subdomain's whole deviation, or, as
    ``oswr_iterate`` passes them, the rows of it that can hold the
    maximum, interface nodes on both owners.  A nan or inf entry gives a
    nan or inf result.
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
) -> np.ndarray:
    """First Robin-data error g - g*: two rows per interface, levels 1..n_steps.

    Row 2i goes into the right end of subdomain i (coefficient sigma1 of
    interface i), row 2i + 1 into the left end of subdomain i + 1
    (sigma2).  Robin data are sigma * u + outward flux; the first guess
    takes u as 0 (``zero``) or as u0 at the interface node
    (``from_initial``) and the flux as 0, the exact data g* take both
    from the monolithic solution.  ``exact`` starts with no error.
    """
    delta = np.zeros((2 * len(params), problem.n_steps))
    if init == "exact":
        return delta
    u0 = problem.initial_values(decomposition.global_mesh)
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
        delta[2 * i] = p.sigma1 * miss - flux
        delta[2 * i + 1] = p.sigma2 * miss + flux
    return delta


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
    linear (not circular) convolutions: one rfft of the Robin series
    (``transform``) and one irfft per node asked for (``rows``).
    ``spectra[r, i]`` is the DFT of node i's response to an impulse at
    Robin end r, left end first.

    ``bound`` gives, for every node i, B_i = sum_r sum_theta c_theta
    |spectra[r, i, theta]| |g_hat[r, theta]| / (2 n_steps), with c_theta
    = 1 at theta = 0 and n_steps and 2 otherwise.  The inverse real DFT
    of length 2 n_steps is a c_theta-weighted sum of the spectrum over its
    n_steps + 1 bins, divided by 2 n_steps, so B_i >= max_t |d_i[t]|.
    """

    def __init__(self, problem: HeatProblem, mesh: Mesh1D, sigmas: dict[str, float]):
        """``sigmas`` maps each Robin end to its coefficient; other ends are Dirichlet."""
        responses = robin_impulse_responses(problem, mesh, sigmas)
        self.n_steps = n = problem.n_steps
        self.spectra = np.fft.rfft(np.stack([h.T for h in responses.values()]), 2 * n)
        bins = np.full(n + 1, 1.0 / n)
        bins[[0, -1]] = 0.5 / n
        self._weights = np.abs(self.spectra) * bins
        # The Robin-end nodes, left end first: the rows the exchange reads.
        last = mesh.n_nodes - 1
        self.interface_rows = [i for side, i in (("left", 0), ("right", last)) if side in sigmas]

    def transform(self, series: np.ndarray) -> np.ndarray:
        """Spectrum of one series per Robin end (rows, left end first)."""
        return np.fft.rfft(series, 2 * self.n_steps)

    def bound(self, g_hat: np.ndarray) -> np.ndarray:
        """Per node, B_i >= max_t |d_i[t]| for the spectrum ``g_hat`` (class doc)."""
        return np.einsum("rit,rt->i", self._weights, np.abs(g_hat))

    def rows(self, g_hat: np.ndarray, nodes=slice(None)) -> np.ndarray:
        """H_j applied to the spectrum ``g_hat``, at ``nodes`` (rows) by levels 1..n_steps.

        Each node's row is its own inverse transform, so a row does not
        depend on which other nodes are asked for.
        """
        n = self.n_steps
        spectra = self.spectra[:, nodes]
        acc = spectra[0] * g_hat[0]
        for spectrum, g in zip(spectra[1:], g_hat[1:]):
            acc += spectrum * g
        return np.fft.irfft(acc, 2 * n)[:, :n]


def oswr_iterate(
    problem: HeatProblem,
    decomposition: Decomposition,
    interface_params,
    tol: float = 1e-8,
    max_iter: int = 1000,
    init: str = "zero",
    sweep: str = "gauss_seidel",
    reference: SpaceTimeField | None = None,
) -> tuple[ConvergenceHistory, Callable[[], SpaceTimeField]]:
    """Run the Schwarz waveform-relaxation iteration to tolerance.

    Returns the error history and a function of no arguments that forms
    the merged field of the last iterate: the monolithic solution plus each
    subdomain's deviation, averaged at the interface nodes.

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

    Each application inverse-transforms the deviation's interface rows
    and those other rows whose bound reaches the largest value found so
    far in the iteration; a row whose bound is not finite is never
    skipped.  numpy's ``irfft`` of a subset of rows equals those rows of
    the whole batch, so the interface values and the error are those of
    the whole field bit for bit.  Only the merge function transforms whole
    deviations, from each subdomain's last spectrum, and only when called;
    it keeps those spectra alive as long as it lives.

    Stops once the error against the monolithic solution drops to ``tol``.
    Raises IterationDiverged if the error exceeds 1e6 times the first
    iterate's error, NonFiniteSolution if an iterate is not finite; otherwise
    returns after ``max_iter`` with a history that has not converged.
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
    # Subdomain j's Robin ends are rows 2j - 1 (left) and 2j (right) of the
    # error; the first subdomain has no left end and the last no right end,
    # so zipping the side names with its rows pairs each with its own.
    ends = [slice(max(2 * j - 1, 0), min(2 * j + 1, len(sigmas))) for j in range(n_sub)]
    responses = [
        _SubdomainResponse(problem, mesh, dict(zip(("left", "right")[j == 0 :], sigmas[rows])))
        for j, (mesh, rows) in enumerate(zip(decomposition.submeshes, ends))
    ]

    errors: list[float] = []
    iterations = None
    # Each subdomain's last series spectrum, for the merge.
    g_hats: list[np.ndarray] = [np.empty(0)] * n_sub

    for k in range(1, max_iter + 1):
        # Subdomain j reads its own rows and writes its neighbors' rows
        # 2j - 2 and 2j + 1.
        data = delta if sweep == "gauss_seidel" else delta.copy()
        # The rows that can hold the error: every interface row, and every
        # other row whose bound reaches the largest value found so far.
        candidates: list[np.ndarray] = []
        peak = 0.0
        for j, (response, rows) in enumerate(zip(responses, ends)):
            series = data[rows]
            g_hat = g_hats[j] = response.transform(series)
            ends_dev = response.rows(g_hat, response.interface_rows)
            peak = max(peak, np.abs(ends_dev).max())
            candidates.append(ends_dev)
            reach = ~(_BOUND_MARGIN * response.bound(g_hat) < peak)
            reach[response.interface_rows] = False
            inner = np.flatnonzero(reach)
            if inner.size:
                candidates.append(response.rows(g_hat, inner))
                peak = max(peak, np.abs(candidates[-1]).max())
            if j > 0:
                delta[2 * j - 2] = sigma_sums[j - 1] * ends_dev[0] - series[0]
            if j < n_sub - 1:
                delta[2 * j + 1] = sigma_sums[j] * ends_dev[-1] - series[-1]

        err = combined_error(candidates)
        if not math.isfinite(err):
            raise NonFiniteSolution(f"iterate {k} is not finite")
        errors.append(err)
        if err <= tol:
            iterations = k
            break
        if err > DIVERGENCE_FACTOR * errors[0]:
            raise IterationDiverged(
                f"error {err} exceeds {DIVERGENCE_FACTOR} x first-iterate "
                f"error {errors[0]} at iteration {k}"
            )

    for response in responses:
        del response._weights  # the merge keeps the responses; it reads only their spectra
    history = ConvergenceHistory(tuple(errors), tol, iterations, max_iter)
    return history, functools.partial(_combine_fields, responses, g_hats, decomposition, reference)


def _combine_fields(
    responses, g_hats, decomposition: Decomposition, reference: SpaceTimeField
) -> SpaceTimeField:
    """The reference plus each subdomain's deviation, averaged at interface nodes.

    Subdomain j's deviation is ``responses[j]`` applied to its spectrum
    ``g_hats[j]``, transformed in whole here and nowhere else.
    """
    total = np.zeros_like(reference.values[1:])
    weight = np.zeros(decomposition.global_mesh.n_nodes)
    for response, g_hat, (lo, hi) in zip(responses, g_hats, decomposition.node_ranges):
        total[:, lo:hi] += response.rows(g_hat).T
        weight[lo:hi] += 1.0
    values = reference.values.copy()
    values[1:] += total / weight
    return SpaceTimeField(reference.mesh, reference.time_step, values)
