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

One sweep is therefore a linear map e -> T e on the error alone, and it
is causal and time-invariant.  So every interface row a sweep forms is a
sum of causal convolutions of the rows of the error that the next sweep
reads (the state: the even rows under Gauss-Seidel, whose odd rows are
overwritten before they are read, every row under Jacobi).  ``_Sweep``
holds the map in that form.  It owns the layout of the error, two rows
per interface, and builds each subdomain's interface-row kernels once
per case on the error rows it depends on, under Gauss-Seidel subdomain
by subdomain from the left, each from its left neighbor's; an iteration
is then one FFT of the state and one inverse FFT of every interface row,
however many subdomains there are, and under Gauss-Seidel one FFT of the
odd rows the sweep wrote.  Every other row of d_j comes from the
subdomain's own impulse responses and its own two rows of the error the
sweep read.  ``oswr_iterate`` is the fixed-point loop over that map,
with the stop rule and the divergence check.

The monolithic reference u_ref is only the yardstick, and the base of
the merged field, which is formed only on request.  A case steps nothing
in time: the impulse responses come from ``fem.robin_impulse_responses``,
which powers each subdomain's one-step propagator by doubling.  The
exact discrete fixed point of the iteration is the monolithic solution,
so the per-iteration error

    e_k = max over subdomains, nodes and time levels of |d_j|

is the natural convergence measure and is what the driver records.  It
is evaluated after the sweep, from every interface row of every d_j,
which the iteration has already formed, and the other rows whose spectral
bound (``_SubdomainResponse.bound``) reaches the largest value found so
far; the rows skipped cannot change the maximum, so e_k is that of the
whole field bit for bit.
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
        submeshes.append(Mesh1D(global_mesh.nodes[lo], global_mesh.nodes[hi], hi - lo))
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


def _series_product(kernels, g_hat, n_steps):
    """Sum over inputs s of k_s * g_s mod z^n_steps, from their spectra.

    ``kernels`` is indexed [input, row, bin] and ``g_hat`` [..., input,
    bin]: the rfft of length 2 n_steps of causal series of n_steps terms.
    Their product has 2 n_steps - 1 terms, so that length makes it a
    linear, not a circular, convolution; the terms from n_steps on are
    cut off.  Returns [..., row, level] for levels 1..n_steps.  The sum is
    accumulated input by input, so a row does not depend on which other
    rows are asked for.
    """
    acc = kernels[0] * g_hat[..., 0, None, :]
    for s in range(1, len(kernels)):
        acc += kernels[s] * g_hat[..., s, None, :]
    return np.fft.irfft(acc, 2 * n_steps)[..., :n_steps]


class _SubdomainResponse:
    """The linear part H_j of one subdomain solve, as causal kernels on its inputs.

    Backward Euler with a fixed system matrix is linear and time-invariant
    in the Robin series.  So two solves whose data differ by series x_s
    in their inputs differ, at node i, by sum_s k_is * x_s mod z^n_steps,
    with k_is the response of node i to the unit impulse ``[1, 0, ...,
    0]`` in input s.  ``spectra[s, i]`` is the rfft of length 2 n_steps of
    k_is (``_series_product``).  The inputs are the subdomain's Robin
    ends, left first, and the kernels come from
    ``fem.robin_impulse_responses`` as one array indexed [Robin end, node,
    level] (one assembly and one propagator for all Robin ends of the
    subdomain, no time loop).  Applied to the subdomain's rows of the
    Robin-data error g - g*, it gives the subdomain's deviation from the
    monolithic reference: one irfft per node asked for (``rows``) of the
    input spectra.  The subdomain's ends are the pair
    (sigma_left, sigma_right), None at a Dirichlet end; its interface rows
    are its Robin-end nodes.

    ``bound`` gives, for every inner node i (not an interface row),
    B_i = sum_s sum_theta c_theta |spectra[s, i, theta]| |x_hat[s, theta]|
    / (2 n_steps), with c_theta = 1 at theta = 0 and n_steps and 2
    otherwise.  The inverse real DFT of length 2 n_steps is a
    c_theta-weighted sum of the spectrum over its n_steps + 1 bins,
    divided by 2 n_steps, so B_i >= max_t |d_i[t]|.  Its weights are
    formed on the first call.
    """

    def __init__(self, problem: HeatProblem, mesh: Mesh1D, ends):
        """``ends`` is (sigma_left, sigma_right), None at a Dirichlet end."""
        self.n_steps = n = problem.n_steps
        self.spectra = np.fft.rfft(robin_impulse_responses(problem, mesh, ends), 2 * n)
        # The Robin-end nodes, left end first: the rows the exchange reads.
        self.interface_rows = [i for i, s in zip((0, mesh.n_nodes - 1), ends) if s is not None]
        self.inner_rows = slice(ends[0] is not None, mesh.n_nodes - (ends[1] is not None))

    def rows(self, g_hat: np.ndarray, nodes=slice(None)) -> np.ndarray:
        """H_j applied to the input spectrum ``g_hat``, at ``nodes`` by levels 1..n_steps.

        ``g_hat`` is indexed [..., input, bin]; each node's row is its own
        inverse transform, so a row does not depend on which other nodes
        are asked for.
        """
        return _series_product(self.spectra[:, nodes], g_hat, self.n_steps)

    @functools.cached_property
    def _weights(self) -> np.ndarray:
        weights = np.abs(self.spectra[:, self.inner_rows])
        weights *= np.full(self.n_steps + 1, 1.0 / self.n_steps)
        weights[..., [0, -1]] *= 0.5
        return weights

    def bound(self, abs_g_hat: np.ndarray) -> np.ndarray:
        """Per inner node, B_i >= max_t |d_i[t]| for the input spectra's moduli (class doc)."""
        return np.einsum("sit,st->i", self._weights, abs_g_hat)


class _Sweep:
    """One sweep of the iteration, the linear map T on the Robin-data error, in kernel form.

    The error g - g* has two rows per interface, levels 1..n_steps.  Row
    2i goes into the right end of subdomain i, with coefficient sigma1 of
    interface i; row 2i + 1 into the left end of subdomain i + 1, with
    sigma2.  So subdomain j reads rows 2j - 1 and 2j, and the exchange
    turns its deviation at the end fed by row r into row r ^ 1 (r xor 1),
    the other side of interface r // 2.  The Gauss-Seidel sweep runs the
    subdomains left to right, each reading the left row its left neighbor
    has just written; the Jacobi sweep reads the previous error only.

    The map is held as causal kernels on its state, the rows of the error
    that the next sweep reads from this one (``state_rows``): the even rows
    under Gauss-Seidel, whose odd rows are written before they are read,
    and every row under Jacobi.  Only the interface rows need kernels on
    the state: the exchange reads nothing else.  ``kernels[j]`` is (k,
    rows): subdomain j's interface-row kernels k, indexed [error row,
    interface row, bin], on the error rows ``rows`` they act on.  Under
    Jacobi those are its own rows ``windows[j]`` (2j - 1 and 2j) and its
    kernels are its own spectra at its interface rows.  Under Gauss-Seidel
    subdomain j depends on the even rows 0, 2, ..., 2j, and its kernels on
    them are built left to right, each from its left neighbor's.  For a
    unit impulse ``[1, 0, ..., 0]`` in row 2s, its left end receives row
    2j - 1, the exchange of its left neighbor's right end: sums[2j - 2]
    times that neighbor's right-end kernel on 2s, less the impulse itself
    when s = j - 1; its right end, if it has one, receives row 2j, the
    impulse itself when s = j.  The neighbor's kernel is a series of
    n_steps terms already, so this is the sweep's own arithmetic on one
    impulse per even row.

    ``apply`` writes the state's spectrum into its rows of the error's
    spectrum, sums each subdomain's kernel products over its rows into
    its interface rows, which are its error rows ``windows[j]`` (row r is
    the deviation at the end that error row r feeds), and forms the next state from those
    rows by the exchange.  Every other row of subdomain j comes from its
    own spectra and the spectrum of its own error rows ``windows[j]``, as
    the sweep read them: ``error`` adds the inner rows whose bound reaches
    the running peak, and the merged field transforms them all.
    """

    def __init__(self, problem: HeatProblem, decomposition: Decomposition, params, sweep: str):
        self.problem, self.decomposition = problem, decomposition
        self.n_steps = n = problem.n_steps
        self.gauss_seidel = sweep == "gauss_seidel"
        self.sigmas = np.array([s for p in params for s in (p.sigma1, p.sigma2)])
        n_rows = len(self.sigmas)
        # Rows r and r ^ 1 are the two sides of interface r // 2.
        self.exchange = np.arange(n_rows) ^ 1
        self.sums = (self.sigmas + self.sigmas[self.exchange])[:, None]
        # Subdomain j's (left, right) coefficients, from rows 2j - 1 and 2j;
        # the outer ends of the first and last subdomains are Dirichlet.
        padded = [None, *self.sigmas.tolist(), None]
        self.responses = [
            _SubdomainResponse(problem, mesh, ends)
            for mesh, ends in zip(decomposition.submeshes, zip(padded[::2], padded[1::2]))
        ]
        # Subdomain j's error rows: those its Robin ends read, left end first.
        self.windows = [
            slice(max(2 * j - 1, 0), min(2 * j + 1, n_rows)) for j in range(len(self.responses))
        ]
        # Each subdomain's interface-row kernels, with the error rows they act on.
        kernels = [r.spectra[:, r.interface_rows] for r in self.responses]
        self.state_rows = slice(None, None, 2 if self.gauss_seidel else 1)
        reads = self.windows
        if self.gauss_seidel:
            reads = [slice(0, 2 * j + 1, 2) for j in range(len(kernels))]
            for j, response in enumerate(self.responses[1:], 1):
                # What subdomain j's ends receive for an impulse in each error row 0, 2, ..., 2j.
                shape = (min(j + 1, n_rows // 2), len(response.interface_rows), n + 1)
                g_hat = np.zeros(shape, dtype=complex)
                g_hat[:j, 0] = self.sums[2 * j - 2] * kernels[j - 1][:, -1]
                g_hat[j - 1, 0] -= 1.0
                g_hat[j:, 1:] = 1.0  # error row 2j; the last subdomain has none
                kernels[j] = np.fft.rfft(response.rows(g_hat, response.interface_rows), 2 * n)
        self.kernels = list(zip(kernels, reads))

    def initial(self, init: str, reference: SpaceTimeField) -> np.ndarray:
        """The first state: the rows ``state_rows`` of the first error g - g*.

        Robin data are sigma * u + outward flux; the first guess takes u as
        0 (``zero``) or as u0 at the interface node (``from_initial``) and
        the flux as 0, the exact data g* take both from the monolithic
        solution.  ``exact`` starts with no error.
        """
        problem, deco = self.problem, self.decomposition
        delta = np.zeros((len(self.sigmas), problem.n_steps))
        if init == "exact":
            return delta[self.state_rows]
        u0 = problem.initial_values(deco.global_mesh)
        for i, node in enumerate(deco.interface_nodes):
            guess = u0[node] if init == "from_initial" else 0.0
            miss = guess - reference.values[1:, node]
            lo, hi = deco.node_ranges[i]
            # Outward flux of the left subdomain; the right one's is its
            # negative, as the global interface row sums the two boundary rows.
            flux = variational_flux(
                SpaceTimeField(deco.submeshes[i], problem.time_step, reference.values[:, lo:hi]),
                problem.diffusion,
                "right",
                problem.source,
                problem.lumped_mass,
            )
            delta[2 * i] = self.sigmas[2 * i] * miss - flux
            delta[2 * i + 1] = self.sigmas[2 * i + 1] * miss + flux
        return delta[self.state_rows]

    def apply(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next state, the spectrum of the error the sweep read and every interface row.

        The error the sweep read is the state in its rows ``state_rows``;
        under Gauss-Seidel its odd rows are those the sweep wrote.  Both
        arrays are indexed like the error.
        """
        n = self.n_steps
        e_hat = np.empty((len(self.sums), n + 1), dtype=complex)
        np.fft.rfft(state, 2 * n, out=e_hat[self.state_rows])
        ends_hat = np.empty_like(e_hat)
        for (k, rows), window in zip(self.kernels, self.windows):
            (k * e_hat[rows, None]).sum(0, out=ends_hat[window])
        devs = np.fft.irfft(ends_hat, 2 * n)[:, :n]
        exchanged = self.sums * devs
        if not self.gauss_seidel:
            return (exchanged - state)[self.exchange], e_hat, devs
        odd = exchanged[0::2] - state
        np.fft.rfft(odd, 2 * n, out=e_hat[1::2])
        return exchanged[1::2] - odd, e_hat, devs

    def error(self, e_hat: np.ndarray, devs: np.ndarray) -> float:
        """max |d_j| over every subdomain, node and level, from the rows that can hold it.

        ``e_hat`` is the spectrum of the error the sweep read.  The running
        peak starts from every interface row; an inner row is
        inverse-transformed only when its bound reaches the peak, and a
        row whose bound is not finite is never skipped.  A nan or inf
        entry gives a nan or inf result.
        """
        peak = np.abs(devs).max()
        abs_hat = np.abs(e_hat)
        for response, window in zip(self.responses, self.windows):
            bound = _BOUND_MARGIN * response.bound(abs_hat[window])
            # max() is nan if any bound is, and nan is never below the peak.
            if not bound.max() < peak:
                nodes = response.inner_rows.start + np.flatnonzero(~(bound < peak))
                peak = np.maximum(peak, np.abs(response.rows(e_hat[window], nodes)).max())
        return float(peak)


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

    An iteration works on the state that the next sweep reads (the even
    rows of the error under Gauss-Seidel, all rows under Jacobi) through
    the kernels ``_Sweep`` forms once per case: one rfft of the state,
    the kernel products and one irfft of every interface row, from which
    the exchange forms the next state (under Gauss-Seidel, one more rfft
    of the odd rows the sweep wrote).  The error evaluation after it starts
    from the interface rows' largest value and adds the inner rows whose
    bound reaches the largest value found so far, each subdomain's from
    its own spectra and its own error rows; a row whose bound is not
    finite is never skipped.  numpy's ``irfft`` of a subset of rows
    equals those rows of the whole batch, so the error is that of the
    whole field bit for bit.  Only the merge function transforms whole
    deviations, from the spectra and the last error's spectrum, and only
    when called; it keeps the spectra alive as long as it lives.
    ``reference`` must lie on ``decomposition.global_mesh`` and on the
    problem's time grid; a mismatch is a ValueError, raised before any work.

    Stops once the error against the monolithic solution drops to ``tol``.
    Raises IterationDiverged if the error exceeds 1e6 times the first
    iterate's error, NonFiniteSolution if an iterate is not finite (data
    near the double limit overflow to inf or nan without a numpy warning);
    otherwise returns after ``max_iter`` with a history that has not
    converged.
    """
    if init not in INIT_MODES:
        raise ValueError(f"init must be one of {INIT_MODES}")
    if sweep not in SWEEP_MODES:
        raise ValueError(f"sweep must be one of {SWEEP_MODES}")
    params = list(interface_params)
    n_ifaces = len(decomposition.interfaces)
    if len(params) != n_ifaces:
        raise ValueError(f"need {n_ifaces} parameter sets, got {len(params)}")
    if isinstance(tol, bool) or not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a positive number, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    if reference is None:
        reference = solve_monolithic(problem, decomposition.global_mesh)
    elif reference.mesh != decomposition.global_mesh:
        raise ValueError(
            f"reference mesh ({reference.n_nodes} nodes) is not the decomposition's "
            f"global mesh ({decomposition.global_mesh.n_nodes} nodes)"
        )
    elif (reference.n_steps, reference.time_step) != (problem.n_steps, problem.time_step):
        raise ValueError(
            f"reference time grid ({reference.n_steps} steps of {reference.time_step}) is not "
            f"the problem's ({problem.n_steps} steps of {problem.time_step})"
        )
    sweeps = _Sweep(problem, decomposition, params, sweep)
    errors: list[float] = []
    # Data near the double limit overflow to inf or nan; the finiteness
    # check below reports that, with no warning on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        state = sweeps.initial(init, reference)
        for k in range(1, max_iter + 1):
            state, e_hat, devs = sweeps.apply(state)
            err = sweeps.error(e_hat, devs)
            if not math.isfinite(err):
                raise NonFiniteSolution(f"iterate {k} is not finite")
            errors.append(err)
            if err <= tol:
                break
            if err > DIVERGENCE_FACTOR * errors[0]:
                raise IterationDiverged(
                    f"error {err} exceeds {DIVERGENCE_FACTOR} x first-iterate "
                    f"error {errors[0]} at iteration {k}"
                )

    spectra = [response.spectra for response in sweeps.responses]
    merge = functools.partial(
        _combine_fields, spectra, sweeps.windows, e_hat, decomposition, reference
    )
    return ConvergenceHistory(tuple(errors), tol, k if err <= tol else None, max_iter), merge


def _combine_fields(
    spectra, windows, e_hat, decomposition: Decomposition, reference: SpaceTimeField
) -> SpaceTimeField:
    """The reference plus each subdomain's deviation, averaged at interface nodes.

    Subdomain j's deviation is its spectra ``spectra[j]`` applied to its
    own rows ``windows[j]`` of the error spectrum ``e_hat``, transformed
    in whole here and nowhere else.
    """
    total = np.zeros_like(reference.values[1:])
    weight = np.zeros(decomposition.global_mesh.n_nodes)
    for kernels, window, (lo, hi) in zip(spectra, windows, decomposition.node_ranges):
        total[:, lo:hi] += _series_product(kernels, e_hat[window], reference.n_steps).T
        weight[lo:hi] += 1.0
    values = reference.values.copy()
    values[1:] += total / weight
    return SpaceTimeField(reference.mesh, reference.time_step, values)
