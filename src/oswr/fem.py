"""P1 finite elements and backward Euler for the 1D heat equation.

Meshes uniform by construction (two ends and an element count),
piecewise-constant diffusion whose breakpoints sit on mesh nodes, a
consistent or (``lumped_mass``) row-sum lumped mass matrix, and
tridiagonal direct solves, of one right-hand side or a block of them, with
a prefactored no-pivot LU (the systems assembled here are strictly
diagonally dominant).  Loads and boundary data are evaluated at the new
time level (fully implicit).

Every solve with data is ``solve_subdomain_robin``, without a loop over
time levels: one block solve gives its one-step propagator and every
level's forcing, and the affine recurrence between levels runs in blocks
of levels.  Its ``left`` and ``right`` ends each take Dirichlet data or
Robin data

    nu * du/dn + sigma * u = g_R   (outward normal n),

and the argument position says which end a datum belongs to.
``solve_monolithic`` is that solve with the problem's Dirichlet data at
both ends.  Inside the module a solve's ends are the pair
(sigma_left, sigma_right), None at a Dirichlet end, and
``robin_impulse_responses`` takes that pair too.  For domain
decomposition two extra ingredients are provided: the response of a
Robin solve to a unit Robin impulse at each Robin end, computed by
powering the one-step propagator (``robin_impulse_responses``, one
array indexed [Robin end, node, level]); and variational recovery of the
boundary flux nu * du/dn from the residual of the boundary row.  At a
Robin end that residual is fixed by the solve itself: the recovered flux
equals g_R - sigma * u to rounding, so the Schwarz iteration exchanges
Robin data and the recovery is used only where no Robin data exist (a
field from a Dirichlet solve).  Taking the flux from the boundary row
(rather than a one-sided difference) makes the discrete Schwarz fixed
point coincide with the monolithic discrete solution.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "NonFiniteSolution",
    "Mesh1D",
    "DiffusionProfile",
    "HeatProblem",
    "SpaceTimeField",
    "RobinBoundaryData",
    "TridiagonalMatrix",
    "TridiagonalSolver",
    "assemble_operators",
    "solve_monolithic",
    "solve_subdomain_robin",
    "robin_impulse_responses",
    "variational_flux",
]

_NODE_SNAP_REL = 1e-9  # breakpoint/interface alignment tolerance, relative to dx


class NonFiniteSolution(ValueError):
    """Raised when a solve or an iterate built from finite data is not finite.

    The problem is linear, so its values scale with the initial and
    boundary data; data within a few orders of the largest double
    overflow the arithmetic.
    """


@dataclass(frozen=True)
class Mesh1D:
    """Uniform 1D mesh of (a, b) in ``n_elements`` elements, uniform by construction.

    The mesh is its three fields, so meshes compare and hash by value;
    ``nodes`` is ``np.linspace(a, b, n_elements + 1)``, formed on first
    use and read-only.
    """

    a: float
    b: float
    n_elements: int

    def __post_init__(self) -> None:
        a, b, n = float(self.a), float(self.b), self.n_elements
        if not (math.isfinite(a) and math.isfinite(b) and b > a):
            raise ValueError(f"need finite ends with b > a, got ({self.a}, {self.b})")
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2:
            raise ValueError(f"mesh needs an integer count of at least 2 elements, got {n!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "n_elements", int(n))

    @classmethod
    def uniform(cls, a: float, b: float, n_elements: int) -> "Mesh1D":
        return cls(a, b, n_elements)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(self.a, self.b, self.n_elements + 1)
        nodes.setflags(write=False)
        return nodes

    @property
    def n_nodes(self) -> int:
        return self.n_elements + 1

    @property
    def dx(self) -> float:
        return float((self.b - self.a) / self.n_elements)

    def node_index(self, x: float) -> int:
        """Index of the node at coordinate x; raises if x is not a node."""
        i = int(round((x - self.a) / self.dx))
        if i < 0 or i >= self.n_nodes or abs(self.nodes[i] - x) > _NODE_SNAP_REL * self.dx:
            raise ValueError(f"{x} is not a node of this mesh")
        return i


@dataclass(frozen=True)
class DiffusionProfile:
    """Piecewise-constant diffusion: len(values) layers split at breakpoints."""

    values: tuple[float, ...]
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        breakpoints = tuple(float(x) for x in self.breakpoints)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "breakpoints", breakpoints)
        if not values:
            raise ValueError("at least one layer value required")
        if any(not math.isfinite(v) or v <= 0.0 for v in values):
            raise ValueError("layer values must be positive and finite")
        if len(breakpoints) != len(values) - 1:
            raise ValueError("need exactly len(values) - 1 breakpoints")
        if any(breakpoints[i] >= breakpoints[i + 1] for i in range(len(breakpoints) - 1)):
            raise ValueError("breakpoints must be strictly increasing")

    @classmethod
    def constant(cls, value: float) -> "DiffusionProfile":
        return cls((value,))

    def value_at(self, x: float) -> float:
        for bp, v in zip(self.breakpoints, self.values):
            if x < bp:
                return v
        return self.values[-1]

    def element_values(self, mesh: Mesh1D) -> np.ndarray:
        """Per-element diffusion; interior breakpoints must coincide with nodes.

        Breakpoints at or beyond the mesh boundary are allowed so a global
        profile can be restricted to a subdomain mesh unchanged.
        """
        for bp in self.breakpoints:
            if mesh.a < bp < mesh.b:
                mesh.node_index(bp)  # raises if not aligned
        mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
        # The layer of x is the number of breakpoints <= x, as in value_at.
        return np.array(self.values)[np.searchsorted(self.breakpoints, mids, side="right")]


def _as_time_function(value) -> Callable[[float], float]:
    if callable(value):
        return value
    v = float(value)
    return lambda t: v


@dataclass(frozen=True)
class HeatProblem:
    """Heat equation data on (a, b) x (0, final_time).

    ``source`` is f(x, t) taking a node array and a time (or None for zero);
    ``initial`` is u0(x) or a constant; the boundary values are constants or
    functions of time.  The time step must divide the final time.
    ``lumped_mass`` switches to the row-sum lumped mass matrix, which keeps
    the solution within the bounds of its data at large diffusion jumps:
    with the consistent matrix (the default, used for Table 1) a solution
    starting at 20 with zero boundary values reaches 25.14 at ratio 1e4
    (T = 1, dt = h = 1/40), where the lumped one stays in [0, 20].
    """

    diffusion: DiffusionProfile
    source: Callable | None
    initial: Callable | float
    bc_left: Callable | float
    bc_right: Callable | float
    final_time: float
    time_step: float
    lumped_mass: bool = False

    def __post_init__(self) -> None:
        T = float(self.final_time)
        dt = float(self.time_step)
        if not (math.isfinite(T) and T > 0.0 and math.isfinite(dt) and dt > 0.0):
            raise ValueError("final_time and time_step must be positive and finite")
        n = round(T / dt)
        if n < 1 or abs(n * dt - T) > 1e-9 * T:
            raise ValueError(
                f"time_step={dt} does not divide final_time={T} (1e-9 relative)"
            )

    @property
    def n_steps(self) -> int:
        return round(self.final_time / self.time_step)

    def initial_values(self, mesh: Mesh1D) -> np.ndarray:
        if callable(self.initial):
            return np.asarray(self.initial(mesh.nodes), dtype=float) * np.ones(
                mesh.n_nodes
            )
        return np.full(mesh.n_nodes, float(self.initial))

    def source_nodal(self, mesh: Mesh1D, t: float) -> np.ndarray | None:
        if self.source is None:
            return None
        return np.asarray(self.source(mesh.nodes, t), dtype=float) * np.ones(
            mesh.n_nodes
        )


@dataclass(frozen=True)
class SpaceTimeField:
    """Nodal values over all time levels 0..n_steps of one solve."""

    mesh: Mesh1D
    time_step: float
    values: np.ndarray  # shape (n_steps + 1, n_nodes)

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        values.setflags(write=False)
        if values.ndim != 2 or values.shape[1] != self.mesh.n_nodes:
            raise ValueError("values must be (n_steps + 1, n_nodes)")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def n_nodes(self) -> int:
        return self.values.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.time_step * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class RobinBoundaryData:
    """Robin data nu*du/dn + sigma*u = g_R at one end.

    ``values[k]`` is g_R at time level k + 1 (levels 1..n_steps; the level-0
    state is the initial condition and needs no boundary data).  Which end
    the data belong to is the argument position they are passed in to
    ``solve_subdomain_robin``.
    """

    sigma: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be positive and finite")
        values = np.array(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        values.setflags(write=False)
        if values.ndim != 1 or not np.all(np.isfinite(values)):
            raise ValueError("values must be a finite 1D series")


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric-profile tridiagonal matrix stored as three diagonals."""

    lower: np.ndarray  # (n-1,), subdiagonal
    diag: np.ndarray  # (n,)
    upper: np.ndarray  # (n-1,), superdiagonal

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The product with x along its last axis: one vector or a stack of rows."""
        out = self.diag * x
        out[..., :-1] += self.upper * x[..., 1:]
        out[..., 1:] += self.lower * x[..., :-1]
        return out

    def to_dense(self) -> np.ndarray:
        return (
            np.diag(self.diag)
            + np.diag(self.upper, 1)
            + np.diag(self.lower, -1)
        )


class TridiagonalSolver:
    """Prefactored LU of a tridiagonal matrix, no pivoting.

    Factor once, then solve repeatedly against new right-hand sides; the
    per-solve cost is two short sweeps.  ``solve`` takes an (n,) vector or
    an (n, k) block of k right-hand sides and sweeps it as a list of its
    entries or rows, so the Python work is O(n) for any k and each column
    gets exactly the IEEE operations of its own vector solve.  Intended
    for the strictly diagonally dominant systems assembled in this module.
    """

    def __init__(self, matrix: TridiagonalMatrix):
        lower = matrix.lower.tolist()
        diag = matrix.diag.tolist()
        upper = matrix.upper.tolist()
        n = len(diag)
        mult = [0.0] * (n - 1)
        piv = [0.0] * n
        piv[0] = diag[0]
        for i in range(1, n):
            if piv[i - 1] == 0.0:
                raise ZeroDivisionError("zero pivot in tridiagonal factorization")
            m = lower[i - 1] / piv[i - 1]
            mult[i - 1] = m
            piv[i] = diag[i] - m * upper[i - 1]
        if piv[-1] == 0.0:
            raise ZeroDivisionError("zero pivot in tridiagonal factorization")
        self._n = n
        self._mult = mult
        self._inv_piv = [1.0 / d for d in piv]
        self._upper = upper

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        n = self._n
        mult = self._mult
        inv_piv = self._inv_piv
        upper = self._upper
        if rhs.shape[0] != n:
            raise ValueError(f"right-hand side has {rhs.shape[0]} rows, the matrix {n}")
        # A list of scalars or of row views; every step rebinds its entry,
        # so a block's rows are never written through to ``rhs``.
        y = list(rhs)
        for i in range(1, n):
            y[i] = y[i] - mult[i - 1] * y[i - 1]
        y[n - 1] = y[n - 1] * inv_piv[n - 1]
        for i in range(n - 2, -1, -1):
            y[i] = (y[i] - upper[i] * y[i + 1]) * inv_piv[i]
        return np.array(y)


def assemble_operators(
    mesh: Mesh1D, diffusion: DiffusionProfile, lumped_mass: bool = False
) -> tuple[TridiagonalMatrix, TridiagonalMatrix]:
    """Mass matrix (consistent by default) and diffusion stiffness matrix."""
    h = mesh.dx
    n = mesh.n_nodes
    nu_e = diffusion.element_values(mesh)

    if lumped_mass:
        m_diag = np.zeros(n)
        m_diag[:-1] += h / 2.0
        m_diag[1:] += h / 2.0
        m_off = np.zeros(n - 1)
    else:
        m_diag = np.zeros(n)
        m_diag[:-1] += h / 3.0
        m_diag[1:] += h / 3.0
        m_off = np.full(n - 1, h / 6.0)

    k_diag = np.zeros(n)
    k_diag[:-1] += nu_e / h
    k_diag[1:] += nu_e / h
    k_off = -nu_e / h

    mass = TridiagonalMatrix(m_off.copy(), m_diag, m_off.copy())
    stiffness = TridiagonalMatrix(k_off.copy(), k_diag, k_off.copy())
    return mass, stiffness


def _step_operators(
    problem: HeatProblem, mesh: Mesh1D, ends
) -> tuple[TridiagonalMatrix, TridiagonalMatrix]:
    """Mass matrix and backward-Euler system matrix A = M + dt*K of one solve.

    ``ends`` is the pair (sigma at the left end, sigma at the right end),
    None at a Dirichlet end.  A Robin end gets dt * sigma on its diagonal
    entry, a Dirichlet end the identity row.
    """
    mass, stiffness = assemble_operators(mesh, problem.diffusion, problem.lumped_mass)
    dt = problem.time_step
    A = TridiagonalMatrix(
        mass.lower + dt * stiffness.lower,
        mass.diag + dt * stiffness.diag,
        mass.upper + dt * stiffness.upper,
    )
    for idx, sigma, coupling in zip((0, -1), ends, (A.upper, A.lower)):
        if sigma is None:
            A.diag[idx], coupling[idx] = 1.0, 0.0
        else:
            A.diag[idx] += dt * sigma
    return mass, A


def _propagator_solve(
    mass: TridiagonalMatrix, A: TridiagonalMatrix, ends, columns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """P = A^{-1} B and A^{-1} ``columns``, from one tridiagonal block solve.

    B is the mass matrix with the rows of the Dirichlet ends (None in
    ``ends``) zeroed, so a step that takes in no data is u_k = P u_{k-1}.
    """
    n_nodes = mass.diag.size
    rhs = np.empty((n_nodes, n_nodes + columns.shape[1]))
    rhs[:, :n_nodes] = mass.to_dense()
    for idx, sigma in zip((0, -1), ends):
        if sigma is None:
            rhs[idx, :n_nodes] = 0.0
    rhs[:, n_nodes:] = columns
    solved = TridiagonalSolver(A).solve(rhs)
    return np.ascontiguousarray(solved[:, :n_nodes]), solved[:, n_nodes:]


def solve_subdomain_robin(problem: HeatProblem, mesh: Mesh1D, left, right) -> SpaceTimeField:
    """Backward Euler solve with Dirichlet or Robin data at each end.

    ``left`` and ``right`` are a Dirichlet value (constant or function of
    time) or RobinBoundaryData with one value per level 1..n_steps.  In the
    Robin case the natural boundary term is eliminated with
    nu*du/dn = g_R - sigma*u, which adds sigma to the boundary diagonal and
    g_R at the new time level to the boundary load; the flux at that end is
    therefore g_R - sigma*u.

    Step k solves A u_k = B u_{k-1} + c_k: A = M + dt*K with the Dirichlet
    identity row or dt*sigma added on the diagonal at each end, B = M with
    its Dirichlet rows zeroed, and c_k = dt * M f(t_k) plus dt * g_R(t_k)
    in a Robin end's entry and with g(t_k) in a Dirichlet end's.  So
    u_k = P u_{k-1} + a_k with P = A^{-1} B and a_k = A^{-1} c_k, and one
    block solve of [B | c_1 ... c_N] gives P and every a_k.  The levels
    then come from ``_affine_levels`` without a loop over them.
    """
    ends = tuple(d.sigma if isinstance(d, RobinBoundaryData) else None for d in (left, right))
    mass, A = _step_operators(problem, mesh, ends)
    dt = problem.time_step
    times = (dt * np.arange(1, problem.n_steps + 1)).tolist()
    loads = np.zeros((len(times), mesh.n_nodes))  # c_k, one level per row
    if problem.source is not None:
        loads = dt * mass.matvec(np.array([problem.source_nodal(mesh, t) for t in times]))
    for idx, data, sigma in zip((0, -1), (left, right), ends):
        if sigma is None:
            g = _as_time_function(data)
            loads[:, idx] = [g(t) for t in times]
        elif data.values.size != problem.n_steps:
            raise ValueError(
                f"Robin series has {data.values.size} entries, need {problem.n_steps}"
            )
        else:
            loads[:, idx] += dt * data.values
    power, forcing = _propagator_solve(mass, A, ends, loads.T)
    values = np.empty((len(times) + 1, mesh.n_nodes))
    values[0] = problem.initial_values(mesh)
    values[1:] = _affine_levels(power, forcing.T, values[0])
    if not np.all(np.isfinite(values)):
        raise NonFiniteSolution("solution is not finite")
    return SpaceTimeField(mesh, dt, values)


def solve_monolithic(problem: HeatProblem, mesh: Mesh1D) -> SpaceTimeField:
    """Backward Euler solve with the problem's Dirichlet values at both ends.

    The diffusion breakpoints must lie inside the domain; the solve is
    ``solve_subdomain_robin`` with ``problem.bc_left`` and
    ``problem.bc_right``.
    """
    for bp in problem.diffusion.breakpoints:
        if not (mesh.a < bp < mesh.b):
            raise ValueError(f"diffusion breakpoint {bp} outside the domain interior")
    return solve_subdomain_robin(problem, mesh, problem.bc_left, problem.bc_right)


def _affine_levels(power: np.ndarray, forcing: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Levels x_1..x_N (rows) of x_k = P x_{k-1} + a_k from x_0 = ``start``.

    ``forcing`` holds a_1..a_N as rows.  The levels are cut into blocks of
    b = 2^j <= sqrt(N) levels, and the recurrence runs in about 3 sqrt(N)
    vectorized steps instead of N (a blocked form of the Kogge-Stone split
    of a linear recurrence, IEEE Trans. Comput. C-22, 1973):

    1. the zero-state response at each block end, sum_i P^(b-1-i) a_i over
       the block's levels: b steps, all blocks at once;
    2. the state before each block, s_(j+1) = P^b s_j + (1.), with P^b from
       log2(b) squarings: one step per block;
    3. every level from the state before its block: b steps, all blocks at
       once.

    Each step is one ``np.einsum`` product, O(n^2) per level and block for
    n nodes, so the cost is O(n^2 N + n^3 log N) with O(sqrt(N)) Python
    steps.
    """
    n_levels, n_nodes = forcing.shape
    block = 1 << (math.isqrt(n_levels).bit_length() - 1)
    n_blocks = -(-n_levels // block)
    # forcing[j, i]: a at level j * block + i + 1; zero past the last level.
    padded = np.zeros((n_blocks * block, n_nodes))
    padded[:n_levels] = forcing
    forcing = padded.reshape(n_blocks, block, n_nodes)

    ends = forcing[:, 0]
    for i in range(1, block):
        ends = np.einsum("mj,ij->mi", ends, power) + forcing[:, i]
    jump = power
    for _ in range(block.bit_length() - 1):
        jump = np.einsum("ij,jk->ik", jump, jump)
    state = np.empty((n_blocks, n_nodes))
    x = start
    for j in range(n_blocks):
        state[j] = x
        x = np.einsum("ij,j->i", jump, x) + ends[j]
    # Each level overwrites its own forcing, which no later step reads.
    for i in range(block):
        state = np.einsum("mj,ij->mi", state, power) + forcing[:, i]
        forcing[:, i] = state
    return padded[:n_levels]


def robin_impulse_responses(problem: HeatProblem, mesh: Mesh1D, ends) -> np.ndarray:
    """Response of one subdomain to a unit impulse at each of its Robin ends.

    ``ends`` is the pair (sigma at the left end, sigma at the right end),
    None at a Dirichlet end; at least one end is Robin.  The result is
    indexed [Robin end (left first), node, level]: the nodal values at
    levels 1..n_steps of ``solve_subdomain_robin`` on ``problem`` with no
    source, zero initial and Dirichlet data, and the Robin series
    ``[1, 0, ..., 0]`` at that end (zero at the other).  Only the
    diffusion, the mass option and the time grid of ``problem`` are read.

    No time loop: without data after level 1 a step is the fixed map
    u_k = P u_{k-1}, P = A^{-1} B (A the system matrix, B the mass matrix
    with its Dirichlet rows zeroed), so level k is P^(k-1) h_1 with
    h_1 = A^{-1} (dt e_end).  P and every h_1 come from one block solve of
    [B | dt e_end per Robin end], and the levels are filled by doubling:
    levels w+1..2w are P^w applied to levels 1..w, and P^2w = P^w P^w.
    The products are ``np.einsum`` contractions, which run in numpy's own
    loops rather than in a threaded BLAS.  The cost is O(n^3 log N + n^2 N)
    for n nodes and N steps.  Doubling is kept rather than the blocked
    levels of ``_affine_levels``, which were no faster for an impulse:
    0.26 against 0.43 ms at 21 nodes and N = 200, 0.37 against 0.94 ms at
    N = 800, and 1.2 ms each at 61 nodes and N = 200 (2-core host, numpy
    2.4.6, one BLAS thread, best of 15 calls).
    """
    robin = [idx for idx, sigma in zip((0, -1), ends) if sigma is not None]
    if len(ends) != 2 or not robin:
        raise ValueError("ends must be (sigma_left, sigma_right) with at least one sigma")
    if not all(math.isfinite(s) and s > 0.0 for s in ends if s is not None):
        raise ValueError("sigma must be positive and finite")
    mass, A = _step_operators(problem, mesh, ends)
    n_steps = problem.n_steps
    n_nodes = mesh.n_nodes
    impulses = np.zeros((n_nodes, len(robin)))
    impulses[robin, range(len(robin))] = problem.time_step
    power, first = _propagator_solve(mass, A, ends, impulses)

    # levels[:, k, r]: node values at level k + 1 for the impulse at Robin end r
    levels = np.empty((n_nodes, n_steps, len(robin)))
    levels[:, 0] = first
    done = 1
    while done < n_steps:
        m = min(done, n_steps - done)
        levels[:, done : done + m] = np.einsum("ij,jkr->ikr", power, levels[:, :m])
        done += m
        if done < n_steps:
            power = np.einsum("ij,jk->ik", power, power)
    return levels.transpose(2, 0, 1)


def variational_flux(
    field: SpaceTimeField,
    diffusion: DiffusionProfile,
    end: str,
    source: Callable | None = None,
    lumped_mass: bool = False,
) -> np.ndarray:
    """Outward flux nu*du/dn at one end of field.mesh, from the boundary residual.

    At each level k+1 the flux is the value that makes the weak equation
    tested with the boundary hat function exact:

        flux = (M (u_new - u_old) / dt + K u_new - load) restricted to the
               boundary row.

    Returns the series for levels 1..n_steps.  This recovery (not a
    difference quotient) is what keeps interface data consistent with the
    single-domain discretization.  At a Robin end of a Robin solve it
    returns g_R - sigma*u up to rounding.
    """
    if end not in ("left", "right"):
        raise ValueError("end must be 'left' or 'right'")
    mesh = field.mesh
    mass, stiffness = assemble_operators(mesh, diffusion, lumped_mass)
    U = field.values
    dt = field.time_step
    if end == "left":
        b, nb = 0, 1
        m_d, m_o = mass.diag[0], mass.upper[0]
        k_d, k_o = stiffness.diag[0], stiffness.upper[0]
    else:
        b, nb = -1, -2
        m_d, m_o = mass.diag[-1], mass.lower[-1]
        k_d, k_o = stiffness.diag[-1], stiffness.lower[-1]

    du_b = U[1:, b] - U[:-1, b]
    du_n = U[1:, nb] - U[:-1, nb]
    flux = (m_d * du_b + m_o * du_n) / dt + k_d * U[1:, b] + k_o * U[1:, nb]
    if source is not None:
        times = (dt * np.arange(1, field.n_steps + 1)).tolist()
        x = mesh.nodes[[b, nb]]
        f = np.array([np.asarray(source(x, t), dtype=float) * np.ones(2) for t in times])
        flux -= m_d * f[:, 0] + m_o * f[:, 1]
    return flux
