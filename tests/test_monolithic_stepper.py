"""The monolithic solve against the backward-Euler loop it replaced.

``solve_monolithic`` once stepped level by level with one tridiagonal
solve per step; that loop is kept here as the reference.  It now runs
u_k = P u_{k-1} + a_k in blocks of levels (``fem._affine_levels``), whose
rounding differs from the loop's, so the two agree to a tolerance set by
measurement rather than bit for bit.
"""

import numpy as np
import pytest

from oswr.fem import (
    DiffusionProfile,
    HeatProblem,
    Mesh1D,
    NonFiniteSolution,
    SpaceTimeField,
    TridiagonalSolver,
    _apply_dirichlet_row,
    _as_time_function,
    _system_matrix,
    assemble_operators,
    _affine_levels,
    solve_monolithic,
)

# Largest difference from the loop, relative to the largest |u|: measured
# 9.8e-15 (two layers, 100 elements, ratio 1e6) and 1.1e-15 (three layers).
REL_TOL = 5e-14


def _assert_close(values, expected):
    assert np.abs(values - expected).max() <= REL_TOL * np.abs(expected).max()


def _reference_monolithic(problem, mesh):
    """The former loop of solve_monolithic, Dirichlet rows at both ends."""
    mass, stiffness = assemble_operators(mesh, problem.diffusion, problem.lumped_mass)
    dt = problem.time_step
    A = _system_matrix(mass, stiffness, dt)
    _apply_dirichlet_row(A, "left")
    _apply_dirichlet_row(A, "right")
    solver = TridiagonalSolver(A)
    g_left = _as_time_function(problem.bc_left)
    g_right = _as_time_function(problem.bc_right)
    u = problem.initial_values(mesh)
    values = np.empty((problem.n_steps + 1, mesh.n_nodes))
    values[0] = u
    for k in range(1, problem.n_steps + 1):
        t = k * dt
        rhs = mass.matvec(u)
        f = problem.source_nodal(mesh, t)
        if f is not None:
            rhs += dt * mass.matvec(f)
        rhs[0] = g_left(t)
        rhs[-1] = g_right(t)
        u = solver.solve(rhs)
        values[k] = u
    return SpaceTimeField(mesh, dt, values)


@pytest.mark.parametrize("n_elements", [8, 40, 100])
@pytest.mark.parametrize("lumped_mass", [False, True])
@pytest.mark.parametrize("ratio", [10.0, 1e2, 1e3, 1e4, 1e6])
def test_two_layers_equal_the_old_loop(ratio, lumped_mass, n_elements):
    mesh = Mesh1D.uniform(0.0, 1.0, n_elements)
    problem = HeatProblem(
        DiffusionProfile((1.0, 1.0 / ratio), (0.5,)),
        None,
        20.0,
        0.0,
        0.0,
        1.0,
        1.0 / 40.0,
        lumped_mass,
    )
    field = solve_monolithic(problem, mesh)
    _assert_close(field.values, _reference_monolithic(problem, mesh).values)


def test_three_layers_with_source_and_time_dependent_data_equal_the_old_loop():
    mesh = Mesh1D.uniform(0.0, 1.0, 40)
    problem = HeatProblem(
        DiffusionProfile((1.0, 1e-2, 1e-3), (0.2, 0.4)),
        lambda x, t: np.sin(3.0 * x) * (1.0 + t),
        lambda x: 5.0 + x,
        lambda t: 2.0 * t,
        lambda t: 50.0 - t,
        2.0,
        1.0 / 32.0,
    )
    field = solve_monolithic(problem, mesh)
    _assert_close(field.values, _reference_monolithic(problem, mesh).values)



@pytest.mark.parametrize("n_levels", [1, 2, 3, 4, 5, 15, 16, 17, 63, 64, 65, 200])
def test_blocked_levels_equal_the_recurrence(rng, n_levels):
    # Block lengths 1 to 8, a last block cut short and one level alone;
    # the propagator a contraction, as that of a stable step is.
    n = 7
    power = rng.uniform(-1.0, 1.0, (n, n))
    power *= 0.9 / np.abs(power).sum(axis=1).max()
    forcing = rng.normal(size=(n_levels, n))
    start = rng.normal(size=n)
    expected = np.empty((n_levels, n))
    x = start
    for k in range(n_levels):
        x = np.einsum("ij,j->i", power, x) + forcing[k]
        expected[k] = x
    levels = _affine_levels(power, forcing, start)
    assert levels.shape == (n_levels, n)
    assert np.abs(levels - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_data_that_overflow_the_levels_are_a_non_finite_solution():
    mesh = Mesh1D.uniform(0.0, 1.0, 8)
    problem = HeatProblem(
        DiffusionProfile((1.0, 0.1), (0.5,)), None, 1.7e308, 1.7e308, 1.7e308, 1.0, 0.125
    )
    with pytest.raises(NonFiniteSolution, match="solution is not finite"):
        solve_monolithic(problem, mesh)
