"""The monolithic solve runs the Robin-capable stepper with Dirichlet ends.

``solve_monolithic`` once had its own copy of the backward-Euler loop; it
is kept here as the reference, and the shared stepper must reproduce it
bit for bit.
"""

import numpy as np
import pytest

from oswr.fem import (
    DiffusionProfile,
    HeatProblem,
    Mesh1D,
    SpaceTimeField,
    TridiagonalSolver,
    _apply_dirichlet_row,
    _as_time_function,
    _system_matrix,
    assemble_operators,
    solve_monolithic,
)


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
    assert np.array_equal(field.values, _reference_monolithic(problem, mesh).values)


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
    assert np.array_equal(field.values, _reference_monolithic(problem, mesh).values)
