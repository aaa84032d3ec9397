"""The backward-Euler loop, one tridiagonal solve per time level: the test reference.

``oswr.fem`` evolves every solve without a loop over its levels (one
block solve for the propagator and every level's forcing, then the affine
recurrence in blocks of levels).  The tests compare it, and everything
built on it, against this loop.  It is the stepper the library once used
for both its Dirichlet and its Robin solves, with the same arithmetic.
"""

import numpy as np

from oswr.fem import (
    RobinBoundaryData,
    SpaceTimeField,
    TridiagonalSolver,
    _as_time_function,
    _step_operators,
)


def stepped_solve(problem, mesh, left, right):
    """Step ``problem`` on ``mesh`` level by level.

    ``left`` and ``right`` are a Dirichlet value (constant or function of
    time) or RobinBoundaryData, as for ``solve_subdomain_robin``.  Step k
    solves A u_k = M u_{k-1} + dt M f(t_k), with dt * g_R(t_k) added to a
    Robin end's entry and g(t_k) written into a Dirichlet end's.
    """
    ends = tuple(d.sigma if isinstance(d, RobinBoundaryData) else None for d in (left, right))
    mass, A = _step_operators(problem, mesh, ends)
    dt = problem.time_step
    robin_rows, dirichlet_rows = [], []
    for side, idx, data in (("left", 0, left), ("right", -1, right)):
        if isinstance(data, RobinBoundaryData):
            assert data.side == side and data.values.size == problem.n_steps
            robin_rows.append((idx, data.values))
        else:
            dirichlet_rows.append((idx, _as_time_function(data)))
    solver = TridiagonalSolver(A)
    u = problem.initial_values(mesh)
    values = np.empty((problem.n_steps + 1, mesh.n_nodes))
    values[0] = u
    for k in range(1, problem.n_steps + 1):
        t = k * dt
        rhs = mass.matvec(u)
        f = problem.source_nodal(mesh, t)
        if f is not None:
            rhs += dt * mass.matvec(f)
        for idx, g_robin in robin_rows:
            rhs[idx] += dt * g_robin[k - 1]
        for idx, g in dirichlet_rows:
            rhs[idx] = g(t)
        u = solver.solve(rhs)
        values[k] = u
    return SpaceTimeField(mesh, dt, values)
