"""Finite-element core: assembly, time stepping, Robin solves, flux recovery."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from stepping import stepped_solve

from oswr.fem import (
    DiffusionProfile,
    HeatProblem,
    Mesh1D,
    RobinBoundaryData,
    SpaceTimeField,
    TridiagonalMatrix,
    TridiagonalSolver,
    _step_operators,
    assemble_operators,
    robin_impulse_responses,
    solve_monolithic,
    solve_subdomain_robin,
    variational_flux,
)
from oswr.frequency import DiffusionPair, frequency_band_from_grid
from oswr.optimize import optimize


def _plain_problem(nu_layers=(1.0,), breakpoints=(), u0=20.0, T=5.0, dt=1.0 / 40.0, **kw):
    return HeatProblem(
        DiffusionProfile(tuple(nu_layers), tuple(breakpoints)),
        kw.get("source"),
        u0,
        kw.get("bc_left", 0.0),
        kw.get("bc_right", 0.0),
        T,
        dt,
    )


# ------------------------------------------------------------------- meshes


def test_mesh_construction_and_validation():
    mesh = Mesh1D.uniform(0.0, 1.0, 4)
    assert mesh.n_elements == 4
    assert mesh.dx == pytest.approx(0.25)
    assert mesh.node_index(0.5) == 2
    with pytest.raises(ValueError):
        mesh.node_index(0.3)
    with pytest.raises(ValueError):
        Mesh1D.uniform(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        Mesh1D([0.0, 0.1, 0.5, 1.0])
    with pytest.raises(ValueError):
        Mesh1D([0.0, 0.5, 0.4])


def test_diffusion_profile_lookup_and_validation():
    prof = DiffusionProfile((1.0, 0.01, 0.001), (0.2, 0.4))
    assert prof.value_at(0.1) == 1.0
    assert prof.value_at(0.3) == 0.01
    assert prof.value_at(0.9) == 0.001
    with pytest.raises(ValueError):
        DiffusionProfile((1.0, -1.0), (0.5,))
    with pytest.raises(ValueError):
        DiffusionProfile((1.0, 2.0, 3.0), (0.4, 0.2))
    with pytest.raises(ValueError):
        DiffusionProfile((1.0, 2.0), ())


def test_element_values_require_node_alignment():
    mesh = Mesh1D.uniform(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        DiffusionProfile((1.0, 2.0), (0.3,)).element_values(mesh)
    # boundary or exterior breakpoints are fine (profile restricted to a piece)
    vals = DiffusionProfile((1.0, 2.0), (1.0,)).element_values(mesh)
    assert np.all(vals == 1.0)


def test_problem_time_grid_validation():
    with pytest.raises(ValueError):
        _plain_problem(T=1.0, dt=0.3)
    with pytest.raises(ValueError):
        _plain_problem(T=1.0, dt=-0.1)
    assert _plain_problem(T=1.0, dt=0.25).n_steps == 4


# ----------------------------------------------------------------- assembly


def test_stiffness_rows_textbook_case():
    mesh = Mesh1D.uniform(0.0, 1.0, 2)
    _, K = assemble_operators(mesh, DiffusionProfile.constant(1.0))
    assert K.lower[0] == pytest.approx(-2.0)
    assert K.diag[1] == pytest.approx(4.0)
    assert K.upper[1] == pytest.approx(-2.0)


def test_stiffness_rows_piecewise_case():
    mesh = Mesh1D.uniform(0.0, 1.0, 2)
    nu_l, nu_r = 3.0, 5.0
    _, K = assemble_operators(mesh, DiffusionProfile((nu_l, nu_r), (0.5,)))
    h = 0.5
    assert K.lower[0] == pytest.approx(-nu_l / h)
    assert K.diag[1] == pytest.approx((nu_l + nu_r) / h)
    assert K.upper[1] == pytest.approx(-nu_r / h)


def test_stiffness_annihilates_constants():
    mesh = Mesh1D.uniform(0.0, 2.0, 17)
    _, K = assemble_operators(mesh, DiffusionProfile((2.0, 0.5), (np.float64(2.0) * 8 / 17,)))
    ones = np.ones(mesh.n_nodes)
    dense = K.to_dense()
    norm = np.abs(dense).sum(axis=1).max()
    assert np.abs(K.matvec(ones)).max() <= 1e-12 * norm


def test_operators_symmetric():
    mesh = Mesh1D.uniform(0.0, 1.0, 13)
    M, K = assemble_operators(mesh, DiffusionProfile.constant(0.7))
    for mat in (M, K):
        dense = mat.to_dense()
        scale = np.abs(dense).max()
        assert np.abs(dense - dense.T).max() <= 1e-14 * scale


def test_lumped_mass_option():
    mesh = Mesh1D.uniform(0.0, 1.0, 4)
    M, _ = assemble_operators(mesh, DiffusionProfile.constant(1.0), lumped_mass=True)
    Mc, _ = assemble_operators(mesh, DiffusionProfile.constant(1.0))
    assert np.all(M.lower == 0.0) and np.all(M.upper == 0.0)
    # row sums (total heat weight) are preserved by lumping
    assert M.diag == pytest.approx(Mc.to_dense().sum(axis=1))
    # a lumped run still reaches its own fixed point through the Schwarz loop
    from oswr.frequency import DiffusionPair, frequency_band_from_grid
    from oswr.optimize import optimize_v2
    from oswr.schwarz import decompose, oswr_iterate

    mesh = Mesh1D.uniform(0.0, 1.0, 8)
    problem = HeatProblem(
        DiffusionProfile((1.0, 0.25), (0.5,)),
        None,
        20.0,
        0.0,
        0.0,
        1.0,
        0.125,
        lumped_mass=True,
    )
    reference = solve_monolithic(problem, mesh)
    band = frequency_band_from_grid(1.0, 0.125)
    params = optimize_v2(band, DiffusionPair(1.0, 0.25)).params
    history, merge = oswr_iterate(
        problem, decompose(mesh, [0.5]), [params], tol=1e-10, max_iter=100, reference=reference
    )
    assert history.converged
    assert np.abs(merge().values - reference.values).max() <= 1e-10


def test_tridiagonal_solver_matches_dense():
    rng = np.random.default_rng(7)
    n = 25
    lower = rng.uniform(-1.0, 0.0, n - 1)
    upper = rng.uniform(-1.0, 0.0, n - 1)
    diag = 4.0 + rng.uniform(0.0, 1.0, n)
    mat = TridiagonalMatrix(lower, diag, upper)
    solver = TridiagonalSolver(mat)
    for _ in range(3):
        rhs = rng.normal(size=n)
        x = solver.solve(rhs)
        assert np.linalg.norm(mat.to_dense() @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    # Extra rows would come back unsolved, too few fail partway through.
    for shape in ((n - 1,), (n + 2,), (n - 1, 3), (n + 2, 3)):
        with pytest.raises(ValueError, match=f"has {shape[0]} rows, the matrix {n}"):
            solver.solve(np.ones(shape))


@pytest.mark.parametrize("k", [1, 25, 27])  # 1, n and n + 2 columns
@pytest.mark.parametrize("lumped_mass", [False, True])
@pytest.mark.parametrize(
    "sigmas", [(None, None), (0.7, None), (None, 2.5), (0.7, 2.5)]
)
def test_block_solve_is_the_column_solves_bit_for_bit(sigmas, lumped_mass, k):
    # The system matrices of the stepper: Dirichlet or Robin ends, a jump.
    problem = replace(
        _plain_problem(nu_layers=(1.0, 0.05), breakpoints=(0.375,), dt=1.0 / 32.0),
        lumped_mass=lumped_mass,
    )
    mesh = Mesh1D.uniform(0.0, 0.75, 24)
    solver = TridiagonalSolver(_step_operators(problem, mesh, sigmas)[1])
    rhs = np.random.default_rng(3).normal(size=(mesh.n_nodes, k))
    given = rhs.copy()
    block = solver.solve(rhs)
    columns = np.stack([solver.solve(rhs[:, c].copy()) for c in range(k)], axis=1)
    assert block.shape == rhs.shape
    assert np.array_equal(block, columns)
    assert np.array_equal(rhs, given)  # the block is not solved in place


# ------------------------------------------------------------ time stepping


def test_monolithic_zero_data_stays_zero():
    problem = _plain_problem(u0=0.0, T=1.0, dt=0.25)
    field = solve_monolithic(problem, Mesh1D.uniform(0.0, 1.0, 8))
    assert np.all(field.values == 0.0)


def test_monolithic_decay_rate():
    problem = _plain_problem()
    mesh = Mesh1D.uniform(0.0, 1.0, 40)
    field = solve_monolithic(problem, mesh)
    assert np.abs(field.values[-1]).max() <= 1e-9
    assert np.abs(field.values[0] - 20.0).max() == 0.0
    # asymptotic per-step ratio r = 1/(1 + dt*lambda): lambda within 5% of pi^2
    norms = np.abs(field.values).max(axis=1)
    lam = (norms[120] / norms[121] - 1.0) / problem.time_step
    assert abs(lam - math.pi**2) <= 0.05 * math.pi**2


def test_monolithic_rejects_exterior_breakpoint():
    problem = _plain_problem(nu_layers=(1.0, 2.0), breakpoints=(1.5,), T=1.0, dt=0.25)
    with pytest.raises(ValueError):
        solve_monolithic(problem, Mesh1D.uniform(0.0, 1.0, 8))


def test_mms_convergence_orders():
    def exact(x, t):
        return np.sin(np.pi * x) * math.exp(-t)

    def source(x, t):
        return (np.pi**2 - 1.0) * np.sin(np.pi * x) * math.exp(-t)

    def run(nx, dt):
        problem = HeatProblem(
            DiffusionProfile.constant(1.0),
            source,
            lambda x: np.sin(np.pi * x),
            0.0,
            0.0,
            0.5,
            dt,
        )
        mesh = Mesh1D.uniform(0.0, 1.0, nx)
        field = solve_monolithic(problem, mesh)
        return np.abs(field.values[-1] - exact(mesh.nodes, 0.5)).max()

    temporal = [run(512, dt) for dt in (1 / 4, 1 / 8, 1 / 16, 1 / 32)]
    orders_t = [math.log2(a / b) for a, b in zip(temporal, temporal[1:])]
    assert all(abs(o - 1.0) <= 0.15 for o in orders_t)

    spatial = [run(nx, 0.5 / 8192) for nx in (8, 16, 32)]
    orders_x = [math.log2(a / b) for a, b in zip(spatial, spatial[1:])]
    assert all(abs(o - 2.0) <= 0.2 for o in orders_x)


def test_energy_decay_and_max_principle(rng):
    mesh = Mesh1D.uniform(0.0, 1.0, 40)
    u0_nodes = rng.uniform(0.0, 5.0, mesh.n_nodes)
    problem = HeatProblem(
        DiffusionProfile((1.0, 0.1), (0.5,)),
        None,
        lambda x: np.interp(x, mesh.nodes, u0_nodes),
        0.0,
        0.0,
        1.0,
        1.0 / 40.0,
    )
    field = solve_monolithic(problem, mesh)
    M, _ = assemble_operators(mesh, problem.diffusion)
    energies = [math.sqrt(v @ M.matvec(v)) for v in field.values]
    assert all(b <= a * (1.0 + 1e-13) for a, b in zip(energies, energies[1:]))
    assert field.values.min() >= -1e-12
    assert field.values.max() <= u0_nodes.max() + 1e-12


def test_max_principle_extreme_ratio_warns_only():
    # far below the mass/stiffness balance the scheme may undershoot slightly;
    # that regime is reported, not failed
    mesh = Mesh1D.uniform(0.0, 1.0, 40)
    problem = _plain_problem(nu_layers=(1.0, 1e-4), breakpoints=(0.5,), T=1.0, dt=1.0 / 40.0)
    field = solve_monolithic(problem, mesh)
    violation = max(0.0 - field.values.min(), field.values.max() - 20.0)
    if violation > 1e-12:
        warnings.warn(f"maximum principle violated by {violation:.2e} at extreme ratio")


# ------------------------------------------------------------- Robin solves


def test_robin_zero_data_stays_zero():
    mesh = Mesh1D.uniform(0.0, 0.5, 10)
    problem = _plain_problem(u0=0.0, T=1.0, dt=0.25)
    zero = RobinBoundaryData(1.0, np.zeros(4))
    field = solve_subdomain_robin(problem, mesh, 0.0, zero)
    assert np.all(field.values == 0.0)
    assert np.all(variational_flux(field, problem.diffusion, "right") == 0.0)


def test_robin_data_validation():
    mesh = Mesh1D.uniform(0.0, 0.5, 10)
    problem = _plain_problem(u0=0.0, T=1.0, dt=0.25)
    with pytest.raises(ValueError, match="Robin series has 3 entries, need 4"):
        solve_subdomain_robin(problem, mesh, 0.0, RobinBoundaryData(1.0, np.zeros(3)))
    with pytest.raises(ValueError):
        RobinBoundaryData(0.0, np.zeros(4))


def test_robin_reproduces_global_solution_from_manufactured_data():
    # transmission data taken from the global discrete solution must give back
    # its restriction exactly (variational flux, not a difference quotient)
    mesh = Mesh1D.uniform(0.0, 1.0, 40)
    problem = _plain_problem(nu_layers=(1.0, 0.1), breakpoints=(0.5,))
    reference = solve_monolithic(problem, mesh)
    sub = Mesh1D(mesh.nodes[: 21])
    restriction = SpaceTimeField(sub, problem.time_step, reference.values[:, :21])
    flux = variational_flux(restriction, problem.diffusion, "right")
    for sigma in (0.3, 1.7, 12.0):
        data = RobinBoundaryData(sigma, sigma * reference.values[1:, 20] + flux)
        field = solve_subdomain_robin(problem, sub, 0.0, data)
        assert np.abs(field.values - restriction.values).max() <= 1e-12


def test_robin_penalty_limit_is_dirichlet():
    mesh = Mesh1D.uniform(0.0, 0.5, 20)
    problem = _plain_problem(T=1.0, dt=1.0 / 20.0)
    times = problem.time_step * np.arange(1, problem.n_steps + 1)
    target = np.sin(times)
    sigma = 1e12
    data = RobinBoundaryData(sigma, sigma * target)
    field = solve_subdomain_robin(problem, mesh, 0.0, data)
    assert np.abs(field.values[1:, -1] - target).max() <= 1e-6


# Largest difference of a Robin solve from the loop, relative to the largest
# |u|: measured 7.1e-15 over the grid below (ratio 1e8, sigma 1e12).
ROBIN_REL_TOL = 5e-14


def _moving_data_problem(ratio=20.0, lumped_mass=False, with_source=True):
    return HeatProblem(
        DiffusionProfile((1.0, 1.0 / ratio), (0.375,)),
        (lambda x, t: np.sin(3.0 * x) * (1.0 + t)) if with_source else None,
        lambda x: 5.0 + x,
        lambda t: 2.0 * t,
        lambda t: 3.0 - t,
        1.0,
        1.0 / 32.0,
        lumped_mass,
    )


@pytest.mark.parametrize("sigma", [0.3, 12.0, 1e12])
@pytest.mark.parametrize("sides", [("left",), ("right",), ("left", "right")])
@pytest.mark.parametrize("with_source", [False, True])
@pytest.mark.parametrize("lumped_mass", [False, True])
@pytest.mark.parametrize("ratio", [10.0, 1e2, 1e4, 1e8])
def test_robin_solve_matches_stepping(ratio, lumped_mass, with_source, sides, sigma):
    problem = _moving_data_problem(ratio, lumped_mass, with_source)
    mesh = Mesh1D.uniform(0.0, 0.75, 24)
    times = problem.time_step * np.arange(1, problem.n_steps + 1)
    target = {"left": 4.0 + np.sin(5.0 * times), "right": 1.0 + times**2}
    ends = [
        RobinBoundaryData(sigma, sigma * target[side] + 1.0) if side in sides else g
        for side, g in (("left", problem.bc_left), ("right", problem.bc_right))
    ]
    field = solve_subdomain_robin(problem, mesh, *ends)
    expected = stepped_solve(problem, mesh, *ends).values
    assert np.abs(field.values - expected).max() <= ROBIN_REL_TOL * np.abs(expected).max()


def test_robin_solve_with_dirichlet_ends_is_the_monolithic_solve():
    problem = _moving_data_problem()
    mesh = Mesh1D.uniform(0.0, 0.75, 24)
    field = solve_subdomain_robin(problem, mesh, problem.bc_left, problem.bc_right)
    assert np.array_equal(field.values, solve_monolithic(problem, mesh).values)


# -------------------------------------------------------- impulse responses


def _stepped_impulse_responses(problem, mesh, sigmas):
    """The responses by time stepping: one quiet Robin solve per Robin end."""
    n = problem.n_steps
    impulse = np.zeros(n)
    impulse[0] = 1.0
    quiet = replace(problem, source=None, initial=0.0, bc_left=0.0, bc_right=0.0)
    responses = {}
    for hit in ("left", "right"):
        if hit in sigmas:
            ends = [
                RobinBoundaryData(sigmas[side], impulse if side == hit else np.zeros(n))
                if side in sigmas
                else 0.0
                for side in ("left", "right")
            ]
            responses[hit] = stepped_solve(quiet, mesh, *ends).values[1:]
    return responses


def _column_impulse_responses(problem, mesh, ends):
    """The responses with P and each h_1 from vector solves, one column at a time."""
    mass, A = _step_operators(problem, mesh, ends)
    B = mass.to_dense()
    for idx, sigma in zip((0, -1), ends):
        if sigma is None:
            B[idx] = 0.0
    solver = TridiagonalSolver(A)
    power = np.stack([solver.solve(B[:, c]) for c in range(mesh.n_nodes)], axis=1)
    robin = [idx for idx, sigma in zip((0, -1), ends) if sigma is not None]
    levels = np.empty((mesh.n_nodes, problem.n_steps, len(robin)))
    for r, idx in enumerate(robin):
        rhs = np.zeros(mesh.n_nodes)
        rhs[idx] = problem.time_step
        levels[:, 0, r] = solver.solve(rhs)
    done = 1
    while done < problem.n_steps:
        m = min(done, problem.n_steps - done)
        levels[:, done : done + m] = np.einsum("ij,jkr->ikr", power, levels[:, :m])
        done += m
        if done < problem.n_steps:
            power = np.einsum("ij,jk->ik", power, power)
    return levels.transpose(2, 0, 1)


def _check_impulse_responses(problem, mesh, ends):
    sigmas = {side: sigma for side, sigma in zip(("left", "right"), ends) if sigma is not None}
    expected = _stepped_impulse_responses(problem, mesh, sigmas)
    by_columns = _column_impulse_responses(problem, mesh, ends)
    responses = robin_impulse_responses(problem, mesh, ends)
    # One response per Robin end on the first axis, left end first.
    assert responses.shape == (len(expected), mesh.n_nodes, problem.n_steps)
    for h, side in zip(responses, expected):
        assert np.abs(h.T - expected[side]).max() <= 1e-12
    assert np.array_equal(responses, by_columns)  # one block solve changes no bit


@pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 200])
@pytest.mark.parametrize("lumped_mass", [False, True])
@pytest.mark.parametrize("sides", [("left",), ("right",), ("left", "right")])
def test_impulse_responses_match_stepping(sides, lumped_mass, n_steps):
    # A diffusion jump at an interior node; the source, initial and
    # Dirichlet data must not enter the responses.
    problem = HeatProblem(
        DiffusionProfile((1.0, 0.05), (0.375,)),
        lambda x, t: np.sin(3.0 * x) * (1.0 + t),
        lambda x: 5.0 + x,
        lambda t: 2.0 * t,
        3.0,
        n_steps / 32.0,
        1.0 / 32.0,
        lumped_mass,
    )
    mesh = Mesh1D.uniform(0.0, 0.75, 24)
    ends = (0.7 if "left" in sides else None, 2.5 if "right" in sides else None)
    _check_impulse_responses(problem, mesh, ends)


def test_impulse_responses_match_stepping_at_ratio_1e8():
    problem = _plain_problem(nu_layers=(1.0, 1e-8), breakpoints=(0.5,))
    band = frequency_band_from_grid(problem.final_time, problem.time_step)
    params = optimize("I", band, DiffusionPair(1.0, 1e-8)).params
    mesh = Mesh1D.uniform(0.0, 1.0, 40)
    left, right = Mesh1D(mesh.nodes[:21]), Mesh1D(mesh.nodes[20:])
    _check_impulse_responses(problem, left, (None, params.sigma1))
    _check_impulse_responses(problem, right, (params.sigma2, None))


def test_impulse_responses_match_stepping_on_a_long_fine_grid():
    problem = _plain_problem(nu_layers=(1.0, 0.1), breakpoints=(0.5,), dt=5.0 / 3200.0)
    _check_impulse_responses(problem, Mesh1D.uniform(0.0, 1.0, 100), (None, 2.5))


def test_impulse_responses_validate_their_ends():
    problem = _plain_problem(T=1.0, dt=0.25)
    mesh = Mesh1D.uniform(0.0, 0.5, 10)
    for ends in ((None, None), (1.0, 1.0, 1.0), (0.0, None), (None, math.nan), (None, -1.0)):
        with pytest.raises(ValueError):
            robin_impulse_responses(problem, mesh, ends)


# ------------------------------------------------------------ flux recovery


def test_variational_flux_steady_linear_profile():
    mesh = Mesh1D.uniform(0.0, 1.0, 10)
    steady = SpaceTimeField(mesh, 0.1, np.tile(mesh.nodes, (3, 1)))
    flux_right = variational_flux(steady, DiffusionProfile.constant(1.0), "right")
    assert np.abs(flux_right - 1.0).max() <= 1e-12
    flux_left = variational_flux(steady, DiffusionProfile.constant(1.0), "left")
    assert np.abs(flux_left + 1.0).max() <= 1e-12  # outward normal points left


def test_variational_flux_zero_field():
    mesh = Mesh1D.uniform(0.0, 1.0, 10)
    zero = SpaceTimeField(mesh, 0.1, np.zeros((4, mesh.n_nodes)))
    assert np.all(variational_flux(zero, DiffusionProfile.constant(2.0), "right") == 0.0)


def test_variational_flux_validates_end():
    mesh = Mesh1D.uniform(0.0, 1.0, 10)
    field = SpaceTimeField(mesh, 0.1, np.zeros((4, mesh.n_nodes)))
    with pytest.raises(ValueError):
        variational_flux(field, DiffusionProfile.constant(1.0), "middle")
