"""The interface-reduced iteration: superposed subdomain solves and their cost.

``oswr_iterate`` steps each subdomain in time once for its affine part and
once per Robin end, then rebuilds every iterate by convolution.  These
tests compare that against direct solves and against the step-by-step
iteration it replaced, kept here as the reference.
"""

import numpy as np
import pytest

import oswr.schwarz as schwarz
from oswr.fem import (
    DiffusionProfile,
    HeatProblem,
    Mesh1D,
    RobinBoundaryData,
    solve_monolithic,
    solve_subdomain_robin,
)
from oswr.frequency import frequency_band_from_grid
from oswr.schwarz import (
    decompose,
    interface_diffusion_pairs,
    interface_params_for,
    oswr_iterate,
)

REF_BAND = frequency_band_from_grid(5.0, 1.0 / 40.0)


def _source(x, t):
    return np.sin(3.0 * x) * (1.0 + t)


def _sub_problem(lumped_mass=False):
    return HeatProblem(
        DiffusionProfile((1.0, 0.05), (0.375,)),
        _source,
        lambda x: 5.0 + x,
        lambda t: 2.0 * t,
        3.0,
        1.0,
        1.0 / 32.0,
        lumped_mass,
    )


def _three_layers():
    mesh = Mesh1D.uniform(0.0, 1.0, 100)
    problem = HeatProblem(
        DiffusionProfile((1.0, 1e-2, 1e-3), (0.2, 0.4)), None, 20.0, 0.0, 50.0, 5.0, 1.0 / 40.0
    )
    deco = decompose(mesh, [0.2, 0.4])
    params = [
        interface_params_for("III", REF_BAND, pair)
        for pair in interface_diffusion_pairs(problem, deco)
    ]
    return problem, deco, params, solve_monolithic(problem, mesh)


def _stepping_reference(problem, deco, params, sweep, max_iter, tol, reference):
    """The iteration before the reduction: every iterate steps every subdomain."""
    n_sub = deco.n_subdomains
    state = schwarz._initial_state("zero", problem, deco, reference)
    errors = []
    for _ in range(max_iter):
        source = state if sweep == "gauss_seidel" else [s.copy() for s in state]
        fields = []
        for j, mesh in enumerate(deco.submeshes):
            left, right = problem.bc_left, problem.bc_right
            if j > 0:
                sigma = params[j - 1].sigma2
                nb = source[j - 1] if sweep == "jacobi" else state[j - 1]
                left = RobinBoundaryData("left", sigma, sigma * nb.left_trace - nb.left_flux)
            if j < n_sub - 1:
                sigma = params[j].sigma1
                nb = source[j]
                right = RobinBoundaryData(
                    "right", sigma, sigma * nb.right_trace - nb.right_flux
                )
            field, fluxes = solve_subdomain_robin(problem, mesh, left, right)
            fields.append(field)
            if j > 0:
                state[j - 1].right_trace = field.values[1:, 0].copy()
                state[j - 1].right_flux = fluxes["left"]
            if j < n_sub - 1:
                state[j].left_trace = field.values[1:, -1].copy()
                state[j].left_flux = fluxes["right"]
        errors.append(schwarz.combined_error(reference, fields, deco))
        if errors[-1] <= tol:
            break
    return errors


@pytest.mark.parametrize(
    "sides, lumped_mass",
    [
        (("right",), False),
        (("left",), False),
        (("left", "right"), False),
        (("left", "right"), True),
    ],
)
def test_superposition_matches_direct_solve(rng, sides, lumped_mass):
    problem = _sub_problem(lumped_mass)
    mesh = Mesh1D.uniform(0.0, 0.75, 24)
    sigmas = {"left": 0.7, "right": 2.5}
    series = {side: rng.normal(scale=10.0, size=problem.n_steps) for side in sides}
    ends = [
        RobinBoundaryData(side, sigmas[side], series[side]) if side in sides else dirichlet
        for side, dirichlet in (("left", problem.bc_left), ("right", problem.bc_right))
    ]
    direct_field, direct_fluxes = solve_subdomain_robin(problem, mesh, *ends)

    response = schwarz._SubdomainResponse(
        problem, mesh, {side: sigmas[side] for side in sides}
    )
    field, fluxes = response.solve(series)

    assert np.abs(field.values - direct_field.values).max() <= 1e-12
    assert fluxes.keys() == direct_fluxes.keys()
    for side in sides:
        assert np.abs(fluxes[side] - direct_fluxes[side]).max() <= 1e-12


@pytest.mark.parametrize("n_interfaces", [1, 2])
def test_time_stepping_once_per_case(monkeypatch, n_interfaces):
    mesh = Mesh1D.uniform(0.0, 1.0, 12)
    interfaces = [0.5] if n_interfaces == 1 else [0.25, 0.5]
    layers = (1.0, 0.1) if n_interfaces == 1 else (1.0, 0.1, 0.01)
    problem = HeatProblem(
        DiffusionProfile(layers, tuple(interfaces)), None, 20.0, 0.0, 0.0, 1.0, 0.125
    )
    deco = decompose(mesh, interfaces)
    reference = solve_monolithic(problem, mesh)
    band = frequency_band_from_grid(1.0, 0.125)
    params = [
        interface_params_for("I", band, pair)
        for pair in interface_diffusion_pairs(problem, deco)
    ]
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_subdomain_robin(*args, **kwargs)

    monkeypatch.setattr(schwarz, "solve_subdomain_robin", counting)
    # one affine solve per subdomain plus one impulse solve per Robin end
    expected = n_interfaces + 1 + 2 * n_interfaces
    for max_iter in (1, 7):
        calls.clear()
        history, _ = oswr_iterate(
            problem, deco, params, tol=1e-300, max_iter=max_iter, reference=reference
        )
        assert len(history.errors) == max_iter
        assert len(calls) == expected


@pytest.mark.parametrize("sweep", ["gauss_seidel", "jacobi"])
def test_three_layer_histories_match_step_by_step_iteration(sweep):
    problem, deco, params, reference = _three_layers()
    history, combined = oswr_iterate(
        problem, deco, params, tol=1e-10, max_iter=200, sweep=sweep, reference=reference
    )
    expected = _stepping_reference(problem, deco, params, sweep, 200, 1e-10, reference)
    assert history.converged
    assert len(history.errors) == len(expected)
    assert np.abs(np.array(history.errors) - expected).max() <= 1e-10
    # the fixed point is the monolithic solution
    assert np.abs(combined.values - reference.values).max() <= 1e-9


@pytest.mark.parametrize("sweep", ["gauss_seidel", "jacobi"])
def test_three_layer_exact_init_is_fixed_point(sweep):
    problem, deco, params, reference = _three_layers()
    history, combined = oswr_iterate(
        problem, deco, params, tol=1e-8, max_iter=3, init="exact", sweep=sweep,
        reference=reference,
    )
    assert history.errors[0] <= 1e-10
    assert history.iterations_to_tolerance == 1
    assert np.abs(combined.values - reference.values).max() <= 1e-10
