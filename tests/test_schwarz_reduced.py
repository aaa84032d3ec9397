"""The interface-reduced iteration: superposed subdomain solves and their cost.

``oswr_iterate`` iterates on the Robin-data error g - g*: every iterate
of subdomain j is its deviation H_j (g - g*) from the monolithic
reference, by convolution with the subdomain's Robin impulse responses,
which are computed without time stepping.  The reference is only the
error's yardstick and the base of the merged field.  These tests compare
that against direct solves and against the step-by-step iteration it
replaced, kept here as the reference: that one exchanges interface traces
and variationally recovered fluxes, where ``oswr_iterate`` exchanges
Robin data only.  They also pin the iteration's calls: no time stepping
and one tridiagonal block solve per subdomain and case, one error evaluation
per iteration, one flux recovery per interface at most; and the contract of
one sweep (``schwarz._Sweep.apply``) as a linear map on the Robin-data
error, which leaves its argument as it was.
"""

import numpy as np
import pytest
from stepping import stepped_solve

import oswr.fem as fem
import oswr.schwarz as schwarz
from oswr.fem import (
    DiffusionProfile,
    HeatProblem,
    Mesh1D,
    RobinBoundaryData,
    SpaceTimeField,
    solve_monolithic,
    solve_subdomain_robin,
    variational_flux,
)
from oswr.frequency import frequency_band_from_grid
from oswr.optimize import optimize
from oswr.schwarz import (
    decompose,
    interface_diffusion_pairs,
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


def _three_layers(with_source=False):
    """Three layers; optionally with a source, lumped mass and a moving left value."""
    mesh = Mesh1D.uniform(0.0, 1.0, 100)
    diffusion = DiffusionProfile((1.0, 1e-2, 1e-3), (0.2, 0.4))
    if with_source:
        problem = HeatProblem(
            diffusion, _source, lambda x: 20.0 * x, lambda t: 2.0 * t, 5.0, 2.0,
            1.0 / 40.0, lumped_mass=True,
        )
    else:
        problem = HeatProblem(diffusion, None, 20.0, 0.0, 50.0, 5.0, 1.0 / 40.0)
    deco = decompose(mesh, [0.2, 0.4])
    params = [
        optimize("III", REF_BAND, pair).params
        for pair in interface_diffusion_pairs(problem, deco)
    ]
    return problem, deco, params, solve_monolithic(problem, mesh)


def _outward_flux(problem, mesh, values, end):
    field = SpaceTimeField(mesh, problem.time_step, values)
    return variational_flux(
        field, problem.diffusion, end, problem.source, problem.lumped_mass
    )


def _stepping_reference(problem, deco, params, init, sweep, max_iter, tol, reference):
    """The iteration before the reduction: every iterate steps every subdomain.

    Each subdomain solve is the level-by-level loop of ``stepped_solve``.
    Per interface it keeps the trace and the variationally recovered
    outward flux of both neighbors ("left" is the subdomain left of the
    interface, at its right end) and builds each Robin series from them.
    """
    n_sub = deco.n_subdomains
    u0 = problem.initial_values(deco.global_mesh)
    state = []
    for i, node in enumerate(deco.interface_nodes):
        trace = np.zeros(problem.n_steps)
        left_flux, right_flux = np.zeros_like(trace), np.zeros_like(trace)
        if init == "from_initial":
            trace[:] = u0[node]
        elif init == "exact":
            trace = reference.values[1:, node]
            parts = [reference.values[:, lo:hi] for lo, hi in deco.node_ranges]
            left_flux = _outward_flux(problem, deco.submeshes[i], parts[i], "right")
            right_flux = _outward_flux(problem, deco.submeshes[i + 1], parts[i + 1], "left")
        state.append(
            {
                "left_trace": trace,
                "left_flux": left_flux,
                "right_trace": trace,
                "right_flux": right_flux,
            }
        )
    errors = []
    for _ in range(max_iter):
        source = state if sweep == "gauss_seidel" else [dict(s) for s in state]
        fields = []
        for j, mesh in enumerate(deco.submeshes):
            left, right = problem.bc_left, problem.bc_right
            if j > 0:
                sigma = params[j - 1].sigma2
                nb = source[j - 1]
                left = RobinBoundaryData(sigma, sigma * nb["left_trace"] - nb["left_flux"])
            if j < n_sub - 1:
                sigma = params[j].sigma1
                nb = source[j]
                right = RobinBoundaryData(sigma, sigma * nb["right_trace"] - nb["right_flux"])
            field = stepped_solve(problem, mesh, left, right)
            fields.append(field)
            if j > 0:
                state[j - 1]["right_trace"] = field.values[1:, 0]
                state[j - 1]["right_flux"] = _outward_flux(
                    problem, mesh, field.values, "left"
                )
            if j < n_sub - 1:
                state[j]["left_trace"] = field.values[1:, -1]
                state[j]["left_flux"] = _outward_flux(problem, mesh, field.values, "right")
        errors.append(
            schwarz.combined_error(
                [f.values[1:] - reference.values[1:, lo:hi]
                 for f, (lo, hi) in zip(fields, deco.node_ranges)]
            )
        )
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

    def direct_solve(series):
        ends = [
            RobinBoundaryData(sigmas[side], series[side]) if side in sides else dirichlet
            for side, dirichlet in (("left", problem.bc_left), ("right", problem.bc_right))
        ]
        return solve_subdomain_robin(problem, mesh, *ends)

    def random_series():
        return {side: rng.normal(scale=10.0, size=problem.n_steps) for side in sides}

    # Two solves differ by the response to the difference of their data.
    first, series = random_series(), random_series()
    response = schwarz._SubdomainResponse(
        problem, mesh, tuple(sigmas[side] if side in sides else None for side in ("left", "right"))
    )
    difference = np.stack([series[side] - first[side] for side in sides])
    deviation = response.rows(response.transform(difference)).T
    direct = direct_solve(series)

    rebuilt = direct_solve(first).values[1:] + deviation
    assert np.abs(rebuilt - direct.values[1:]).max() <= 1e-12
    # The identity the Robin-data exchange rests on: at a Robin end the
    # recovered flux is g - sigma * u.
    for side in sides:
        flux = _outward_flux(problem, mesh, direct.values, side)
        u_end = direct.values[1:, 0 if side == "left" else -1]
        assert np.abs(flux - (series[side] - sigmas[side] * u_end)).max() <= 1e-12


def _small_case(n_interfaces, time_step=0.125):
    mesh = Mesh1D.uniform(0.0, 1.0, 12)
    interfaces = [0.5] if n_interfaces == 1 else [0.25, 0.5]
    layers = (1.0, 0.1) if n_interfaces == 1 else (1.0, 0.1, 0.01)
    problem = HeatProblem(
        DiffusionProfile(layers, tuple(interfaces)), None, 20.0, 0.0, 0.0, 1.0, time_step
    )
    deco = decompose(mesh, interfaces)
    band = frequency_band_from_grid(1.0, time_step)
    params = [
        optimize("I", band, pair).params
        for pair in interface_diffusion_pairs(problem, deco)
    ]
    return problem, deco, params, solve_monolithic(problem, mesh)


def _counting(monkeypatch, name, owner=schwarz):
    """Replace ``owner.<name>`` by a wrapper; returns its list of calls."""
    calls = []
    fn = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("time_step", [0.125, 1.0 / 64.0])
@pytest.mark.parametrize("n_interfaces", [1, 2])
def test_no_time_stepping_and_fixed_solve_count_per_case(
    monkeypatch, n_interfaces, time_step
):
    """Given the reference, a case steps nothing in time: it makes one
    tridiagonal block solve per subdomain, for its propagator and its
    Robin-end impulses together, however many steps and iterations it runs."""
    problem, deco, params, reference = _small_case(n_interfaces, time_step)
    robin_solves = [
        _counting(monkeypatch, "solve_subdomain_robin", owner) for owner in (fem, schwarz)
    ]
    solves = _counting(monkeypatch, "solve", fem.TridiagonalSolver)

    def no_monolithic(*args, **kwargs):
        raise AssertionError("the given reference must not be solved again")

    monkeypatch.setattr(schwarz, "solve_monolithic", no_monolithic)
    expected = deco.n_subdomains
    for max_iter in (1, 7):
        solves.clear()
        history, _ = oswr_iterate(
            problem, deco, params, tol=1e-300, max_iter=max_iter, reference=reference
        )
        assert len(history.errors) == max_iter
        assert robin_solves == [[], []]
        assert len(solves) == expected


@pytest.mark.parametrize("init", schwarz.INIT_MODES)
@pytest.mark.parametrize("n_interfaces", [1, 2])
def test_call_contract_of_the_iteration(monkeypatch, n_interfaces, init):
    """One error evaluation per iteration; one flux recovery per interface
    for a guessed start and none for the exact one."""
    problem, deco, params, reference = _small_case(n_interfaces)
    errors = _counting(monkeypatch, "combined_error")
    fluxes = _counting(monkeypatch, "variational_flux")
    for tol, max_iter in ((1e-300, 5), (1e-6, 1000)):
        errors.clear()
        fluxes.clear()
        history, _ = oswr_iterate(
            problem, deco, params, tol=tol, max_iter=max_iter, init=init,
            reference=reference,
        )
        assert len(errors) == len(history.errors)
        assert len(fluxes) == (0 if init == "exact" else n_interfaces)
    assert history.converged


@pytest.mark.parametrize("sweep", schwarz.SWEEP_MODES)
def test_non_finite_iterate_is_an_error(monkeypatch, sweep):
    # A nan in one inner node's impulse response makes that node's whole
    # response spectrum nan, and so its bound: the row is never skipped.
    problem, deco, params, reference = _small_case(2)
    respond = schwarz.robin_impulse_responses
    calls = []

    def poisoned(*args):
        calls.append(1)
        responses = respond(*args)
        if len(calls) == 2:  # middle subdomain, an inner node
            responses[0, 2, 3] = np.nan
        return responses

    monkeypatch.setattr(schwarz, "robin_impulse_responses", poisoned)
    with pytest.raises(ValueError, match="iterate 1 is not finite"):
        oswr_iterate(
            problem, deco, params, tol=1e-300, max_iter=5, sweep=sweep,
            reference=reference,
        )


def _check_histories_match_stepping(sweep, init, with_source):
    problem, deco, params, reference = _three_layers(with_source)
    history, merge = oswr_iterate(
        problem, deco, params, tol=1e-10, max_iter=200, init=init, sweep=sweep,
        reference=reference,
    )
    expected = _stepping_reference(
        problem, deco, params, init, sweep, 200, 1e-10, reference
    )
    assert history.converged
    assert len(history.errors) == len(expected)
    assert np.abs(np.array(history.errors) - expected).max() <= 1e-10
    # the fixed point is the monolithic solution
    assert np.abs(merge().values - reference.values).max() <= 1e-9


def _check_exact_init_is_fixed_point(sweep, with_source):
    problem, deco, params, reference = _three_layers(with_source)
    history, merge = oswr_iterate(
        problem, deco, params, tol=1e-8, max_iter=3, init="exact", sweep=sweep,
        reference=reference,
    )
    assert history.errors[0] <= 1e-10
    assert history.iterations_to_tolerance == 1
    assert np.abs(merge().values - reference.values).max() <= 1e-10


@pytest.mark.parametrize("sweep", schwarz.SWEEP_MODES)
def test_three_layer_histories_match_step_by_step_iteration(sweep):
    _check_histories_match_stepping(sweep, "zero", with_source=False)


@pytest.mark.parametrize(
    "init, with_source",
    [
        (init, with_source)
        for init in schwarz.INIT_MODES
        for with_source in (False, True)
        if (init, with_source) != ("zero", False)
    ],
)
@pytest.mark.parametrize("sweep", schwarz.SWEEP_MODES)
def test_three_layer_histories_match_stepping_other_inits_and_sources(
    sweep, init, with_source
):
    _check_histories_match_stepping(sweep, init, with_source)


@pytest.mark.parametrize("sweep", schwarz.SWEEP_MODES)
def test_three_layer_exact_init_is_fixed_point(sweep):
    _check_exact_init_is_fixed_point(sweep, with_source=False)


@pytest.mark.parametrize("sweep", schwarz.SWEEP_MODES)
def test_three_layer_exact_init_is_fixed_point_with_source(sweep):
    _check_exact_init_is_fixed_point(sweep, with_source=True)


def _layered_case(n_interfaces, lumped_mass):
    """Up to five layers split at each layer interface, on a short window."""
    interfaces = {1: (0.5,), 2: (0.25, 0.5), 4: (0.2, 0.4, 0.6, 0.8)}[n_interfaces]
    layers = (1.0, 0.01, 0.001, 0.1, 1e-4)[: n_interfaces + 1]
    # The sweep acts on the Robin-data error alone: no data enter it.
    problem = HeatProblem(
        DiffusionProfile(layers, interfaces), None, 0.0, 0.0, 0.0, 1.0, 1.0 / 16.0, lumped_mass
    )
    deco = decompose(Mesh1D.uniform(0.0, 1.0, 20), interfaces)
    band = frequency_band_from_grid(1.0, 1.0 / 16.0)
    pairs = interface_diffusion_pairs(problem, deco)
    return problem, deco, [optimize("II", band, pair).params for pair in pairs]


@pytest.mark.parametrize("lumped_mass", [False, True])
@pytest.mark.parametrize("sweep", schwarz.SWEEP_MODES)
@pytest.mark.parametrize("n_interfaces", [1, 2, 4])
def test_sweep_is_a_linear_map_that_only_reads_its_argument(
    rng, n_interfaces, sweep, lumped_mass
):
    problem, deco, params = _layered_case(n_interfaces, lumped_mass)
    sweeps = schwarz._Sweep(problem, deco, params, sweep)
    x, y = rng.normal(scale=10.0, size=(2, 2 * n_interfaces, problem.n_steps))
    a = float(rng.normal())

    def apply(delta):
        kept = delta.copy()
        result = sweeps.apply(delta)[0]
        assert delta.tobytes() == kept.tobytes()
        assert result.shape == delta.shape and not np.shares_memory(result, delta)
        return result

    assert np.all(apply(np.zeros_like(x)) == 0.0)
    combined = apply(a * x + y)
    scale = np.abs(combined).max()
    assert scale > 0.0
    assert np.abs(combined - (a * apply(x) + apply(y))).max() <= 1e-12 * scale


@pytest.mark.parametrize("sweep", schwarz.SWEEP_MODES)
def test_five_layers_reach_the_monolithic_solution(sweep):
    # Five layers with jumps down to 1e-4 and four interfaces.
    mesh = Mesh1D.uniform(0.0, 1.0, 100)
    interfaces = (0.2, 0.4, 0.6, 0.8)
    problem = HeatProblem(
        DiffusionProfile((1.0, 0.01, 0.001, 0.1, 1e-4), interfaces),
        None, 20.0, 0.0, 50.0, 5.0, 1.0 / 40.0,
    )
    deco = decompose(mesh, interfaces)
    params = [
        optimize("III", REF_BAND, pair).params
        for pair in interface_diffusion_pairs(problem, deco)
    ]
    reference = solve_monolithic(problem, mesh)
    history, merge = oswr_iterate(
        problem, deco, params, tol=1e-10, max_iter=300, sweep=sweep, reference=reference
    )
    assert history.converged
    assert np.abs(merge().values - reference.values).max() <= 1e-9


@pytest.mark.parametrize("sweep", schwarz.SWEEP_MODES)
def test_error_finds_a_maximum_off_the_interface_rows(monkeypatch, sweep):
    # One inner node's impulse responses scaled up put the maximum off the
    # interface rows, where only the bound test can find it.  The exchange
    # reads interface rows only, so the sweep itself is unchanged.
    problem, deco, params, reference = _small_case(2)
    respond = schwarz.robin_impulse_responses

    def amplified(*args):
        responses = respond(*args)
        responses[:, 2] *= 1e3  # node 2 is inner in every subdomain
        return responses

    monkeypatch.setattr(schwarz, "robin_impulse_responses", amplified)
    sweeps = schwarz._Sweep(problem, deco, params, sweep)
    delta = sweeps.initial("zero", reference)
    for _ in range(3):
        delta, g_hats, ends_devs = sweeps.apply(delta)
        whole = max(np.abs(r.rows(g)).max() for r, g in zip(sweeps.responses, g_hats))
        assert whole > max(np.abs(dev).max() for dev in ends_devs)
        assert sweeps.error(g_hats, ends_devs) == whole
