"""Waveform-relaxation driver: decomposition, exchange, convergence tracking."""

import math

import numpy as np
import pytest

import oswr.schwarz as schwarz
from oswr.fem import (
    DiffusionProfile,
    HeatProblem,
    Mesh1D,
    solve_monolithic,
)
from oswr.frequency import (
    DiffusionPair,
    TransmissionParams,
    frequency_band_from_grid,
    sufficient_condition_holds,
)
from oswr.optimize import optimize, optimize_v2, optimize_v3
from oswr.schwarz import (
    ConvergenceHistory,
    IterationDiverged,
    decompose,
    interface_diffusion_pairs,
    oswr_iterate,
)

REF_BAND = frequency_band_from_grid(5.0, 1.0 / 40.0)


def _reference_problem(ratio, dt=1.0 / 40.0, nx=40):
    mesh = Mesh1D.uniform(0.0, 1.0, nx)
    problem = HeatProblem(
        DiffusionProfile((1.0, 1.0 / ratio), (0.5,)), None, 20.0, 0.0, 0.0, 5.0, dt
    )
    return problem, mesh, decompose(mesh, [0.5])


# ------------------------------------------------------------ decomposition


def test_decompose_two_subdomains():
    deco = decompose(Mesh1D.uniform(0.0, 1.0, 4), [0.5])
    assert deco.n_subdomains == 2
    assert [m.n_elements for m in deco.submeshes] == [2, 2]
    assert deco.interface_nodes == (2,)
    assert deco.node_ranges == ((0, 3), (2, 5))


def test_decompose_three_layer_geometry():
    deco = decompose(Mesh1D.uniform(0.0, 1.0, 100), [0.2, 0.4])
    assert [m.n_elements for m in deco.submeshes] == [20, 20, 60]
    # union of elements covers the domain, interfaces shared
    assert deco.submeshes[0].nodes[-1] == deco.submeshes[1].nodes[0]
    assert deco.submeshes[1].nodes[-1] == deco.submeshes[2].nodes[0]


def test_equal_meshes_split_at_the_same_cuts_give_equal_decompositions():
    deco = decompose(Mesh1D.uniform(0.0, 1.0, 40), [0.25, 0.5])
    again = decompose(Mesh1D(0.0, 1.0, 40), (0.25, 0.5))
    assert deco == again and hash(deco) == hash(again)
    assert deco.submeshes[1] == Mesh1D(0.25, 0.5, 10)
    assert deco != decompose(Mesh1D(0.0, 1.0, 40), [0.25, 0.75])


def test_decompose_rejections():
    mesh = Mesh1D.uniform(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        decompose(mesh, [0.3])  # not a node
    with pytest.raises(ValueError):
        decompose(mesh, [0.0])  # boundary
    with pytest.raises(ValueError):
        decompose(mesh, [0.5, 0.25])  # not increasing
    with pytest.raises(ValueError):
        decompose(mesh, [0.25, 0.5, 0.75])  # leaves 1-element subdomains
    with pytest.raises(ValueError):
        decompose(mesh, [])


# ------------------------------------------------------------- error metric


def test_sweep_error_trivial_cases():
    problem = HeatProblem(
        DiffusionProfile((1.0, 0.25), (0.5,)), None, 20.0, 0.0, 0.0, 1.0, 0.25
    )
    deco = decompose(Mesh1D.uniform(0.0, 1.0, 4), [0.5])
    params = optimize_v2(frequency_band_from_grid(1.0, 0.25), DiffusionPair(1.0, 0.25)).params
    for sweep in schwarz.SWEEP_MODES:
        sweeps = schwarz._Sweep(problem, deco, [params], sweep)
        e_hat = np.zeros((2, problem.n_steps + 1), dtype=complex)
        devs = np.zeros((2, problem.n_steps))
        assert sweeps.error(e_hat, devs) == 0.0
        # an interface row: the left end of the right subdomain
        devs[1, 2] = -0.125
        assert sweeps.error(e_hat, devs) == 0.125


# ---------------------------------------------------------------- iteration


def test_exact_init_reproduces_fixed_point():
    problem, mesh, deco = _reference_problem(10)
    reference = solve_monolithic(problem, mesh)
    params = optimize("III", REF_BAND, DiffusionPair(1.0, 0.1)).params
    history, _ = oswr_iterate(
        problem, deco, [params], tol=1e-8, max_iter=3, init="exact", reference=reference
    )
    assert history.errors[0] <= 1e-10
    assert history.iterations_to_tolerance == 1


def test_desk_scale_all_modes_reach_fixed_point():
    mesh = Mesh1D.uniform(0.0, 1.0, 4)
    problem = HeatProblem(
        DiffusionProfile((1.0, 0.25), (0.5,)), None, 20.0, 0.0, 0.0, 1.0, 0.25
    )
    deco = decompose(mesh, [0.5])
    reference = solve_monolithic(problem, mesh)
    band = frequency_band_from_grid(1.0, 0.25)
    params = optimize_v2(band, DiffusionPair(1.0, 0.25)).params
    for sweep in ("gauss_seidel", "jacobi"):
        for init in ("zero", "from_initial"):
            history, merge = oswr_iterate(
                problem,
                deco,
                [params],
                tol=1e-10,
                max_iter=50,
                init=init,
                sweep=sweep,
                reference=reference,
            )
            assert history.converged, (sweep, init)
            assert np.abs(merge().values - reference.values).max() <= 1e-10


def test_reference_ratio10_iteration_counts():
    problem, mesh, deco = _reference_problem(10)
    reference = solve_monolithic(problem, mesh)
    pair = DiffusionPair(1.0, 0.1)
    counts = {}
    for version, expected in (("I", 15), ("II", 14), ("III", 13)):
        params = optimize(version, REF_BAND, pair).params
        history, _ = oswr_iterate(problem, deco, [params], tol=1e-8, reference=reference)
        counts[version] = history.iterations_to_tolerance
        assert abs(history.iterations_to_tolerance - expected) <= 3
    assert counts["III"] <= counts["II"] <= counts["I"] + 1


def test_first_iterate_error_magnitude():
    problem, mesh, deco = _reference_problem(10)
    reference = solve_monolithic(problem, mesh)
    params = optimize("III", REF_BAND, DiffusionPair(1.0, 0.1)).params
    history, _ = oswr_iterate(problem, deco, [params], tol=1e-8, reference=reference)
    # same order as the initial value u0 = 20
    assert 0.5 <= history.errors[0] <= 100.0


def test_histories_are_deterministic():
    problem, mesh, deco = _reference_problem(100)
    reference = solve_monolithic(problem, mesh)
    params = optimize("II", REF_BAND, DiffusionPair(1.0, 0.01)).params
    runs = [
        oswr_iterate(problem, deco, [params], tol=1e-8, reference=reference)[0].errors
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_nonconvergence_reported_not_raised():
    problem, mesh, deco = _reference_problem(10)
    reference = solve_monolithic(problem, mesh)
    params = optimize("I", REF_BAND, DiffusionPair(1.0, 0.1)).params
    history, _ = oswr_iterate(problem, deco, [params], tol=1e-8, max_iter=3, reference=reference)
    assert not history.converged
    assert history.iterations_to_tolerance is None
    assert len(history.errors) == 3


def test_divergence_raises():
    mesh = Mesh1D.uniform(0.0, 1.0, 40)
    problem = HeatProblem(
        DiffusionProfile((1.0, 1e-6), (0.5,)), None, 20.0, 0.0, 0.0, 5.0, 1.0 / 40.0
    )
    deco = decompose(mesh, [0.5])
    reference = solve_monolithic(problem, mesh)
    pair = DiffusionPair(1.0, 1e-6)
    # inverted ordering violates the contraction condition badly: rho >> 1
    bad = TransmissionParams.custom(1.0, 1e-4, pair)
    assert not sufficient_condition_holds(bad.sigma1, bad.sigma2, pair)
    with pytest.raises(IterationDiverged):
        oswr_iterate(problem, deco, [bad], tol=1e-8, max_iter=400, reference=reference)


def test_iterate_validates_inputs():
    problem, mesh, deco = _reference_problem(10)
    reference = solve_monolithic(problem, mesh)
    params = optimize("II", REF_BAND, DiffusionPair(1.0, 0.1)).params
    with pytest.raises(ValueError):
        oswr_iterate(problem, deco, [], reference=reference)
    with pytest.raises(ValueError):
        oswr_iterate(problem, deco, [params], init="warm", reference=reference)
    with pytest.raises(ValueError):
        oswr_iterate(problem, deco, [params], sweep="chaotic", reference=reference)
    for tol in (-1.0, True):
        with pytest.raises(ValueError, match=f"tol must be a positive number, got {tol}"):
            oswr_iterate(problem, deco, [params], tol=tol, reference=reference)
    with pytest.raises(ValueError):
        oswr_iterate(problem, deco, [params], max_iter=0, reference=reference)


@pytest.mark.parametrize(
    "max_iter, match",
    [
        (10.0, "max_iter must be an integer, got 10.0"),
        (True, "max_iter must be an integer, got True"),
        (0, "max_iter must be >= 1"),
    ],
)
def test_max_iter_that_is_not_a_count_is_rejected_before_any_work(monkeypatch, max_iter, match):
    # 10.0 once passed the check, solved the reference and built the sweep
    # before range() failed on it; True ran one iteration.
    problem, _, deco = _reference_problem(10)
    params = optimize("II", REF_BAND, DiffusionPair(1.0, 0.1)).params

    def no_work(*args):
        raise AssertionError("max_iter must be rejected first")

    monkeypatch.setattr(schwarz, "solve_monolithic", no_work)
    monkeypatch.setattr(schwarz, "_Sweep", no_work)
    with pytest.raises(ValueError, match=match):
        oswr_iterate(problem, deco, [params], max_iter=max_iter)


def test_max_iter_may_be_a_numpy_integer():
    problem, _, deco = _reference_problem(10)
    params = optimize("II", REF_BAND, DiffusionPair(1.0, 0.1)).params
    history, _ = oswr_iterate(problem, deco, [params], tol=1e-300, max_iter=np.int64(5))
    assert len(history.errors) == 5 and history.max_iter == 5


@pytest.mark.parametrize(
    "nx, dt, final_time, match",
    [
        (20, 1.0 / 40.0, 5.0, r"reference mesh \(21 nodes\) is not the decomposition's"),
        (40, 1.0 / 20.0, 5.0, r"time grid \(100 steps of 0.05\) is not the problem's \(200 "),
        (40, 1.0 / 40.0, 2.5, r"time grid \(100 steps of 0.025\) is not the problem's \(200 "),
    ],
    ids=["other-mesh", "other-time-step", "other-window"],
)
def test_reference_off_the_case_grid_is_rejected_before_any_work(
    monkeypatch, nx, dt, final_time, match
):
    # A reference on another grid once iterated to other counts (8 in place
    # of 6 on another mesh) or failed in numpy broadcasting.
    problem, mesh, deco = _reference_problem(1e3)
    params = optimize("III", REF_BAND, DiffusionPair(1.0, 1e-3)).params
    history, _ = oswr_iterate(problem, deco, [params], reference=solve_monolithic(problem, mesh))
    assert history.iterations_to_tolerance == 6
    assert history.errors[0] == pytest.approx(0.5112688426941012, rel=1e-12)
    other = HeatProblem(problem.diffusion, None, 20.0, 0.0, 0.0, final_time, dt)
    reference = solve_monolithic(other, Mesh1D.uniform(0.0, 1.0, nx))

    def no_sweep(*args):
        raise AssertionError("a mismatched reference must be rejected first")

    monkeypatch.setattr(schwarz, "_Sweep", no_sweep)
    with pytest.raises(ValueError, match=match):
        oswr_iterate(problem, deco, [params], reference=reference)


def test_monotone_error_decrease_under_sufficient_condition(rng):
    mesh = Mesh1D.uniform(0.0, 1.0, 8)
    problem = HeatProblem(
        DiffusionProfile((1.0, 0.25), (0.5,)), None, 20.0, 0.0, 0.0, 1.0, 0.125
    )
    deco = decompose(mesh, [0.5])
    reference = solve_monolithic(problem, mesh)
    pair = DiffusionPair(1.0, 0.25)
    for _ in range(50):
        a, b = rng.uniform(0.05, 20.0, size=2)
        sigma1, sigma2 = min(a, b), max(a, b)  # nu2 < nu1 needs sigma1 <= sigma2
        params = TransmissionParams.custom(sigma1, sigma2, pair)
        assert sufficient_condition_holds(sigma1, sigma2, pair)
        history, merge = oswr_iterate(
            problem, deco, [params], tol=1e-9, max_iter=300, reference=reference
        )
        errors = history.errors
        assert all(e2 < e1 for e1, e2 in zip(errors[1:], errors[2:]))
        if history.converged:
            assert np.abs(merge().values - reference.values).max() <= 1e-9


# ------------------------------------------------------- interface plumbing


def test_interface_pairs_three_layers():
    mesh = Mesh1D.uniform(0.0, 1.0, 100)
    problem = HeatProblem(
        DiffusionProfile((1.0, 1e-2, 1e-3), (0.2, 0.4)), None, 20.0, 0.0, 50.0, 5.0, 1.0 / 40.0
    )
    deco = decompose(mesh, [0.2, 0.4])
    pairs = interface_diffusion_pairs(problem, deco)
    assert [(p.nu1, p.nu2) for p in pairs] == [(1.0, 1e-2), (1e-2, 1e-3)]
    for version in ("I", "II", "III"):
        params = [optimize(version, REF_BAND, p).params for p in pairs]
        assert params[0] != params[1]
        for prm, pr in zip(params, pairs):
            # nu2 < nu1 at both interfaces: the left coefficient never exceeds the right
            assert sufficient_condition_holds(prm.sigma1, prm.sigma2, pr)
            assert prm.sigma1 <= prm.sigma2


def test_three_subdomain_iteration_matches_monolithic():
    mesh = Mesh1D.uniform(0.0, 1.0, 100)
    problem = HeatProblem(
        DiffusionProfile((1.0, 1e-2, 1e-3), (0.2, 0.4)), None, 20.0, 0.0, 50.0, 5.0, 1.0 / 40.0
    )
    deco = decompose(mesh, [0.2, 0.4])
    reference = solve_monolithic(problem, mesh)
    pairs = interface_diffusion_pairs(problem, deco)
    params = [optimize("III", REF_BAND, p).params for p in pairs]
    history, merge = oswr_iterate(
        problem, deco, params, tol=1e-8, max_iter=200, reference=reference
    )
    assert history.converged
    assert np.abs(merge().values - reference.values).max() <= 1e-8


def test_history_invariants():
    history = ConvergenceHistory((0.5, 0.1), 1e-8, None, 2)
    assert history.max_iter == 2
    assert not history.converged
