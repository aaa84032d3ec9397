"""Acceptance gate: one test per criterion, each printing its PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they pass.
"""

import math
import time

import numpy as np
import pytest

from oswr.experiments import (
    ExperimentConfig,
    run_dt_sweep,
    run_dx_sweep,
    run_ratio_sweep,
)
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
    rho,
    sufficient_condition_holds,
)
from oswr.optimize import (
    brute_force_minmax,
    optimize,
    optimize_v2,
    optimize_v3,
    quartic_positive_roots,
    restriction_interval_v1,
    restriction_intervals_v3,
)
from oswr.schwarz import (
    decompose,
    interface_diffusion_pairs,
    oswr_iterate,
)

REF_BAND = frequency_band_from_grid(5.0, 1.0 / 40.0)
TABLE_1 = {
    10.0: {"I": 15, "II": 14, "III": 13},
    100.0: {"I": 21, "II": 11, "III": 8},
    1000.0: {"I": 39, "II": 9, "III": 6},
    10000.0: {"I": 169, "II": 9, "III": 6},
}


def _report(number, name):
    print(f"\nACCEPTANCE CRITERION {number} ({name}): PASS")


def _read_rows(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        return [dict(zip(header, line.rstrip("\n").split(","))) for line in fh]


@pytest.fixture(scope="module")
def table1_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("table1")
    cfg = ExperimentConfig(scenario="ratio_sweep", out_dir=str(out))
    start = time.monotonic()
    paths = run_ratio_sweep(cfg)
    elapsed = time.monotonic() - start
    rows = _read_rows(paths[0])
    return rows, elapsed


def _draws(n=20, seed=12345):
    """(band, pair) draws in the wide-band regime the equioscillation needs."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        mu = 10.0 ** rng.uniform(math.log10(1.1), 2.0)
        final_time = rng.uniform(1.0, 10.0)
        n_steps = int(rng.integers(40, 401))
        band = frequency_band_from_grid(final_time, final_time / n_steps)
        out.append((band, DiffusionPair(mu * mu, 1.0)))
    return out


def test_criterion_01_table1_reproduction(table1_rows):
    rows, elapsed = table1_rows
    assert elapsed < 60.0, f"ratio sweep took {elapsed:.1f}s"
    assert len(rows) == 12
    for row in rows:
        assert row["error"] == ""
        expected = TABLE_1[float(row["ratio"])][row["version"]]
        tolerance = max(3, round(0.2 * expected))
        got = int(row["iterations"])
        assert abs(got - expected) <= tolerance, (
            f"ratio {row['ratio']} version {row['version']}:{got} vs {expected}"
        )
        assert float(row["final_error"]) <= 1e-8
    _report(1, "Table-1 reproduction")


def test_criterion_02_version_ordering(table1_rows):
    rows, _ = table1_rows
    counts = {(float(r["ratio"]), r["version"]): int(r["iterations"]) for r in rows}
    for ratio in (100.0, 1000.0, 10000.0):
        assert counts[(ratio, "III")] <= counts[(ratio, "II")] <= counts[(ratio, "I")]
    assert counts[(10.0, "III")] <= counts[(10.0, "II")] + 1
    assert counts[(10.0, "II")] <= counts[(10.0, "I")] + 1
    _report(2, "version ordering")


def test_criterion_03_version2_equioscillation():
    for band, pair in _draws():
        params = optimize_v2(band, pair).params
        gap = abs(rho(band.wt1, params, pair) - rho(band.wt2, params, pair))
        assert gap <= 1e-12
    _report(3, "Version II equioscillation")


def test_criterion_04_version3_three_point_equioscillation():
    for band, pair in _draws():
        params = optimize_v3(band, pair).params
        points = (band.wt1, math.sqrt(band.wt1 * band.wt2), band.wt2)
        values = [rho(w, params, pair) for w in points]
        assert max(values) - min(values) <= 1e-8
        product = 2.0 * band.wt1 * band.wt2
        assert abs(params.p * params.q - product) <= 1e-12 * product
    _report(4, "Version III three-point equioscillation")


def test_criterion_05_oracle_certification():
    start = time.monotonic()
    n = 512
    for ratio in (10.0, 100.0, 1000.0, 10000.0):
        pair = DiffusionPair(1.0, 1.0 / ratio)
        mu = pair.normalized().mu
        for version in ("I", "II", "III"):
            analytic = optimize(version, REF_BAND, pair)
            oracle_params, oracle_val = brute_force_minmax(
                REF_BAND, pair, version, n, 128
            )
            assert analytic.rho_star <= oracle_val + 1e-3
            if version == "I":
                lo, hi = restriction_interval_v1(REF_BAND, mu)
                grid = np.geomspace(lo, hi, n)
                j = int(np.argmin(np.abs(grid - oracle_params.p)))
                cell = grid[min(j + 1, n - 1)] - grid[max(j - 1, 0)]
                if analytic.uniqueness == "unique":
                    assert abs(oracle_params.p - analytic.params.p) <= cell
                elif analytic.uniqueness == "two_minimizers":
                    assert (
                        min(abs(oracle_params.p - m) for m in analytic.minimizers)
                        <= cell
                    )
                else:
                    # flat minimizing set: membership via its defining level
                    level = max(
                        rho(REF_BAND.wt1, oracle_params, pair),
                        rho(REF_BAND.wt2, oracle_params, pair),
                    )
                    assert level <= analytic.case_data.interior_level + 1e-9
            elif version == "II":
                grid = np.geomspace(
                    math.sqrt(2.0) * REF_BAND.wt1, math.sqrt(2.0) * REF_BAND.wt2, n
                )
                j = int(np.argmin(np.abs(grid - oracle_params.q)))
                cell = grid[min(j + 1, n - 1)] - grid[max(j - 1, 0)]
                assert abs(oracle_params.q - analytic.params.q) <= cell
            else:
                (p_lo, p_hi), (q_lo, q_hi) = restriction_intervals_v3(REF_BAND, mu)
                p_grid = np.geomspace(p_lo, p_hi, n)
                q_grid = np.geomspace(q_lo, q_hi, n)
                jp = int(np.argmin(np.abs(p_grid - oracle_params.p)))
                jq = int(np.argmin(np.abs(q_grid - oracle_params.q)))
                p_cell = p_grid[min(jp + 1, n - 1)] - p_grid[max(jp - 1, 0)]
                q_cell = q_grid[min(jq + 1, n - 1)] - q_grid[max(jq - 1, 0)]
                assert abs(oracle_params.p - analytic.params.p) <= p_cell
                assert abs(oracle_params.q - analytic.params.q) <= q_cell
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"oracle certification took {elapsed:.1f}s"
    _report(5, "oracle certification")


def test_criterion_06_version1_case_machinery():
    from oswr.frequency import FrequencyBand

    band = FrequencyBand.from_wt(1.0, 2.0)
    mu = 10.0
    roots = quartic_positive_roots(band, mu)
    # independent oracle for the expected roots: numpy's root finder on the
    # same quartic (the closed form p^2 = 152 +/- sqrt(21504))
    oracle = np.roots([0.5, 0.0, (mu * 2.0 - 1.0) * (2.0 - mu), 0.0, 2.0 * mu * mu * 4.0])
    expected = sorted(r.real for r in oracle if abs(r.imag) < 1e-12 and r.real > 0)
    assert len(roots) == len(expected) == 2
    for got, want in zip(roots, expected):
        assert abs(got - want) <= 1e-4
    diff = DiffusionPair(mu * mu, 1.0)
    for p in roots:
        params = TransmissionParams.version1(p, diff)
        assert abs(rho(1.0, params, diff) - rho(2.0, params, diff)) <= 1e-10
    # above the h2 threshold the quartic has no positive roots
    assert quartic_positive_roots(REF_BAND, mu) == []
    _report(6, "Version I case machinery")


def test_criterion_07_sufficient_condition_sweep():
    rng = np.random.default_rng(12345)
    grid = REF_BAND.geometric_grid(100)
    violations = 0
    for _ in range(1000):
        nu1, nu2 = rng.uniform(1e-3, 10.0, size=2)
        pair = DiffusionPair(nu1, nu2)
        a, b = rng.uniform(1e-2, 10.0, size=2)
        small, big = min(a, b), max(a, b)
        sigma1, sigma2 = (big, small) if nu1 < nu2 else (small, big)
        assert sufficient_condition_holds(sigma1, sigma2, pair)
        params = TransmissionParams.custom(sigma1, sigma2, pair)
        if not np.all(rho(grid, params, pair) < 1.0):
            violations += 1
    assert violations == 0
    _report(7, "sufficient-condition sweep")


def test_criterion_08_fixed_point_equivalence():
    mesh = Mesh1D.uniform(0.0, 1.0, 8)
    problem = HeatProblem(
        DiffusionProfile((1.0, 0.25), (0.5,)), None, 20.0, 0.0, 0.0, 1.0, 0.125
    )
    deco = decompose(mesh, [0.5])
    reference = solve_monolithic(problem, mesh)
    band = frequency_band_from_grid(1.0, 0.125)
    pair = DiffusionPair(1.0, 0.25)
    for version in ("I", "II", "III"):
        params = optimize(version, band, pair).params
        history, combined = oswr_iterate(
            problem, deco, [params], tol=1e-10, max_iter=300, reference=reference
        )
        assert history.converged, version
        assert np.abs(combined.values - reference.values).max() <= 1e-9
    _report(8, "fixed-point equivalence")


def test_criterion_09_solver_orders():
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
    for a, b in zip(temporal, temporal[1:]):
        assert abs(math.log2(a / b) - 1.0) <= 0.15
    spatial = [run(nx, 0.5 / 8192) for nx in (8, 16, 32)]
    for a, b in zip(spatial, spatial[1:]):
        assert abs(math.log2(a / b) - 2.0) <= 0.2
    _report(9, "manufactured-solution orders")


def test_criterion_10_sweep_trends(tmp_path):
    cfg_dt = ExperimentConfig(
        scenario="dt_sweep",
        ratios=(1000.0,),
        versions=("I", "II"),
        out_dir=str(tmp_path / "dt"),
    )
    rows = _read_rows(run_dt_sweep(cfg_dt)[0])
    for version in ("I", "II"):
        counts = [
            int(r["iterations"])
            for r in rows
            if r["version"] == version  # dts are descending in the default list
        ]
        assert counts == sorted(counts), f"version {version}: {counts}"
    cfg_dx = ExperimentConfig(
        scenario="dx_sweep", ratios=(10.0,), out_dir=str(tmp_path / "dx")
    )
    rows = _read_rows(run_dx_sweep(cfg_dx)[0])
    for version in ("I", "II", "III"):
        counts = [int(r["iterations"]) for r in rows if r["version"] == version]
        assert max(counts) - min(counts) <= 5, f"version {version}: {counts}"
    _report(10, "time-step and mesh-size trends")


def test_criterion_11_three_layer_stack():
    mesh = Mesh1D.uniform(0.0, 1.0, 100)
    problem = HeatProblem(
        DiffusionProfile((1.0, 1e-2, 1e-3), (0.2, 0.4)),
        None,
        20.0,
        0.0,
        50.0,
        5.0,
        1.0 / 40.0,
    )
    deco = decompose(mesh, [0.2, 0.4])
    reference = solve_monolithic(problem, mesh)
    pairs = interface_diffusion_pairs(problem, deco)
    counts = {}
    for version in ("I", "II", "III"):
        params = [optimize(version, REF_BAND, p).params for p in pairs]
        history, combined = oswr_iterate(
            problem, deco, params, tol=1e-8, max_iter=1000, reference=reference
        )
        assert history.converged, version
        counts[version] = history.iterations_to_tolerance
        assert np.abs(combined.values - reference.values).max() <= 1e-8
    assert counts["III"] <= counts["II"] < counts["I"]
    _report(11, "three-layer stack scenario")
