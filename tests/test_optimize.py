"""Analytic optimizers for the three scalings, certified against grid oracles."""

import decimal
import math
import sys

import numpy as np
import pytest

from oswr.frequency import (
    MU_SPLIT,
    DiffusionPair,
    FrequencyBand,
    TransmissionParams,
    _stationary_frequencies,
    frequency_band_from_grid,
    interior_critical_frequencies,
    max_rho_over_band,
    rho,
    sufficient_condition_holds,
)
from oswr.optimize import (
    CaseDataError,
    OptimizationError,
    brute_force_minmax,
    optimize,
    optimize_v1,
    optimize_v2,
    optimize_v3,
    quartic_positive_roots,
    restriction_interval_v1,
    restriction_intervals_v3,
    v3_bracket,
    v3_equation_sides,
    v3_residual,
    version_i_case_data,
)

REF_BAND = frequency_band_from_grid(5.0, 1.0 / 40.0)
REF_MUS = (math.sqrt(10.0), 10.0, 10.0**1.5, 100.0)


def _pair(mu):
    return DiffusionPair(mu * mu, 1.0)


# ---------------------------------------------------------------- Version I


def test_restriction_interval_small_mu():
    band = FrequencyBand(1.0, 4.0)
    assert restriction_interval_v1(band, 2.0) == (
        pytest.approx(2.0),
        pytest.approx(8.0),
    )


def test_restriction_interval_large_mu_matches_formula():
    band = FrequencyBand(1.0, 2.0)
    mu = 10.0
    lo, hi = restriction_interval_v1(band, mu)
    delta = math.sqrt((mu * mu - 4 * mu + 1) * (mu * mu + 1))
    assert lo == pytest.approx(math.sqrt((mu - 1) ** 2 - delta), rel=1e-14)
    assert hi == pytest.approx(2.0 * math.sqrt((mu - 1) ** 2 + delta), rel=1e-14)
    # at both ends d(rho)/dp changes sign: uniform improvement stops there
    diff = _pair(mu)
    h = 1e-7
    for edge, wt in ((lo, band.wt1), (hi, band.wt2)):
        inner = rho(wt, TransmissionParams.version1(edge + (h if edge == lo else -h), diff), diff)
        outer = rho(wt, TransmissionParams.version1(edge - (h if edge == lo else -h), diff), diff)
        assert inner <= outer + 1e-12


def test_restriction_interval_boundary_mu_continuous():
    mu = 2.0 + math.sqrt(3.0)
    band = FrequencyBand(1.0, 2.0)
    lo, hi = restriction_interval_v1(band, mu)
    # (mu-1)^2 == 2*mu at the boundary, so both branch formulas coincide
    assert lo == pytest.approx((mu - 1.0) * 1.0, rel=1e-12)
    assert hi == pytest.approx((mu - 1.0) * 2.0, rel=1e-12)
    assert math.sqrt(2.0 * mu) == pytest.approx(mu - 1.0, rel=1e-12)


def test_quartic_roots_frozen_case():
    band = FrequencyBand(1.0, 2.0)
    roots = quartic_positive_roots(band, 10.0)
    # independent oracle: numpy's polynomial root finder
    oracle = np.roots([0.5, 0.0, (10 * 2 - 1) * (2 - 10 * 1), 0.0, 2 * 100 * 1 * 4])
    oracle = sorted(r.real for r in oracle if abs(r.imag) < 1e-12 and r.real > 0)
    assert roots == pytest.approx(oracle, rel=1e-12)
    assert roots[0] == pytest.approx(math.sqrt(152.0 - math.sqrt(21504.0)), rel=1e-14)
    assert roots[1] == pytest.approx(math.sqrt(152.0 + math.sqrt(21504.0)), rel=1e-14)
    diff = _pair(10.0)
    for p in roots:
        params = TransmissionParams.version1(p, diff)
        assert abs(rho(1.0, params, diff) - rho(2.0, params, diff)) <= 1e-10


def test_quartic_roots_empty_when_band_ratio_large():
    assert quartic_positive_roots(REF_BAND, 10.0) == []  # k_r = 20 > h2(10)


def test_quartic_double_root_at_case_boundary():
    for mu in (5.0, 10.0, 50.0):
        delta = math.sqrt((mu * mu - 4 * mu + 1) * (mu * mu + 1))
        h2 = ((mu - 1) ** 2 + delta) / (2 * mu)
        band = FrequencyBand(1.0, h2)
        b = (mu * band.wt2 - band.wt1) * (band.wt2 - mu * band.wt1)
        c = 2 * mu * mu * (band.wt1 * band.wt2) ** 2
        assert abs(b * b - 2 * c) <= 1e-9 * b * b
        assert len(quartic_positive_roots(band, mu)) <= 1


def test_quartic_empty_iff_kr_above_h2(rng):
    for _ in range(200):
        mu = rng.uniform(2.0 + math.sqrt(3.0) + 1e-6, 60.0)
        k_r = rng.uniform(1.01, 100.0)
        band = FrequencyBand(1.0, k_r)
        delta = math.sqrt((mu * mu - 4 * mu + 1) * (mu * mu + 1))
        h2 = ((mu - 1) ** 2 + delta) / (2 * mu)
        roots = quartic_positive_roots(band, mu)
        if abs(k_r - h2) < 1e-6 * h2:
            continue  # boundary itself checked separately
        assert (len(roots) == 0) == (k_r > h2)


def test_optimize_v1_small_mu_reference_case():
    diff = _pair(math.sqrt(10.0))
    res = optimize_v1(REF_BAND, diff)
    assert res.case_data.branch == "small_mu"
    assert res.uniqueness == "unique"
    p_expected = math.sqrt(2.0 * math.sqrt(10.0) * REF_BAND.wt1 * REF_BAND.wt2)
    assert res.params.p == pytest.approx(p_expected, rel=1e-14)
    assert res.params.p == pytest.approx(4.45749, abs=1e-4)
    assert res.params.sigma1 == res.params.sigma2
    assert 0.0 < res.rho_star < 1.0
    assert rho(REF_BAND.wt1, res.params, diff) == pytest.approx(
        rho(REF_BAND.wt2, res.params, diff), abs=1e-12
    )


def test_optimize_v1_case_i_interval():
    diff = _pair(10.0)
    res = optimize_v1(REF_BAND, diff)
    case = res.case_data
    assert case.branch == "case_i"
    assert case.h1 == pytest.approx(4.843539410922316, rel=1e-12)
    assert case.h2 == pytest.approx(7.974601890638081, rel=1e-12)
    assert REF_BAND.k_r > case.h2
    assert res.params.p == pytest.approx(math.sqrt(20.0 * math.pi), rel=1e-12)
    # endpoint value sits below the interior hump here: flat set of minimizers
    assert rho(REF_BAND.wt1, res.params, diff) < case.interior_level
    assert res.uniqueness == "interval_of_minimizers"
    assert res.rho_star == pytest.approx(case.interior_level, rel=1e-14)


def test_optimize_v1_case_ii_interval():
    diff = _pair(10.0**1.5)
    res = optimize_v1(REF_BAND, diff)
    assert res.case_data.branch == "case_ii"
    assert res.case_data.h1 < REF_BAND.k_r <= res.case_data.h2
    assert res.uniqueness == "interval_of_minimizers"
    assert res.rho_star == pytest.approx(res.case_data.interior_level, rel=1e-14)


def test_optimize_v1_case_iii_two_minimizers():
    band = FrequencyBand(1.0, 2.0)
    diff = _pair(10.0)
    res = optimize_v1(band, diff)
    assert res.case_data.branch == "case_iii"
    assert res.uniqueness == "two_minimizers"
    p_l, p_r = res.minimizers
    assert res.params.p == p_l
    case = res.case_data
    assert case.interval_left[0] <= p_l <= case.interval_left[1]
    assert case.interval_right[0] <= p_r <= case.interval_right[1]
    # both minimizers agree at the endpoints and beat the central candidate
    for p in (p_l, p_r):
        params = TransmissionParams.version1(p, diff)
        assert abs(rho(band.wt1, params, diff) - rho(band.wt2, params, diff)) <= 1e-10
    p_eq = math.sqrt(2.0 * 10.0 * band.wt1 * band.wt2)
    _, best_center = max_rho_over_band(
        TransmissionParams.version1(p_eq, diff), diff, band, 512
    )
    for p in (p_l, p_r):
        _, val = max_rho_over_band(TransmissionParams.version1(p, diff), diff, band, 512)
        assert val < best_center


def test_optimize_v1_case_boundaries_closed_sides():
    mu = 10.0
    delta = math.sqrt((mu * mu - 4 * mu + 1) * (mu * mu + 1))
    h1 = (mu * mu + 1 + math.sqrt((mu * mu - 4 * mu + 1) * (mu * mu + 4 * mu + 1))) / (4 * mu)
    h2 = ((mu - 1) ** 2 + delta) / (2 * mu)
    assert version_i_case_data(FrequencyBand(1.0, h1), mu).branch == "case_iii"
    assert version_i_case_data(FrequencyBand(1.0, h2), mu).branch == "case_ii"
    with pytest.raises(ValueError):
        version_i_case_data(REF_BAND, 0.5)


def test_version_i_case_data_inconsistency_is_typed():
    # An infinite jump passes the mu >= 1 check but leaves nan range
    # bounds, which reach the ordering check: a typed ValueError results.
    with pytest.raises(CaseDataError, match="out of order"):
        version_i_case_data(REF_BAND, math.inf)
    assert issubclass(CaseDataError, ValueError)


def test_version_i_case_data_h_order_check_unreachable():
    # The h1 <= h2 check cannot fire for a finite jump beyond the split:
    # with A = mu^2 - 4 mu + 1 and B = mu^2 + 4 mu + 1 <= 4 (mu^2 + 1),
    # h2 - h1 = sqrt(A) (sqrt(A) + 2 sqrt(mu^2 + 1) - sqrt(B)) / (4 mu)
    #         >= A / (4 mu) > 0,
    # far above the 1e-12 relative slack the check allows.
    for mu in np.geomspace(MU_SPLIT * (1.0 + 1e-6), 1e8, 200):
        case = version_i_case_data(REF_BAND, mu)
        assert case.h2 - case.h1 >= 0.99 * (mu * mu - 4.0 * mu + 1.0) / (4.0 * mu)


@pytest.mark.parametrize("mu", [10.0, 1e4, 236591969.74857613, 5e9])
def test_version_i_lower_range_bound_without_cancellation(mu):
    # sqrt((mu - 1)^2 - delta) in 50-digit arithmetic.  Taken directly in
    # doubles the difference is negative at mu = 236591969.7... (math
    # domain error), which ended a ratio sweep with a traceback.
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        m = decimal.Decimal(mu)
        delta = ((m * m - 4 * m + 1) * (m * m + 1)).sqrt()
        root = float(((m - 1) ** 2 - delta).sqrt())
    case = version_i_case_data(REF_BAND, mu)
    assert case.interval_left[0] == pytest.approx(root * REF_BAND.wt1, rel=1e-14)
    lo, _ = restriction_interval_v1(REF_BAND, mu)
    assert lo == case.interval_left[0]
    p = 3.0
    stationary = interior_critical_frequencies(
        TransmissionParams.version1(p, _pair(mu)), _pair(mu)
    )
    assert stationary[0] == pytest.approx(p * root / (2.0 * mu), rel=1e-14)


def test_optimize_v1_orientation_independent():
    res_fwd = optimize_v1(REF_BAND, DiffusionPair(1.0, 0.1))
    res_rev = optimize_v1(REF_BAND, DiffusionPair(0.1, 1.0))
    assert res_fwd.params.sigma1 == pytest.approx(res_rev.params.sigma1, rel=1e-14)
    assert res_fwd.params.p == pytest.approx(res_rev.params.p, rel=1e-14)


# --------------------------------------------------------------- Version II


def test_optimize_v2_reference_value_and_equioscillation():
    for mu in REF_MUS:
        diff = _pair(mu)
        res = optimize_v2(REF_BAND, diff)
        assert res.params.q == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)
        assert res.uniqueness == "unique"
        r1 = rho(REF_BAND.wt1, res.params, diff)
        r2 = rho(REF_BAND.wt2, res.params, diff)
        assert abs(r1 - r2) <= 1e-12
        assert res.rho_star == pytest.approx(r1)


def test_optimize_v2_degenerate_band():
    band = FrequencyBand(3.0, 3.0)
    res = optimize_v2(band, _pair(4.0))
    assert res.params.q == pytest.approx(math.sqrt(2.0) * 3.0, rel=1e-14)


# -------------------------------------------------------------- Version III


def test_restriction_intervals_v3_examples():
    band = FrequencyBand(1.0, 2.0)
    (p_lo, p_hi), (q_lo, q_hi) = restriction_intervals_v3(band, 10.0)
    assert p_lo == pytest.approx(math.sqrt(101.0) - 9.0, rel=1e-12)
    assert p_hi == pytest.approx(2.0 * (math.sqrt(101.0) - 9.0), rel=1e-12)
    assert q_lo == pytest.approx((math.sqrt(101.0) + 9.0) / 10.0, rel=1e-12)
    # p*q/2 spans exactly the squared band (edges multiply to wt^2 * 2mu/mu)
    assert p_lo * q_lo / 2.0 == pytest.approx(band.wt1**2, rel=1e-12)
    assert p_hi * q_hi / 2.0 == pytest.approx(band.wt2**2, rel=1e-12)
    # mu -> 1 limit collapses both ranges onto sqrt(2) * band
    (p_lo1, p_hi1), (q_lo1, q_hi1) = restriction_intervals_v3(band, 1.0 + 1e-12)
    root2 = math.sqrt(2.0)
    for got, want in ((p_lo1, root2), (q_lo1, root2), (p_hi1, 2 * root2), (q_hi1, 2 * root2)):
        assert got == pytest.approx(want, rel=1e-9)


def test_restriction_intervals_v3_endpoints_are_stationary():
    # the interval ends are where d(rho)/dp vanishes at the band endpoints:
    # rho(wt1, . ) is minimized at p_lo and rho(wt2, . ) at p_hi
    band = FrequencyBand(1.0, 2.0)
    mu = 10.0
    diff = _pair(mu)
    (p_lo, p_hi), _ = restriction_intervals_v3(band, mu)
    for wt, edge in ((band.wt1, p_lo), (band.wt2, p_hi)):
        at_edge = rho(wt, TransmissionParams.version3(edge, 3.0, diff), diff)
        for delta in (0.01 * edge, 0.05 * edge):
            below = rho(wt, TransmissionParams.version3(edge - delta, 3.0, diff), diff)
            above = rho(wt, TransmissionParams.version3(edge + delta, 3.0, diff), diff)
            assert below > at_edge
            assert above > at_edge


def test_v3_residual_known_roots_and_sign_change():
    mu = math.sqrt(10.0)
    # p = 0 solves the reduced equation, so the bracket must exclude it
    assert abs(v3_residual(1e-12, REF_BAND, mu)) <= 1e-10
    lo = REF_BAND.wt1 * (math.sqrt(mu * mu + 1.0) - (mu - 1.0))
    hi = math.sqrt(2.0 * REF_BAND.wt1 * REF_BAND.wt2)
    ps = np.linspace(lo + 1e-9 * (hi - lo), hi, 1000)
    res = v3_residual(ps, REF_BAND, mu)
    signs = np.sign(res)
    assert int(np.sum(signs[:-1] * signs[1:] < 0)) == 1
    lhs, rhs = v3_equation_sides(ps, REF_BAND, mu)
    assert np.allclose(lhs - rhs, res, rtol=0, atol=1e-18)


def test_optimize_v3_reference_case_certified():
    mu = math.sqrt(10.0)
    diff = DiffusionPair(1.0, 0.1)
    res = optimize_v3(REF_BAND, diff)
    lo = REF_BAND.wt1 * (math.sqrt(mu * mu + 1.0) - (mu - 1.0))
    hi = math.sqrt(2.0 * REF_BAND.wt1 * REF_BAND.wt2)
    assert lo <= res.params.p <= hi
    assert res.bracket == (pytest.approx(lo, rel=1e-8), pytest.approx(hi))
    assert res.bracket == v3_bracket(REF_BAND, mu)
    # frozen from a refined 400x400 two-parameter grid oracle (agrees to ~4e-4)
    assert res.params.p == pytest.approx(0.6561104893754226, abs=1e-9)
    assert res.params.q == pytest.approx(9.576413437865927, abs=1e-7)
    assert abs(v3_residual(res.params.p, REF_BAND, mu)) <= 1e-12
    assert res.params.p * res.params.q == pytest.approx(
        2.0 * REF_BAND.wt1 * REF_BAND.wt2, rel=1e-12
    )
    mid = math.sqrt(REF_BAND.wt1 * REF_BAND.wt2)
    values = [rho(w, res.params, diff) for w in (REF_BAND.wt1, mid, REF_BAND.wt2)]
    assert max(values) - min(values) <= 1e-8
    assert res.residual_history  # bisection trace is recorded


def test_optimize_v3_ordering_and_asymptotic_estimate():
    mu = math.sqrt(10.0)
    for band in (REF_BAND, FrequencyBand(0.3, 30.0)):
        res = optimize_v3(band, _pair(mu))
        hi = math.sqrt(2.0 * band.wt1 * band.wt2)
        assert res.params.p <= hi <= res.params.q
    # the closed-form estimate 2*mu/(mu-1)*wt1 is the wide-band limit
    wide = FrequencyBand(0.39633, 0.39633 * 1e4)
    res = optimize_v3(wide, _pair(mu))
    estimate = 2.0 * mu / (mu - 1.0) * wide.wt1
    assert abs(res.params.p - estimate) / estimate <= 0.05


def test_optimize_v3_swapped_orientation():
    fwd = optimize_v3(REF_BAND, DiffusionPair(1.0, 0.1))
    rev = optimize_v3(REF_BAND, DiffusionPair(0.1, 1.0))
    assert rev.params.p == pytest.approx(fwd.params.q, rel=1e-14)
    assert rev.params.q == pytest.approx(fwd.params.p, rel=1e-14)
    assert rev.params.sigma1 == pytest.approx(fwd.params.sigma2, rel=1e-14)
    assert rev.params.sigma2 == pytest.approx(fwd.params.sigma1, rel=1e-14)
    assert rev.params.p >= rev.params.q  # order flips with the orientation


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
def test_optimize_v3_equal_coefficients_beats_version2(nu):
    # At mu = 1 the two-parameter scaling still gains over p = q: the
    # bisection runs there like anywhere else.
    diff = DiffusionPair(nu, nu)
    res3 = optimize_v3(REF_BAND, diff)
    _, oracle_val = brute_force_minmax(REF_BAND, diff, "III", 512, 128)
    band_max = max_rho_over_band(res3.params, diff, REF_BAND)[1]
    assert band_max <= oracle_val * (1.0 + 1e-9)
    assert band_max < max_rho_over_band(optimize_v2(REF_BAND, diff).params, diff, REF_BAND)[1]


def test_optimize_v3_degenerate_band_point_solution():
    band = FrequencyBand(2.0, 2.0)
    mu = 3.0
    res = optimize_v3(band, _pair(mu))
    root = math.sqrt(mu * mu + 1.0)
    assert res.params.p == pytest.approx(2.0 * (root - (mu - 1.0)), rel=1e-12)
    assert res.params.q == pytest.approx(2.0 * (root + (mu - 1.0)) / mu, rel=1e-12)
    assert res.params.p * res.params.q == pytest.approx(2.0 * 4.0, rel=1e-12)


def test_optimize_v3_narrow_band_fallback():
    band = frequency_band_from_grid(1.0, 0.125)  # k_r = 4: no root in the bracket
    diff = DiffusionPair(1.0, 0.25)
    res = optimize_v3(band, diff)
    # frozen from a refined 600x600 grid oracle (min-max 0.2106532 at ~(1.308, 4.805))
    assert res.rho_star == pytest.approx(0.21065, abs=2e-4)
    assert res.params.p * res.params.q == pytest.approx(
        2.0 * band.wt1 * band.wt2, rel=1e-12
    )
    # endpoints still equioscillate along the constraint curve
    assert rho(band.wt1, res.params, diff) == pytest.approx(
        rho(band.wt2, res.params, diff), abs=1e-12
    )
    # and the two-parameter result beats the one-parameter scalings
    assert res.rho_star < optimize_v2(band, diff).rho_star


# ------------------------------------------------------------------- oracle


def test_brute_force_validates_grid_sizes():
    with pytest.raises(ValueError):
        brute_force_minmax(REF_BAND, _pair(2.0), "II", param_grid_size=8)
    with pytest.raises(ValueError):
        brute_force_minmax(REF_BAND, _pair(2.0), "II", freq_grid_size=4)
    with pytest.raises(ValueError):
        brute_force_minmax(REF_BAND, _pair(2.0), "IV")


def test_oracle_version2_minimizer_within_one_cell():
    for mu in (2.0, 10.0):
        diff = _pair(mu)
        params, _ = brute_force_minmax(REF_BAND, diff, "II", 256, 64)
        grid = np.geomspace(
            math.sqrt(2.0) * REF_BAND.wt1, math.sqrt(2.0) * REF_BAND.wt2, 256
        )
        q_star = math.sqrt(2.0 * REF_BAND.wt1 * REF_BAND.wt2)
        j = int(np.argmin(np.abs(grid - q_star)))
        cell = grid[min(j + 1, grid.size - 1)] - grid[max(j - 1, 0)]
        assert abs(params.q - q_star) <= cell


def test_oracle_version1_certifies_small_mu():
    diff = _pair(math.sqrt(10.0))
    res = optimize_v1(REF_BAND, diff)
    coarse = brute_force_minmax(REF_BAND, diff, "I", 256, 64)[1]
    fine = brute_force_minmax(REF_BAND, diff, "I", 1024, 64)[1]
    assert fine == pytest.approx(res.rho_star, rel=1e-3)
    # the grid value can only sit above the true optimum, tightening as it refines
    assert res.rho_star <= fine <= coarse + 1e-12


def test_oracle_version3_product_constraint():
    diff = _pair(10.0)
    params, val = brute_force_minmax(REF_BAND, diff, "III", 128, 64)
    (p_lo, p_hi), (q_lo, q_hi) = restriction_intervals_v3(REF_BAND, 10.0)
    gp = (p_hi / p_lo) ** (1.0 / 127.0)
    gq = (q_hi / q_lo) ** (1.0 / 127.0)
    cell = 2.0 * (params.p * (gp - 1.0) * params.q + params.q * (gq - 1.0) * params.p)
    assert abs(params.p * params.q - 2.0 * REF_BAND.wt1 * REF_BAND.wt2) <= cell
    analytic = optimize_v3(REF_BAND, diff)
    assert analytic.rho_star <= val + 1e-3


def test_oracle_consistency_all_versions(rng):
    for mu in (math.sqrt(10.0), 10.0):
        diff = _pair(mu)
        for version in ("I", "II", "III"):
            analytic = optimize(version, REF_BAND, diff)
            _, oracle_val = brute_force_minmax(REF_BAND, diff, version, 64, 48)
            assert analytic.rho_star <= oracle_val + 1e-3


CERTIFY_RATIOS = (10.0, 1e2, 1e4, 1e6, 1e8)


@pytest.mark.parametrize("ratio", CERTIFY_RATIOS)
def test_version3_optimum_certified_at_extreme_ratios(ratio):
    # The oracle test above stops at 1e4 with an absolute slack larger than
    # rho* itself at the large ratios (7.4e-4 at 1e6, 7.4e-5 at 1e8 on this
    # band), so this one allows rounding only; the residual's scale shrinks
    # with mu, so the bisection must not stop on an absolute residual.
    diff = DiffusionPair(1.0, 1.0 / ratio)
    analytic = optimize("III", REF_BAND, diff)
    _, oracle_val = brute_force_minmax(REF_BAND, diff, "III", 512, 128)
    assert analytic.rho_star <= oracle_val * (1.0 + 1e-9)


@pytest.mark.parametrize("ratio", CERTIFY_RATIOS)
def test_version3_bisection_brackets_root_to_one_ulp(ratio):
    # The returned p is a root of the scalar equation up to one unit in the
    # last place: the residual is 0 there or flips sign at a neighbor.
    mu = math.sqrt(ratio)
    p = optimize_v3(REF_BAND, DiffusionPair(1.0, 1.0 / ratio)).params.p
    at_p = v3_residual(p, REF_BAND, mu)
    neighbors = [v3_residual(math.nextafter(p, t), REF_BAND, mu) for t in (0.0, math.inf)]
    assert at_p == 0.0 or any((at_p > 0.0) != (r > 0.0) for r in neighbors)


# -------------------------------------------------------------- invariants


def test_all_optimizers_satisfy_sufficient_condition():
    for mu in REF_MUS:
        for diff in (_pair(mu), DiffusionPair(1.0, mu * mu)):
            for version in ("I", "II", "III"):
                res = optimize(version, REF_BAND, diff)
                assert sufficient_condition_holds(
                    res.params.sigma1, res.params.sigma2, diff
                )
                assert 0.0 < res.rho_star < 1.0


def test_version_ordering_at_reference_settings():
    for mu in REF_MUS:
        diff = _pair(mu)
        r1 = optimize_v1(REF_BAND, diff).rho_star
        r2 = optimize_v2(REF_BAND, diff).rho_star
        r3 = optimize_v3(REF_BAND, diff).rho_star
        assert r3 <= r2
        if mu >= 10.0:
            assert r2 <= r1


def test_optimize_dispatch():
    diff = _pair(2.0)
    assert optimize("I", REF_BAND, diff).params.version == "I"
    with pytest.raises(ValueError):
        optimize("X", REF_BAND, diff)


@pytest.mark.parametrize("ratio", [1e32, 1e160, 1e200, 1e300])
def test_optimize_v3_certifies_at_every_jump_a_double_can_hold(ratio):
    # From a ratio of about 8e31 the lower end of the p range cancelled to
    # 0, so the oracle could not run; beyond about 1.5e154 the bisection's
    # residual underflowed to 0 and the left end of the bracket came out.
    diff = DiffusionPair(1.0, 1.0 / ratio)
    res = optimize_v3(REF_BAND, diff)
    _, oracle_val = brute_force_minmax(REF_BAND, diff, "III", 512, 128)
    assert res.rho_star <= oracle_val * (1.0 + 1e-9)


@pytest.mark.parametrize(
    "diff",
    [DiffusionPair(1.0, 1.0 / r) for r in (1e160, 1e200, 1e300)]
    + [DiffusionPair(sys.float_info.max, 1.0), DiffusionPair(1.0, 1.0 / sys.float_info.max)],
    ids=["1e160", "1e200", "1e300", "max", "max-subnormal"],
)
def test_optimize_v1_certifies_at_every_jump_a_double_can_hold(diff):
    # From a ratio of about 1e154 mu**4 in the split roots and b*b in the
    # quartic overflowed: the quartic roots came out as 0 and inf, and the
    # oracle's parameter grid started at 0.  At the largest ratio the
    # oracle's third stationary frequency v * outer overflowed too.
    res = optimize_v1(REF_BAND, diff)
    assert res.uniqueness == "two_minimizers"
    _, oracle_val = brute_force_minmax(REF_BAND, diff, "I", 512, 128)
    assert res.rho_star <= oracle_val * (1.0 + 1e-9)


def _direct_quartic_roots(band, mu):
    """The quartic roots as computed before mu was scaled: b*b overflows for mu near 1e77."""
    wt1, wt2 = band.wt1, band.wt2
    b = (mu * wt2 - wt1) * (wt2 - mu * wt1)
    c = 2.0 * mu * mu * wt1 * wt1 * wt2 * wt2
    disc = b * b - 2.0 * c
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    y_hi = -b + root
    if y_hi <= 0.0:
        return []
    if disc == 0.0:
        return [math.sqrt(y_hi)]
    return [math.sqrt(2.0 * c / y_hi), math.sqrt(y_hi)]


@pytest.mark.parametrize("band", [REF_BAND, FrequencyBand(1.0, 2.0), FrequencyBand(0.3, 0.31)])
def test_version_i_closed_forms_are_the_same_doubles_where_they_stay_finite(band):
    # The closed forms scale mu by a power of two; wherever the direct
    # formulas stay finite that scaling is exact, so nothing moves.  Squares
    # are products: libm's pow(x, 2) is not always correctly rounded (at
    # mu = 1.352843002968459e46 it is 0.500005 ulp off), so it does not
    # commute with the scaling.  At the other mu below pow(x, 2) on the
    # scaled x = (mu - 1) * 2**-k would move outer (first two) or h2.
    misrounded = [
        1.352843002968459e46,
        1.0030240122242335e28,
        19106168443341.105,
        1526689.3205752487,
        242903849749098.94,
    ]
    for mu in [*np.geomspace(MU_SPLIT * (1.0 + 1e-12), 1e76, 400), 5.0, 10.0, 1e3, *misrounded]:
        mu = float(mu)
        delta = math.sqrt((mu * mu - 4.0 * mu + 1.0) * (mu * mu + 1.0))
        h1 = (
            mu * mu + 1.0 + math.sqrt((mu * mu - 4.0 * mu + 1.0) * (mu * mu + 4.0 * mu + 1.0))
        ) / (4.0 * mu)
        h2 = ((mu - 1.0) * (mu - 1.0) + delta) / (2.0 * mu)
        outer = math.sqrt((mu - 1.0) * (mu - 1.0) + delta)
        case = version_i_case_data(band, mu)
        assert (case.delta, case.h1, case.h2) == (delta, h1, h2)
        assert restriction_interval_v1(band, mu) == (band.wt1 * 2.0 * mu / outer, band.wt2 * outer)
        assert quartic_positive_roots(band, mu) == _direct_quartic_roots(band, mu)
        crits = _stationary_frequencies("I", np.geomspace(1e-3, 1e3, 64), None, mu)
        assert np.array_equal(crits[2], np.geomspace(1e-3, 1e3, 64) * outer / (2.0 * mu))


def test_restriction_interval_v3_keeps_its_lower_end_at_huge_jumps():
    (p_lo, _), _ = restriction_intervals_v3(REF_BAND, 1e100)
    assert p_lo == pytest.approx(REF_BAND.wt1, rel=1e-15)
