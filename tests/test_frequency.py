"""Band construction, the convergence factor, and its analytic structure."""

import math

import numpy as np
import pytest

from oswr.frequency import (
    MU_SPLIT,
    DiffusionPair,
    FrequencyBand,
    TransmissionParams,
    frequency_band_from_grid,
    interior_critical_frequencies,
    max_rho_over_band,
    rho,
    sufficient_condition_holds,
)
from oswr.optimize import optimize_v2, optimize_v3


def test_band_reference_grid():
    band = frequency_band_from_grid(5.0, 1.0 / 40.0)
    assert band.wt1 == pytest.approx(math.sqrt(math.pi / 20.0), rel=1e-15)
    assert band.wt2 == pytest.approx(math.sqrt(20.0 * math.pi), rel=1e-15)
    assert band.k_r == pytest.approx(20.0, rel=1e-14)
    # with 8*T*dt = 1 the product wt1*wt2 collapses to pi exactly
    assert band.wt1 * band.wt2 == pytest.approx(math.pi, abs=1e-12)


@pytest.mark.parametrize(
    "dt, wt2, k_r",
    [
        # Table 1 and tps run at dt = 1/40; dt-sweep runs all four.
        (1.0 / 20.0, 5.604991216397929, 14.142135623730953),
        (1.0 / 40.0, 7.926654595212022, 20.0),
        (1.0 / 80.0, 11.209982432795858, 28.284271247461906),
        (1.0 / 160.0, 15.853309190424044, 40.0),
    ],
)
def test_band_of_each_scenario_grid_is_pinned_bit_for_bit(dt, wt2, k_r):
    band = frequency_band_from_grid(5.0, dt)
    assert band.wt1 == 0.3963327297606011
    assert band.wt2 == wt2
    assert band.k_r == k_r


def test_band_unit_wt1():
    band = frequency_band_from_grid(math.pi / 4.0, 0.01)
    assert band.wt1 == pytest.approx(1.0, rel=1e-14)


def test_band_rejects_collapse_and_bad_inputs():
    with pytest.raises(ValueError):
        frequency_band_from_grid(5.0, 10.0)
    with pytest.raises(ValueError):
        frequency_band_from_grid(5.0, 10.0 + 1e-9)
    for T, dt in ((0.0, 0.1), (-1.0, 0.1), (1.0, 0.0), (1.0, -0.1), (math.nan, 0.1), (1.0, math.inf)):
        with pytest.raises(ValueError):
            frequency_band_from_grid(T, dt)


def test_band_constructor_checks_its_endpoints():
    single = FrequencyBand(2.0, 2.0)
    assert single.degenerate
    assert single.k_r == 1.0
    for wt1, wt2 in ((2.0, 1.0), (0.0, 1.0), (1.0, math.nan), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError):
            FrequencyBand(wt1, wt2)


def test_rho_symmetric_hand_value():
    diff = DiffusionPair(1.0, 1.0)
    params = TransmissionParams.custom(1.0, 1.0, diff)
    assert rho(1.0, params, diff) == pytest.approx(0.2, abs=1e-15)


def test_rho_small_sigma_limit_is_one():
    for nu1, nu2 in ((1.0, 1.0), (4.0, 0.25), (1.0, 1e-3)):
        diff = DiffusionPair(nu1, nu2)
        params = TransmissionParams.custom(1e-12, 1e-12, diff)
        for wt in (0.3, 1.0, 7.0):
            assert abs(rho(wt, params, diff) - 1.0) <= 1e-6


def test_rho_constant_on_interior_hump_version1():
    # sigma = sqrt(nu_small) * sqrt(2*mu) * wt puts the frequency at the hump,
    # where the value depends on mu only.
    diff = DiffusionPair(16.0, 1.0)
    mu = diff.mu
    a = math.sqrt(2.0 * mu)
    level = math.sqrt(
        ((a - 1.0) ** 2 + 1.0)
        / ((math.sqrt(2.0) + math.sqrt(mu)) ** 2 + mu)
        * ((math.sqrt(2.0) - math.sqrt(mu)) ** 2 + mu)
        / ((a + 1.0) ** 2 + 1.0)
    )
    for wt in (0.05, 0.3, 1.0, 4.7, 20.0):
        params = TransmissionParams.version1(a * wt, diff)
        assert rho(wt, params, diff) == pytest.approx(level, rel=1e-12)
    assert level == pytest.approx(0.2773958089728294, abs=1e-12)


def test_rho_rejects_bad_frequency():
    diff = DiffusionPair(1.0, 1.0)
    params = TransmissionParams.custom(1.0, 1.0, diff)
    for wt in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            rho(wt, params, diff)


def test_rho_interchange_identity(rng):
    for _ in range(50):
        nu1, nu2 = rng.uniform(0.01, 10.0, size=2)
        s1, s2 = rng.uniform(0.01, 10.0, size=2)
        wt = rng.uniform(0.05, 20.0)
        a = rho(wt, TransmissionParams.custom(s1, s2, DiffusionPair(nu1, nu2)), DiffusionPair(nu1, nu2))
        b = rho(wt, TransmissionParams.custom(s2, s1, DiffusionPair(nu2, nu1)), DiffusionPair(nu2, nu1))
        assert a == pytest.approx(b, rel=1e-14)


def test_rho_positive_on_band(rng):
    band = frequency_band_from_grid(5.0, 1.0 / 40.0)
    grid = band.geometric_grid(200)
    for _ in range(100):
        nu1, nu2 = rng.uniform(1e-4, 10.0, size=2)
        s1, s2 = rng.uniform(1e-3, 10.0, size=2)
        diff = DiffusionPair(nu1, nu2)
        vals = rho(grid, TransmissionParams.custom(s1, s2, diff), diff)
        assert np.all(vals > 0.0)
        assert np.all(np.isfinite(vals))


def test_transmission_params_constructors_and_gamma():
    diff = DiffusionPair(9.0, 1.0)
    v1 = TransmissionParams.version1(2.0, diff)
    assert v1.sigma1 == v1.sigma2 == pytest.approx(2.0)  # sqrt(nu_small) = 1
    assert v1.p == v1.q == 2.0
    v2 = TransmissionParams.version2(2.0, diff)
    assert v2.sigma1 == pytest.approx(2.0)
    assert v2.sigma2 == pytest.approx(6.0)
    v3 = TransmissionParams.version3(1.0, 4.0, diff)
    assert v3.sigma1 == pytest.approx(1.0)
    assert v3.sigma2 == pytest.approx(12.0)
    assert v3.gamma == pytest.approx(4.0)
    swapped = DiffusionPair(1.0, 9.0)
    v1s = TransmissionParams.version1(2.0, swapped)
    assert v1s.sigma1 == pytest.approx(2.0)  # scales with the smaller coefficient
    with pytest.raises(ValueError):
        TransmissionParams.custom(-1.0, 1.0, diff)
    with pytest.raises(ValueError):
        TransmissionParams(1.0, 1.0, 1.0, 1.0, "IV")


def test_normalized_pair():
    assert DiffusionPair(1.0, 4.0).normalized().mu >= 1.0
    pair = DiffusionPair(4.0, 1.0)
    assert pair.normalized() is pair
    with pytest.raises(ValueError):
        DiffusionPair(0.0, 1.0)


def test_interior_critical_frequency_examples():
    d = DiffusionPair(4.0, 1.0)  # mu = 2
    assert interior_critical_frequencies(TransmissionParams.version1(2.0, d), d) == [
        pytest.approx(1.0)
    ]
    assert interior_critical_frequencies(
        TransmissionParams.version2(math.sqrt(2.0), d), d
    ) == [pytest.approx(1.0)]
    assert interior_critical_frequencies(
        TransmissionParams.version3(1.0, 2.0, d), d
    ) == [pytest.approx(1.0)]
    assert interior_critical_frequencies(TransmissionParams.custom(1.0, 1.0, d), d) == []


def test_interior_critical_frequencies_are_stationary_large_mu():
    diff = DiffusionPair(64.0, 1.0)  # mu = 8 > 2 + sqrt(3)
    assert diff.mu > MU_SPLIT
    params = TransmissionParams.version1(3.0, diff)
    points = interior_critical_frequencies(params, diff)
    assert len(points) == 3
    h = 1e-6
    for w in points:
        deriv = (rho(w + h, params, diff) - rho(w - h, params, diff)) / (2.0 * h)
        scale = rho(w, params, diff) / w
        assert abs(deriv) <= 1e-4 * scale


def test_version1_p_derivative_sign(rng):
    # sign of d(rho)/dp must match the closed form
    # (p^2 - 2 mu w^2)(p^4 - 2 p^2 (mu-1)^2 w^2 + 4 mu^2 w^4)
    checked = 0
    while checked < 60:
        mu = rng.uniform(1.1, 12.0)
        wt = rng.uniform(0.1, 5.0)
        p = rng.uniform(0.05, 6.0 * mu * wt)
        factor = (p * p - 2.0 * mu * wt * wt) * (
            p**4 - 2.0 * p * p * (mu - 1.0) ** 2 * wt * wt + 4.0 * mu * mu * wt**4
        )
        if abs(factor) < 1e-3:
            continue  # too close to a stationary point for a sign check
        diff = DiffusionPair(mu * mu, 1.0)
        h = 1e-7 * p
        up = rho(wt, TransmissionParams.version1(p + h, diff), diff)
        dn = rho(wt, TransmissionParams.version1(p - h, diff), diff)
        if abs(up - dn) < 1e-13:
            continue
        assert math.copysign(1.0, up - dn) == math.copysign(1.0, factor)
        checked += 1


def test_version2_frequency_derivative_sign(rng):
    checked = 0
    while checked < 60:
        mu = rng.uniform(1.1, 12.0)
        q = rng.uniform(0.1, 8.0)
        wt = rng.uniform(0.05, 8.0)
        factor = 2.0 * wt * wt - q * q
        if abs(factor) < 1e-3:
            continue
        diff = DiffusionPair(mu * mu, 1.0)
        params = TransmissionParams.version2(q, diff)
        h = 1e-7 * wt
        up = rho(wt + h, params, diff)
        dn = rho(wt - h, params, diff)
        if abs(up - dn) < 1e-13:
            continue
        assert math.copysign(1.0, up - dn) == math.copysign(1.0, factor)
        checked += 1


def test_version3_swap_improves_when_p_exceeds_q(rng):
    band_grid = np.geomspace(0.05, 10.0, 40)
    for _ in range(30):
        mu = rng.uniform(1.2, 10.0)
        q = rng.uniform(0.1, 3.0)
        p = q * rng.uniform(1.05, 4.0)  # wrong order: p > q with mu > 1
        diff = DiffusionPair(mu * mu, 1.0)
        bad = rho(band_grid, TransmissionParams.version3(p, q, diff), diff)
        good = rho(band_grid, TransmissionParams.version3(q, p, diff), diff)
        assert np.all(good < bad)


def test_max_rho_over_band_version2_endpoint():
    band = frequency_band_from_grid(5.0, 1.0 / 40.0)
    diff = DiffusionPair(1.0, 0.01)
    result = optimize_v2(band, diff)
    wt_star, rho_star = max_rho_over_band(result.params, diff, band, 512)
    assert abs(rho(band.wt1, result.params, diff) - rho_star) <= 1e-10
    assert wt_star in (pytest.approx(band.wt1), pytest.approx(band.wt2))


def test_max_rho_over_band_degenerate_and_validation():
    band = FrequencyBand(2.0, 2.0)
    diff = DiffusionPair(1.0, 1.0)
    params = TransmissionParams.custom(1.0, 1.0, diff)
    wt_star, rho_star = max_rho_over_band(params, diff, band, 64)
    assert wt_star == 2.0
    assert rho_star == pytest.approx(rho(2.0, params, diff))
    with pytest.raises(ValueError):
        max_rho_over_band(params, diff, band, 2)


def test_max_rho_over_band_version3_equioscillation():
    band = frequency_band_from_grid(5.0, 1.0 / 40.0)
    diff = DiffusionPair(1.0, 0.01)
    result = optimize_v3(band, diff)
    _, rho_star = max_rho_over_band(result.params, diff, band, 512)
    mid = math.sqrt(band.wt1 * band.wt2)
    for w in (band.wt1, mid, band.wt2):
        assert abs(rho(w, result.params, diff) - rho_star) <= 1e-8


def test_sufficient_condition_examples():
    diff = DiffusionPair(1.0, 0.01)
    assert sufficient_condition_holds(0.1, 0.5, diff)
    assert not sufficient_condition_holds(0.5, 0.1, diff)
    equal = DiffusionPair(2.0, 2.0)
    assert sufficient_condition_holds(9.0, 0.01, equal)
    with pytest.raises(ValueError):
        sufficient_condition_holds(0.0, 1.0, diff)
    with pytest.raises(ValueError):
        sufficient_condition_holds(1.0, -2.0, diff)


def test_sufficient_condition_implies_contraction(rng):
    band = frequency_band_from_grid(5.0, 1.0 / 40.0)
    grid = band.geometric_grid(100)
    for _ in range(1000):
        nu1, nu2 = rng.uniform(1e-3, 10.0, size=2)
        diff = DiffusionPair(nu1, nu2)
        lo, hi = rng.uniform(1e-2, 10.0, size=2)
        s_small, s_big = min(lo, hi), max(lo, hi)
        if nu1 < nu2:
            sigma1, sigma2 = s_big, s_small
        else:
            sigma1, sigma2 = s_small, s_big
        assert sufficient_condition_holds(sigma1, sigma2, diff)
        params = TransmissionParams.custom(sigma1, sigma2, diff)
        assert np.all(rho(grid, params, diff) < 1.0)
