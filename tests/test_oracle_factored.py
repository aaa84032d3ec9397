"""The pruned grid oracle against the per-candidate scan it replaced.

``brute_force_minmax`` bounds every candidate's band maximum by the
per-side factors of rho**2 at three frequencies, and takes the full band
maximum only for candidates that the bound cannot rule out, on one path
for all three versions.  Every element is the same floating-point
expression as the direct form, and a pruned candidate is strictly above
the minimum, so the result must equal, bit for bit, the scan below: one
``max_rho_over_band`` per candidate for Versions I and II, one
``_rho_sq`` row block per p for Version III.  The scan is kept here as
the reference.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from oswr.frequency import (
    DiffusionPair,
    FrequencyBand,
    TransmissionParams,
    _rho_sq,
    frequency_band_from_grid,
    max_rho_over_band,
)
from oswr.optimize import brute_force_minmax, restriction_interval_v1, restriction_intervals_v3

REF_BAND = frequency_band_from_grid(5.0, 1.0 / 40.0)


def _grid(lo, hi, n):
    if lo == hi:
        return np.array([lo])
    return np.geomspace(lo, hi, n)


def _reference_minmax(band, diff, version, param_grid_size, freq_grid_size):
    norm = diff.normalized()
    swapped = norm is not diff
    mu = norm.mu

    if version in ("I", "II"):
        if version == "I":
            lo, hi = restriction_interval_v1(band, mu)
            make = lambda v: TransmissionParams.version1(v, diff)
        else:
            lo = math.sqrt(2.0) * band.wt1
            hi = math.sqrt(2.0) * band.wt2
            make = lambda v: TransmissionParams.version2(v, diff)
        best_params = None
        best_val = math.inf
        for v in _grid(lo, hi, param_grid_size):
            candidate = make(float(v))
            _, val = max_rho_over_band(candidate, diff, band, freq_grid_size)
            if val < best_val:
                best_val = val
                best_params = candidate
        return best_params, best_val

    (p_lo, p_hi), (q_lo, q_hi) = restriction_intervals_v3(band, mu)
    p_grid = _grid(p_lo, p_hi, param_grid_size)
    q_grid = _grid(q_lo, q_hi, param_grid_size)
    freqs = band.geometric_grid(freq_grid_size)
    s_big = math.sqrt(norm.nu1)
    s_small = math.sqrt(norm.nu2)
    n_f = freqs.size
    wts = np.empty((q_grid.size, n_f + 1))
    wts[:, :n_f] = freqs
    best = (math.inf, p_grid[0], q_grid[0])
    for p_v in p_grid:
        wts[:, n_f] = np.clip(np.sqrt(p_v * q_grid / 2.0), band.wt1, band.wt2)
        vals = _rho_sq(wts, s_small * p_v, (s_big * q_grid)[:, None], norm.nu1, norm.nu2)
        maxima = np.sqrt(vals.max(axis=1))
        maxima[q_grid < p_v] = np.inf
        j = int(np.argmin(maxima))
        if maxima[j] < best[0]:
            best = (float(maxima[j]), float(p_v), float(q_grid[j]))
    val, p_best, q_best = best
    if swapped:
        p_best, q_best = q_best, p_best
    return TransmissionParams.version3(p_best, q_best, diff), val


PAIRS = {
    # mu = 10, beyond 2 + sqrt(3): three stationary frequencies for Version I
    "nu1>nu2": DiffusionPair(1.0, 0.01),
    # mu = sqrt(10), swapped orientation: one stationary frequency
    "nu1<nu2": DiffusionPair(0.1, 1.0),
    "mu=1": DiffusionPair(1.0, 1.0),
}
BANDS = {"ref": REF_BAND, "degenerate": FrequencyBand(2.0, 2.0)}


@pytest.mark.parametrize("grid", [(16, 16), (64, 48)])
@pytest.mark.parametrize("band", sorted(BANDS))
@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("version", ["I", "II", "III"])
def test_oracle_equals_per_candidate_scan(version, pair, band, grid):
    args = (BANDS[band], PAIRS[pair], version, *grid)
    assert brute_force_minmax(*args) == _reference_minmax(*args)


@pytest.mark.parametrize("version", ["I", "II", "III"])
def test_oracle_equals_per_candidate_scan_at_certify_size(version):
    # Ratio 1e8 on the 512 x 128 grid is where the oracle beats the analytic
    # Version III optimum; the figure that shows the defect must not move.
    args = (REF_BAND, DiffusionPair(1.0, 1e-8), version, 512, 128)
    assert brute_force_minmax(*args) == _reference_minmax(*args)


@pytest.mark.parametrize("version", ["I", "II", "III"])
def test_oracle_equals_per_candidate_scan_at_certify_size_swapped(version):
    # nu1 < nu2: the oracle searches the normalized pair and swaps p and q back.
    args = (REF_BAND, DiffusionPair(1e-8, 1.0), version, 512, 128)
    assert brute_force_minmax(*args) == _reference_minmax(*args)


@pytest.mark.parametrize(
    "diff",
    # The second pair's nu1/nu2 overflows; its mu is 1.34e154.
    [DiffusionPair(1.0, 1e-300), DiffusionPair(1.0, 1.0 / sys.float_info.max)],
    ids=["1e300", "max-subnormal"],
)
@pytest.mark.parametrize("version", ["I", "II", "III"])
def test_oracle_equals_per_candidate_scan_at_huge_jumps(version, diff):
    args = (REF_BAND, diff, version, 512, 128)
    assert brute_force_minmax(*args) == _reference_minmax(*args)


def test_oracle_peak_memory_at_certify_size():
    # Each 512 x 128 parameter x frequency table is 0.5 MiB: the oracle builds none.
    tracemalloc.start()
    try:
        brute_force_minmax(REF_BAND, DiffusionPair(1.0, 1e-8), "III", 512, 128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("version", ["I", "II", "III"])
def test_oracle_equals_per_candidate_scan_on_a_degenerate_band_at_certify_size(version):
    # One frequency: the three bound samples coincide, and the bound is the value.
    args = (BANDS["degenerate"], PAIRS["nu1>nu2"], version, 512, 128)
    assert brute_force_minmax(*args) == _reference_minmax(*args)
