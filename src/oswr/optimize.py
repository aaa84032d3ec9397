"""Optimized Robin transmission parameters for the three standard scalings.

Each scaling turns the min-max problem

    minimize over positive parameters:  max of rho(wt) for wt in [wt1, wt2]

into a closed form or a scalar root-finding problem:

* Version I  (sigma1 = sigma2 = sqrt(nu_small) * p): equioscillation of the
  band endpoints gives p = sqrt(2*mu*wt1*wt2) for moderate jumps; for large
  jumps the minimizer set splits into cases driven by the band ratio k_r,
  including a pair of minimizers that are the positive roots of a quartic.
* Version II (sigma1 = sqrt(nu2)*q, sigma2 = sqrt(nu1)*q): unique optimum
  q = sqrt(2*wt1*wt2) by endpoint equioscillation.
* Version III (sigma1 = sqrt(nu2)*p, sigma2 = sqrt(nu1)*q): endpoint
  equioscillation forces p*q = 2*wt1*wt2; the remaining equation (equal
  values at wt1 and at the geometric midpoint) is solved by bracketed
  bisection, yielding a three-point equioscillation.  The bisection runs
  until its bracket collapses to two adjacent doubles (or hits an exact
  zero), so no residual tolerance has to match the residual's scale,
  which shrinks with mu.

A brute-force grid oracle over the restricted parameter ranges certifies
the analytic optima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frequency import (
    MU_SPLIT,
    DiffusionPair,
    FrequencyBand,
    TransmissionParams,
    _rho_sq,
    _rho_sq_factor,
    _stationary_frequencies,
    _version_i_scaling,
    _version_i_split_roots,
    rho,
)

__all__ = [
    "VERSIONS",
    "OptimizationError",
    "CaseDataError",
    "VersionICaseData",
    "OptimizedResult",
    "version_i_case_data",
    "restriction_interval_v1",
    "quartic_positive_roots",
    "optimize_v1",
    "optimize_v2",
    "optimize_v3",
    "v3_bracket",
    "v3_equation_sides",
    "v3_residual",
    "restriction_intervals_v3",
    "brute_force_minmax",
    "optimize",
]

# Bisection controls for the Version III scalar equation.
V3_BRACKET_SHRINK = 1e-9
V3_MAX_BISECTIONS = 200


class OptimizationError(RuntimeError):
    """Raised when a parameter search cannot certify its bracket or converge."""


class CaseDataError(ValueError):
    """Raised when the Version I case diagnostics come out inconsistent.

    For every finite jump beyond the split the closed forms give h1 < h2
    and ordered parameter ranges, so a violation means the jump was not
    finite (or the arithmetic lost it).
    """


def _interior_level(mu: float) -> float:
    """The interior hump level of the one-parameter scaling: rho at wt = p/sqrt(2*mu).

    Substituting that wt into rho cancels p, so the level depends on mu only.
    """
    a = math.sqrt(2.0 * mu)
    s2 = math.sqrt(2.0)
    sm = math.sqrt(mu)
    return math.sqrt(
        ((a - 1.0) ** 2 + 1.0)
        / ((s2 + sm) ** 2 + mu)
        * ((s2 - sm) ** 2 + mu)
        / ((a + 1.0) ** 2 + 1.0)
    )


@dataclass(frozen=True)
class VersionICaseData:
    """Case diagnostics for the one-parameter (Version I) min-max problem.

    For mu <= 2 + sqrt(3) only the central parameter range is populated
    (branch ``small_mu``).  Beyond that threshold delta, h1, h2 and the
    three parameter ranges exist, and the band ratio k_r selects the branch:
    ``case_i`` (k_r > h2), ``case_ii`` (h1 < k_r <= h2) or ``case_iii``
    (k_r <= h1).
    """

    mu: float
    k_r: float
    branch: str
    delta: float | None
    h1: float | None
    h2: float | None
    interval_left: tuple[float, float] | None
    interval_center: tuple[float, float]
    interval_right: tuple[float, float] | None
    interior_level: float


def version_i_case_data(band: FrequencyBand, mu: float) -> VersionICaseData:
    """Case diagnostics of the Version I problem for a normalized jump mu >= 1."""
    if not (mu >= 1.0):
        raise ValueError(f"mu must be >= 1, got {mu}")
    wt1, wt2 = band.wt1, band.wt2
    k_r = band.k_r
    a = math.sqrt(2.0 * mu)
    center = (a * wt1, a * wt2)
    r_c = _interior_level(mu)
    if mu <= MU_SPLIT:
        return VersionICaseData(mu, k_r, "small_mu", None, None, None, None, center, None, r_c)
    # h1 and h2 are of degree one in (mu, 1); see _version_i_scaling.
    k, m, t = _version_i_scaling(mu)
    delta, _ = _version_i_split_roots(mu)
    h1 = (
        m * m
        + t * t
        + math.sqrt((m * m - 4.0 * m * t + t * t) * (m * m + 4.0 * m * t + t * t))
    ) / (4.0 * m)
    h2 = ((m - t) * (m - t) + delta) / (2.0 * m)
    h1, h2 = math.ldexp(h1, k), math.ldexp(h2, k)
    delta = math.ldexp(delta, k) * math.ldexp(1.0, k)  # inf once mu**2 overflows
    if h2 < h1 * (1.0 - 1e-12):
        raise CaseDataError(f"h2={h2} < h1={h1} for mu={mu}")
    lo, hi = restriction_interval_v1(band, mu)
    left = (lo, a * wt1)
    right = (a * wt2, hi)
    if not (left[0] <= center[0] <= right[0]):
        raise CaseDataError(f"parameter ranges out of order for mu={mu}")
    if k_r > h2:
        branch = "case_i"
    elif k_r > h1:
        branch = "case_ii"
    else:
        branch = "case_iii"
    return VersionICaseData(mu, k_r, branch, delta, h1, h2, left, center, right, r_c)


@dataclass(frozen=True)
class OptimizedResult:
    """An optimized transmission parameter set with its certificate data.

    rho_star is the analytic min-max value.  ``uniqueness`` is ``unique``,
    ``interval_of_minimizers`` (flat minimum; params holds a representative)
    or ``two_minimizers`` (params holds the smaller one, ``minimizers``
    both).  Version III results carry the bisection bracket and residual
    history; the residuals are scaled as ``optimize_v3`` evaluates them.
    """

    params: TransmissionParams
    rho_star: float
    uniqueness: str
    case_data: VersionICaseData | None = None
    minimizers: tuple[float, ...] = ()
    bracket: tuple[float, float] | None = None
    residual_history: tuple[float, ...] = ()


def restriction_interval_v1(band: FrequencyBand, mu: float) -> tuple[float, float]:
    """Parameter range that must contain every Version I minimizer.

    Outside this range, moving p toward it decreases rho at every frequency
    of the band at once, so the min-max search can be restricted to it.
    """
    if not (mu >= 1.0):
        raise ValueError(f"mu must be >= 1, got {mu}")
    wt1, wt2 = band.wt1, band.wt2
    if mu <= MU_SPLIT:
        a = math.sqrt(2.0 * mu)
        return (a * wt1, a * wt2)
    _, outer = _version_i_split_roots(mu)
    return (wt1 * 2.0 * mu / outer, wt2 * outer)


def quartic_positive_roots(band: FrequencyBand, mu: float) -> list[float]:
    """Positive roots of p**4/2 + b*p**2 + c with the endpoint-equality coefficients.

    b = (mu*wt2 - wt1)*(wt2 - mu*wt1) and c = 2*mu**2*wt1**2*wt2**2; the
    equation is solved as a quadratic in p**2 (larger root by the standard
    formula, smaller via the product of roots to avoid cancellation).
    Returns [] when there is no positive root, which happens exactly when
    the band ratio exceeds h2(mu).  b*b is of order mu**4, so the quadratic
    is solved for (p * 2**-k)**2 with (mu, 1) scaled as in
    ``_version_i_scaling``: b comes out times 4**-k and c times 16**-k.
    """
    wt1, wt2 = band.wt1, band.wt2
    k, m, t = _version_i_scaling(mu)
    b = (m * wt2 - t * wt1) * (t * wt2 - m * wt1)
    c_m = 2.0 * m * m * wt1 * wt1 * wt2 * wt2  # c * 4**-k, which stays normal
    disc = b * b - 2.0 * (c_m * t * t)
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    y_hi = -b + root
    if y_hi <= 0.0:
        return []
    p_hi = math.ldexp(math.sqrt(y_hi), k)
    if disc == 0.0:
        return [p_hi]
    return [math.sqrt(2.0 * c_m / y_hi), p_hi]


def optimize_v1(band: FrequencyBand, diff: DiffusionPair) -> OptimizedResult:
    """Best one-parameter scaling sigma1 = sigma2 = sqrt(nu_small) * p.

    The jump is normalized to mu >= 1 internally; since both coefficients
    are equal the result is orientation-independent.
    """
    norm = diff.normalized()
    mu = norm.mu
    wt1, wt2 = band.wt1, band.wt2
    case = version_i_case_data(band, mu)
    p_eq = math.sqrt(2.0 * mu * wt1 * wt2)

    if case.branch != "case_iii":
        # p_eq is optimal: unique with rho* = rho(wt1) for small_mu, and for
        # case_i when rho(wt1) reaches the interior level; otherwise (always
        # in case_ii) a flat minimum at the interior level.
        params = TransmissionParams.version1(p_eq, diff)
        if case.branch != "case_ii":
            rho_end = rho(wt1, params, diff)
            if case.branch == "small_mu" or rho_end >= case.interior_level:
                return OptimizedResult(params, rho_end, "unique", case, (p_eq,))
        return OptimizedResult(
            params, case.interior_level, "interval_of_minimizers", case, (p_eq,)
        )
    # case_iii: the two positive quartic roots are the minimizers.  Both give
    # the same band maximum; the smaller one is reported as the
    # representative, matching the observed iteration counts of the
    # reference experiments.
    roots = quartic_positive_roots(band, mu)
    if len(roots) != 2:
        raise OptimizationError(
            f"expected two quartic roots for k_r={band.k_r} <= h1={case.h1}, "
            f"got {roots}"
        )
    p_l, p_r = roots
    params = TransmissionParams.version1(p_l, diff)
    return OptimizedResult(
        params, rho(wt1, params, diff), "two_minimizers", case, (p_l, p_r)
    )


def optimize_v2(band: FrequencyBand, diff: DiffusionPair) -> OptimizedResult:
    """Best single-parameter cross scaling: q = sqrt(2*wt1*wt2), always unique."""
    q_star = math.sqrt(2.0 * band.wt1 * band.wt2)
    params = TransmissionParams.version2(q_star, diff)
    return OptimizedResult(params, rho(band.wt1, params, diff), "unique")


def restriction_intervals_v3(
    band: FrequencyBand, mu: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Ranges that must contain the Version III minimizers (p first, q second).

    Assumes the normalized orientation mu >= 1, for which p <= q at the
    optimum.  sqrt(mu**2 + 1) is taken with (mu, 1) scaled as in
    ``_version_i_scaling``, since mu**2 overflows for the largest jumps.
    """
    if not (mu >= 1.0):
        raise ValueError(f"mu must be >= 1, got {mu}")
    wt1, wt2 = band.wt1, band.wt2
    k, m, t = _version_i_scaling(mu)
    root = math.ldexp(math.sqrt(m * m + t * t), k)
    p_scale = 1.0 + 1.0 / (root + mu)  # root - (mu - 1), which cancels for large mu
    q_scale = (root + (mu - 1.0)) / mu
    return ((wt1 * p_scale, wt2 * p_scale), (wt1 * q_scale, wt2 * q_scale))


def v3_bracket(band: FrequencyBand, mu: float) -> tuple[float, float]:
    """Bisection bracket of the Version III scalar equation, for mu >= 1.

    Runs from the lower end p_lo of the p range of
    ``restriction_intervals_v3`` to p_hi = sqrt(2*wt1*wt2), with the left
    end moved V3_BRACKET_SHRINK * (p_hi - p_lo) inward to stay away from
    the p = 0 root of the equation.
    """
    (p_lo, _), _ = restriction_intervals_v3(band, mu)
    p_hi = math.sqrt(2.0 * band.wt1 * band.wt2)
    return (p_lo + V3_BRACKET_SHRINK * (p_hi - p_lo), p_hi)


def v3_equation_sides(p, band: FrequencyBand, mu: float, scale_exp: int = 0):
    """Left and right sides of the Version III scalar equation at p.

    With q tied to p by p*q = 2*wt1*wt2, equality of rho at wt1 and at the
    geometric midpoint sqrt(wt1*wt2) reduces to LHS(p) = RHS(p) with

        LHS = f(wt1) * f(wt2),   RHS = f(sqrt(wt1*wt2))**2,
        f(w) = ((p - w)^2 + w^2) / ((p + mu*w)^2 + (mu*w)^2).

    f is of order mu**-2, so both sides underflow beyond mu of about 1e77.
    ``scale_exp`` = k gives each f(w) times 4**k, with p and mu divided by
    2**k: powers of two scale exactly, so wherever the unscaled sides are
    normal doubles every sign and comparison is the same.  Broadcasts
    over array p.
    """
    p = np.asarray(p, dtype=float)
    w1, w2 = band.wt1, band.wt2
    m = math.ldexp(mu, -scale_exp)
    p_m = p * math.ldexp(1.0, -scale_exp)

    def f(w):
        return ((p - w) ** 2 + w * w) / ((p_m + m * w) ** 2 + (m * w) ** 2)

    lhs = f(w1) * f(w2)
    rhs = f(math.sqrt(w1 * w2)) ** 2
    return lhs, rhs


def v3_residual(p, band: FrequencyBand, mu: float, scale_exp: int = 0):
    """LHS - RHS of ``v3_equation_sides``; continuous in p."""
    lhs, rhs = v3_equation_sides(p, band, mu, scale_exp)
    out = lhs - rhs
    if np.isscalar(p) or np.asarray(p).ndim == 0:
        return float(out)
    return out


def _v3_curve_max(p, band: FrequencyBand, mu: float):
    """Band maximum of rho along the constraint curve q = 2*wt1*wt2/p.

    On the curve the endpoint values agree, so the maximum is the larger of
    the endpoint value and the interior value at sqrt(p*q/2) = sqrt(wt1*wt2).
    Uses the scaled form of the scalar equation that ``optimize_v3``
    bisects (a positive factor relates it to rho**2 and cancels).
    """
    lhs, rhs = v3_equation_sides(p, band, mu, math.frexp(mu)[1])
    return np.maximum(lhs, rhs)


def _v3_minimize_endpoint_level(a: float, b: float, band: FrequencyBand, mu: float) -> float:
    """Minimizer of the curve maximum on [a, b] for narrow bands.

    When the band ratio is small the interior hump stays below the endpoint
    level for every p in the bracket (the scalar equation has no root) and
    the best pair sits at the interior minimum of the endpoint level along
    the curve.  Dense scan followed by golden-section refinement.
    """
    ps = np.linspace(a, b, 513)
    vals = _v3_curve_max(ps, band, mu)
    j = int(np.argmin(vals))
    lo = ps[max(j - 1, 0)]
    hi = ps[min(j + 1, ps.size - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1 = _v3_curve_max(x1, band, mu)
    f2 = _v3_curve_max(x2, band, mu)
    for _ in range(120):
        if hi - lo <= 1e-13 * max(1.0, abs(hi)):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = _v3_curve_max(x1, band, mu)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = _v3_curve_max(x2, band, mu)
    return 0.5 * (lo + hi)


def optimize_v3(band: FrequencyBand, diff: DiffusionPair) -> OptimizedResult:
    """Best two-parameter cross scaling via bracketed bisection.

    Normalizes to mu >= 1, solves the scalar equation on ``v3_bracket``,
    recovers q = 2*wt1*wt2/p, and swaps (p, q) back when the input pair
    had nu1 < nu2.  The bisection halves the bracket until its midpoint no
    longer splits it, so the root is located to one unit in the last place
    whatever the residual's scale; for the same reason it compares residual
    signs, not products of residuals, which underflow to zero from mu of
    about 1e39 on (the residual scales like mu**-4); and it scales the
    residual by the binary exponent of mu (``scale_exp`` of
    ``v3_equation_sides``), which keeps it normal at any double mu.  The
    scalar equation has a root whenever the band is wide enough (k_r of
    roughly 6 and beyond); from k_r of about 1e20 on that root lies below
    the bracket, and the bisection runs from the lower end of the p range
    to the bracket's left end instead.  For narrower bands the endpoint
    level is minimized along the constraint curve; on a degenerate band
    both ranges of ``restriction_intervals_v3`` shrink to the point
    minimizer.  Raises OptimizationError on inconsistent residual signs or
    a stalled bisection.
    """
    norm = diff.normalized()
    swapped = norm is not diff
    mu = norm.mu
    wt1, wt2 = band.wt1, band.wt2

    def build(p_n: float, q_n: float, **extra) -> OptimizedResult:
        if swapped:
            p_n, q_n = q_n, p_n
        params = TransmissionParams.version3(p_n, q_n, diff)
        return OptimizedResult(
            params, rho(wt1, params, diff), "unique", **extra
        )

    if band.degenerate:
        (p_n, _), (q_n, _) = restriction_intervals_v3(band, mu)
        return build(p_n, q_n)
    bracket = v3_bracket(band, mu)
    a, b = bracket
    k = math.frexp(mu)[1]
    fa = v3_residual(a, band, mu, k)
    fb = v3_residual(b, band, mu, k)
    history: list[float] = [fa, fb]
    below = False
    if fa > 0.0 and fb > 0.0:
        # From k_r of about 1e20 on the root lies below the bracket's left
        # end, between it and the lower end p_lo of the p range, where the
        # residual is negative again; bisect there.  That range spans up to
        # 70 decades, so it is halved in log scale while its ends are more
        # than a factor 2 apart.
        (p_lo, _), _ = restriction_intervals_v3(band, mu)
        f_lo = v3_residual(p_lo, band, mu, k)
        if f_lo < 0.0:
            history.append(f_lo)
            a, b, fa, fb = p_lo, a, f_lo, fa
            below = True
    if fa == 0.0:
        root = a
    elif fb == 0.0:
        root = b
    elif (fa > 0.0) == (fb > 0.0):
        # Narrow bands (small k_r) leave the interior hump below the
        # endpoint level everywhere in the bracket, so the equation has no
        # root; minimize the endpoint level along the constraint curve
        # instead.  A same-sign residual with an interior sign change is
        # caught by the scan inside the fallback (the minimum would sit at
        # the crossing).
        if fa < 0.0:
            raise OptimizationError(
                f"unexpected residual signs on [{a}, {b}] (mu={mu}): "
                f"f(a)={fa}, f(b)={fb}"
            )
        root = _v3_minimize_endpoint_level(a, b, band, mu)
    else:
        root = None
        for _ in range(V3_MAX_BISECTIONS):
            mid = math.sqrt(a) * math.sqrt(b) if below and b > 2.0 * a else 0.5 * (a + b)
            if mid <= a or mid >= b:
                root = mid  # a and b are adjacent doubles
                break
            fm = v3_residual(mid, band, mu, k)
            history.append(fm)
            if fm == 0.0:
                root = mid
                break
            if (fa > 0.0) != (fm > 0.0):
                b, fb = mid, fm
            else:
                a, fa = mid, fm
        if root is None:
            raise OptimizationError(
                f"bisection did not converge within {V3_MAX_BISECTIONS} "
                f"iterations (bracket [{a}, {b}])"
            )
    q_root = 2.0 * wt1 * wt2 / root
    return build(root, q_root, bracket=bracket, residual_history=tuple(history))


_OPTIMIZERS = {"I": optimize_v1, "II": optimize_v2, "III": optimize_v3}
VERSIONS = tuple(_OPTIMIZERS)


def optimize(version: str, band: FrequencyBand, diff: DiffusionPair) -> OptimizedResult:
    """Dispatch to the optimizer for ``version`` in {"I", "II", "III"}."""
    try:
        worker = _OPTIMIZERS[version]
    except KeyError:
        raise ValueError(f"unknown version {version!r}") from None
    return worker(band, diff)


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    if lo == hi:
        return np.array([lo])
    return np.geomspace(lo, hi, n)


# Side of the square (p, q) tiles whose bounds let the Version III oracle
# skip whole tiles; band maxima are taken in chunks of twice this many.
_ORACLE_TILE = 16


def _pruned_first_argmin(bound_sq: np.ndarray, band_max, cap: float = math.inf):
    """First row-major minimizer of ``band_max`` among candidates the bound keeps.

    ``bound_sq`` holds a lower bound on each candidate's band maximum of
    rho**2 and ``band_max(flat)`` the band maxima of rho at flat candidate
    indices.  Candidates are visited in ascending bound, ``2 *
    _ORACLE_TILE`` at a time.  The threshold U starts at ``cap`` and after
    each chunk drops to the best band maximum so far, so U is at least the
    minimum; a candidate with sqrt(bound) > U is strictly above it and is
    skipped, and the first chunk that keeps none ends the scan.  Every
    candidate that attains the minimum is visited, and the smallest flat
    index among them wins.  Returns (flat index, band maximum), or None
    when no candidate is kept.
    """
    flat = bound_sq.ravel()
    order = np.argsort(flat)
    threshold, seen, maxima = cap, [], []
    for start in range(0, order.size, 2 * _ORACLE_TILE):
        chunk = order[start : start + 2 * _ORACLE_TILE]
        chunk = chunk[np.sqrt(flat[chunk]) <= threshold]
        if chunk.size == 0:
            break
        seen.append(chunk)
        maxima.append(band_max(chunk))
        threshold = min(threshold, float(maxima[-1].min()))
    if not seen:
        return None
    seen, maxima = np.concatenate(seen), np.concatenate(maxima)
    by_index = np.argsort(seen)
    j = by_index[np.argmin(maxima[by_index])]
    return int(seen[j]), float(maxima[j])


def brute_force_minmax(
    band: FrequencyBand,
    diff: DiffusionPair,
    version: str,
    param_grid_size: int = 512,
    freq_grid_size: int = 128,
) -> tuple[TransmissionParams, float]:
    """Grid oracle for the min-max problem of one of the standard scalings.

    Scans the restricted parameter range and minimizes the band maximum of
    rho.  Serves as an independent check of the analytic optimizers; the
    analytic min-max value can never exceed the value at any grid point.

    A candidate is an index pair (i, k) into a p grid and a q grid, in the
    normalized orientation, with sigma1 = sqrt(nu2) * p and sigma2 =
    sqrt(nu1) * q (sqrt(nu2) * q for Version I).  Versions I and II give
    both grids one range and search the diagonal p = q; Version III
    searches q >= p over the product of its two ranges.  The result is
    built from the winning pair, swapped back when the input pair had
    nu1 < nu2.

    The band maximum of a candidate is taken over the geometric frequency
    grid plus its interior stationary frequencies, clipped to the band, as
    ``max_rho_over_band`` does.  Only candidates that can win get it:

    1. A lower bound on a candidate's maximum of rho**2 is the maximum at
       three grid frequencies, the first, the middle and the last.  The
       analytic optimum equioscillates at wt1, sqrt(wt1*wt2) and wt2, so
       near it the bound is tight.
    2. ``_pruned_first_argmin`` takes band maxima in ascending bound, a
       chunk at a time, and stops at the first chunk whose bounds all lie
       above the best band maximum so far; the candidates it skips are
       strictly above the minimum.
    3. Version III first bounds tiles of ``_ORACLE_TILE`` x
       ``_ORACLE_TILE`` candidates.  rho**2 = (N1*N2)/(D1*D2) with N1, D1
       depending only on (p, wt) and N2, D2 only on (q, wt), so the product
       of each side's smallest N/D over the tile, maximized over the three
       samples, is a candidate's bound up to rounding.  Shrinking it by
       2**-40 covers that rounding, a few ulps, while every factor, product
       and quotient is a normal double; where one is not, no tile is
       skipped.  The cap U is the best band maximum in the tile with the
       smallest bound.  A tile whose shrunk bound is a finite normal
       double with square root above U is skipped, as is a tile wholly in
       q < p, and the candidates of the other tiles are searched with cap
       U.  On the certify cases one tile of 673 to 748 is kept.

    Each element is the same floating-point expression as the direct
    ``_rho_sq`` form, and ties are broken after the square root, as in
    the direct scan, so the result is bit for bit the one of the direct
    per-candidate scan.  No parameter x frequency table and no parameter
    x parameter array is built.
    """
    if param_grid_size < 16 or freq_grid_size < 16:
        raise ValueError("grid sizes must be >= 16")
    norm = diff.normalized()
    mu = norm.mu
    if version == "I":
        ranges = [restriction_interval_v1(band, mu)] * 2
    elif version == "II":
        ranges = [(math.sqrt(2.0) * band.wt1, math.sqrt(2.0) * band.wt2)] * 2
    elif version == "III":
        ranges = restriction_intervals_v3(band, mu)
    else:
        raise ValueError(f"unknown version {version!r}")
    p_grid, q_grid = (_grid(lo, hi, param_grid_size) for lo, hi in ranges)
    sigma1 = math.sqrt(norm.nu2) * p_grid
    sigma2 = math.sqrt(norm.nu2 if version == "I" else norm.nu1) * q_grid
    freqs = band.geometric_grid(freq_grid_size)
    samples = freqs[[0, freqs.size // 2, -1]]
    num1, den1 = _rho_sq_factor(samples, sigma1[:, None], norm.nu1, norm.nu2)
    num2, den2 = _rho_sq_factor(samples, sigma2[:, None], norm.nu2, norm.nu1)

    def band_max(i, k):
        crits = np.column_stack(_stationary_frequencies(version, p_grid[i], q_grid[k], mu))
        grid = np.broadcast_to(freqs, (i.size, freqs.size))
        wts = np.concatenate([grid, np.clip(crits, band.wt1, band.wt2)], axis=1)
        vals = _rho_sq(wts, sigma1[i, None], sigma2[k, None], norm.nu1, norm.nu2)
        return np.sqrt(vals.max(axis=1))

    def search(i, k, cap=math.inf):
        # rho**2 >= 0, so a zero start leaves the maximum over the samples.
        bound = np.zeros(i.shape)
        for c in range(samples.size):
            np.maximum(bound, (num1[i, c] * num2[k, c]) / (den1[i, c] * den2[k, c]), out=bound)
        found = _pruned_first_argmin(bound, lambda j: band_max(i[j], k[j]), cap)
        return (0, 0, math.inf) if found is None else (i[found[0]], k[found[0]], found[1])

    if version != "III":
        rows = np.arange(p_grid.size)
        i, k, best_val = search(rows, rows)
    else:
        t = _ORACLE_TILE
        starts_p, starts_q = np.arange(0, p_grid.size, t), np.arange(0, q_grid.size, t)
        ratio1, ratio2 = num1 / den1, num2 / den2
        low1 = np.minimum.reduceat(ratio1, starts_p)
        low2 = np.minimum.reduceat(ratio2, starts_q)
        tiles = (low1[:, None] * low2).max(axis=2) * (1.0 - 2.0**-40)
        # Only q >= p is searched, so tiles wholly in q < p are never scanned.
        below = np.maximum.reduceat(q_grid, starts_q) < np.minimum.reduceat(p_grid, starts_p)[:, None]
        tiles[below] = np.inf

        def candidates(a, b):  # row-major (i, k) with q >= p in tiles (a, b)
            cell = np.arange(t * t)
            i = (a[:, None] * t + cell // t).ravel()
            k = (b[:, None] * t + cell % t).ravel()
            flat = np.sort((i * q_grid.size + k)[(i < p_grid.size) & (k < q_grid.size)])
            i, k = np.divmod(flat, q_grid.size)
            keep = q_grid[k] >= p_grid[i]
            return i[keep], k[keep]

        cap = search(*candidates(*np.unravel_index([np.argmin(tiles)], tiles.shape)))[2]
        normal = 2.0**-1020
        spans = [(a.min() * b.min(), a.max() * b.max()) for a, b in ((num1, num2), (den1, den2))]
        spans += [(r.min(), r.max()) for r in (ratio1, ratio2)]
        margin_holds = all(normal <= lo and hi <= 1.0 / normal for lo, hi in spans)
        above = margin_holds & (tiles >= normal) & (tiles < np.inf) & (np.sqrt(tiles) > cap)
        i, k, best_val = search(*candidates(*np.nonzero(~(below | above))), cap)
    sides = [(float(sigma1[i]), float(p_grid[i])), (float(sigma2[k]), float(q_grid[k]))]
    if norm is not diff:
        sides.reverse()
    (s1, p), (s2, q) = sides
    return TransmissionParams(s1, s2, p, q, version), best_val
