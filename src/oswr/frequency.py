"""Frequency-domain convergence model for Robin-coupled heat transfer.

A Schwarz waveform-relaxation sweep contracts the interface error frequency
by frequency.  For two half-domains with diffusion coefficients nu1, nu2 and
Robin transmission coefficients sigma1, sigma2, the contraction rate at the
transformed frequency wt = sqrt(omega/2) is

    rho(wt)^2 = ((sigma1 - sqrt(nu2)*wt)^2 + nu2*wt^2)
              / ((sigma1 + sqrt(nu1)*wt)^2 + nu1*wt^2)
              * ((sigma2 - sqrt(nu1)*wt)^2 + nu1*wt^2)
              / ((sigma2 + sqrt(nu2)*wt)^2 + nu2*wt^2).

This module provides rho itself, the frequency band [wt1, wt2] resolved by a
time grid, the interior stationary frequencies of rho for the three standard
parameter scalings, and the sufficient condition guaranteeing rho < 1.
Values are immutable, checked when built and hold only their defining data;
all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MU_SPLIT",
    "FrequencyBand",
    "DiffusionPair",
    "TransmissionParams",
    "frequency_band_from_grid",
    "rho",
    "max_rho_over_band",
    "interior_critical_frequencies",
    "sufficient_condition_holds",
]

# Above mu = 2 + sqrt(3) the p-derivative of rho for the one-parameter
# scaling gains two extra real stationary points (its quartic factor has a
# nonnegative discriminant).
MU_SPLIT = 2.0 + math.sqrt(3.0)


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class FrequencyBand:
    """Window 0 < wt1 <= wt2 < inf of the transformed frequency wt = sqrt(omega/2)."""

    wt1: float
    wt2: float

    def __post_init__(self) -> None:
        if _require_positive("wt1", self.wt1) > _require_positive("wt2", self.wt2):
            raise ValueError(f"wt2={self.wt2} < wt1={self.wt1}")

    @property
    def k_r(self) -> float:
        return self.wt2 / self.wt1

    @property
    def degenerate(self) -> bool:
        return self.wt1 == self.wt2

    def geometric_grid(self, n_samples: int) -> np.ndarray:
        """Log-uniform frequency samples over [wt1, wt2], endpoints included."""
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.degenerate:
            return np.array([self.wt1])
        return np.geomspace(self.wt1, self.wt2, n_samples)


def frequency_band_from_grid(final_time: float, time_step: float) -> FrequencyBand:
    """Band of a solve over (0, T) with step dt, which carries omega in [pi/(2T), pi/dt].

    ValueError unless T and dt are positive and finite with dt < 2T.
    """
    T = _require_positive("final_time", final_time)
    dt = _require_positive("time_step", time_step)
    if dt >= 2.0 * T:
        raise ValueError(
            f"time_step={dt} >= 2*final_time={2.0 * T}: frequency band collapses"
        )
    omega_min, omega_max = math.pi / (2.0 * T), math.pi / dt
    return FrequencyBand(math.sqrt(omega_min / 2.0), math.sqrt(omega_max / 2.0))


@dataclass(frozen=True)
class DiffusionPair:
    """Diffusion coefficients on the two sides of an interface."""

    nu1: float
    nu2: float

    def __post_init__(self) -> None:
        _require_positive("nu1", self.nu1)
        _require_positive("nu2", self.nu2)

    @property
    def mu(self) -> float:
        """sqrt(nu1/nu2); mu**2 is the coefficient jump across the interface.

        Where nu1/nu2 overflows (a subnormal nu2), the roots are taken first.
        """
        jump = self.nu1 / self.nu2
        if math.isinf(jump):
            return math.sqrt(self.nu1) / math.sqrt(self.nu2)
        return math.sqrt(jump)

    def normalized(self) -> "DiffusionPair":
        """The same pair oriented so that mu >= 1 (swap if nu1 < nu2)."""
        if self.nu1 >= self.nu2:
            return self
        return DiffusionPair(self.nu2, self.nu1)


@dataclass(frozen=True)
class TransmissionParams:
    """Robin transmission coefficients plus their dimensionless generators.

    sigma1 acts on the subdomain left of the interface, sigma2 on the right.
    The three standard scalings tie (sigma1, sigma2) to the dimensionless
    pair (p, q); ``custom`` carries arbitrary positive coefficients.
    """

    sigma1: float
    sigma2: float
    p: float
    q: float
    version: str

    _VERSIONS = ("I", "II", "III", "custom")

    def __post_init__(self) -> None:
        _require_positive("sigma1", self.sigma1)
        _require_positive("sigma2", self.sigma2)
        _require_positive("p", self.p)
        _require_positive("q", self.q)
        if self.version not in self._VERSIONS:
            raise ValueError(f"version must be one of {self._VERSIONS}")

    @property
    def gamma(self) -> float:
        return self.q / self.p

    @classmethod
    def version1(cls, p: float, diff: DiffusionPair) -> "TransmissionParams":
        """One-parameter scaling: both coefficients sqrt(nu_small) * p."""
        scale = math.sqrt(diff.normalized().nu2)
        return cls(scale * p, scale * p, p, p, "I")

    @classmethod
    def version2(cls, q: float, diff: DiffusionPair) -> "TransmissionParams":
        """Cross scaling with a single parameter: sqrt(nu2)*q and sqrt(nu1)*q."""
        return cls(math.sqrt(diff.nu2) * q, math.sqrt(diff.nu1) * q, q, q, "II")

    @classmethod
    def version3(cls, p: float, q: float, diff: DiffusionPair) -> "TransmissionParams":
        """Cross scaling with two parameters: sqrt(nu2)*p and sqrt(nu1)*q."""
        return cls(math.sqrt(diff.nu2) * p, math.sqrt(diff.nu1) * q, p, q, "III")

    @classmethod
    def custom(
        cls, sigma1: float, sigma2: float, diff: DiffusionPair
    ) -> "TransmissionParams":
        p = sigma1 / math.sqrt(diff.nu2)
        q = sigma2 / math.sqrt(diff.nu1)
        return cls(sigma1, sigma2, p, q, "custom")


def _rho_sq_factor(wt, sigma, nu_own: float, nu_other: float):
    """Numerator and denominator of one side's factor of rho**2.

    The side with coefficient ``sigma`` and diffusion ``nu_own`` contributes
    ((sigma - sqrt(nu_other)*wt)^2 + nu_other*wt^2) over
    ((sigma + sqrt(nu_own)*wt)^2 + nu_own*wt^2).  Each factor depends on one
    sigma only, which lets a grid scan precompute it per parameter value.
    Both nu are scaled by 4**-k and sigma by 2**-k, with k bringing the
    larger nu near 1: that scales num and den by 4**-k exactly, which rho**2
    cancels, and keeps extreme coefficients from under- or overflowing it.
    The factor is also of degree 0 in (sigma, wt), so each entry's pair is
    scaled by 2**-e, with e bringing the larger of the two into [0.5, 1):
    at the lowest bands, where both are tiny, the products of the two
    sides' num and den no longer underflow to 0/0.  Powers of two scale
    exactly, so wherever every intermediate stays normal the bits are
    those of the unscaled form.
    """
    k = math.frexp(max(nu_own, nu_other))[1] // 2
    nu_own, nu_other = math.ldexp(nu_own, -2 * k), math.ldexp(nu_other, -2 * k)
    sigma = sigma * math.ldexp(1.0, -k)
    e = -np.frexp(np.maximum(sigma, wt))[1]
    sigma, wt = np.ldexp(sigma, e), np.ldexp(wt, e)
    wsq = wt * wt
    num = (sigma - np.sqrt(nu_other) * wt) ** 2 + nu_other * wsq
    den = (sigma + np.sqrt(nu_own) * wt) ** 2 + nu_own * wsq
    return num, den


def _rho_sq(wt, sigma1, sigma2, nu1: float, nu2: float):
    """Squared convergence factor; broadcasts over array arguments."""
    num1, den1 = _rho_sq_factor(wt, sigma1, nu1, nu2)
    num2, den2 = _rho_sq_factor(wt, sigma2, nu2, nu1)
    return (num1 * num2) / (den1 * den2)


def rho(wt, params: TransmissionParams, diff: DiffusionPair):
    """Convergence factor at transformed frequency wt (scalar or array).

    Evaluated through the squared rational form with one final square root,
    which avoids cancellation between the four quadratic terms.
    """
    wt_arr = np.asarray(wt, dtype=float)
    if np.any(wt_arr <= 0.0) or not np.all(np.isfinite(wt_arr)):
        raise ValueError("wt must be positive and finite")
    out = np.sqrt(_rho_sq(wt_arr, params.sigma1, params.sigma2, diff.nu1, diff.nu2))
    if np.isscalar(wt) or wt_arr.ndim == 0:
        return float(out)
    return out


def _version_i_split_roots(mu: float) -> tuple[float, float]:
    """delta * 4**-k and outer = sqrt((mu - 1)^2 + delta) of Version I, mu > MU_SPLIT.

    delta = sqrt((mu^2 - 4 mu + 1)(mu^2 + 1)) is real beyond the split.
    Since (mu - 1)^4 - delta^2 = 4 mu^2, the companion root
    sqrt((mu - 1)^2 - delta) is taken as 2 mu / outer: the difference itself
    cancels, and comes out negative for some mu beyond about 2e8.  The
    product under the root is of order mu**4, which overflows from mu of
    about 1e77 on, so both are evaluated with (mu, 1) scaled by 2**-k (see
    ``_version_i_scaling``); outer is scaled back, delta, of order mu**2,
    is not.
    """
    k, m, t = _version_i_scaling(mu)
    delta = math.sqrt((m * m - 4.0 * m * t + t * t) * (m * m + t * t))
    outer = math.sqrt((m - t) * (m - t) + delta)
    return delta, math.ldexp(outer, k)


def _version_i_scaling(mu: float) -> tuple[int, float, float]:
    """k, m = mu * 2**-k in [0.5, 1) and t = 2**-k, the scaled pair (mu, 1).

    The Version I closed forms are homogeneous in (mu, 1): written in
    (m, t), a form of degree d comes out times 2**(-d*k).  Powers of two
    scale exactly, so wherever the direct form stays a normal double the
    scaled one, scaled back, is the same double; and it stays finite for
    every double mu.  Squares are written as products, because libm's
    pow(x, 2) is not always correctly rounded and so does not commute
    with the scaling.
    """
    k = math.frexp(mu)[1]
    return k, math.ldexp(mu, -k), math.ldexp(1.0, -k)


def _stationary_frequencies(version: str, p, q, mu: float) -> list:
    """Stationary frequencies of rho for generators (p, q) of a standard scaling.

    mu is the normalized jump.  Version I reads p, Version II q, Version
    III both.  Broadcasts over array p and q: each entry of the returned
    list is one stationary point per generator value, unsorted.
    """
    if version == "II":
        return [q / math.sqrt(2.0)]
    if version == "III":
        return [np.sqrt(p * q / 2.0)]
    points = [p / math.sqrt(2.0 * mu)]
    if mu > MU_SPLIT:
        _, outer = _version_i_split_roots(mu)
        points.append(p / outer)
        # p * outer / (2 * mu), with outer and mu scaled so p * outer stays finite.
        k, m, _ = _version_i_scaling(mu)
        points.append(p * math.ldexp(outer, -k) / (2.0 * m))
    return points


def interior_critical_frequencies(
    params: TransmissionParams, diff: DiffusionPair
) -> list[float]:
    """Stationary frequencies of rho inside (0, inf) for the standard scalings.

    Version I has a stationary point at p/sqrt(2*mu) and, when mu exceeds
    2 + sqrt(3), two more where the quartic factor of the wt-derivative
    vanishes.  Version II has q/sqrt(2), Version III sqrt(p*q/2).  For
    custom coefficients no closed form is available and the list is empty.
    """
    if params.version == "custom":
        return []
    mu = diff.normalized().mu
    return sorted(float(w) for w in _stationary_frequencies(params.version, params.p, params.q, mu))


def max_rho_over_band(
    params: TransmissionParams,
    diff: DiffusionPair,
    band: FrequencyBand,
    n_samples: int = 512,
) -> tuple[float, float]:
    """Frequency attaining the maximum of rho over [wt1, wt2], and that maximum.

    Scans a geometric grid of n_samples points plus every analytic interior
    stationary frequency that falls inside the band, so for the standard
    scalings the result is exact up to arithmetic.
    """
    if n_samples < 3:
        raise ValueError("n_samples must be >= 3")
    grid = band.geometric_grid(n_samples)
    crits = [
        w
        for w in interior_critical_frequencies(params, diff)
        if band.wt1 < w < band.wt2
    ]
    if crits:
        grid = np.concatenate([grid, crits])
    values = rho(grid, params, diff)
    i = int(np.argmax(values))
    return float(grid[i]), float(values[i])


def sufficient_condition_holds(
    sigma1: float, sigma2: float, diff: DiffusionPair
) -> bool:
    """Whether (sqrt(nu1)-sqrt(nu2))*(sigma1-sigma2) <= 0.

    When true, rho < 1 on the whole band and the Schwarz iteration is
    guaranteed to contract.  The condition is sufficient only: rho < 1 can
    hold without it.
    """
    s1 = _require_positive("sigma1", sigma1)
    s2 = _require_positive("sigma2", sigma2)
    return (math.sqrt(diff.nu1) - math.sqrt(diff.nu2)) * (s1 - s2) <= 0.0
