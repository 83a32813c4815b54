"""Calibration of risk aversion and the reversion level to a target rate.

In the known-parameter limit the riskless rate is an explicit quadratic
in the factor, so its stationary mean is available in closed form.
Matching local curvature of CARA and CRRA marginal utilities around the
reversion level forces gamma = R / a^2, and substituting into the mean
rate gives a cubic in gamma with a unique positive root whenever
lam > 1/2:

    l(G) = G^3/lam + 2 R G^2 + (Er - rho + 2 R (lam - 1)) G + R/2 - R lam
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (InvalidParamsError, MarketState, ModelParams,
                    _require_finite, derive_constants, expected_u)


class NoPositiveRootError(ArithmeticError):
    """Calibration cubic has no positive root (l(0) >= 0)."""


@dataclass(frozen=True)
class CalibrationTarget:
    risk_aversion: float       # CRRA coefficient R
    expected_rate: float       # target stationary mean riskless rate
    lam: float
    rho: float

    def __post_init__(self) -> None:
        _require_finite(self, ("risk_aversion", "expected_rate", "lam", "rho"))
        if not self.risk_aversion > 0.0 or not self.lam > 0.0:
            raise InvalidParamsError("risk_aversion and lam must be positive")


def expected_rate(gamma: float, a: float, lam: float, rho: float) -> float:
    """Mean riskless rate over the stationary law, known-parameter limit.

    (rho + G - a^2/2) + a^2 (lam + 2G) - 2 G (lam + G) (a^2 + 1/(2 lam)),
    i.e. r0 + r1 E[X] + r2 E[X^2] with E[X] = a, E[X^2] = a^2 + 1/(2 lam).
    """
    return ((rho + gamma - 0.5 * a * a) + a * a * (lam + 2.0 * gamma)
            - 2.0 * gamma * (lam + gamma) * (a * a + 1.0 / (2.0 * lam)))


def _cubic(gamma: float, target: CalibrationTarget) -> float:
    r, lam, rho, er = (target.risk_aversion, target.lam, target.rho,
                       target.expected_rate)
    return (gamma ** 3 / lam + 2.0 * r * gamma ** 2
            + (er - rho + 2.0 * r * (lam - 1.0)) * gamma + 0.5 * r - r * lam)


def solve_gamma(target: CalibrationTarget) -> tuple[float, float]:
    """Unique positive root of the calibration cubic and a = sqrt(R/gamma).

    Bisection to bracket width 1e-14; cheap and derivative-free.
    """
    if _cubic(0.0, target) >= 0.0:
        raise NoPositiveRootError("l(0) >= 0: no positive root (need lam > 1/2)")
    hi = 1.0
    while _cubic(hi, target) <= 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise NoPositiveRootError("no sign change found up to 1e12")
    lo = 0.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if _cubic(mid, target) < 0.0:
            lo = mid
        else:
            hi = mid
    gamma = 0.5 * (lo + hi)
    return gamma, math.sqrt(target.risk_aversion / gamma)


def build_defaults(exact: bool = False) -> tuple[ModelParams, MarketState]:
    """Default parameter set and evaluation state.

    With ``exact`` the calibrated root (gamma ~ 0.4943, a ~ 2.0115) is
    used; otherwise the two-decimal rounding (0.49, 2.01) that the
    comparative-statics figures are drawn with.
    """
    if exact:
        gamma, a = solve_gamma(CalibrationTarget(
            risk_aversion=2.0, expected_rate=0.01, lam=2.0, rho=0.04))
    else:
        gamma, a = 0.49, 2.01
    params = ModelParams(a0=0.0, a1=0.0, a2=1.0, lam=2.0, rho=0.04,
                         epsilon=1.0, gamma_agg=gamma, alpha_mean=a)
    consts = derive_constants(params)
    return params, MarketState(x=a, u=expected_u(a, params, consts))
