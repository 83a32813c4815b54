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

import numpy as np

from .model import (InvalidParamsError, MarketState, ModelParams,
                    _require_finite, derive_constants, expected_u)


class NoPositiveRootError(ArithmeticError):
    """Calibration cubic has no positive root (l(0) >= 0), or its root is
    not resolved in double precision (lam beyond about 1e29)."""


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


def _coefficients(target: CalibrationTarget) -> list[float]:
    """Coefficients of l, highest power first."""
    r, lam, rho, er = (target.risk_aversion, target.lam, target.rho,
                       target.expected_rate)
    return [1.0 / lam, 2.0 * r, er - rho + 2.0 * r * (lam - 1.0),
            0.5 * r - r * lam]


def _cubic(gamma: float, target: CalibrationTarget) -> float:
    return float(np.polyval(_coefficients(target), gamma))


def solve_gamma(target: CalibrationTarget) -> tuple[float, float]:
    """Unique positive root of the calibration cubic and a = sqrt(R/gamma).

    With l(0) < 0 the coefficients' signs are (+, +, ?, -): one sign
    change, so by Descartes' rule exactly one positive real root, which
    np.roots returns as a real eigenvalue of the companion matrix.
    """
    coeffs = _coefficients(target)
    if coeffs[-1] >= 0.0:
        raise NoPositiveRootError("l(0) >= 0: no positive root (need lam > 1/2)")
    try:
        with np.errstate(over="ignore"):
            roots = np.roots(coeffs)
    except np.linalg.LinAlgError:   # a coefficient ratio overflowed
        roots = np.empty(0)
    positive = roots[np.isreal(roots) & (roots.real > 0.0)].real
    if positive.size != 1:
        raise NoPositiveRootError("the positive root of l is not resolved "
                                  "in double precision")
    gamma = float(positive[0])
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
