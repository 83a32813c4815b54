"""Economy parameters, derived constants, and the closed-form pricing kernel.

The economy has a single stock paying the dividend a0 + a1*X + a2*X^2 of
a stationary OU factor X, priced by a continuum of finite-lived Bayesian
dynasties.  Aggregating the dynasties' beliefs collapses the log pricing
kernel to a quadratic in the current factor level x plus the historical
variance functional u:

    log zeta(x, u, t) = spd_lin * x + spd_quad * x^2 + u - rho * t

up to an additive constant that cancels in every price ratio (fixed to 0
here).  The riskless rate is minus the drift of zeta, a quadratic in x
plus lam * u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class InvalidParamsError(ValueError):
    """Parameter set violates a model invariant."""


class NumericalError(ArithmeticError):
    """A valid input the numerics cannot price or check (exit code 3)."""


def _require_finite(obj, names) -> None:
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise InvalidParamsError(f"{name} must be finite")


@dataclass(frozen=True)
class ModelParams:
    """Exogenous scalars of the economy.

    a0, a1, a2       dividend polynomial coefficients
    lam              OU reversion rate; also sets the dynasty lifetime law
    rho              time-discount rate
    epsilon          precision of each newborn's prior for lam * a
    gamma_agg        aggregate (harmonic-mean) risk aversion
    alpha_mean       population mean of the prior means for lam * a
    """

    a0: float
    a1: float
    a2: float
    lam: float
    rho: float
    epsilon: float
    gamma_agg: float
    alpha_mean: float

    def __post_init__(self) -> None:
        _require_finite(self, ("a0", "a1", "a2", "lam", "rho", "epsilon",
                               "gamma_agg", "alpha_mean"))
        for name in ("lam", "rho", "epsilon", "gamma_agg"):
            if not getattr(self, name) > 0.0:
                raise InvalidParamsError(f"{name} must be positive")
        if self.lam * self.epsilon < 1.0:
            raise InvalidParamsError(
                "lam * epsilon >= 1 required (age density must be decreasing)")


@dataclass(frozen=True)
class DerivedConstants:
    """Constants computed once from ModelParams.

    age_norm   normaliser of the dynasty age density, lam / (1 + eps*lam)
    spd_lin    linear coefficient of the log pricing kernel in x
    spd_quad   quadratic coefficient of the log pricing kernel in x
    r0, r1, r2 short-rate polynomial coefficients (constant, x, x^2)
    lam        OU reversion rate, carried along for the lam * u rate term
    """

    age_norm: float
    spd_lin: float
    spd_quad: float
    r0: float
    r1: float
    r2: float
    lam: float


@dataclass(frozen=True)
class MarketState:
    """Markov state (x, u) at which all prices are evaluated.

    x is the current OU level; u is the exponentially weighted average of
    past squared levels (nonnegative by construction).
    """

    x: float
    u: float

    def __post_init__(self) -> None:
        _require_finite(self, ("x", "u"))
        if self.u < 0.0:
            raise InvalidParamsError("u must be nonnegative")


def derive_constants(params: ModelParams) -> DerivedConstants:
    """Compute the pricing-kernel and short-rate constants."""
    lam, eps = params.lam, params.epsilon
    a = lam / (1.0 + eps * lam)
    b = params.alpha_mean * eps * a - params.gamma_agg * params.a1
    c = a / 2.0 - params.gamma_agg * params.a2
    return _constants_from_abc(a, b, c, params.rho, lam)


def limit_constants(params: ModelParams) -> DerivedConstants:
    """Constants in the known-parameter limit epsilon -> infinity.

    Substitutes eps*age_norm -> 1 exactly (so age_norm itself is 0,
    spd_lin -> alpha_mean - gamma_agg*a1, spd_quad -> -gamma_agg*a2); the
    Riccati forcing term vanishes and prices use elementary closed forms.
    """
    b = params.alpha_mean - params.gamma_agg * params.a1
    c = -params.gamma_agg * params.a2
    return _constants_from_abc(0.0, b, c, params.rho, params.lam)


def _constants_from_abc(a: float, b: float, c: float,
                        rho: float, lam: float) -> DerivedConstants:
    r0 = rho - c - 0.5 * b * b
    r1 = b * (lam - 2.0 * c)
    r2 = 2.0 * lam * c - 0.5 * lam * a - 2.0 * c * c
    return DerivedConstants(age_norm=a, spd_lin=b, spd_quad=c,
                            r0=r0, r1=r1, r2=r2, lam=lam)


def expected_u(a: float, params: ModelParams, consts: DerivedConstants) -> float:
    """Stationary mean of U under reversion level a: (A/2)(a^2 + 1/(2 lam))."""
    return 0.5 * consts.age_norm * (a * a + 1.0 / (2.0 * params.lam))


def dividend(x, params: ModelParams):
    """Dividend rate a0 + a1*x + a2*x^2."""
    return params.a0 + params.a1 * x + params.a2 * x * x


def log_zeta_xu(x, u, t, params: ModelParams, consts: DerivedConstants):
    """Log pricing kernel for raw (possibly array) state coordinates."""
    return consts.spd_lin * x + consts.spd_quad * x * x + u - params.rho * t


def log_zeta(state: MarketState, t: float, params: ModelParams,
             consts: DerivedConstants) -> float:
    """Log pricing kernel at the given state and calendar time."""
    return float(log_zeta_xu(state.x, state.u, t, params, consts))


def short_rate(state: MarketState, consts: DerivedConstants) -> float:
    """Instantaneous riskless rate r0 + r1*x + r2*x^2 + lam*u."""
    x = state.x
    return consts.r0 + consts.r1 * x + consts.r2 * x * x + consts.lam * state.u
