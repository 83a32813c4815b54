"""Stock price, bond price, volatility, drift, and PDE-residual checks.

The stock price is the tilt derivative of the exponential-quadratic
transform, integrated over maturities:

    S(x, u) = e^{-spd_lin x - spd_quad x^2} *
        int_0^inf e^{-rho tau - (1 - e^{-lam tau}) u}
                  (da/2 x^2 + db x + dc) e^{a/2 x^2 + b x + c} dtau

evaluated by composite Simpson on the closed-form grid.  The integrand
decays exactly like e^{-rho tau} once the transient (rate lam) has died
out, so the truncation horizon and grid density start from
max(10/rho, 20/lam) and n_grid = 2001 and are refined until the
a-posteriori tail and Richardson estimates meet rel_tol; the defaults
alone do not reach 1e-8 for typical parameters.

The slope h_x of the volatility surface h_x / h comes from the same
grid without bumps: the integrand is an x part times
e^{-(1 - e^{-lam tau}) u}, and the x part's derivative is closed form.
`volatility` and `drift_star` still take Richardson-extrapolated
centred differences on the grid refined for their single state.

The zero-coupon bond is the untilted transform itself and needs no
maturity integral: it is one closed-form evaluation at its maturity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (DerivedConstants, InvalidParamsError, MarketState,
                    ModelParams, dividend, short_rate)
from .odes import OdeInputs, OdeSolution, QuadratureToleranceError, abc_eval


class DivergentIntegralError(ArithmeticError):
    """Maturity integrand is not decaying at the truncation horizon."""


@dataclass(frozen=True)
class QuadratureConfig:
    tau_max: float | None = None    # None: max(10/rho, 20/lam), auto-extended
    rel_tol: float = 1e-8
    n_grid: int | None = None       # None: 2001, auto-refined
    max_refinements: int = 8

    def __post_init__(self) -> None:
        if not self.rel_tol > 0.0:
            raise InvalidParamsError("rel_tol must be positive")


@dataclass(frozen=True)
class PriceReport:
    stock: float
    integrand_tail: float
    grid_error: float
    tau_max: float
    n_grid: int
    factor_sign_change: bool = False


def expected_u(a: float, params: ModelParams, consts: DerivedConstants) -> float:
    """Stationary mean of U under reversion level a: (A/2)(a^2 + 1/(2 lam))."""
    return 0.5 * consts.age_norm * (a * a + 1.0 / (2.0 * params.lam))


def _simpson_weights(n: int, h: float) -> np.ndarray:
    w = np.zeros(n)
    w[0:-2:2] += h / 3.0
    w[1:-1:2] += 4.0 * h / 3.0
    w[2::2] += h / 3.0
    return w


def _integrand_matrix(xs: np.ndarray, us: np.ndarray, sol: OdeSolution,
                      params: ModelParams, consts: DerivedConstants
                      ) -> np.ndarray:
    """Maturity integrand (including the state prefactor) per state row."""
    taus = sol.taus
    lam, rho = consts.lam, params.rho
    tilt = (0.5 * np.outer(xs * xs, sol.da_vals) + np.outer(xs, sol.db_vals)
            + sol.dc_vals[None, :])
    expo = ((-rho * taus)[None, :]
            - np.outer(us, 1.0 - np.exp(-lam * taus))
            + 0.5 * np.outer(xs * xs, sol.a_vals)
            + np.outer(xs, sol.b_vals) + sol.c_vals[None, :])
    pref = np.exp(-consts.spd_lin * xs - consts.spd_quad * xs * xs)
    return pref[:, None] * tilt * np.exp(expo)


def _stock_values(xs, us, sol: OdeSolution, params, consts) -> np.ndarray:
    """Stock prices for many states from one shared solution grid."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    us = np.atleast_1d(np.asarray(us, dtype=float))
    integ = _integrand_matrix(xs, us, sol, params, consts)
    w = _simpson_weights(len(sol.taus), sol.taus[1] - sol.taus[0])
    return integ @ w


def _resolve_grid(params: ModelParams, q: QuadratureConfig) -> tuple[float, int]:
    tau_max = q.tau_max
    if tau_max is None:
        tau_max = max(10.0 / params.rho, 20.0 / params.lam)
    n_grid = q.n_grid
    if n_grid is None:
        # density h ~ 0.005 resolves the maturity integrand's transients on
        # the 1/lam scale for the Simpson rule; refinement handles the rest
        n_grid = max(2001, math.ceil(tau_max / 0.005))
    if n_grid % 2 == 0:
        n_grid += 1
    return float(tau_max), int(n_grid)


def _solve_grid(state: MarketState, params: ModelParams,
                consts: DerivedConstants, q: QuadratureConfig
                ) -> tuple[OdeSolution, PriceReport]:
    """Refine (tau_max, n_grid) until tail and grid-error bounds hold."""
    tau_max, n_grid = _resolve_grid(params, q)
    x = np.array([state.x])
    u = np.array([state.u])

    for _ in range(q.max_refinements + 1):
        sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                                 tau_max=tau_max, n_grid=n_grid))
        integ = _integrand_matrix(x, u, sol, params, consts)[0]
        h = sol.taus[1] - sol.taus[0]
        w = _simpson_weights(n_grid, h)
        total = float(integ @ w)
        half = float(integ[::2] @ _simpson_weights((n_grid + 1) // 2, 2 * h))
        grid_err = abs(total - half) / 15.0
        tail = abs(integ[-1])
        scale = max(abs(total), 1e-300)

        # decay check at the horizon (averaged log-slope over the last 2%)
        k = max(2, n_grid // 50)
        lo, hi = abs(integ[-1 - k]), abs(integ[-1])
        if hi > 0.0 and lo > 0.0:
            slope = math.log(hi / lo) / (k * h)
        else:
            slope = -np.inf
        if slope >= 0.0:
            raise DivergentIntegralError(
                f"integrand not decaying at tau_max={tau_max:.1f} "
                f"(log-slope {slope:.3g})")

        need_tau = tail > q.rel_tol * scale
        need_grid = grid_err > q.rel_tol * scale
        if not need_tau and not need_grid:
            sign_change = bool(np.any(integ[:-1] * integ[1:] < 0.0))
            report = PriceReport(stock=float(total), integrand_tail=float(tail),
                                 grid_error=float(grid_err),
                                 tau_max=float(tau_max), n_grid=int(n_grid),
                                 factor_sign_change=sign_change)
            return sol, report

        if need_tau:
            # jump the horizon using the measured decay rate
            extra = math.log(tail / (q.rel_tol * scale)) / max(-slope, 1e-6)
            new_tau = tau_max + 1.1 * extra
            n_grid = 1 + 2 * math.ceil((n_grid - 1) / 2 * new_tau / tau_max)
            tau_max = new_tau
        if need_grid:
            n_grid = 2 * n_grid - 1

    raise QuadratureToleranceError(
        f"refinement exhausted at tau_max={tau_max:.1f}, n_grid={n_grid}, "
        f"rel_tol={q.rel_tol:.0e}")


def stock_price(state: MarketState, params: ModelParams,
                consts: DerivedConstants, q: QuadratureConfig | None = None
                ) -> PriceReport:
    """Stock price with a-posteriori truncation and grid error estimates."""
    q = q or QuadratureConfig()
    _, report = _solve_grid(state, params, consts, q)
    return report


def bond_price(state: MarketState, tau: float, params: ModelParams,
               consts: DerivedConstants) -> float:
    """Zero-coupon bond price for maturity tau >= 0.

    exp[(a/2 - spd_quad) x^2 + (b - spd_lin) x + c - rho tau
        - (1 - e^{-lam tau}) u] with the exponent functions untilted.
    The boundary values a(0) = 2 spd_quad, b(0) = spd_lin, c(0) = 0 make
    the exponent vanish at tau = 0.
    """
    if not 0.0 <= tau < math.inf:
        raise InvalidParamsError("tau must be finite and nonnegative")
    if tau == 0.0:
        return 1.0
    # closed forms: only the node at tau is read
    sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                             tau_max=tau, n_grid=3))
    x, u = state.x, state.u
    expo = ((0.5 * sol.a_vals[-1] - consts.spd_quad) * x * x
            + (sol.b_vals[-1] - consts.spd_lin) * x + sol.c_vals[-1]
            - params.rho * tau - (1.0 - math.exp(-consts.lam * tau)) * u)
    return float(np.exp(expo))


def _slope_x(state: MarketState, sol: OdeSolution, params: ModelParams,
             consts: DerivedConstants, dx: float) -> float:
    """h_x by Richardson-extrapolated centred differences at bumps dx and
    dx/2, on a solution grid already refined for the state."""
    u = np.full(4, state.u)
    xs = state.x + np.array([dx, -dx, 0.5 * dx, -0.5 * dx])
    s = _stock_values(xs, u, sol, params, consts)
    d1 = (s[0] - s[1]) / (2.0 * dx)
    d2 = (s[2] - s[3]) / dx
    return (4.0 * d2 - d1) / 3.0


def volatility(state: MarketState, params: ModelParams,
               consts: DerivedConstants, q: QuadratureConfig | None = None,
               dx: float = 1e-4) -> float:
    """Instantaneous stock volatility h_x / h by Richardson-extrapolated
    centred differences at bumps dx and dx/2."""
    q = q or QuadratureConfig()
    sol, report = _solve_grid(state, params, consts, q)
    return float(_slope_x(state, sol, params, consts, dx) / report.stock)


def _stock_and_slope(xs: np.ndarray, us: np.ndarray, sol: OdeSolution,
                     params: ModelParams, consts: DerivedConstants
                     ) -> tuple[np.ndarray, np.ndarray]:
    """S and h_x on the outer product of xs and us from one solution grid.

    The integrand factorises into F(x, tau) G(u, tau) with
    G = e^{-(1 - e^{-lam tau}) u}, so S is the product of the (len(xs), N)
    matrix F with the Simpson-weighted (N, len(us)) matrix G, and h_x is
    the same product with F_x, which is closed form:

        F = e^{-spd_lin x - spd_quad x^2 + a x^2/2 + b x + c - rho tau} tilt
        F_x = e^{...} [(x da + db) + tilt (a x + b - spd_lin - 2 spd_quad x)]

    with tilt = da x^2/2 + db x + dc.  F and F_x are filled one x at a
    time, so scratch memory is O((len(us) + c) N) whatever len(xs).
    """
    taus = sol.taus
    w = _simpson_weights(len(taus), taus[1] - taus[0])
    # u >= 0 and 1 - e^{-lam tau} in [0, 1) keep G in (e^{-u}, 1], so
    # splitting it from F underflows nothing the joint exponential keeps
    gw = np.outer(us, np.expm1(-consts.lam * taus))
    np.exp(gw, out=gw)
    gw *= w
    lin_c = sol.c_vals - params.rho * taus
    f = np.empty((2, taus.size))
    s = np.empty((xs.size, us.size))
    s_x = np.empty((xs.size, us.size))
    for i, x in enumerate(xs):
        tilt = (0.5 * x * x) * sol.da_vals + x * sol.db_vals + sol.dc_vals
        efac = np.exp((0.5 * x * x) * sol.a_vals + x * sol.b_vals + lin_c
                      - (consts.spd_lin * x + consts.spd_quad * x * x))
        np.multiply(efac, tilt, out=f[0])
        tilt *= x * sol.a_vals + (sol.b_vals - consts.spd_lin
                                  - 2.0 * consts.spd_quad * x)
        tilt += x * sol.da_vals + sol.db_vals
        np.multiply(efac, tilt, out=f[1])
        s[i], s_x[i] = f @ gw.T
    return s, s_x


def volatility_grid(xs, us, params: ModelParams, consts: DerivedConstants,
                    q: QuadratureConfig | None = None) -> np.ndarray:
    """h_x / h on the outer product of xs and us, sharing one solution grid.

    Returns an (len(xs), len(us)) array.  The grid is refined for the
    median state; h_x is the closed-form x-derivative of the integrand
    on that grid, so no state is bumped.
    """
    q = q or QuadratureConfig()
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    us = np.atleast_1d(np.asarray(us, dtype=float))
    if xs.size == 0 or us.size == 0:
        raise InvalidParamsError("volatility_grid needs at least one x and u")
    mid = MarketState(float(np.median(xs)), float(np.median(us)))
    sol, _ = _solve_grid(mid, params, consts, q)
    s, s_x = _stock_and_slope(xs, us, sol, params, consts)
    return s_x / s


def drift_star(state: MarketState, a_star: float, params: ModelParams,
               consts: DerivedConstants, q: QuadratureConfig | None = None
               ) -> float:
    """Expected stock return under the measure with true reversion level
    a_star: [r h - delta + (lam a_star - 2 spd_quad x - spd_lin) h_x] / h."""
    q = q or QuadratureConfig()
    sol, report = _solve_grid(state, params, consts, q)
    h_x = _slope_x(state, sol, params, consts, 1e-4)
    h = report.stock
    r = short_rate(state, consts)
    risk_coef = consts.lam * a_star - 2.0 * consts.spd_quad * state.x - consts.spd_lin
    return float((r * h - dividend(state.x, params) + risk_coef * h_x) / h)


def pde_residual(xs, us, params: ModelParams, consts: DerivedConstants,
                 q: QuadratureConfig | None = None,
                 dx: float = 1e-3, du: float = 1e-3) -> float:
    """Max scaled residual of the pricing PDE over the (xs, us) grid.

    Residual of h_xx/2 + (spd_lin + (2 spd_quad - lam) x) h_x
    + lam (A/2 x^2 - u) h_u - r h + delta with second-order centred
    stencils, scaled by |r h| + 1.
    """
    q = q or QuadratureConfig()
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    mid_x = float(np.median(xs))
    mid_u = float(np.median(us))
    sol, _ = _solve_grid(MarketState(mid_x, mid_u), params, consts, q)

    xg, ug = np.meshgrid(xs, us, indexing="ij")
    xf, uf = xg.ravel(), ug.ravel()
    n = xf.size
    px = np.concatenate([xf, xf + dx, xf - dx, xf, xf])
    pu = np.concatenate([uf, uf, uf, uf + du, uf - du])
    vals = _stock_values(px, pu, sol, params, consts)
    h0, hxp, hxm, hup, hum = (vals[i * n:(i + 1) * n] for i in range(5))

    h_x = (hxp - hxm) / (2.0 * dx)
    h_xx = (hxp - 2.0 * h0 + hxm) / (dx * dx)
    h_u = (hup - hum) / (2.0 * du)
    lam, big_a = consts.lam, consts.age_norm
    r = consts.r0 + consts.r1 * xf + consts.r2 * xf * xf + lam * uf
    res = (0.5 * h_xx + (consts.spd_lin + (2.0 * consts.spd_quad - lam) * xf) * h_x
           + lam * (0.5 * big_a * xf * xf - uf) * h_u
           - r * h0 + dividend(xf, params))
    return float(np.max(np.abs(res) / (np.abs(r * h0) + 1.0)))
