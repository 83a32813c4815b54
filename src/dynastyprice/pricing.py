"""Stock price, bond price, volatility, drift, and PDE-residual checks.

The stock price is a portfolio of dividend strips, the bond of each
maturity times the dividend expected under that maturity's forward
measure:

    S(x, u) = int_0^inf P(tau; x, u) E^tau[delta(X_tau)] dtau,
    P = e^{(a/2 - spd_quad) x^2 + (b - spd_lin) x + c - rho tau
           - (1 - e^{-lam tau}) u},

with E^tau[delta(X_tau)] = da/2 x^2 + db x + dc, the tilt factor of
`odes`.  S is finite iff the Riccati denominator g stays positive on
every maturity, which `odes.g_infinity` decides from the parameters
before any node is evaluated.

`_rule` alone knows the quadrature: composite Simpson on the closed-form
grid, closed by its exact tail (past the transient, rate lam, the
integrand decays at exactly rate rho, so the rest is f(tau_max)/rho);
the same rule on every other node; and the last node alone.  The
integrand is an x part F = e^q t, whose exponent q and tilt t are
polynomials in x, times the u part G = e^{-(1 - e^{-lam tau}) u}; F_x is
closed form, so S_x needs no bumps.  `_stock_and_s_x` alone forms F G:
per block of nodes, one product of every x's rows (x^2, x, 1) and
(2x, 1, 0) with the nodes' coefficients gives F and F_x, contracted
against G times each weight column, in scratch of bounded size.
`_solve_grid` refines
one state's grid from horizon max(10/rho, 20/lam) and spacing 0.005
until the integrand left at the horizon (``integrand_tail``) and the
Richardson estimate meet REL_TOL, within MAX_NODES nodes (the horizon
jumps by 1.1 log(|f| / (REL_TOL S)) / rho); its `PriceReport` carries S
and S_x for `stock_price`, `volatility` and `drift_star`; `run_sweep`
prices one state along a parameter grid with `stock_price`.
`volatility_grid` and `pde_residual` contract the Simpson column on the
grid solved at their median state, with finite-difference stencils in
`pde_residual` as an independent PDE check.

The zero-coupon bond is the untilted transform itself and needs no
maturity integral: it is one closed-form evaluation at its maturity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (DerivedConstants, InvalidParamsError, MarketState,
                    ModelParams, NumericalError, derive_constants, dividend,
                    expected_u, short_rate)
from .odes import OdeInputs, OdeSolution, abc_eval, g_infinity


# Node budget of the grid refinement: over sevenfold the largest grids the
# tests and the benchmark workloads solve (under 280,000 nodes), while a
# state the grid cannot resolve (u in the hundreds puts the integrand
# within 1/(lam u) of tau = 0) fails in seconds, not minutes.
MAX_NODES = 2 ** 21 + 1
REL_TOL = 1e-8      # met by the tail and by the Richardson estimate alike
BLOCK = 2 ** 14     # sizes the blocks of `_stock_and_s_x`; cache-sized


class DivergentIntegralError(NumericalError):
    """The maturity integrand, a price, its x-derivative or the short rate
    is not finite (an overflowing state)."""


class QuadratureToleranceError(NumericalError):
    """Grid refinement reached MAX_NODES before meeting REL_TOL."""


@dataclass(frozen=True)
class PriceReport:
    stock: float
    stock_x: float
    integrand_tail: float
    grid_error: float
    tau_max: float
    n_grid: int
    factor_sign_change: bool = False


def _rule(taus: np.ndarray, rho: float) -> np.ndarray:
    """(N, 3) weights on the uniform grid taus: composite Simpson plus
    1/rho on the last node for the e^{-rho tau} tail beyond it; the same
    rule on every other node; and the last node alone.  The first column
    needs N odd, the second N = 1 (mod 4)."""
    h = taus[1] - taus[0]
    w = np.zeros((3, taus.size))    # each column contiguous
    for col, step in ((w[0], h), (w[1, ::2], 2 * h)):
        col[0:-2:2] += step / 3.0
        col[1:-1:2] += 4.0 * step / 3.0
        col[2::2] += step / 3.0
        col[-1] += 1.0 / rho
    w[2, -1] = 1.0
    return w.T


def _tilt(x: float, sol: OdeSolution) -> np.ndarray:
    """The tilt factor da x^2/2 + db x + dc on the grid."""
    return (0.5 * x * x) * sol.da_vals + x * sol.db_vals + sol.dc_vals


def _stock_and_s_x(xs, us, sol: OdeSolution, params: ModelParams,
                   consts: DerivedConstants, w: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """S and S_x on the outer product of xs and us, against each of the k
    weight columns of the (N, k) matrix w: two (len(xs), len(us), k) arrays.

    At each node the exponent q = (a/2 - spd_quad) x^2 + (b - spd_lin) x
    + c - rho tau and the tilt t = da/2 x^2 + db x + dc are polynomials in
    x, so for a block of xs and a block of nodes one product of the xs'
    rows (2x, 1, 0) and (x^2, x, 1) with the nodes' coefficients gives
    q_x, q, t_x and t, with no loop over x.  Then F = e^q t and
    F_x = e^q (t q_x + t_x), times G w with one column per (u, weight
    column), add the block's share.  A block holds at most BLOCK nodes,
    BLOCK (x, node) pairs and BLOCK (u, column, node) triples, so scratch
    stays near a dozen BLOCK floats, whatever N and len(xs).
    """
    xs, us = np.asarray(xs, dtype=float), np.asarray(us, dtype=float)

    def node_block(rows: np.ndarray, s: slice) -> np.ndarray:
        """[S_x; S] over the nodes s alone: (2 n_x, len(us) k)."""
        coef = np.empty((2, 3, sol.taus[s].size))   # q and t, by row
        np.subtract(0.5 * sol.a_vals[s], consts.spd_quad, out=coef[0, 0])
        np.subtract(sol.b_vals[s], consts.spd_lin, out=coef[0, 1])
        np.subtract(sol.c_vals[s], params.rho * sol.taus[s], out=coef[0, 2])
        np.multiply(sol.da_vals[s], 0.5, out=coef[1, 0])
        coef[1, 1:] = sol.db_vals[s], sol.dc_vals[s]
        # G = e^{-(1 - e^{-lam tau}) u} lies in (e^{-u}, 1] for u >= 0, so
        # splitting it from F underflows nothing the joint exponential keeps
        gw = np.empty((us.size, w.shape[1], coef.shape[2]))
        np.multiply.outer(us, np.expm1(-consts.lam * sol.taus[s]),
                          out=gw[:, 0])
        np.exp(gw[:, :1], out=gw)   # G in every weight column, in place
        gw *= w[s].T
        res = rows @ coef           # [q_x; q] and [t_x; t]
        (q_x, q), (t_x, t) = res.reshape(2, 2, -1, coef.shape[2])
        np.exp(q, out=q)
        q_x *= t
        q_x += t_x
        q_x *= q                    # F_x = e^q (t q_x + t_x)
        q *= t                      # F = e^q t
        return res[0] @ gw.reshape(-1, coef.shape[2]).T

    nb = min(xs.size, math.isqrt(BLOCK))        # xs per block
    step = max(1, BLOCK // max(nb, us.size * w.shape[1]))   # nodes
    out = np.zeros((2, xs.size, us.size, w.shape[1]))     # S_x, S
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, xs.size, nb):
            x = xs[i:i + nb]
            rows = np.zeros((2 * x.size, 3))    # (2x, 1, 0); (x^2, x, 1)
            rows[:x.size, :2] = np.vander(x, 2) * (2.0, 1.0)
            rows[x.size:] = np.vander(x, 3)
            for j in range(0, sol.taus.size, step):
                part = node_block(rows, slice(j, j + step))
                out[:, i:i + nb] += part.reshape(2, x.size, us.size, -1)
    bad = ~np.isfinite(out).all(axis=(0, 3))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DivergentIntegralError(
            f"stock price or S_x not finite at x={xs[i]:.6g}, u={us[j]:.6g}")
    return out[1], out[0]


def _solve_grid(state: MarketState, params: ModelParams,
                consts: DerivedConstants) -> tuple[OdeSolution, PriceReport]:
    """Refine the grid until the bounds hold; return sol and the report."""
    g_infinity(params, consts)
    tau_max = max(10.0 / params.rho, 20.0 / params.lam)
    # density h ~ 0.005 resolves the maturity integrand's transients on the
    # 1/lam scale; refinement does the rest.  N = 1 (mod 4) gives both
    # Simpson rules of `_rule` an odd node count, and doubling keeps it
    n_grid = 1 + 4 * math.ceil(max(2000.0, tau_max / 0.005) / 4)

    while True:
        if n_grid > MAX_NODES:
            raise QuadratureToleranceError(
                f"refinement needs {n_grid} nodes, above the budget of "
                f"{MAX_NODES}, at tau_max={tau_max:.1f}, "
                f"rel_tol={REL_TOL:.0e}")
        sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                                 tau_max=tau_max, n_grid=n_grid))
        s, s_x = _stock_and_s_x([state.x], [state.u], sol, params, consts,
                                _rule(sol.taus, params.rho))
        total, half, tail = s[0, 0]
        grid_err = abs(total - half) / 15.0
        tail = abs(tail)
        tol = REL_TOL * max(abs(total), 1e-300)
        need_tau, need_grid = tail > tol, grid_err > tol
        if not need_tau and not need_grid:
            # F = (positive exponential) tilt and G > 0: only the tilt
            # can change the integrand's sign
            sign = np.sign(_tilt(state.x, sol))
            return sol, PriceReport(
                stock=float(total), stock_x=float(s_x[0, 0, 0]),
                integrand_tail=float(tail), grid_error=float(grid_err),
                tau_max=float(tau_max), n_grid=int(n_grid),
                factor_sign_change=bool(np.any(sign[:-1] * sign[1:] < 0.0)))

        if need_tau:
            # past the transient the integrand decays at exactly rate rho
            extra = math.log(tail / tol) / params.rho
            new_tau = tau_max + 1.1 * extra
            n_grid = 1 + 4 * math.ceil((n_grid - 1) / 4 * new_tau / tau_max)
            tau_max = new_tau
        if need_grid:
            n_grid = 2 * n_grid - 1


def stock_price(state: MarketState, params: ModelParams,
                consts: DerivedConstants) -> PriceReport:
    """Stock price with a-posteriori truncation and grid error estimates."""
    return _solve_grid(state, params, consts)[1]


def run_sweep(field: str, values, params: ModelParams, state: MarketState,
              hold_state: bool = False) -> list[PriceReport]:
    """Stock price at each value of the ModelParams field ``field``.

    For lam and epsilon sweeps the state's u is recomputed from the
    stationary-mean formula at each value (both enter that formula
    through the age normaliser) unless hold_state is set; x and u are
    held fixed otherwise.
    """
    reports = []
    for v in values:
        local = replace(params, **{field: float(v)})
        consts = derive_constants(local)
        at = state
        if field in ("lam", "epsilon") and not hold_state:
            at = MarketState(state.x, expected_u(state.x, local, consts))
        reports.append(stock_price(at, local, consts))
    return reports


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
    # closed forms: the grid is just [0, tau] and only tau is read
    sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                             tau_max=tau, n_grid=2))
    x, u = state.x, state.u
    with np.errstate(over="ignore", invalid="ignore"):
        expo = ((0.5 * sol.a_vals[-1] - consts.spd_quad) * x * x
                + (sol.b_vals[-1] - consts.spd_lin) * x + sol.c_vals[-1]
                - params.rho * tau - (1.0 - math.exp(-consts.lam * tau)) * u)
        price = float(np.exp(expo))
    if not math.isfinite(price):
        raise DivergentIntegralError(f"bond price not finite at tau={tau:.6g}")
    return price


def volatility(state: MarketState, params: ModelParams,
               consts: DerivedConstants) -> float:
    """Instantaneous stock volatility h_x / h, with the closed-form h_x
    on the grid refined for the state."""
    report = _solve_grid(state, params, consts)[1]
    return report.stock_x / report.stock


def _median_grid(xs, us, params: ModelParams, consts: DerivedConstants
                 ) -> tuple[np.ndarray, np.ndarray, OdeSolution]:
    """xs and us as 1-d arrays and the grid solved at their median state;
    MarketState checks every state on the axes through the extreme ones."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    us = np.atleast_1d(np.asarray(us, dtype=float))
    if xs.size == 0 or us.size == 0:
        raise InvalidParamsError("need at least one x and one u")
    MarketState(float(np.min(xs)), float(np.min(us)))
    MarketState(float(np.max(xs)), float(np.max(us)))
    mid = MarketState(float(np.median(xs)), float(np.median(us)))
    return xs, us, _solve_grid(mid, params, consts)[0]


def volatility_grid(xs, us, params: ModelParams, consts: DerivedConstants
                    ) -> np.ndarray:
    """h_x / h on the outer product of xs and us, sharing one solution grid.

    Returns an (len(xs), len(us)) array.  The grid is refined for the
    median state; h_x is the closed-form x-derivative of the integrand
    on that grid, so no state is bumped.
    """
    xs, us, sol = _median_grid(xs, us, params, consts)
    s, s_x = _stock_and_s_x(xs, us, sol, params, consts,
                            _rule(sol.taus, params.rho)[:, :1])
    return s_x[..., 0] / s[..., 0]


def drift_star(state: MarketState, a_star: float, params: ModelParams,
               consts: DerivedConstants) -> float:
    """Expected stock return under the measure with true reversion level
    a_star: [r h - delta + (lam a_star - 2 spd_quad x - spd_lin) h_x] / h."""
    report = _solve_grid(state, params, consts)[1]
    h, h_x, r = report.stock, report.stock_x, short_rate(state, consts)
    risk_coef = consts.lam * a_star - 2.0 * consts.spd_quad * state.x - consts.spd_lin
    return float((r * h - dividend(state.x, params) + risk_coef * h_x) / h)


def pde_residual(xs, us, params: ModelParams, consts: DerivedConstants,
                 dx: float = 1e-3, du: float = 1e-3) -> float:
    """Max scaled residual of the pricing PDE over the (xs, us) grid.

    Residual of h_xx/2 + (spd_lin + (2 spd_quad - lam) x) h_x
    + lam (A/2 x^2 - u) h_u - r h + delta with second-order centred
    stencils, scaled by |r h| + 1.  The stencils take S on
    (xs, xs + dx, xs - dx) x (us, us + du, us - du) from one evaluator
    call and ignore its closed-form h_x, so they check it independently.
    """
    xs, us, sol = _median_grid(xs, us, params, consts)
    nx, nu = xs.size, us.size

    s = _stock_and_s_x(np.concatenate([xs, xs + dx, xs - dx]),
                       np.concatenate([us, us + du, us - du]), sol, params,
                       consts, _rule(sol.taus, params.rho)[:, :1])[0][..., 0]
    h0, hup, hum = s[:nx, :nu], s[:nx, nu:2 * nu], s[:nx, 2 * nu:]
    hxp, hxm = s[nx:2 * nx, :nu], s[2 * nx:, :nu]
    xf, uf = np.meshgrid(xs, us, indexing="ij")

    h_x = (hxp - hxm) / (2.0 * dx)
    h_xx = (hxp - 2.0 * h0 + hxm) / (dx * dx)
    h_u = (hup - hum) / (2.0 * du)
    lam, big_a = consts.lam, consts.age_norm
    r = consts.r0 + consts.r1 * xf + consts.r2 * xf * xf + lam * uf
    res = (0.5 * h_xx + (consts.spd_lin + (2.0 * consts.spd_quad - lam) * xf) * h_x
           + lam * (0.5 * big_a * xf * xf - uf) * h_u
           - r * h0 + dividend(xf, params))
    return float(np.max(np.abs(res) / (np.abs(r * h0) + 1.0)))
