"""The ten acceptance criteria as check suites, one suite per criterion,
run by ``dynastyprice validate`` and by the acceptance tests; this is the
only copy of each criterion.

Each suite returns CheckResult rows; a row passes only strictly inside its
bound, and a suite passes when every row does.  Sizes and seeds default to
the criterion's, so ``run_suite("all")`` runs exactly the ten criteria
(about 20 s on 2 CPUs); ``fast`` shrinks the Monte Carlo work for smoke
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bessel
from .calibration import (CalibrationTarget, build_defaults, expected_rate,
                          solve_gamma)
from .model import (MarketState, derive_constants, limit_constants,
                    short_rate)
from .odes import OdeInputs, abc_eval, abc_numeric, g_closed
from .oracles import (OracleConfig, aggregation_check, martingale_check,
                      mc_stock, mc_v, xi_eta_check)
from .ou import SimConfig, simulate
from .pricing import (bond_price, pde_residual, run_sweep, stock_price,
                      volatility_grid)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    check: str
    value: float
    tolerance: float
    passed: bool


def _check(suite: str, name: str, value: float, tol: float,
           larger_ok: bool = False) -> CheckResult:
    ok = value > tol if larger_ok else value < tol
    return CheckResult(suite, name, float(value), float(tol), bool(ok))


def suite_calibration() -> list[CheckResult]:
    """Criterion 1: the calibrated root and its back-substituted mean rate."""
    gamma, a = solve_gamma(CalibrationTarget(
        risk_aversion=2.0, expected_rate=0.01, lam=2.0, rho=0.04))
    resid = abs(expected_rate(gamma, a, 2.0, 0.04) - 0.01)
    return [_check("calibration", "gamma_lower", gamma, 0.490, larger_ok=True),
            _check("calibration", "gamma_upper", gamma, 0.498),
            _check("calibration", "a_lower", a, 2.005, larger_ok=True),
            _check("calibration", "a_upper", a, 2.015),
            _check("calibration", "rate_residual", resid, 1e-10)]


def suite_bessel() -> list[CheckResult]:
    """Criterion 3 (Bessel identity and g(0)), plus the J2 recurrence."""
    out = []
    z = np.geomspace(1e-6, 50.0, 1000)
    lhs = bessel.j1(z) * bessel.y2(z) - bessel.j2(z) * bessel.y1(z)
    rhs = -2.0 / (np.pi * z)
    out.append(_check("bessel", "cross_product_identity",
                      float(np.max(np.abs(lhs - rhs) / np.abs(rhs))), 1e-10))

    params, _ = build_defaults()
    consts = derive_constants(params)
    worst = 0.0
    for theta in (0.0, 0.1, -0.2):
        g0, _ = g_closed(np.array([0.0]), theta, params, consts)
        worst = max(worst, abs(float(g0[0]) - params.lam / math.pi)
                    / (params.lam / math.pi))
    out.append(_check("bessel", "g0_equals_lam_over_pi", worst, 1e-10))

    # J2 = (2/z) J1 - J0 against the internal order-0 helper, away from zeros
    zs = np.array([0.5, 1.1547, 2.0, 3.7, 6.3, 9.5, 14.2, 21.0, 33.0, 47.0])
    rec = (2.0 / zs) * bessel.j1(zs) - bessel.j0(zs)
    direct = bessel.j2(zs)
    rel = np.abs(rec - direct) / np.maximum(np.abs(direct), 1e-3)
    out.append(_check("bessel", "j2_recurrence", float(np.max(rel)), 1e-12))
    return out


def suite_ode() -> list[CheckResult]:
    """Criterion 2 (closed-form vs numeric ODEs), plus their FD residuals."""
    params, _ = build_defaults()
    consts = derive_constants(params)
    out = []
    for theta in (0.0, 0.1):
        inputs = OdeInputs(theta=theta, params=params, consts=consts,
                           tau_max=10.0, n_grid=2001)
        closed = abc_eval(inputs)
        numeric = abc_numeric(inputs)
        worst = 0.0
        for name in ("a_vals", "b_vals", "c_vals",
                     "da_vals", "db_vals", "dc_vals"):
            c = getattr(closed, name)
            n = getattr(numeric, name)
            worst = max(worst, float(np.max(np.abs(c - n)) / np.max(np.abs(c))))
        out.append(_check("ode", f"closed_vs_numeric_theta{theta:g}",
                          worst, 1e-8))

    # centred-difference residuals of the three defining equations;
    # h = 1e-4 keeps the (h^2/6) f''' stencil truncation under the bound
    sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                             tau_max=10.0, n_grid=100_001))
    h = sol.taus[1] - sol.taus[0]
    lam, big_a = consts.lam, consts.age_norm
    t, a, b = sol.taus[1:-1], sol.a_vals[1:-1], sol.b_vals[1:-1]
    da = (sol.a_vals[2:] - sol.a_vals[:-2]) / (2 * h)
    db = (sol.b_vals[2:] - sol.b_vals[:-2]) / (2 * h)
    dc = (sol.c_vals[2:] - sol.c_vals[:-2]) / (2 * h)
    res_a = np.abs(0.5 * da - (0.5 * lam * big_a * np.exp(-lam * t)
                   - lam * a + 0.5 * a ** 2))
    res_b = np.abs(db - (a - lam) * b)
    res_c = np.abs(dc - 0.5 * (a + b ** 2))
    out.append(_check("ode", "fd_residuals",
                      float(max(res_a.max(), res_b.max(), res_c.max())), 1e-6))
    return out


def suite_bond() -> list[CheckResult]:
    """Criterion 4: P(0) = 1, and the curve's short end is the short rate."""
    params, state = build_defaults()
    consts = derive_constants(params)
    p0 = bond_price(state, 0.0, params, consts)
    # one-sided second-order difference of -log P at tau = 0
    h = 1e-4
    lp = [math.log(bond_price(state, t, params, consts))
          for t in (0.0, h, 2.0 * h)]
    rate_fd = -(4.0 * lp[1] - lp[2] - 3.0 * lp[0]) / (2.0 * h)
    return [_check("bond", "p0_minus_one", abs(p0 - 1.0), 1e-12),
            _check("bond", "fd_rate_vs_short_rate",
                   abs(rate_fd - short_rate(state, consts)), 1e-4)]


def suite_pde() -> list[CheckResult]:
    """Criterion 5: the pricing PDE residual and its shrink at half step."""
    params, state = build_defaults()
    consts = derive_constants(params)
    xs = np.linspace(state.x - 0.1, state.x + 0.1, 5)
    us = np.linspace(state.u - 0.1, state.u + 0.1, 5)
    r1 = pde_residual(xs, us, params, consts, dx=1e-3, du=1e-3)
    r2 = pde_residual(xs, us, params, consts, dx=5e-4, du=5e-4)
    out = [_check("pde", "max_scaled_residual", r1, 1e-3)]
    out.append(_check("pde", "halving_shrink_factor", r1 / r2, 2.0,
                      larger_ok=True))
    out.append(_check("pde", "halving_shrink_factor_upper", r1 / r2, 8.0))
    return out


def suite_mc(seed: int = 20240, fast: bool = False) -> list[CheckResult]:
    """Criterion 6 (Monte Carlo stock and transform), plus martingale drift."""
    params, state = build_defaults()
    consts = derive_constants(params)
    out = []

    n_paths = 20_000 if fast else 100_000
    cfg = OracleConfig(n_paths=n_paths, dt=1e-3, burn_in=5.0,
                       horizon=15.0, seed=seed)

    report = stock_price(state, params, consts)
    est = mc_stock(state, params, consts, cfg)
    err = abs(est.mean - report.stock)
    out.append(_check("mc", "stock_quadrature_vs_mc",
                      err, max(0.02 * report.stock, 3.0 * est.se)))

    for tau in (0.25, 0.5, 1.0):
        v = mc_v(state, tau, 0.0, params, consts, cfg)
        sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                                 tau_max=tau, n_grid=1001))
        closed = math.exp(0.5 * sol.a_vals[-1] * state.x ** 2
                          + sol.b_vals[-1] * state.x + sol.c_vals[-1])
        out.append(_check("mc", f"v_transform_tau{tau:g}",
                          abs(v.mean - closed) / v.se, 3.0))

    n_outer, n_inner = (30, 300) if fast else (100, 1000)
    worst = martingale_check(0.5, 0.0, params, consts,
                             OracleConfig(n_paths=1, dt=1e-3, burn_in=5.0,
                                          horizon=1.0, seed=seed + 7),
                             n_outer=n_outer, n_inner=n_inner)
    out.append(_check("mc", "martingale_drift", worst, 3.0))
    return out


def suite_appendix(seed: int = 2024, fast: bool = False) -> list[CheckResult]:
    """Criterion 7: the appendix xi/eta path identities down a dt ladder."""
    params, _ = build_defaults()
    consts = derive_constants(params)
    n_paths = 30 if fast else 100
    out = []
    envelope = []
    ladder = (4e-4, 2e-4, 1e-4, 5e-5)
    for dt in ladder:
        n_steps = int(round(10.0 / dt))
        # xi_eta_check streams each row in pieces: no row is ever whole
        xd, ed = xi_eta_check(simulate(
            SimConfig(n_paths=n_paths, n_steps=n_steps, dt=dt, seed=seed),
            params, consts, t0=-10.0))
        envelope.append((dt, float(np.mean(xd)), float(np.mean(ed))))
    for dt, xd, ed in envelope:
        if dt == 1e-4:
            out.append(_check("appendix", "xi_deviation_dt1e-4", xd, 5e-3))
            out.append(_check("appendix", "eta_deviation_dt1e-4", ed, 5e-3))
    # convergence: deviations stay under the half-sqrt(dt) envelope that the
    # 5e-3 bound instantiates at dt = 1e-4, all the way down the ladder
    worst = max(max(xd, ed) / (0.5 * math.sqrt(dt)) for dt, xd, ed in envelope)
    out.append(_check("appendix", "sqrt_dt_envelope", worst, 1.0))
    return out


def suite_aggregation(seed: int = 42, fast: bool = False) -> list[CheckResult]:
    """Criterion 8: the population aggregate against its limit."""
    params, _ = build_defaults()
    consts = derive_constants(params)
    population = 20_000 if fast else 100_000
    cfg = OracleConfig(n_paths=1, dt=1e-4, burn_in=10.0, horizon=1.0,
                       seed=seed)
    z, _, _ = aggregation_check(params, consts, cfg, population)
    return [_check("aggregation", "population_vs_limit_z", abs(z), 3.0)]


def suite_statics() -> list[CheckResult]:
    """Criterion 9: the comparative-statics figures' signs.

    A decreasing sweep's row is its largest step, which must be below 0;
    an increasing sweep's is its smallest, which must be above 0.  Two
    more rows read the 10x10 volatility surface's steps in x and in u.
    """
    params, _ = build_defaults()
    # the figures' state: u is the stationary mean to 17 digits
    state = MarketState(params.alpha_mean, 1.4300333333333333)
    out = []

    def signed(name, steps, decreasing):
        if decreasing:
            return _check("statics", f"{name}_decreasing", np.max(steps), 0.0)
        return _check("statics", f"{name}_increasing", np.min(steps), 0.0,
                      larger_ok=True)

    for field, lo, hi, decreasing in (("lam", 1.0, 3.0, True),
                                      ("rho", 0.02, 0.08, True),
                                      ("epsilon", 0.5, 50.0, False),
                                      ("gamma_agg", 0.3, 0.7, False),
                                      ("alpha_mean", 1.5, 2.5, True)):
        reports = run_sweep(field, np.linspace(lo, hi, 13), params, state)
        out.append(signed(field, np.diff([r.stock for r in reports]),
                          decreasing))
    grid = volatility_grid(np.linspace(1.2, 2.0, 10),
                           np.linspace(5.0, 10.0, 10), params,
                           derive_constants(params))
    out.append(signed("vol_x", np.diff(grid, axis=0), True))
    out.append(signed("vol_u", np.diff(grid, axis=1), False))
    return out


def suite_limit() -> list[CheckResult]:
    """Criterion 10: stock and bond at epsilon = 1e8 against the
    known-parameter limit's constants, as the worst relative gap."""
    base, _ = build_defaults(exact=True)
    big_eps = replace(base, epsilon=1e8)
    consts_eps, consts_lim = derive_constants(big_eps), limit_constants(base)
    worst = 0.0
    for u in (0.0, 1.43):
        state = MarketState(base.alpha_mean, u)
        s_eps = stock_price(state, big_eps, consts_eps).stock
        s_lim = stock_price(state, base, consts_lim).stock
        worst = max(worst, abs(s_eps - s_lim) / s_lim)
        p_eps = bond_price(state, 1.0, big_eps, consts_eps)
        p_lim = bond_price(state, 1.0, base, consts_lim)
        worst = max(worst, abs(p_eps - p_lim) / p_lim)
    return [_check("limit", "stock_bond_gap_eps1e8", worst, 1e-5)]


# name -> suite, in criterion order
_RUNNERS = {
    "calibration": suite_calibration, "ode": suite_ode,
    "bessel": suite_bessel, "bond": suite_bond, "pde": suite_pde,
    "mc": suite_mc, "appendix": suite_appendix,
    "aggregation": suite_aggregation, "statics": suite_statics,
    "limit": suite_limit,
}
# the suites that draw: they take a seed (default: the criterion's) and fast
_DRAWING = ("mc", "appendix", "aggregation")
SUITES = (*_RUNNERS, "all")


def run_suite(name: str, seed: int | None = None,
              fast: bool = False) -> list[CheckResult]:
    """Rows of one suite, or of all ten in criterion order.  With no seed
    each Monte Carlo suite draws at its criterion's seed."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    kw = {"fast": fast} if seed is None else {"seed": seed, "fast": fast}
    names = _RUNNERS if name == "all" else (name,)
    return [row for sub in names
            for row in _RUNNERS[sub](**(kw if sub in _DRAWING else {}))]
