"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Monte Carlo checks use fixed seeds and full sizes,
so this module is the slow part of the suite (a few minutes).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from dynastyprice import (CalibrationTarget, MarketState, OdeInputs,
                          OracleConfig, abc_eval, abc_numeric,
                          aggregation_check, bond_price, derive_constants,
                          expected_rate, limit_constants, mc_stock, mc_v,
                          short_rate, simulate, solve_gamma, stock_price,
                          volatility_grid, xi_eta_check)
from dynastyprice import bessel
from dynastyprice.calibration import build_defaults
from dynastyprice.cli import run_sweep
from dynastyprice.odes import g_closed
from dynastyprice.ou import SimConfig
from dynastyprice.pricing import pde_residual


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def defaults():
    params, state = build_defaults()
    return params, state, derive_constants(params)


def test_criterion_1_calibration():
    target = CalibrationTarget(risk_aversion=2.0, expected_rate=0.01,
                               lam=2.0, rho=0.04)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        gamma, a = solve_gamma(target)
        best = min(best, time.perf_counter() - t0)
    resid = abs(expected_rate(gamma, a, 2.0, 0.04) - 0.01)
    ok = (0.490 <= gamma <= 0.498 and 2.005 <= a <= 2.015
          and resid < 1e-10 and best < 1e-3)
    report(1, ok, f"gamma={gamma:.6f}, a={a:.6f}, |Er-0.01|={resid:.2e}, "
                  f"runtime={best*1e3:.3f} ms")


def test_criterion_2_ode_equivalence(defaults):
    params, _, consts = defaults
    t0 = time.perf_counter()
    worst = 0.0
    for theta in (0.0, 0.1):
        inputs = OdeInputs(theta=theta, params=params, consts=consts,
                           tau_max=10.0, n_grid=2001)
        closed = abc_eval(inputs)
        numeric = abc_numeric(inputs)
        for name in ("a_vals", "b_vals", "c_vals", "da_vals", "db_vals",
                     "dc_vals"):
            cv, nv = getattr(closed, name), getattr(numeric, name)
            worst = max(worst, float(np.max(np.abs(cv - nv))
                                     / np.max(np.abs(cv))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 1.0
    report(2, ok, f"max relative difference={worst:.2e}, "
                  f"runtime={elapsed:.2f} s")


def test_criterion_3_bessel_identity(defaults):
    params, _, consts = defaults
    z = np.geomspace(1e-6, 50.0, 1000)
    lhs = bessel.j1(z) * bessel.y2(z) - bessel.j2(z) * bessel.y1(z)
    rhs = -2.0 / (np.pi * z)
    ident = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
    g_dev = 0.0
    for theta in (0.0, 0.1, -0.2):
        g0, _ = g_closed(np.array([0.0]), theta, params, consts)
        g_dev = max(g_dev, abs(float(g0[0]) - params.lam / math.pi)
                    / (params.lam / math.pi))
    ok = ident < 1e-10 and g_dev < 1e-10
    report(3, ok, f"cross-product rel err={ident:.2e}, "
                  f"g(0) vs lam/pi rel err={g_dev:.2e}")


def test_criterion_4_bond_sanity(defaults):
    params, state, consts = defaults
    p0 = bond_price(state, 0.0, params, consts)
    h = 1e-4
    lp = [math.log(bond_price(state, t, params, consts))
          for t in (0.0, h, 2.0 * h)]
    rate_fd = -(4.0 * lp[1] - lp[2] - 3.0 * lp[0]) / (2.0 * h)
    gap = abs(rate_fd - short_rate(state, consts))
    ok = abs(p0 - 1.0) < 1e-12 and gap < 1e-4
    report(4, ok, f"|P(0)-1|={abs(p0-1.0):.1e}, "
                  f"|fd rate - short_rate|={gap:.2e}")


def test_criterion_5_pde_residual(defaults):
    params, state, consts = defaults
    t0 = time.perf_counter()
    xs = np.linspace(state.x - 0.1, state.x + 0.1, 5)
    us = np.linspace(state.u - 0.1, state.u + 0.1, 5)
    r1 = pde_residual(xs, us, params, consts, dx=1e-3, du=1e-3)
    r2 = pde_residual(xs, us, params, consts, dx=5e-4, du=5e-4)
    elapsed = time.perf_counter() - t0
    shrink = r1 / r2
    ok = r1 < 1e-3 and 2.0 < shrink < 8.0 and elapsed < 30.0
    report(5, ok, f"max scaled residual={r1:.2e}, shrink at half-step="
                  f"{shrink:.2f}x, runtime={elapsed:.1f} s")


def test_criterion_6_oracle_equivalence(defaults):
    params, state, consts = defaults
    t0 = time.perf_counter()
    rep = stock_price(state, params, consts)
    cfg = OracleConfig(n_paths=100_000, dt=1e-3, burn_in=5.0, horizon=15.0,
                       seed=20_240)
    est = mc_stock(state, params, consts, cfg)
    stock_err = abs(est.mean - rep.stock)
    stock_tol = max(0.02 * rep.stock, 3.0 * est.se)
    v_ok = True
    v_lines = []
    for tau in (0.25, 0.5, 1.0):
        v = mc_v(state, tau, 0.0, params, consts, cfg)
        sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                                 tau_max=tau, n_grid=1001))
        closed = math.exp(0.5 * sol.a_vals[-1] * state.x ** 2
                          + sol.b_vals[-1] * state.x + sol.c_vals[-1])
        z = (v.mean - closed) / v.se
        v_ok = v_ok and abs(z) < 3.0
        v_lines.append(f"tau={tau:g}: z={z:+.2f}")
    elapsed = time.perf_counter() - t0
    ok = stock_err < stock_tol and v_ok and elapsed < 120.0
    report(6, ok, f"|mc-quadrature|={stock_err:.4f} (tol {stock_tol:.4f}, "
                  f"{stock_err/rep.stock*100:.2f}%), {'; '.join(v_lines)}, "
                  f"runtime={elapsed:.0f} s")


def test_criterion_7_appendix_identities(defaults):
    params, _, consts = defaults
    t0 = time.perf_counter()
    results = {}
    for dt in (4e-4, 2e-4, 1e-4, 5e-5):
        path = simulate(SimConfig(n_paths=100, n_steps=int(round(10.0 / dt)),
                                  dt=dt, seed=2024), params, consts, t0=-10.0)
        xd, ed = xi_eta_check(path)
        results[dt] = (float(xd.mean()), float(ed.mean()))
    xi_dev, eta_dev = results[1e-4]
    # the 5e-3 bound instantiates the half-sqrt(dt) envelope at dt=1e-4;
    # the order check asks the whole ladder to stay under that envelope
    envelope = max(max(x, e) / (0.5 * math.sqrt(dt))
                   for dt, (x, e) in results.items())
    elapsed = time.perf_counter() - t0
    ok = xi_dev < 5e-3 and eta_dev < 5e-3 and envelope < 1.0 and elapsed < 60.0
    report(7, ok, f"xi dev={xi_dev:.2e}, eta dev={eta_dev:.2e} (tol 5e-3), "
                  f"sqrt(dt)-envelope ratio={envelope:.2e}, "
                  f"runtime={elapsed:.0f} s")


def test_criterion_8_aggregation_limit(defaults):
    params, _, consts = defaults
    t0 = time.perf_counter()
    cfg = OracleConfig(n_paths=1, dt=1e-4, burn_in=10.0, horizon=1.0,
                       seed=42)
    z, mean, target = aggregation_check(params, consts, cfg, 100_000)
    elapsed = time.perf_counter() - t0
    ok = abs(z) < 3.0 and elapsed < 60.0
    report(8, ok, f"population mean={mean:.5f}, target={target:.5f}, "
                  f"z={z:+.2f}, runtime={elapsed:.0f} s")


def test_criterion_9_figure_signs():
    cfg_map = {"a0": 0.0, "a1": 0.0, "a2": 1.0, "lambda": 2.0, "rho": 0.04,
               "epsilon": 1.0, "gamma_agg": 0.49, "alpha_mean": 2.01,
               "x": 2.01, "u": 1.4300333333333333, "seed": 1}
    sweeps = [("lambda", 1.0, 3.0, "decreasing"),
              ("rho", 0.02, 0.08, "decreasing"),
              ("epsilon", 0.5, 50.0, "increasing"),
              ("gamma_agg", 0.3, 0.7, "increasing"),
              ("alpha_mean", 1.5, 2.5, "decreasing")]
    details = []
    ok = True
    for param, lo, hi, direction in sweeps:
        t0 = time.perf_counter()
        rows = run_sweep(param, lo, hi, 13, cfg_map)
        elapsed = time.perf_counter() - t0
        stocks = np.array([r.stock for _, r in rows])
        diffs = np.diff(stocks)
        mono = bool(np.all(diffs < 0) if direction == "decreasing"
                    else np.all(diffs > 0))
        ok = ok and mono and elapsed < 60.0
        details.append(f"{param} {direction}={'yes' if mono else 'NO'} "
                       f"({elapsed:.0f}s)")

    params, _ = build_defaults()
    consts = derive_constants(params)
    xs = np.linspace(1.2, 2.0, 10)
    us = np.linspace(5.0, 10.0, 10)
    grid = volatility_grid(xs, us, params, consts)
    vol_x = bool(np.all(np.diff(grid, axis=0) < 0))
    vol_u = bool(np.all(np.diff(grid, axis=1) > 0))
    ok = ok and vol_x and vol_u
    details.append(f"vol decr in x={'yes' if vol_x else 'NO'}, "
                   f"incr in u={'yes' if vol_u else 'NO'}")
    report(9, ok, "; ".join(details))


def test_criterion_10_known_parameter_limit():
    base, _ = build_defaults(exact=True)
    big_eps = replace(base, epsilon=1e8)
    consts_eps = derive_constants(big_eps)
    consts_lim = limit_constants(base)
    worst = 0.0
    for u in (0.0, 1.43):
        state = MarketState(base.alpha_mean, u)
        s_eps = stock_price(state, big_eps, consts_eps).stock
        s_lim = stock_price(state, base, consts_lim).stock
        worst = max(worst, abs(s_eps - s_lim) / s_lim)
        p_eps = bond_price(state, 1.0, big_eps, consts_eps)
        p_lim = bond_price(state, 1.0, base, consts_lim)
        worst = max(worst, abs(p_eps - p_lim) / p_lim)
    ok = worst < 1e-5
    report(10, ok, f"max relative gap stock/bond at eps=1e8 vs limit "
                   f"formulas = {worst:.2e}")
