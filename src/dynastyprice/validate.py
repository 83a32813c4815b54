"""Named verification suites shared by the CLI and the acceptance tests.

Each suite returns a list of CheckResult rows; a suite passes when every
row does.  Sizes default to the full acceptance scale; the ``fast`` flag
shrinks the Monte Carlo work for quick smoke runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bessel
from .calibration import build_defaults
from .model import derive_constants
from .odes import OdeInputs, abc_eval, abc_numeric, g_closed
from .oracles import (OracleConfig, aggregation_check, martingale_check,
                      mc_stock, mc_v, xi_eta_check)
from .ou import SimConfig, simulate
from .pricing import QuadratureConfig, pde_residual, stock_price

SUITES = ("bessel", "ode", "pde", "mc", "appendix", "aggregation", "all")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    check: str
    value: float
    tolerance: float
    passed: bool


def _check(suite: str, name: str, value: float, tol: float,
           larger_ok: bool = False) -> CheckResult:
    ok = value >= tol if larger_ok else value <= tol
    return CheckResult(suite, name, float(value), float(tol), bool(ok))


def suite_bessel(seed: int = 0) -> list[CheckResult]:
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


def suite_ode(seed: int = 0) -> list[CheckResult]:
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
    t, h = sol.taus, sol.taus[1] - sol.taus[0]
    lam, big_a = consts.lam, consts.age_norm

    def mid(f):
        return f[1:-1]

    da = (sol.a_vals[2:] - sol.a_vals[:-2]) / (2 * h)
    db = (sol.b_vals[2:] - sol.b_vals[:-2]) / (2 * h)
    dc = (sol.c_vals[2:] - sol.c_vals[:-2]) / (2 * h)
    res_a = np.abs(0.5 * da - (0.5 * lam * big_a * np.exp(-lam * mid(t))
                   - lam * mid(sol.a_vals) + 0.5 * mid(sol.a_vals) ** 2))
    res_b = np.abs(db - (mid(sol.a_vals) - lam) * mid(sol.b_vals))
    res_c = np.abs(dc - 0.5 * (mid(sol.a_vals) + mid(sol.b_vals) ** 2))
    out.append(_check("ode", "fd_residuals",
                      float(max(res_a.max(), res_b.max(), res_c.max())), 1e-6))
    return out


def suite_pde(seed: int = 0) -> list[CheckResult]:
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


def suite_mc(seed: int = 12345, fast: bool = False) -> list[CheckResult]:
    params, state = build_defaults()
    consts = derive_constants(params)
    out = []

    n_paths = 20_000 if fast else 100_000
    cfg = OracleConfig(n_paths=n_paths, dt=1e-3, burn_in=5.0,
                       horizon=15.0, seed=seed)

    report = stock_price(state, params, consts, QuadratureConfig())
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
    params, _ = build_defaults()
    consts = derive_constants(params)
    n_paths = 30 if fast else 100
    out = []
    envelope = []
    ladder = (4e-4, 2e-4, 1e-4, 5e-5)
    for dt in ladder:
        n_steps = int(round(10.0 / dt))
        # the path is a temporary, released before the next dt's simulate
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
    params, _ = build_defaults()
    consts = derive_constants(params)
    population = 20_000 if fast else 100_000
    cfg = OracleConfig(n_paths=1, dt=1e-4, burn_in=10.0, horizon=1.0,
                       seed=seed)
    z, _, _ = aggregation_check(params, consts, cfg, population)
    return [_check("aggregation", "population_vs_limit_z", abs(z), 3.0)]


def run_suite(name: str, seed: int = 12345,
              fast: bool = False) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    if name == "all":
        rows = []
        for sub in SUITES[:-1]:
            rows.extend(run_suite(sub, seed=seed, fast=fast))
        return rows
    if name == "bessel":
        return suite_bessel(seed)
    if name == "ode":
        return suite_ode(seed)
    if name == "pde":
        return suite_pde(seed)
    if name == "mc":
        return suite_mc(seed, fast)
    if name == "appendix":
        return suite_appendix(seed, fast)
    return suite_aggregation(seed, fast)
