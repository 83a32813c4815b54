"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Criteria 2, 3, 5, 6, 7 and 8 run their ``validate``
suite at its defaults (full sizes, the criterion's seed) and pin its
bounds here.  The module takes about 20 s on 2 CPUs.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from dynastyprice import (CalibrationTarget, MarketState, bond_price,
                          derive_constants, expected_rate, limit_constants,
                          short_rate, solve_gamma, stock_price,
                          volatility_grid)
from dynastyprice.calibration import build_defaults
from dynastyprice.cli import run_sweep
from dynastyprice.validate import (suite_aggregation, suite_appendix,
                                   suite_bessel, suite_mc, suite_ode,
                                   suite_pde)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def check_suite(num, suite, pinned, gate=math.inf):
    """Criterion ``num``: ``suite()`` passes within ``gate`` seconds, its rows
    are ``pinned``'s (check, tolerance) pairs; None pins the name only."""
    t0 = time.perf_counter()
    rows = suite()
    elapsed = time.perf_counter() - t0
    same = len(rows) == len(pinned) and all(
        r.check == name and tol in (None, r.tolerance)
        for r, (name, tol) in zip(rows, pinned))
    ok = same and all(r.passed for r in rows) and elapsed < gate
    detail = ", ".join(f"{r.check}={r.value:.3g} (tol {r.tolerance:.3g}"
                       f"{'' if r.passed else ', FAIL'})" for r in rows)
    if not same:
        detail += f"; rows differ from pinned {pinned}"
    report(num, ok, f"{detail}, runtime={elapsed:.2f} s")


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


def test_criterion_2_ode_equivalence():
    check_suite(2, suite_ode, [("closed_vs_numeric_theta0", 1e-8),
                               ("closed_vs_numeric_theta0.1", 1e-8),
                               ("fd_residuals", 1e-6)], gate=1.0)


def test_criterion_3_bessel_identity():
    check_suite(3, suite_bessel, [("cross_product_identity", 1e-10),
                                  ("g0_equals_lam_over_pi", 1e-10),
                                  ("j2_recurrence", 1e-12)])


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


def test_criterion_5_pde_residual():
    check_suite(5, suite_pde, [("max_scaled_residual", 1e-3),
                               ("halving_shrink_factor", 2.0),
                               ("halving_shrink_factor_upper", 8.0)],
                gate=30.0)


def test_criterion_6_oracle_equivalence():
    # the stock's bound, max(0.02 S, 3 SE), depends on the draw
    check_suite(6, suite_mc, [("stock_quadrature_vs_mc", None),
                              ("v_transform_tau0.25", 3.0),
                              ("v_transform_tau0.5", 3.0),
                              ("v_transform_tau1", 3.0),
                              ("martingale_drift", 3.0)], gate=120.0)


def test_criterion_7_appendix_identities():
    check_suite(7, suite_appendix, [("xi_deviation_dt1e-4", 5e-3),
                                    ("eta_deviation_dt1e-4", 5e-3),
                                    ("sqrt_dt_envelope", 1.0)], gate=60.0)


def test_criterion_8_aggregation_limit():
    check_suite(8, suite_aggregation, [("population_vs_limit_z", 3.0)],
                gate=60.0)


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
