"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Each criterion runs its ``validate`` suite at its
defaults (full sizes, the criterion's seed), as ``dynastyprice validate``
does, and pins the suite's (check, tolerance) rows and runtime gate here.
The module takes about 22 s on 2 CPUs.
"""

import math
import time

from dynastyprice.validate import run_suite


def check_suite(num, name, pinned, gate=math.inf, best_of=1):
    """Criterion ``num``: suite ``name`` passes within ``gate`` seconds (the
    best of ``best_of`` calls), its rows are ``pinned``'s (check, tolerance)
    pairs; None pins the name only."""
    elapsed = math.inf
    for _ in range(best_of):
        t0 = time.perf_counter()
        rows = run_suite(name)
        elapsed = min(elapsed, time.perf_counter() - t0)
    same = len(rows) == len(pinned) and all(
        r.check == check and tol in (None, r.tolerance)
        for r, (check, tol) in zip(rows, pinned))
    ok = same and all(r.passed for r in rows) and elapsed < gate
    detail = ", ".join(f"{r.check}={r.value:.3g} (tol {r.tolerance:.3g}"
                       f"{'' if r.passed else ', FAIL'})" for r in rows)
    if not same:
        detail += f"; rows differ from pinned {pinned}"
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}, "
          f"runtime={elapsed:.3g} s")
    assert ok, f"criterion {num}: {detail}"
    return rows


def test_criterion_1_calibration():
    rows = check_suite(1, "calibration", [("gamma_lower", 0.490),
                                          ("gamma_upper", 0.498),
                                          ("a_lower", 2.005),
                                          ("a_upper", 2.015),
                                          ("rate_residual", 1e-10)],
                       gate=1e-3, best_of=5)
    # the exact root reproduces the target rate to machine precision
    assert rows[-1].value < 1e-12


def test_criterion_2_ode_equivalence():
    check_suite(2, "ode", [("closed_vs_numeric_theta0", 1e-8),
                           ("closed_vs_numeric_theta0.1", 1e-8),
                           ("fd_residuals", 1e-6)], gate=1.0)


def test_criterion_3_bessel_identity():
    check_suite(3, "bessel", [("cross_product_identity", 1e-10),
                              ("g0_equals_lam_over_pi", 1e-10),
                              ("j2_recurrence", 1e-12)])


def test_criterion_4_bond_sanity():
    check_suite(4, "bond", [("p0_minus_one", 1e-12),
                            ("fd_rate_vs_short_rate", 1e-4)])


def test_criterion_5_pde_residual():
    check_suite(5, "pde", [("max_scaled_residual", 1e-3),
                           ("halving_shrink_factor", 2.0),
                           ("halving_shrink_factor_upper", 8.0)], gate=30.0)


def test_criterion_6_oracle_equivalence():
    # the stock's bound, max(0.02 S, 3 SE), depends on the draw
    check_suite(6, "mc", [("stock_quadrature_vs_mc", None),
                          ("v_transform_tau0.25", 3.0),
                          ("v_transform_tau0.5", 3.0),
                          ("v_transform_tau1", 3.0),
                          ("martingale_drift", 3.0)], gate=120.0)


def test_criterion_7_appendix_identities():
    check_suite(7, "appendix", [("xi_deviation_dt1e-4", 5e-3),
                                ("eta_deviation_dt1e-4", 5e-3),
                                ("sqrt_dt_envelope", 1.0)], gate=60.0)


def test_criterion_8_aggregation_limit():
    check_suite(8, "aggregation", [("population_vs_limit_z", 3.0)], gate=60.0)


def test_criterion_9_figure_signs():
    check_suite(9, "statics", [("lam_decreasing", 0.0),
                               ("rho_decreasing", 0.0),
                               ("epsilon_increasing", 0.0),
                               ("gamma_agg_increasing", 0.0),
                               ("alpha_mean_decreasing", 0.0),
                               ("vol_x_decreasing", 0.0),
                               ("vol_u_increasing", 0.0)], gate=60.0)


def test_criterion_10_known_parameter_limit():
    check_suite(10, "limit", [("stock_bond_gap_eps1e8", 1e-5)])
