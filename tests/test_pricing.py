import importlib.util
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dynastyprice import (DegenerateGError, InvalidParamsError, MarketState,
                          ModelParams, SimConfig, bond_price,
                          derive_constants, dividend, drift_star, expected_u,
                          limit_constants, pde_residual, short_rate,
                          simulate, stock_price, volatility, volatility_grid)
from dynastyprice import odes, pricing
from dynastyprice.calibration import build_defaults
from dynastyprice.odes import G_FLOOR, OdeInputs, OdeSolution, abc_eval
from dynastyprice.pricing import (MAX_NODES, REL_TOL, DivergentIntegralError,
                                  QuadratureToleranceError, _rule,
                                  _solve_grid, _stock_and_s_x, _tilt,
                                  run_sweep)


@pytest.fixture(scope="module")
def defaults():
    params, state = build_defaults()
    return params, state, derive_constants(params)


def _simpson(sol, params):
    """The closed Simpson column of the rule, as an (N, 1) weight matrix."""
    return _rule(sol.taus, params.rho)[:, :1]


def _stock_at(x, u, sol, params, consts):
    return _stock_and_s_x([x], [u], sol, params, consts,
                          _simpson(sol, params))[0][0, 0, 0]


def _richardson_slope(x, u, sol, params, consts, dx=1e-4):
    # centred differences of S at bumps dx and dx/2, extrapolated; S comes
    # from the F rows of the evaluator, a separate formula from its F_x
    s, _ = _stock_and_s_x(x + np.array([dx, -dx, 0.5 * dx, -0.5 * dx]),
                          [u], sol, params, consts, _simpson(sol, params))
    s = s[:, 0, 0]
    return (4.0 * (s[2] - s[3]) / dx - (s[0] - s[1]) / (2.0 * dx)) / 3.0


# ---------------------------------------------------------------- bond

def test_bond_u_dependence_exact(defaults):
    params, state, consts = defaults
    lam = params.lam
    for tau in (0.3, 1.0, 4.0):
        with_u = math.log(bond_price(MarketState(state.x, 1.7), tau, params, consts))
        without = math.log(bond_price(MarketState(state.x, 0.0), tau, params, consts))
        assert with_u - without == pytest.approx(
            -(1.0 - math.exp(-lam * tau)) * 1.7, rel=1e-12)


def test_bond_positive_and_continuous(defaults):
    params, state, consts = defaults
    taus = np.linspace(0.0, 5.0, 26)
    prices = [bond_price(state, float(t), params, consts) for t in taus]
    assert all(0.0 < p <= 1.0 + 1e-9 for p in prices)
    assert np.max(np.abs(np.diff(prices))) < 0.5


# ---------------------------------------------------------------- stock

def test_stock_report_meets_tolerances(defaults):
    params, state, consts = defaults
    rep = stock_price(state, params, consts)
    assert rep.stock > 0.0
    assert rep.integrand_tail / rep.stock < REL_TOL
    assert rep.grid_error / rep.stock < REL_TOL
    assert not rep.factor_sign_change


def _reference_module():
    # the benchmark's DOP853 reference imports nothing from the package
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.py"
    spec = importlib.util.spec_from_file_location("_stock_reference", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("over", [
    {}, {"lam": 1.0, "rho": 0.08, "epsilon": 1.5},
    {"lam": 2.5, "rho": 0.04, "epsilon": 0.6},
    {"lam": 3.0, "rho": 0.03, "epsilon": 2.0},
    {"lam": 1.2, "rho": 0.06}, {"lam": 2.0, "rho": 0.01},
], ids=["defaults", "lam1", "lam2.5", "lam3", "lam1.2", "rho0.01"])
def test_reported_stock_error_bounds_true_error(over):
    # tail plus grid error must cover the distance to an independent
    # high-precision solve, at x = 2.01 and u at its stationary mean
    ref = _reference_module()
    kw = dict(ref.DEFAULTS, **over)
    rp, params = ref.Params(**kw), ModelParams(**kw)
    x = 2.01
    u = ref.stationary_u(rp, x)
    q = ref.quotes(rp, [x], [u])
    s_ref, sx_ref = float(q.stock[0]), float(q.stock_x[0])
    state, consts = MarketState(x, u), derive_constants(params)
    rep = stock_price(state, params, consts)
    err = abs(rep.stock - s_ref)
    assert err <= rep.integrand_tail + rep.grid_error
    assert err <= 1e-8 * s_ref
    assert abs(rep.stock_x - sx_ref) <= 1e-6 * abs(rep.stock_x)
    assert volatility(state, params, consts) == rep.stock_x / rep.stock


def test_refined_grid_closes_the_half_rule(defaults):
    # at rho = 0.08 the refinement jumps the horizon; the jump must keep
    # N = 1 (mod 4), or the half rule sees an even node count and its
    # weights stop 2h short of tau_max (a spurious grid_error term)
    params, state, _ = defaults
    params = replace(params, rho=0.08)
    sol, report = _solve_grid(state, params, derive_constants(params))
    assert report.n_grid % 4 == 1
    w = _rule(sol.taus, params.rho)
    for col in (0, 1):
        assert w[:, col].sum() == pytest.approx(
            report.tau_max + 1.0 / params.rho, rel=1e-13)


@pytest.mark.parametrize("limit", [False, True], ids=["defaults", "A=0"])
def test_stock_integrand_is_bond_times_forward_dividend(defaults, limit):
    # S = int P(tau) E^tau[delta(X_tau)] dtau: at each maturity the
    # integrand is the zero-coupon bond times the tilt factor
    params, state, consts = defaults
    if limit:
        consts = limit_constants(params)
    last = np.array([[0.0], [1.0]])     # selects the node at tau
    for k in (0.5, 2.0, 10.0):
        tau = k / params.lam
        sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                                 tau_max=tau, n_grid=2))
        got = _stock_and_s_x([state.x], [state.u], sol, params, consts,
                             last)[0][0, 0, 0]
        want = (bond_price(state, tau, params, consts)
                * _tilt(state.x, sol)[-1])
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_stock_deterministic(defaults):
    params, state, consts = defaults
    a = stock_price(state, params, consts)
    b = stock_price(state, params, consts)
    assert a.stock == b.stock


def test_run_sweep_lambda_recomputes_u(defaults):
    params, _, _ = defaults
    state = MarketState(2.01, 1.43003)
    lams = np.linspace(1.0, 2.0, 3)
    rows = run_sweep("lam", lams, params, state)
    held = run_sweep("lam", lams, params, state, hold_state=True)
    assert rows[0].stock != held[0].stock
    assert rows[-1].stock == pytest.approx(held[-1].stock, rel=1e-3)


def test_unit_change_symmetry(defaults):
    # (a2, gamma) -> (kappa a2, gamma/kappa) rescales the price by kappa
    params, state, consts = defaults
    base = stock_price(state, params, consts).stock
    scaled_params = replace(params, a2=2.0, gamma_agg=params.gamma_agg / 2.0)
    scaled = stock_price(state, scaled_params,
                         derive_constants(scaled_params)).stock
    assert scaled == pytest.approx(2.0 * base, rel=1e-10)


def test_volatility_even_symmetry():
    # alpha_mean = 0 and a1 = 0 make S even in x, so the slope at 0 vanishes
    params = ModelParams(a0=0.0, a1=0.0, a2=1.0, lam=2.0, rho=0.04,
                         epsilon=1.0, gamma_agg=0.49, alpha_mean=0.0)
    consts = derive_constants(params)
    assert consts.spd_lin == 0.0
    vol = volatility(MarketState(0.0, 1.0), params, consts)
    assert abs(vol) < 1e-9


# the three parameter sets of the benchmark's surface workload
SURFACE_SETS = {"defaults": {},
                "lam2.5_eps0.6_rho0.05": {"lam": 2.5, "epsilon": 0.6,
                                          "rho": 0.05},
                "lam1.2_rho0.06": {"lam": 1.2, "rho": 0.06}}


@pytest.mark.parametrize("over", SURFACE_SETS.values(), ids=SURFACE_SETS)
def test_volatility_grid_matches_richardson_slope(defaults, over):
    # the closed-form slope against Richardson-bumped prices on the same
    # grid, which volatility_grid solves at the window's median state
    params = replace(defaults[0], **over)
    consts = derive_constants(params)
    xs = np.linspace(1.2, 2.0, 4)
    us = np.linspace(5.0, 10.0, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = volatility_grid(xs, us, params, consts)
    mid = MarketState(float(np.median(xs)), float(np.median(us)))
    sol = _solve_grid(mid, params, consts)[0]
    want = np.array([[_richardson_slope(x, u, sol, params, consts)
                      / _stock_at(x, u, sol, params, consts)
                      for u in us] for x in xs])
    assert grid.shape == (4, 3)
    np.testing.assert_allclose(grid, want, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("over", SURFACE_SETS.values(), ids=SURFACE_SETS)
def test_volatility_and_drift_match_richardson_slope(defaults, over):
    # volatility and drift_star take the closed-form slope on the grid
    # refined for their state; compare with bumped prices on that grid
    params = replace(defaults[0], **over)
    consts = derive_constants(params)
    state, a_star = MarketState(1.6, 7.5), 2.2
    sol = _solve_grid(state, params, consts)[0]
    h = _stock_at(state.x, state.u, sol, params, consts)
    h_x = _richardson_slope(state.x, state.u, sol, params, consts)
    coef = consts.lam * a_star - 2.0 * consts.spd_quad * state.x - consts.spd_lin
    mu = (short_rate(state, consts) * h - dividend(state.x, params)
          + coef * h_x) / h
    assert volatility(state, params, consts) == pytest.approx(h_x / h,
                                                              rel=1e-8)
    assert drift_star(state, a_star, params, consts) == pytest.approx(
        mu, rel=1e-8)


def test_volatility_grid_rejects_empty_axis(defaults):
    params, _, consts = defaults
    for xs, us in (([], [5.0]), ([1.5], [])):
        with pytest.raises(InvalidParamsError):
            volatility_grid(xs, us, params, consts)


@pytest.mark.parametrize("fn", [volatility_grid, pde_residual],
                         ids=["volatility_grid", "pde_residual"])
def test_every_state_on_the_axes_is_validated(defaults, fn):
    # the grid is solved at the median state, which can be valid while
    # another state on the axes is not
    params, _, consts = defaults
    for xs, us in (([2.0], [-0.5, 1.0]), ([1.5, 1.55, np.inf], [1.0]),
                   ([1.5, np.nan, 1.6], [1.0]), ([1.5], [1.0, np.inf, 2.0])):
        with pytest.raises(InvalidParamsError):
            fn(xs, us, params, consts)


def test_surface_memory_independent_of_x_count(defaults):
    # scratch memory is a fixed number of blocks: it must not grow with
    # len(xs), and the bound must catch a pass that holds (n_x, N)
    # integrand matrices
    params, _, consts = defaults
    sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                             tau_max=100.0, n_grid=20_001))
    us = np.linspace(5.0, 10.0, 3)
    node_bytes = 8 * sol.taus.size
    bound = (us.size + 10) * node_bytes

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    w = _simpson(sol, params)
    few = peak(_stock_and_s_x, np.linspace(1.2, 2.0, 4), us, sol, params,
               consts, w)
    xs = np.linspace(1.2, 2.0, 40)
    many = peak(_stock_and_s_x, xs, us, sol, params, consts, w)
    assert many < bound
    assert many - few < node_bytes
    # one (n_x, N) matrix, as a joint-exponent pass over all x would hold
    assert peak(np.outer, xs, sol.taus) > bound


def _dense_stock_and_s_x(xs, us, sol, params, consts, w):
    """S and S_x summed over every (x, u, tau) at once, with F and F_x in
    closed form from the solution's fields; x in chunks to bound memory."""
    taus, lam, rho = sol.taus, params.lam, params.rho
    g = np.exp(np.multiply.outer(us, np.expm1(-lam * taus)))
    s, s_x = [], []
    for x in np.array_split(xs, -(-len(xs) // 64)):
        x = x[:, None]
        tilt = 0.5 * x * x * sol.da_vals + x * sol.db_vals + sol.dc_vals
        e = np.exp(0.5 * x * x * sol.a_vals + x * sol.b_vals + sol.c_vals
                   - rho * taus - consts.spd_lin * x - consts.spd_quad * x * x)
        f_x = e * (x * sol.da_vals + sol.db_vals + tilt * (
            x * sol.a_vals + sol.b_vals - consts.spd_lin
            - 2.0 * consts.spd_quad * x))
        s.append(np.einsum("xt,ut,tk->xuk", e * tilt, g, w, optimize=True))
        s_x.append(np.einsum("xt,ut,tk->xuk", f_x, g, w, optimize=True))
    return np.concatenate(s), np.concatenate(s_x)


@pytest.mark.parametrize("nx,nu,k", [(1, 1, 1), (1, 4, 3), (3, 4, 1),
                                     (3, 1, 3), (64, 1, 3), (64, 4, 1),
                                     (2000, 1, 1), (2000, 4, 3)])
@pytest.mark.parametrize("size", ["below_block", "past_block", "20001"])
def test_blocked_contraction_equals_dense_sum(defaults, nx, nu, k, size):
    # the block edges fall where the nodes per block divide N: below one
    # block, one node past two blocks, and a grid of the surface's size
    params, _, consts = defaults
    step = pricing.BLOCK // max(min(nx, math.isqrt(pricing.BLOCK)), nu * k)
    n = {"below_block": 100, "past_block": 2 * step + 1, "20001": 20_001}[size]
    sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                             tau_max=100.0, n_grid=n))
    rng = np.random.default_rng(nx * 100 + nu * 10 + k)
    w = rng.uniform(0.5, 1.5, (n, k)) * (sol.taus[1] - sol.taus[0])
    xs = np.linspace(1.2, 2.0, nx)
    us = np.linspace(5.0, 10.0, nu)
    s, s_x = _stock_and_s_x(xs, us, sol, params, consts, w)
    want_s, want_s_x = _dense_stock_and_s_x(xs, us, sol, params, consts, w)
    np.testing.assert_allclose(s, want_s, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(s_x, want_s_x, rtol=1e-13, atol=0.0)
    if nx >= 3:
        # one overflowing state in the middle of the axis is named
        xs[nx // 2] = -60.0
        with pytest.raises(DivergentIntegralError,
                           match=f"x=-60, u={us[0]:.6g}$"):
            _stock_and_s_x(xs, us, sol, params, consts, w)


def test_contraction_scratch_independent_of_grid_and_x_count(defaults):
    # the blocked contraction holds a fixed number of floats whatever N
    # and len(xs); per-x passes over the whole grid held 25.6 MB at 10 x 10
    # and 14.4 MB at 40 x 3 on this grid
    params, _, consts = defaults

    def peak(xs, us, sol):
        w = _simpson(sol, params)
        tracemalloc.start()
        try:
            _stock_and_s_x(xs, us, sol, params, consts, w)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                             tau_max=1000.0, n_grid=200_001))
    for nx, nu in ((10, 10), (40, 3)):
        assert peak(np.linspace(1.2, 2.0, nx), np.linspace(5.0, 10.0, nu),
                    sol) < 2e6
    sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                             tau_max=100.0, n_grid=20_001))
    us = np.linspace(5.0, 10.0, 3)
    assert peak(np.linspace(1.2, 2.0, 2000), us, sol) < (
        (us.size + 10) * 8 * sol.taus.size)


def test_drift_zero_risk_coefficient(defaults):
    # lam a* = spd_lin + 2 spd_quad x kills the h_x term exactly
    params, state, consts = defaults
    a_star = (consts.spd_lin + 2.0 * consts.spd_quad * state.x) / params.lam
    mu = drift_star(state, a_star, params, consts)
    rep = stock_price(state, params, consts)
    want = short_rate(state, consts) - dividend(state.x, params) / rep.stock
    assert mu == pytest.approx(want, rel=1e-12)


def test_drift_decomposition(defaults):
    params, state, consts = defaults
    a_star = 2.01
    mu = drift_star(state, a_star, params, consts)
    sol = _solve_grid(state, params, consts)[0]
    s, s_x = _stock_and_s_x([state.x], [state.u], sol, params, consts,
                            _simpson(sol, params))
    h, h_x = s[0, 0, 0], s_x[0, 0, 0]
    coef = consts.lam * a_star - 2.0 * consts.spd_quad * state.x - consts.spd_lin
    want = (short_rate(state, consts) * h - dividend(state.x, params)
            + coef * h_x) / h
    assert mu == pytest.approx(want, rel=1e-12)


def test_drift_against_one_step_simulation(defaults):
    # E[dS]/dt under the true-mean measure matches mu* S within 3 SE; the
    # known-mean increment of X is used as a control variate
    params, state, consts = defaults
    a_star = 2.2
    lam, dt = params.lam, 1e-3
    mu = drift_star(state, a_star, params, consts)
    sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                             tau_max=150.0, n_grid=30_001))
    s0 = _stock_at(state.x, state.u, sol, params, consts)

    n = 20_000
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(717)))
    z = rng.standard_normal(n)
    decay = math.exp(-lam * dt)
    x1 = a_star + (state.x - a_star) * decay + math.sqrt(
        (1 - math.exp(-2 * lam * dt)) / (2 * lam)) * z
    u1 = state.u * decay + 0.25 * consts.age_norm * lam * dt * (
        decay * state.x ** 2 + x1 ** 2)

    # S at each (x1, u1) pair: the pairs share no axis, so one evaluator
    # call per state
    w = _simpson(sol, params)
    s1 = np.array([_stock_and_s_x([x1[i]], [u1[i]], sol, params, consts,
                                  w)[0][0, 0, 0] for i in range(n)])
    # control variate: remove the h_x (X - E X) fluctuation, mean known = 0
    h_x = _richardson_slope(state.x, state.u, sol, params, consts)
    mean_x1 = a_star + (state.x - a_star) * decay
    y = (s1 - s0) / dt - h_x * (x1 - mean_x1) / dt
    se = y.std(ddof=1) / math.sqrt(n)
    assert abs(y.mean() - mu * s0) < 3 * se


# ---------------------------------------------------------------- pde

def _pde_halving(defaults, step):
    """The PDE residual on 3x3 axes at stencil step ``step`` and half it."""
    params, state, consts = defaults
    xs = np.linspace(state.x - 0.1, state.x + 0.1, 3)
    us = np.linspace(state.u - 0.1, state.u + 0.1, 3)
    return tuple(pde_residual(xs, us, params, consts, dx=h, du=h)
                 for h in (step, 0.5 * step))


def test_pde_residual_small_and_second_order(defaults):
    r1, r2 = _pde_halving(defaults, 1e-3)
    assert r1 < 1e-3
    assert 2.0 < r1 / r2 < 8.0


def test_pde_residual_second_order_above_rounding(defaults):
    # at steps 1e-3 and 5e-4 the h_xx stencil's rounding (S's rounding
    # times 4/dx^2) is as large as its truncation, and the ratio reads
    # about 5.3; at 4e-3 and 2e-3 truncation dominates and the ratio is
    # the second order's 4
    r1, r2 = _pde_halving(defaults, 4e-3)
    assert 3.5 < r1 / r2 < 4.5


def test_pde_residual_memory_bounded(defaults):
    # one evaluator call over the shifted axes holds a few blocks of
    # scratch beyond the grid solve; five stacked (n_x n_u, N) stencil
    # matrices held about 190 N floats at this size
    params, state, consts = defaults
    xs = np.linspace(state.x - 0.1, state.x + 0.1, 3)
    us = np.linspace(state.u - 0.1, state.u + 0.1, 3)
    mid = MarketState(float(np.median(xs)), float(np.median(us)))
    sol = _solve_grid(mid, params, consts)[0]
    tracemalloc.start()
    try:
        pde_residual(xs, us, params, consts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 8 * sol.taus.size


def test_pde_u_direction_semi_analytic(defaults):
    # u enters S only through exp(-(1 - e^{-lam tau}) u); compare the
    # centred h_u against the exact weighted integral, the evaluator's
    # contraction against the Simpson weights times -(1 - e^{-lam tau})
    params, state, consts = defaults
    sol = _solve_grid(state, params, consts)[0]
    w_u = _simpson(sol, params) * np.expm1(-params.lam * sol.taus)[:, None]
    exact_hu = _stock_and_s_x([state.x], [state.u], sol, params, consts,
                              w_u)[0][0, 0, 0]
    du = 1e-3
    up = _stock_at(state.x, state.u + du, sol, params, consts)
    um = _stock_at(state.x, state.u - du, sol, params, consts)
    assert (up - um) / (2 * du) == pytest.approx(exact_hu, rel=1e-6)


# ---------------------------------------------------------------- expected_u

def test_expected_u_values(defaults):
    params, _, consts = defaults
    assert expected_u(0.0, params, consts) == pytest.approx(1.0 / 12.0, rel=1e-14)
    assert expected_u(2.01, params, consts) == pytest.approx(
        1.4300333333333333, rel=1e-14)


def test_expected_u_against_time_average(defaults):
    params, _, consts = defaults
    lam, a = params.lam, 2.01
    target = expected_u(a, params, consts)
    cfg = SimConfig(n_paths=1, n_steps=400_000, dt=1e-3, seed=23)
    x = (a + simulate(cfg, params, consts).xs[0]).tolist()
    # the trapezoid recursion of U, one step at a time
    decay = math.exp(-lam * cfg.dt)
    half_w = 0.25 * consts.age_norm * lam * cfg.dt
    u = np.empty(cfg.n_steps + 1)
    u[0] = target
    for k in range(cfg.n_steps):
        u[k + 1] = u[k] * decay + half_w * (decay * x[k] ** 2 + x[k + 1] ** 2)
    # batch means against autocorrelation (memory ~ 1/lam)
    batches = u[: (len(u) // 8000) * 8000].reshape(-1, 8000).mean(axis=1)
    se = batches.std(ddof=1) / math.sqrt(len(batches))
    assert abs(u.mean() - target) < 3 * se


def test_refinement_stops_at_node_budget(defaults, monkeypatch):
    # at u = 850 the integrand sits within 1/(lam u) of tau = 0, so the
    # Richardson estimate keeps failing; no grid above the budget may be
    # solved.  The exponent functions are stubbed flat (tilt 1), which
    # keeps the spike in G and makes each solve cheap.
    params, state, consts = defaults
    asked = []

    def flat(inputs):
        asked.append(inputs.n_grid)
        taus = np.linspace(0.0, inputs.tau_max, inputs.n_grid)
        zero = np.zeros_like(taus)
        return OdeSolution(taus=taus, a_vals=zero, b_vals=zero, c_vals=zero,
                           da_vals=zero, db_vals=zero,
                           dc_vals=np.ones_like(taus))

    monkeypatch.setattr(pricing, "abc_eval", flat)
    with pytest.raises(QuadratureToleranceError):
        _solve_grid(MarketState(state.x, 850.0), params, consts)
    assert asked and max(asked) <= MAX_NODES
    assert 2 * max(asked) - 1 > MAX_NODES


# ------------------------------------------------------- admissibility

def _box_sets(n, seed):
    """n parameter sets from the property box: lam in [0.2, 5], epsilon in
    [1/lam, 1/lam + 5], rho in [0.01, 0.1], a2 in [-3, 2], a1 in [-1, 1],
    gamma_agg in [0.1, 1.5], alpha_mean in [0, 3]."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        lam = rng.uniform(0.2, 5.0)
        yield ModelParams(a0=0.0, a1=rng.uniform(-1.0, 1.0),
                          a2=rng.uniform(-3.0, 2.0), lam=lam,
                          rho=rng.uniform(0.01, 0.1),
                          epsilon=1.0 / lam + rng.uniform(0.0, 5.0),
                          gamma_agg=rng.uniform(0.1, 1.5),
                          alpha_mean=rng.uniform(0.0, 3.0))


class _NodeEvaluated(Exception):
    pass


def test_stock_admissibility_decided_before_any_node(defaults, monkeypatch):
    # stock_price raises DegenerateGError exactly when g drops below
    # G_FLOOR on a dense sample out to 60/lam plus tau = 1000/lam, and
    # decides it before abc_eval is reached; A > 0 and the A = 0 limit
    def no_nodes(inputs):
        raise _NodeEvaluated

    monkeypatch.setattr(pricing, "abc_eval", no_nodes)
    state = defaults[1]
    verdicts = []
    for params in _box_sets(80, seed=17):
        taus = np.append(np.linspace(0.0, 60.0 / params.lam, 2001),
                         1000.0 / params.lam)
        for consts in (derive_constants(params), limit_constants(params)):
            g = odes._g_derivs(taus, 0.0, params, consts)[0]
            bad = bool(np.min(g) < G_FLOOR)
            with pytest.raises((DegenerateGError, _NodeEvaluated)) as info:
                stock_price(state, params, consts)
            if bad:
                assert info.type is DegenerateGError
                assert "g(inf) = " in str(info.value)
            else:
                assert info.type is _NodeEvaluated
                assert odes.g_infinity(params, consts) == pytest.approx(
                    g[-1], rel=1e-10)
            verdicts.append(bad)
    assert 10 <= sum(verdicts) <= len(verdicts) - 10


def test_maturity_endpoint_decides_like_a_dense_grid():
    # g is monotone, so the 2-node grid [0, tau] that bond_price and
    # martingale_check solve raises exactly when a 2,001-node grid does
    rng = np.random.default_rng(29)
    raised = []
    for params in _box_sets(120, seed=23):
        consts = derive_constants(params)
        tau = rng.uniform(0.01, 10.0) / params.lam
        theta = rng.uniform(-0.5, 0.5)
        outcomes = []
        for n_grid in (2, 2001):
            try:
                abc_eval(OdeInputs(theta=theta, params=params, consts=consts,
                                   tau_max=tau, n_grid=n_grid))
                outcomes.append(False)
            except DegenerateGError:
                outcomes.append(True)
        assert outcomes[0] == outcomes[1]
        raised.append(outcomes[0])
    assert 10 <= sum(raised) <= len(raised) - 10


def test_overflowing_state_is_not_priced(defaults):
    # the grid solve checks its integrand; the evaluator checks S and h_x
    # for cells away from the state the grid was solved at
    params, _, consts = defaults
    with np.errstate(all="ignore"):
        with pytest.raises(DivergentIntegralError):
            stock_price(MarketState(1e200, 1.0), params, consts)
        with pytest.raises(DivergentIntegralError):
            volatility_grid([1.5, 1.6, 1e200], [1.0], params, consts)


def test_far_state_priced_or_refused_without_warning(defaults):
    # at x = -40 the price is near 1e165 and finite; the sign-change flag
    # is read off the tilt factor, so no product of integrand values
    # overflows.  At x = -60 the integrand overflows and the evaluator
    # refuses the state, also without a numpy warning first.
    params, _, consts = defaults
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = stock_price(MarketState(-40.0, expected_u(-40.0, params, consts)),
                          params, consts)
        assert math.isfinite(rep.stock) and math.isfinite(rep.stock_x)
        with pytest.raises(DivergentIntegralError, match="x=-60"):
            stock_price(MarketState(-60.0, expected_u(-60.0, params, consts)),
                        params, consts)


def test_sign_change_flag_with_linear_dividend():
    # a1 != 0 lets the tilt factor cross zero along the maturity axis;
    # the price is still returned, flagged
    params = ModelParams(a0=0.0, a1=1.0, a2=0.0, lam=2.0, rho=0.04,
                         epsilon=1.0, gamma_agg=0.49, alpha_mean=2.01)
    consts = derive_constants(params)
    flagged = stock_price(MarketState(-0.5, 0.5), params, consts)
    assert flagged.factor_sign_change
    assert np.isfinite(flagged.stock)
    clean = stock_price(MarketState(2.0, 0.5), params, consts)
    assert not clean.factor_sign_change
    assert clean.stock > 0.0
