import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dynastyprice import (InvalidParamsError, MarketState, ModelParams,
                          QuadratureConfig, SimConfig, bond_price,
                          derive_constants, dividend, drift_star, expected_u,
                          pde_residual, short_rate, simulate, stock_price,
                          volatility, volatility_grid)
from dynastyprice.calibration import build_defaults
from dynastyprice.odes import OdeInputs, abc_eval
from dynastyprice.pricing import (_slope_x, _solve_grid, _stock_and_slope,
                                  _stock_values)


@pytest.fixture(scope="module")
def defaults():
    params, state = build_defaults()
    return params, state, derive_constants(params)


# ---------------------------------------------------------------- bond

def test_bond_at_zero_maturity(defaults):
    params, state, consts = defaults
    assert bond_price(state, 0.0, params, consts) == pytest.approx(1.0, abs=1e-12)


def test_bond_short_end_matches_short_rate(defaults):
    params, state, consts = defaults
    h = 1e-4
    lp = [math.log(bond_price(state, t, params, consts)) for t in (0.0, h, 2 * h)]
    rate_fd = -(4.0 * lp[1] - lp[2] - 3.0 * lp[0]) / (2.0 * h)
    assert abs(rate_fd - short_rate(state, consts)) < 1e-4


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
    q = QuadratureConfig()
    rep = stock_price(state, params, consts, q)
    assert rep.stock > 0.0
    assert rep.integrand_tail / rep.stock < q.rel_tol
    assert rep.grid_error / rep.stock < q.rel_tol
    assert not rep.factor_sign_change


def test_stock_deterministic(defaults):
    params, state, consts = defaults
    a = stock_price(state, params, consts)
    b = stock_price(state, params, consts)
    assert a.stock == b.stock


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


def test_volatility_bump_robustness(defaults):
    params, state, consts = defaults
    v1 = volatility(state, params, consts, dx=1e-4)
    v2 = volatility(state, params, consts, dx=5e-5)
    assert v1 == pytest.approx(v2, rel=1e-6)


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
    sol, _ = _solve_grid(mid, params, consts, QuadratureConfig())
    want = np.array([[_slope_x(MarketState(x, u), sol, params, consts, 1e-4)
                      / _stock_values(x, u, sol, params, consts)[0]
                      for u in us] for x in xs])
    assert grid.shape == (4, 3)
    np.testing.assert_allclose(grid, want, rtol=1e-8, atol=0.0)


def test_volatility_grid_rejects_empty_axis(defaults):
    params, _, consts = defaults
    for xs, us in (([], [5.0]), ([1.5], [])):
        with pytest.raises(InvalidParamsError):
            volatility_grid(xs, us, params, consts)


def test_surface_memory_independent_of_x_count(defaults):
    # scratch memory is O((n_u + c) N): it must not grow with len(xs), and
    # the bound must catch a pass that holds (n_x, N) integrand matrices
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

    few = peak(_stock_and_slope, np.linspace(1.2, 2.0, 4), us, sol, params,
               consts)
    xs = np.linspace(1.2, 2.0, 40)
    many = peak(_stock_and_slope, xs, us, sol, params, consts)
    assert many < bound
    assert many - few < node_bytes
    one_bump = peak(_stock_values, xs, np.full(xs.size, 7.5), sol, params,
                    consts)
    assert one_bump > bound


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
    sol, rep = _solve_grid(state, params, consts, QuadratureConfig())
    dx = 1e-4
    us4 = np.full(4, state.u)
    xs4 = state.x + np.array([dx, -dx, 0.5 * dx, -0.5 * dx])
    s = _stock_values(xs4, us4, sol, params, consts)
    h_x = (4.0 * (s[2] - s[3]) / dx - (s[0] - s[1]) / (2.0 * dx)) / 3.0
    coef = consts.lam * a_star - 2.0 * consts.spd_quad * state.x - consts.spd_lin
    want = (short_rate(state, consts) * rep.stock - dividend(state.x, params)
            + coef * h_x) / rep.stock
    assert mu == pytest.approx(want, rel=1e-12)


def test_drift_against_one_step_simulation(defaults):
    # E[dS]/dt under the true-mean measure matches mu* S within 3 SE; the
    # known-mean increment of X is used as a control variate
    params, state, consts = defaults
    a_star = 2.2
    lam, dt = params.lam, 1e-3
    q = QuadratureConfig(tau_max=150.0, rel_tol=1e-3)
    mu = drift_star(state, a_star, params, consts, q)
    sol, rep = _solve_grid(state, params, consts, q)

    n = 20_000
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(717)))
    z = rng.standard_normal(n)
    decay = math.exp(-lam * dt)
    x1 = a_star + (state.x - a_star) * decay + math.sqrt(
        (1 - math.exp(-2 * lam * dt)) / (2 * lam)) * z
    u1 = state.u * decay + 0.25 * consts.age_norm * lam * dt * (
        decay * state.x ** 2 + x1 ** 2)

    s1 = np.empty(n)
    block = 2000
    for i in range(0, n, block):
        s1[i:i + block] = _stock_values(x1[i:i + block], u1[i:i + block],
                                        sol, params, consts)
    # control variate: remove the h_x (X - E X) fluctuation, mean known = 0
    us4 = np.full(4, state.u)
    dx = 1e-4
    xs4 = state.x + np.array([dx, -dx, 0.5 * dx, -0.5 * dx])
    sb = _stock_values(xs4, us4, sol, params, consts)
    h_x = (4.0 * (sb[2] - sb[3]) / dx - (sb[0] - sb[1]) / (2.0 * dx)) / 3.0
    mean_x1 = a_star + (state.x - a_star) * decay
    y = (s1 - rep.stock) / dt - h_x * (x1 - mean_x1) / dt
    se = y.std(ddof=1) / math.sqrt(n)
    assert abs(y.mean() - mu * rep.stock) < 3 * se


# ---------------------------------------------------------------- pde

def test_pde_residual_small_and_second_order(defaults):
    params, state, consts = defaults
    xs = np.linspace(state.x - 0.1, state.x + 0.1, 3)
    us = np.linspace(state.u - 0.1, state.u + 0.1, 3)
    r1 = pde_residual(xs, us, params, consts, dx=1e-3, du=1e-3)
    r2 = pde_residual(xs, us, params, consts, dx=5e-4, du=5e-4)
    assert r1 < 1e-3
    assert 2.0 < r1 / r2 < 8.0


def test_pde_u_direction_semi_analytic(defaults):
    # u enters S only through exp(-(1 - e^{-lam tau}) u); compare the
    # centred h_u against the exact weighted integral
    params, state, consts = defaults
    q = QuadratureConfig()
    sol, rep = _solve_grid(state, params, consts, q)
    from dynastyprice.pricing import _integrand_matrix, _simpson_weights
    integ = _integrand_matrix(np.array([state.x]), np.array([state.u]),
                              sol, params, consts)[0]
    w = _simpson_weights(len(sol.taus), sol.taus[1] - sol.taus[0])
    exact_hu = -np.sum(w * integ * (1.0 - np.exp(-params.lam * sol.taus)))
    du = 1e-3
    up = _stock_values(state.x, state.u + du, sol, params, consts)[0]
    um = _stock_values(state.x, state.u - du, sol, params, consts)[0]
    assert (up - um) / (2 * du) == pytest.approx(exact_hu, rel=1e-6)


# ---------------------------------------------------------------- expected_u

def test_expected_u_values(defaults):
    params, _, consts = defaults
    assert expected_u(0.0, params, consts) == pytest.approx(1.0 / 12.0, rel=1e-14)
    assert expected_u(2.01, params, consts) == pytest.approx(
        1.4300333333333333, rel=1e-14)


def test_expected_u_against_time_average(defaults):
    params, _, consts = defaults
    a = 2.01
    target = expected_u(a, params, consts)
    cfg = SimConfig(n_paths=1, n_steps=400_000, dt=1e-3, seed=23,
                    measure_mean=a)
    path = simulate(cfg, params, consts, u_init=target)
    u = path.us[0]
    # batch means against autocorrelation (memory ~ 1/lam)
    batches = u[: (len(u) // 8000) * 8000].reshape(-1, 8000).mean(axis=1)
    se = batches.std(ddof=1) / math.sqrt(len(batches))
    assert abs(u.mean() - target) < 3 * se


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
