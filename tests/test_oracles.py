import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dynastyprice import (MarketState, OdeInputs, OracleConfig,
                          OverflowGuardError, abc_eval, aggregation_check,
                          derive_constants, dividend, martingale_check,
                          mc_stock, mc_v, simulate, xi_eta_check)
from dynastyprice.calibration import build_defaults
from dynastyprice.model import InvalidParamsError
from dynastyprice.ou import SimConfig, SimPath
from dynastyprice.pricing import stock_price


@pytest.fixture(scope="module")
def defaults():
    params, state = build_defaults()
    return params, state, derive_constants(params)


def closed_v(tau, theta, params, consts, x):
    sol = abc_eval(OdeInputs(theta=theta, params=params, consts=consts,
                             tau_max=tau, n_grid=1001))
    return math.exp(0.5 * sol.a_vals[-1] * x * x + sol.b_vals[-1] * x
                    + sol.c_vals[-1])


def test_mc_v_degenerate_horizon(defaults):
    params, state, consts = defaults
    cfg = OracleConfig(n_paths=100, dt=1e-3, burn_in=5.0, horizon=1.0, seed=1)
    est = mc_v(state, 0.0, 0.3, params, consts, cfg)
    want = math.exp(0.3 * dividend(state.x, params)
                    + consts.spd_lin * state.x
                    + consts.spd_quad * state.x ** 2)
    assert est.mean == pytest.approx(want, rel=1e-14)
    assert est.se == 0.0


@pytest.mark.parametrize("theta", [0.0, 0.1])
def test_mc_v_matches_closed_form(defaults, theta):
    params, state, consts = defaults
    cfg = OracleConfig(n_paths=30_000, dt=1e-3, burn_in=5.0, horizon=1.0,
                       seed=2024)
    est = mc_v(state, 0.5, theta, params, consts, cfg)
    want = closed_v(0.5, theta, params, consts, state.x)
    assert abs(est.mean - want) < 3.0 * est.se


def test_mc_v_se_scaling(defaults):
    params, state, consts = defaults
    small = mc_v(state, 0.25, 0.0, params, consts,
                 OracleConfig(n_paths=20_000, dt=1e-3, burn_in=5.0,
                              horizon=1.0, seed=5))
    big = mc_v(state, 0.25, 0.0, params, consts,
               OracleConfig(n_paths=40_000, dt=1e-3, burn_in=5.0,
                            horizon=1.0, seed=5))
    assert small.se / big.se == pytest.approx(math.sqrt(2.0), rel=0.1)


def test_mc_v_overflow_guard(defaults):
    params, _, consts = defaults
    cfg = OracleConfig(n_paths=10, dt=1e-3, burn_in=5.0, horizon=1.0, seed=3)
    with pytest.raises(OverflowGuardError):
        mc_v(MarketState(30.0, 0.0), 0.01, 1.0, params, consts, cfg)


def test_mc_stock_agrees_with_quadrature(defaults):
    params, state, consts = defaults
    rep = stock_price(state, params, consts)
    cfg = OracleConfig(n_paths=20_000, dt=1e-3, burn_in=5.0, horizon=15.0,
                       seed=99)
    est = mc_stock(state, params, consts, cfg)
    assert abs(est.mean - rep.stock) < max(0.02 * rep.stock, 3.0 * est.se)
    assert est.tail > 0.0


def test_mc_stock_u_shift(defaults):
    params, state, consts = defaults
    shifted = MarketState(state.x, state.u + 0.5)
    rep = stock_price(shifted, params, consts)
    cfg = OracleConfig(n_paths=20_000, dt=1e-3, burn_in=5.0, horizon=15.0,
                       seed=101)
    est = mc_stock(shifted, params, consts, cfg)
    assert abs(est.mean - rep.stock) < max(0.02 * rep.stock, 3.0 * est.se)


def test_mc_stock_zero_dividend(defaults):
    # dividend identically zero while the pricing-kernel constants keep
    # their default values (the kernel depends on gamma*a2 only)
    params, state, consts = defaults
    zero_div = replace(params, a0=0.0, a1=0.0, a2=0.0)
    cfg = OracleConfig(n_paths=500, dt=1e-3, burn_in=5.0, horizon=8.0, seed=7)
    est = mc_stock(state, zero_div, consts, cfg)
    assert est.mean == 0.0
    assert est.se == 0.0


def test_mc_stock_reproducible(defaults):
    params, state, consts = defaults
    cfg = OracleConfig(n_paths=2_000, dt=1e-3, burn_in=5.0, horizon=8.0,
                       seed=42)
    a = mc_stock(state, params, consts, cfg)
    b = mc_stock(state, params, consts, cfg)
    assert a == b


def test_mc_stock_normalisation_invariance(defaults, monkeypatch):
    # adding a constant to the log kernel must not move the price
    params, state, consts = defaults
    cfg = OracleConfig(n_paths=1_000, dt=1e-3, burn_in=5.0, horizon=8.0,
                       seed=11)
    base = mc_stock(state, params, consts, cfg)
    import dynastyprice.model as model_mod
    orig = model_mod.log_zeta_xu

    def shifted(x, u, t, p, c):
        return orig(x, u, t, p, c) + 3.7

    monkeypatch.setattr(model_mod, "log_zeta_xu", shifted)
    again = mc_stock(state, params, consts, cfg)
    # identical up to the round-off of the shifted log difference
    assert again.mean == pytest.approx(base.mean, rel=1e-12)
    assert again.se == pytest.approx(base.se, rel=1e-9)


def test_xi_eta_constant_path(defaults):
    n = 1000
    zeros = np.zeros((1, n + 1))
    path = SimPath(t0=-1.0, dt=1e-3, lam=2.0, xs=zeros.copy(),
                   ws=zeros.copy(), us=zeros.copy())
    xd, ed = xi_eta_check(path)
    assert xd[0] == 0.0
    assert ed[0] == 0.0


def test_xi_eta_small_deviations(defaults):
    params, _, consts = defaults
    cfg = SimConfig(n_paths=30, n_steps=50_000, dt=2e-4, seed=555)
    path = simulate(cfg, params, consts, t0=-10.0)
    xd, ed = xi_eta_check(path)
    assert xd.mean() < 5e-3
    assert ed.mean() < 5e-3


def test_xi_eta_memory_bounded(defaults):
    # one path row at a time: scratch is O(n_steps), not O(path array)
    params, _, consts = defaults
    cfg = SimConfig(n_paths=20, n_steps=100_000, dt=1e-4, seed=8)
    path = simulate(cfg, params, consts, t0=-10.0)
    tracemalloc.start()
    try:
        xi_eta_check(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.xs.nbytes


def test_aggregation_within_three_se(defaults):
    params, _, consts = defaults
    cfg = OracleConfig(n_paths=1, dt=1e-4, burn_in=10.0, horizon=1.0, seed=42)
    z, mean, target = aggregation_check(params, consts, cfg, 30_000)
    assert abs(z) < 3.0
    assert math.copysign(1.0, mean) == math.copysign(1.0, target)


def test_aggregation_requires_burn_in(defaults):
    params, _, consts = defaults
    cfg = OracleConfig(n_paths=1, dt=1e-3, burn_in=2.0, horizon=1.0, seed=1)
    with pytest.raises(InvalidParamsError):
        aggregation_check(params, consts, cfg, 100)


def test_martingale_degenerate(defaults):
    params, _, consts = defaults
    cfg = OracleConfig(n_paths=1, dt=1e-3, burn_in=5.0, horizon=1.0, seed=1)
    assert martingale_check(0.0, 0.0, params, consts, cfg) == 0.0


def test_martingale_drift_small(defaults):
    params, _, consts = defaults
    cfg = OracleConfig(n_paths=1, dt=1e-3, burn_in=5.0, horizon=1.0, seed=31)
    worst = martingale_check(0.5, 0.0, params, consts, cfg,
                             n_outer=40, n_inner=400)
    assert worst < 3.5


def test_oracle_config_validation():
    with pytest.raises(InvalidParamsError):
        OracleConfig(n_paths=0, dt=1e-3, burn_in=1.0, horizon=1.0, seed=0)
    with pytest.raises(InvalidParamsError):
        OracleConfig(n_paths=1, dt=2e-3, burn_in=1.0, horizon=1.0, seed=0)


def test_martingale_drift_small_with_tilt(defaults):
    params, _, consts = defaults
    cfg = OracleConfig(n_paths=1, dt=1e-3, burn_in=5.0, horizon=1.0, seed=77)
    worst = martingale_check(0.5, 0.1, params, consts, cfg,
                             n_outer=40, n_inner=400)
    assert worst < 3.5
