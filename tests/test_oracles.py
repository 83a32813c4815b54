import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dynastyprice import (MarketState, OdeInputs, OracleConfig,
                          OverflowGuardError, abc_eval, aggregation_check,
                          derive_constants, dividend, log_zeta,
                          martingale_check, mc_stock, mc_v, simulate,
                          xi_eta_check)
from dynastyprice import oracles
from dynastyprice.calibration import build_defaults
from dynastyprice.model import InvalidParamsError, log_zeta_xu
from dynastyprice.ou import (SimConfig, SimPath, step_consts, substream,
                             w_row)
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


def test_mc_v_one_pair_has_zero_se(defaults):
    # two paths are one antithetic pair: one pair mean, no spread to report
    params, state, consts = defaults
    cfg = OracleConfig(n_paths=2, dt=1e-3, burn_in=5.0, horizon=1.0, seed=1)
    est = mc_v(state, 0.5, 0.0, params, consts, cfg)
    assert est.se == 0.0
    assert math.isfinite(est.mean)


def test_mc_v_se_matches_spread_of_means(defaults):
    # the SE from pair means is an honest error bar: over 200 seeds the
    # rms error against the closed form matches the rms reported SE
    params, state, consts = defaults
    want = closed_v(0.1, 0.0, params, consts, state.x)
    errs, ses = np.empty(200), np.empty(200)
    for seed in range(200):
        cfg = OracleConfig(n_paths=2_000, dt=1e-3, burn_in=5.0, horizon=1.0,
                           seed=seed)
        est = mc_v(state, 0.1, 0.0, params, consts, cfg)
        errs[seed], ses[seed] = est.mean - want, est.se
    ratio = math.sqrt(np.mean(errs ** 2) / np.mean(ses ** 2))
    assert 0.8 <= ratio <= 1.25


@pytest.mark.parametrize("t_horizon", [-0.3, math.nan, math.inf])
def test_mc_v_rejects_bad_horizon(defaults, t_horizon):
    params, state, consts = defaults
    cfg = OracleConfig(n_paths=10, dt=1e-3, burn_in=5.0, horizon=1.0, seed=1)
    with pytest.raises(InvalidParamsError):
        mc_v(state, t_horizon, 0.0, params, consts, cfg)


@pytest.mark.parametrize("theta", [math.nan, -math.inf])
def test_mc_v_rejects_non_finite_theta(defaults, theta):
    # a NaN theta used to come back as McEstimate(nan, nan)
    params, state, consts = defaults
    cfg = OracleConfig(n_paths=10, dt=1e-3, burn_in=5.0, horizon=1.0, seed=1)
    with pytest.raises(InvalidParamsError):
        mc_v(state, 0.5, theta, params, consts, cfg)


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


def test_xi_eta_constant_path(defaults, zero_draws):
    n = 1000
    path = SimPath(t0=-1.0, dt=1e-3, lam=2.0, n_paths=1, n_steps=n, seed=0)
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


def test_xi_eta_matches_trapezoid_rule(defaults):
    # the dot products regroup the three window trapezoids over the
    # reversed lags: equal to them up to float64 round-off
    params, _, consts = defaults
    cfg = SimConfig(n_paths=5, n_steps=20_000, dt=5e-4, seed=12)
    path = simulate(cfg, params, consts, t0=-10.0)
    xd, ed = xi_eta_check(path)
    lam, dt = path.lam, path.dt
    wgt = lam * np.exp(-lam * dt * np.arange(path.n_steps + 1))
    for i, x in enumerate(path.xs):
        ws = w_row(x, lam, dt)
        dw = ws[-1] - ws[::-1]
        xi = np.trapezoid(dw * wgt, dx=dt)
        eta = np.trapezoid(dw * dw * wgt, dx=dt)
        hist = np.trapezoid(x[::-1] ** 2 * wgt, dx=dt)
        assert abs(xd[i] - abs(xi - x[-1])) < 1e-12
        assert abs(ed[i] - abs(eta - (x[-1] ** 2 + hist))) < 1e-12


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


def test_xi_eta_adds_only_row_scratch(defaults):
    # W is rebuilt one row at a time: the check never holds a W array
    params, _, consts = defaults
    cfg = SimConfig(n_paths=100, n_steps=20_000, dt=5e-4, seed=8)
    path = simulate(cfg, params, consts, t0=-10.0)
    tracemalloc.start()
    try:
        xi_eta_check(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * path.xs.nbytes


def test_simulate_and_xi_eta_hold_a_few_rows(defaults):
    # at the appendix size of 100 x 200,001 the path would be 160 MB; rows
    # are drawn one at a time into a reused buffer, beside W, a square and
    # the window weights: 4.2-4.7 rows measured, bounded at 6
    params, _, consts = defaults
    cfg = SimConfig(n_paths=100, n_steps=200_000, dt=5e-5, seed=1003)
    row_bytes = (cfg.n_steps + 1) * 8
    tracemalloc.start()
    try:
        xi_eta_check(simulate(cfg, params, consts, t0=-10.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * row_bytes


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


def test_aggregation_rejects_burn_in_short_for_population(defaults,
                                                        monkeypatch):
    # at lam = 2 a burn-in of 5 (= 10/lam) leaves about 19.7 of 100,000
    # sampled ages past the path; reject before simulating it
    params, _, consts = defaults
    cfg = OracleConfig(n_paths=1, dt=1e-3, burn_in=5.0, horizon=1.0, seed=1)

    def unreachable(*args, **kwargs):
        raise AssertionError("simulated a path for a rejected config")

    monkeypatch.setattr(oracles, "simulate", unreachable)
    with pytest.raises(InvalidParamsError):
        aggregation_check(params, consts, cfg, 100_000)


@pytest.mark.parametrize("population_n", [1, 0, -5])
def test_aggregation_rejects_population_below_two(defaults, population_n):
    # checked in aggregate_log_lambda: one dynasty gave SE nan with two
    # numpy warnings, 0 and -5 a numpy ValueError
    params, _, consts = defaults
    cfg = OracleConfig(n_paths=1, dt=1e-3, burn_in=10.0, horizon=1.0, seed=1)
    with pytest.raises(InvalidParamsError):
        aggregation_check(params, consts, cfg, population_n)


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


@pytest.mark.parametrize("t_final", [math.inf, 1e-9, 2.5e-3])
def test_martingale_rejects_bad_t_final(defaults, t_final):
    # below 3 dt some increment takes no step and has no standard error
    params, _, consts = defaults
    cfg = OracleConfig(n_paths=1, dt=1e-3, burn_in=5.0, horizon=1.0, seed=1)
    with pytest.raises(InvalidParamsError):
        martingale_check(t_final, 0.0, params, consts, cfg,
                         n_outer=10, n_inner=20)


@pytest.mark.parametrize("theta", [math.nan, math.inf])
def test_martingale_rejects_non_finite_theta(defaults, theta):
    # an input error (exit 2), not a vanishing g (exit 3)
    params, _, consts = defaults
    cfg = OracleConfig(n_paths=1, dt=1e-3, burn_in=5.0, horizon=1.0, seed=1)
    with pytest.raises(InvalidParamsError):
        martingale_check(0.3, theta, params, consts, cfg,
                         n_outer=4, n_inner=10)


@pytest.mark.parametrize("n_outer, n_inner", [(0, 20), (10, 1), (10, 2)])
def test_martingale_rejects_too_few_paths(defaults, n_outer, n_inner):
    # two inner paths are one antithetic pair: no spread, no standard error
    params, _, consts = defaults
    cfg = OracleConfig(n_paths=1, dt=1e-3, burn_in=5.0, horizon=1.0, seed=1)
    with pytest.raises(InvalidParamsError):
        martingale_check(0.3, 0.0, params, consts, cfg,
                         n_outer=n_outer, n_inner=n_inner)


def test_oracle_config_validation():
    with pytest.raises(InvalidParamsError):
        OracleConfig(n_paths=0, dt=1e-3, burn_in=1.0, horizon=1.0, seed=0)
    with pytest.raises(InvalidParamsError):
        OracleConfig(n_paths=1, dt=2e-3, burn_in=1.0, horizon=1.0, seed=0)


@pytest.mark.parametrize("field, value", [
    ("horizon", math.nan), ("horizon", math.inf), ("burn_in", math.nan),
    ("burn_in", math.inf), ("seed", -1)])
def test_oracle_config_rejects_non_finite_and_negative(field, value):
    kw = dict(n_paths=10, dt=1e-3, burn_in=5.0, horizon=8.0, seed=1)
    kw[field] = value
    with pytest.raises(InvalidParamsError):
        OracleConfig(**kw)


def test_martingale_drift_small_with_tilt(defaults):
    params, _, consts = defaults
    cfg = OracleConfig(n_paths=1, dt=1e-3, burn_in=5.0, horizon=1.0, seed=77)
    worst = martingale_check(0.5, 0.1, params, consts, cfg,
                             n_outer=40, n_inner=400)
    assert worst < 3.5


# ------------------------------------------- large lam T: no e^{lam t} weight

def test_mc_v_past_exp_overflow(defaults):
    # lam T = 720: a weight e^{lam t} rescaled by e^{-lam T} overflows
    params, state, _ = defaults
    params = replace(params, lam=100.0, epsilon=1.0)
    consts = derive_constants(params)
    cfg = OracleConfig(n_paths=1_000, dt=1e-3, burn_in=5.0, horizon=1.0,
                       seed=2024)
    est = mc_v(state, 7.2, 0.0, params, consts, cfg)
    want = closed_v(7.2, 0.0, params, consts, state.x)
    assert abs(est.mean - want) < 3.0 * est.se


def test_martingale_past_exp_overflow(defaults):
    # lam T = 720; M is deterministic over the first increments here
    params, _, _ = defaults
    params = replace(params, lam=20.0)
    consts = derive_constants(params)
    cfg = OracleConfig(n_paths=1, dt=1e-3, burn_in=5.0, horizon=1.0, seed=31)
    worst = martingale_check(36.0, 0.0, params, consts, cfg,
                             n_outer=4, n_inner=50)
    assert isinstance(worst, float) and math.isfinite(worst)


# --------------------------- the shared stepper against per-oracle step loops

def _paired_normals(rng, shape):
    """One step's shocks for an even count along axis 0: z for the first
    half of the rows and -z for the second."""
    z = rng.standard_normal((shape[0] // 2,) + tuple(shape[1:]))
    return np.concatenate([z, -z])


def _pair_se(values):
    """SE along axis 0 from the means of the antithetic pairs."""
    h = len(values) // 2
    pairs = 0.5 * (values[:h] + values[h:])
    return np.std(pairs, axis=0, ddof=1) / math.sqrt(h)


def _loop_mc_v(state, t_horizon, theta, params, consts, cfg):
    """mc_v with its own e^{lam t}-weighted trapezoid of X^2."""
    lam, dt = consts.lam, cfg.dt
    n_steps = int(round(t_horizon / dt))
    rng = substream(cfg.seed)
    decay, sd = step_consts(lam, dt)
    xs = np.full(cfg.n_paths, float(state.x))
    acc = np.zeros(cfg.n_paths)
    w_prev = 0.5 * dt * xs * xs
    for k in range(1, n_steps + 1):
        xs = xs * decay + sd * _paired_normals(rng, xs.shape)
        w_new = 0.5 * dt * math.exp(lam * k * dt) * xs * xs
        acc += w_prev + w_new
        w_prev = w_new
    integral = 0.5 * consts.age_norm * lam * math.exp(-lam * t_horizon) * acc
    pay = np.exp(theta * dividend(xs, params) + consts.spd_lin * xs
                 + consts.spd_quad * xs * xs + integral)
    return float(np.mean(pay)), float(_pair_se(pay))


def _loop_mc_stock(state, params, consts, cfg, t_sub=10, tail_window=5.0):
    """mc_stock with X and U stepped one at a time in its own loop."""
    lam, rho, dt = consts.lam, params.rho, cfg.dt
    n_steps = (int(round(cfg.horizon / dt)) // t_sub) * t_sub
    horizon = n_steps * dt
    rng = substream(cfg.seed)
    decay, sd = step_consts(lam, dt)
    half_w = 0.25 * consts.age_norm * lam * dt
    xs = np.full(cfg.n_paths, float(state.x))
    us = np.full(cfg.n_paths, float(state.u))
    log_z0 = log_zeta(state, 0.0, params, consts)
    integral = np.zeros(cfg.n_paths)
    q_prev = np.full(cfg.n_paths, float(dividend(state.x, params)))
    tail_acc = np.zeros(cfg.n_paths)
    tail_count = 0
    x2_prev = xs * xs
    for k in range(1, n_steps + 1):
        xs = xs * decay + sd * _paired_normals(rng, xs.shape)
        x2 = xs * xs
        us = us * decay + half_w * (decay * x2_prev + x2)
        x2_prev = x2
        if k % t_sub == 0:
            t_now = k * dt
            log_q = log_zeta_xu(xs, us, t_now, params, consts) - log_z0
            q = dividend(xs, params) * np.exp(log_q)
            integral += 0.5 * t_sub * dt * (q_prev + q)
            q_prev = q
            if t_now >= horizon - tail_window - 1e-12:
                tail_acc += q * math.exp(rho * (t_now - horizon))
                tail_count += 1
    values = integral + tail_acc / (tail_count * rho)
    return float(np.mean(values)), float(_pair_se(values))


def _loop_martingale(t_final, theta, params, consts, cfg, n_outer, n_inner):
    """martingale_check with e^{lam t}-weighted trapezoids and V
    interpolated on a (T/dt + 1)-node grid; the inner paths of every outer
    path step together as one (n_inner, n_outer) array."""
    lam, dt = consts.lam, cfg.dt
    rng = substream(cfg.seed)
    decay, sd = step_consts(lam, dt)
    amp = 0.5 * consts.age_norm * lam * math.exp(-lam * t_final)
    sol = abc_eval(OdeInputs(theta=theta, params=params, consts=consts,
                             tau_max=t_final,
                             n_grid=max(int(round(t_final / dt)), 4) + 1))

    def v_closed(t_now, x):
        tau = t_final - t_now
        a = np.interp(tau, sol.taus, sol.a_vals)
        b = np.interp(tau, sol.taus, sol.b_vals)
        c = np.interp(tau, sol.taus, sol.c_vals)
        return np.exp(0.5 * a * x * x + b * x + c)

    worst = 0.0
    for k in range(3):
        t1, t2 = k * t_final / 3.0, (k + 1) * t_final / 3.0
        n1 = int(round(t1 / dt))
        n2 = int(round(t2 / dt)) - n1
        x_outer = rng.standard_normal(n_outer) / math.sqrt(2.0 * lam)
        j_outer = np.zeros(n_outer)
        w_prev = 0.5 * dt * x_outer ** 2
        for i in range(1, n1 + 1):
            x_outer = x_outer * decay + sd * _paired_normals(rng, (n_outer,))
            w_new = 0.5 * dt * math.exp(lam * i * dt) * x_outer ** 2
            j_outer += w_prev + w_new
            w_prev = w_new
        m1 = v_closed(t1, x_outer) * np.exp(amp * j_outer)
        x_in = np.tile(x_outer, (n_inner, 1))
        j_in = np.zeros((n_inner, n_outer))
        w_prev_in = 0.5 * dt * math.exp(lam * n1 * dt) * x_in ** 2
        for i in range(n1 + 1, n1 + n2 + 1):
            x_in = x_in * decay + sd * _paired_normals(rng, x_in.shape)
            w_new = 0.5 * dt * math.exp(lam * i * dt) * x_in ** 2
            j_in += w_prev_in + w_new
            w_prev_in = w_new
        m2 = v_closed(t2, x_in) * np.exp(amp * (j_outer + j_in))
        diffs = np.mean(m2, axis=0) - m1
        errs = _pair_se(m2)
        pooled_se = float(np.sqrt(np.sum(errs ** 2)) / n_outer)
        worst = max(worst, abs(float(np.mean(diffs)) / pooled_se))
    return worst


@pytest.mark.parametrize("oracle", ["mc_v", "mc_stock", "martingale"])
def test_shared_stepper_matches_step_loops(defaults, oracle):
    params, state, consts = defaults
    if oracle == "mc_v":
        cfg = OracleConfig(n_paths=2_000, dt=1e-3, burn_in=5.0, horizon=1.0,
                           seed=17)
        est = mc_v(state, 0.5, 0.1, params, consts, cfg)
        want = _loop_mc_v(state, 0.5, 0.1, params, consts, cfg)
        got, rel = (est.mean, est.se), 1e-12
    elif oracle == "mc_stock":
        cfg = OracleConfig(n_paths=500, dt=1e-3, burn_in=5.0, horizon=8.0,
                           seed=18)
        est = mc_stock(state, params, consts, cfg)
        want = _loop_mc_stock(state, params, consts, cfg)
        got, rel = (est.mean, est.se), 1e-12
    else:
        # T = 0.3: the checkpoints T/3, 2T/3 are nodes of the dt grid
        cfg = OracleConfig(n_paths=1, dt=1e-3, burn_in=5.0, horizon=1.0,
                           seed=19)
        got = (martingale_check(0.3, 0.0, params, consts, cfg,
                                n_outer=20, n_inner=200),)
        want = (_loop_martingale(0.3, 0.0, params, consts, cfg, 20, 200),)
        rel = 1e-9
    assert got == pytest.approx(want, rel=rel, abs=0.0)
