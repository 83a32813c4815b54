import tracemalloc

import numpy as np
import pytest

from dynastyprice import (SimConfig, derive_constants, exact_step,
                          expected_u, sample_stationary, simulate)
from dynastyprice.calibration import build_defaults
from dynastyprice.ou import philox_stream, step_consts


@pytest.fixture()
def defaults():
    params, state = build_defaults()
    return params, derive_constants(params)


def test_exact_step_fixed_point():
    assert exact_step(1.7, 0.3, 0.0, 1.7, 2.0) == pytest.approx(1.7, rel=1e-15)


def test_exact_step_full_reversion():
    assert exact_step(5.0, 1e6, 0.0, 0.2, 2.0) == pytest.approx(0.2, abs=1e-12)


def test_one_step_variance():
    # closed-form transition variance (1 - e^{-2 lam dt}) / (2 lam)
    lam, dt = 2.0, 0.1
    want = 0.082419988491090175
    rng = np.random.default_rng(101)
    z = rng.standard_normal(1_000_000)
    steps = exact_step(0.0, dt, z, 0.0, lam)
    var = steps.var(ddof=1)
    se = want * np.sqrt(2.0 / (len(z) - 1))
    assert abs(var - want) < 3 * se


def test_sample_stationary():
    assert sample_stationary(0.7, 2.0, 0.0) == 0.7
    rng = np.random.default_rng(55)
    draws = sample_stationary(0.0, 2.0, rng.standard_normal(1_000_000))
    want = 0.25
    se = want * np.sqrt(2.0 / (len(draws) - 1))
    assert abs(draws.var(ddof=1) - want) < 3 * se


def test_simulate_determinism_and_shapes(defaults):
    params, consts = defaults
    cfg = SimConfig(n_paths=7, n_steps=50, dt=1e-3, seed=99, measure_mean=0.3)
    a = simulate(cfg, params, consts, u_init=0.5)
    b = simulate(cfg, params, consts, u_init=0.5)
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.ws, b.ws)
    assert np.array_equal(a.us, b.us)
    assert a.xs.shape == (7, 51)
    assert np.all(a.ws[:, 0] == 0.0)
    assert not a.xs.flags.writeable


def test_simulate_zero_steps(defaults):
    params, consts = defaults
    path = simulate(SimConfig(n_paths=3, n_steps=0, dt=1e-3, seed=1),
                    params, consts, x_init=1.5, u_init=0.2)
    assert path.xs.shape == (3, 1)
    assert np.all(path.xs == 1.5)
    assert np.all(path.us == 0.2)


def test_path_index_substreams(defaults):
    # path i depends on (seed, i) only, not on how many paths are drawn
    params, consts = defaults
    big = simulate(SimConfig(n_paths=5, n_steps=40, dt=1e-3, seed=7),
                   params, consts)
    small = simulate(SimConfig(n_paths=2, n_steps=40, dt=1e-3, seed=7),
                     params, consts)
    assert np.array_equal(big.xs[:2], small.xs)


def test_terminal_u_mean(defaults):
    # stationary start at mean a with u seeded at E U keeps E U_t flat
    params, consts = defaults
    a = 2.01
    target = expected_u(a, params, consts)
    cfg = SimConfig(n_paths=10_000, n_steps=2_000, dt=1e-3, seed=31,
                    measure_mean=a)
    path = simulate(cfg, params, consts, u_init=target)
    term = path.us[:, -1]
    se = term.std(ddof=1) / np.sqrt(len(term))
    assert abs(term.mean() - target) < 3 * se
    assert np.all(path.us >= 0.0)


def test_w_increment_normality(defaults):
    # standardized increments are N(0,1) up to O(dt) at dt = 1e-3
    params, consts = defaults
    cfg = SimConfig(n_paths=200, n_steps=500, dt=1e-3, seed=17)
    path = simulate(cfg, params, consts)
    z = np.diff(path.ws, axis=1).ravel() / np.sqrt(cfg.dt)
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var(ddof=1) - 1.0) < 4.0 * np.sqrt(2.0 / n)
    skew = np.mean(z ** 3)
    kurt = np.mean(z ** 4) - 3.0
    assert abs(skew) < 4.0 * np.sqrt(6.0 / n)
    assert abs(kurt) < 4.0 * np.sqrt(24.0 / n)


def test_u_recursion_telescopes(defaults):
    # stepwise recursion equals one trapezoid of the defining integral
    params, consts = defaults
    lam = params.lam
    cfg = SimConfig(n_paths=4, n_steps=800, dt=2e-3, seed=5)
    path = simulate(cfg, params, consts, u_init=0.37)
    t_end = cfg.n_steps * cfg.dt
    s = path.times
    integrand = lam * np.exp(lam * (s - t_end)) * path.xs ** 2
    direct = (0.37 * np.exp(-lam * t_end)
              + 0.5 * consts.age_norm * np.trapezoid(integrand, dx=cfg.dt, axis=1))
    assert np.allclose(path.us[:, -1], direct, rtol=1e-12, atol=1e-14)


def _sequential(config, params, consts, x_init=None, u_init=0.0):
    """Reference: the step-by-step recursions, one time step at a time."""
    lam = params.lam
    n, m = config.n_paths, config.n_steps
    dt, mean = config.dt, config.measure_mean
    z = np.empty((n, m + 1))
    for i in range(n):
        z[i] = philox_stream(config.seed, i).standard_normal(m + 1)
    xs = np.empty((n, m + 1))
    xs[:, 0] = sample_stationary(mean, lam, z[:, 0]) if x_init is None else x_init
    decay, sd = step_consts(lam, dt)
    for k in range(m):
        xs[:, k + 1] = mean + (xs[:, k] - mean) * decay + sd * z[:, k + 1]
    ws = np.zeros_like(xs)
    if m:
        dw = np.diff(xs, axis=1) + 0.5 * lam * dt * (xs[:, :-1] + xs[:, 1:])
        np.cumsum(dw, axis=1, out=ws[:, 1:])
    us = np.empty_like(xs)
    us[:, 0] = u_init
    half_w = 0.25 * consts.age_norm * lam * dt
    for k in range(m):
        us[:, k + 1] = (us[:, k] * decay
                        + half_w * (decay * xs[:, k] ** 2 + xs[:, k + 1] ** 2))
    return xs, ws, us


@pytest.mark.parametrize("cfg, kwargs", [
    (SimConfig(n_paths=3, n_steps=200_000, dt=5e-5, seed=1004), {}),
    (SimConfig(n_paths=4, n_steps=60, dt=0.75, seed=3), {"u_init": 0.4}),
    (SimConfig(n_paths=7, n_steps=5000, dt=1e-3, seed=5, measure_mean=0.3),
     {"x_init": 1.5, "u_init": 0.2}),
    (SimConfig(n_paths=2, n_steps=0, dt=1e-3, seed=9), {}),
    (SimConfig(n_paths=2, n_steps=1, dt=1e-3, seed=9, measure_mean=0.3), {}),
], ids=["long", "block_one", "mean_x_init", "zero_steps", "one_step"])
def test_simulate_matches_sequential_loop(defaults, cfg, kwargs):
    # blocked evaluation along the time axis rounds differently from the
    # step-by-step recursion, but only at the level of float64 round-off
    params, consts = defaults
    path = simulate(cfg, params, consts, **kwargs)
    for got, want in zip((path.xs, path.ws, path.us),
                         _sequential(cfg, params, consts, **kwargs)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12


def test_simulate_memory_bounded(defaults):
    # the three returned arrays plus O(n_steps + n_paths * block) scratch
    params, consts = defaults
    cfg = SimConfig(n_paths=20, n_steps=100_000, dt=1e-4, seed=8)
    tracemalloc.start()
    try:
        path = simulate(cfg, params, consts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * path.xs.nbytes
