import inspect
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dynastyprice import (SimConfig, derive_constants, expected_u,
                          sample_stationary, simulate)
from dynastyprice.calibration import build_defaults
from dynastyprice.model import InvalidParamsError
from dynastyprice.ou import advance, step_consts, substream, w_row


@pytest.fixture()
def defaults():
    params, state = build_defaults()
    return params, derive_constants(params)


def test_step_consts_short_step():
    # decay e^{-lam dt} and variance (1 - e^{-2 lam dt}) / (2 lam)
    decay, sd = step_consts(2.0, 0.1)
    assert decay == pytest.approx(np.exp(-0.2), rel=1e-15)
    assert sd * sd == pytest.approx(0.082419988491090175, rel=1e-15)


def test_step_consts_full_reversion():
    # a step far past 1/lam forgets the start and lands on N(0, 1/(2 lam))
    decay, sd = step_consts(2.0, 1e6)
    assert decay == pytest.approx(0.0, abs=1e-12)
    assert sd * sd == pytest.approx(0.25, rel=1e-15)


def test_one_step_variance():
    # closed-form transition variance (1 - e^{-2 lam dt}) / (2 lam)
    lam, dt = 2.0, 0.1
    want = 0.082419988491090175
    rng = np.random.default_rng(101)
    # an odd count draws every path independently (no antithetic pairs)
    steps, _ = advance(np.zeros(999_999), 0.0, rng, 1, lam, dt, 1.0)
    var = steps.var(ddof=1)
    se = want * np.sqrt(2.0 / (len(steps) - 1))
    assert abs(var - want) < 3 * se


def test_sample_stationary():
    rng = np.random.default_rng(55)
    draws = sample_stationary(2.0, rng.standard_normal(1_000_000))
    want = 0.25
    se = want * np.sqrt(2.0 / (len(draws) - 1))
    assert abs(draws.var(ddof=1) - want) < 3 * se


def test_simulate_determinism_and_shapes(defaults):
    params, consts = defaults
    cfg = SimConfig(n_paths=7, n_steps=50, dt=1e-3, seed=99)
    a = simulate(cfg, params, consts)
    b = simulate(cfg, params, consts)
    assert np.array_equal(a.xs, b.xs)
    assert a.xs.shape == (7, 51)
    for x in a.xs:
        w = w_row(x, a.lam, a.dt)
        assert w.shape == (51,)
        assert w[0] == 0.0
    assert not a.xs.flags.writeable


def test_simulate_zero_steps(defaults):
    # no steps: each path is its stationary start draw alone
    params, consts = defaults
    path = simulate(SimConfig(n_paths=3, n_steps=0, dt=1e-3, seed=1),
                    params, consts)
    assert path.xs.shape == (3, 1)
    starts = [sample_stationary(params.lam,
                                substream(1, i).standard_normal())
              for i in range(3)]
    assert np.array_equal(path.xs[:, 0], starts)


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
    lam, a = params.lam, 2.01
    target = expected_u(a, params, consts)
    cfg = SimConfig(n_paths=10_000, n_steps=2_000, dt=1e-3, seed=31)
    xs = a + simulate(cfg, params, consts).xs
    # the trapezoid recursion of U, one step at a time
    decay = np.exp(-lam * cfg.dt)
    half_w = 0.25 * consts.age_norm * lam * cfg.dt
    term = np.full(cfg.n_paths, target)
    lowest = target
    for k in range(cfg.n_steps):
        term = term * decay + half_w * (decay * xs[:, k] ** 2
                                        + xs[:, k + 1] ** 2)
        lowest = min(lowest, term.min())
    se = term.std(ddof=1) / np.sqrt(len(term))
    assert abs(term.mean() - target) < 3 * se
    assert lowest >= 0.0


def test_w_increment_normality(defaults):
    # standardized increments are N(0,1) up to O(dt) at dt = 1e-3
    params, consts = defaults
    cfg = SimConfig(n_paths=200, n_steps=500, dt=1e-3, seed=17)
    path = simulate(cfg, params, consts)
    ws = np.array([w_row(x, path.lam, path.dt) for x in path.xs])
    z = np.diff(ws, axis=1).ravel() / np.sqrt(cfg.dt)
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var(ddof=1) - 1.0) < 4.0 * np.sqrt(2.0 / n)
    skew = np.mean(z ** 3)
    kurt = np.mean(z ** 4) - 3.0
    assert abs(skew) < 4.0 * np.sqrt(6.0 / n)
    assert abs(kurt) < 4.0 * np.sqrt(24.0 / n)


def test_w_row_matches_trapezoid_definition(defaults):
    # W_k = sum_{j<=k} (X_j - X_{j-1}) + (lam dt / 2)(X_{j-1} + X_j)
    params, consts = defaults
    lam = params.lam
    for dt, shift, tol in ((5e-5, 0.0, 1e-12), (1e-3, 1.5, 1e-13)):
        cfg = SimConfig(n_paths=1, n_steps=200_000, dt=dt, seed=1004)
        x = simulate(cfg, params, consts).xs[0] + shift
        incs = np.diff(x) + 0.5 * lam * dt * (x[:-1] + x[1:])
        want = np.concatenate([[0.0], np.cumsum(incs)])
        got = w_row(x, lam, dt)
        assert got[0] == 0.0
        # absolute on a mean-zero row; relative to |W| (up to about 600)
        # on a row with drift
        scale = max(1.0, float(np.max(np.abs(want)))) if shift else 1.0
        assert np.max(np.abs(got - want)) <= tol * scale


def _sequential(config, params):
    """Reference: the step-by-step recursions, one time step at a time."""
    lam = params.lam
    n, m = config.n_paths, config.n_steps
    dt = config.dt
    z = np.empty((n, m + 1))
    for i in range(n):
        z[i] = substream(config.seed, i).standard_normal(m + 1)
    xs = np.empty((n, m + 1))
    xs[:, 0] = sample_stationary(lam, z[:, 0])
    decay, sd = step_consts(lam, dt)
    for k in range(m):
        xs[:, k + 1] = xs[:, k] * decay + sd * z[:, k + 1]
    ws = np.zeros_like(xs)
    if m:
        dw = np.diff(xs, axis=1) + 0.5 * lam * dt * (xs[:, :-1] + xs[:, 1:])
        np.cumsum(dw, axis=1, out=ws[:, 1:])
    return xs, ws


@pytest.mark.parametrize("cfg", [
    SimConfig(n_paths=3, n_steps=200_000, dt=5e-5, seed=1004),
    SimConfig(n_paths=4, n_steps=60, dt=0.75, seed=3),
    SimConfig(n_paths=7, n_steps=5000, dt=1e-3, seed=5),
    SimConfig(n_paths=2, n_steps=0, dt=1e-3, seed=9),
    SimConfig(n_paths=2, n_steps=1, dt=1e-3, seed=9),
], ids=["long", "block_one", "mean_x_init", "zero_steps", "one_step"])
def test_simulate_matches_sequential_loop(defaults, cfg):
    # blocked evaluation along the time axis rounds differently from the
    # step-by-step recursion, but only at the level of float64 round-off
    params, consts = defaults
    path = simulate(cfg, params, consts)
    ws = np.array([w_row(x, path.lam, path.dt) for x in path.xs])
    for got, want in zip((path.xs, ws), _sequential(cfg, params)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12


def test_simulate_memory_bounded(defaults):
    # the X array plus O(n_steps + n_paths * block) scratch
    params, consts = defaults
    cfg = SimConfig(n_paths=20, n_steps=100_000, dt=1e-4, seed=8)
    tracemalloc.start()
    try:
        path = simulate(cfg, params, consts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * path.xs.nbytes


def test_simulate_holds_one_path_array(defaults):
    # only X is stored; W is rebuilt from it one row at a time
    params, consts = defaults
    cfg = SimConfig(n_paths=20, n_steps=100_000, dt=1e-4, seed=8)
    tracemalloc.start()
    try:
        path = simulate(cfg, params, consts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * path.xs.nbytes


def test_simulate_draws_nothing(defaults):
    # rows are drawn when read: simulate holds less than one row
    params, consts = defaults
    cfg = SimConfig(n_paths=20, n_steps=100_000, dt=1e-4, seed=8)
    tracemalloc.start()
    try:
        simulate(cfg, params, consts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (cfg.n_steps + 1) * 8


def test_row_independent_of_path_count_and_order(defaults):
    params, consts = defaults
    xs = simulate(SimConfig(n_paths=5, n_steps=300, dt=1e-3, seed=31),
                  params, consts).xs
    more = simulate(SimConfig(n_paths=9, n_steps=300, dt=1e-3, seed=31),
                    params, consts)
    row3 = more.row(3)
    buf = np.full(301, np.nan)
    assert more.row(0, out=buf) is buf
    assert np.array_equal(row3, xs[3])
    assert np.array_equal(buf, xs[0])
    for i in range(5):
        assert np.array_equal(more.row(i), xs[i])
    with pytest.raises(IndexError):
        more.row(9)


@pytest.mark.parametrize("dt", [float("inf"), float("nan")])
def test_sim_config_rejects_non_finite_dt(dt):
    with pytest.raises(InvalidParamsError):
        SimConfig(n_paths=2, n_steps=3, dt=dt, seed=1)


def test_sim_config_rejects_negative_seed():
    # rejected with the config, before any path row is drawn
    with pytest.raises(InvalidParamsError, match="seed"):
        SimConfig(n_paths=2, n_steps=3, dt=1e-3, seed=-1)


# ------------------------------------------------ antithetic pairs in advance

def test_advance_pairs_mirror_from_zero():
    # from x = 0 one step is the shock alone: rows h.. mirror rows ..h
    x, _ = advance(np.zeros(6), 0.0, substream(3), 1, 2.0, 1e-3, 1.0)
    assert np.array_equal(x[:3], -x[3:])
    assert np.all(x != 0.0)


def _unpaired_advance(x, u, rng, n_steps, lam, dt, age_norm):
    """Reference: one draw of len(x) normals per step, no pairs."""
    decay, sd = step_consts(lam, dt)
    x /= sd
    x2 = x * x
    w = 0.5 * x2
    for _ in range(n_steps):
        x *= decay
        x += rng.standard_normal(len(x))
        w *= decay
        np.multiply(x, x, out=x2)
        w += x2
    w *= 2.0
    w -= x2
    x *= sd
    return x, u * decay ** n_steps + 0.25 * age_norm * lam * dt * sd * sd * w


@pytest.mark.parametrize("n", [1, 7])
def test_advance_odd_count_draws_unpaired(n):
    x0 = np.linspace(-1.0, 1.0, n)
    got = advance(x0.copy(), 0.3, substream(11), 40, 2.0, 1e-3, 1.5)
    want = _unpaired_advance(x0.copy(), 0.3, substream(11), 40, 2.0,
                             1e-3, 1.5)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


class _Replay:
    """Stands in for a Generator: hands out prerecorded normals."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def standard_normal(self, out):
        out[...] = next(self._draws)
        return out


def test_advance_columns_match_one_dimensional_calls():
    # a 2-D call steps column j as a 1-D call from that column's start,
    # fed the column of each step's (h, n_cols) time-major draw
    n_rows, n_cols, n_steps = 6, 4, 25
    starts = np.linspace(-0.5, 0.5, n_cols)
    u0 = np.linspace(0.0, 0.3, n_cols)
    blocks = substream(21).standard_normal((n_steps, n_rows // 2, n_cols))
    xs, us = advance(np.tile(starts, (n_rows, 1)), u0, substream(21),
                     n_steps, 2.0, 1e-3, 1.5)
    for j in range(n_cols):
        x, u = advance(np.full(n_rows, starts[j]), u0[j],
                       _Replay(blocks[:, :, j]), n_steps, 2.0, 1e-3, 1.5)
        assert np.array_equal(xs[:, j], x)
        assert np.array_equal(us[:, j], u)


# ------------------------------------------------------- one generator source

def test_generators_built_only_in_substream():
    # every draw of the package comes from ou.substream, so changing the
    # bit generator is a one-line change
    calls = re.compile(r"np\.random\.(?!SeedSequence\()\w+\(|\b(?:Generator|"
                       r"SFC64|PCG64|Philox|MT19937|default_rng|RandomState)\(")
    src = Path(inspect.getsourcefile(substream)).parent
    found = [c for path in sorted(src.glob("*.py"))
             for c in calls.findall(path.read_text())]
    assert found and found == calls.findall(inspect.getsource(substream))
