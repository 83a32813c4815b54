"""Exact simulation of the stationary OU factor with W and U bookkeeping.

X steps use the exact Gaussian transition, so the marginal law of the
simulated factor is error-free at any step size; only the two running
integrals are discretised (trapezoid):

    W_t  = X_t - X_0 + int lam * X ds          (driving Brownian motion)
    U_t  = e^{-lam dt} U_{t-dt} + (age_norm/2) * clipped trapezoid of
           lam e^{lam(s-t)} X_s^2 over the step

Each path draws from its own substream spawned from (seed, path index),
so results do not depend on how paths are batched or ordered.

X and U are evaluated along each path's time axis in blocks rather than
one step at a time: inside a block the linear recursion
y_k = e^{-lam dt} y_{k-1} + s_k is a scaled cumulative sum, with blocks
short enough that no scale factor exceeds e.  Rounding then differs from
the step-by-step recursion; at 3 x 200,000 steps of dt = 5e-5 the two
agree to 1e-12 absolute (tests/test_ou.py).  Apart from the returned
arrays, memory is O(n_steps) for W and U and O(n_paths * block) for
the recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DerivedConstants, InvalidParamsError, ModelParams


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    n_steps: int
    dt: float
    seed: int
    measure_mean: float = 0.0

    def __post_init__(self) -> None:
        if self.n_paths < 1 or self.n_steps < 0:
            raise InvalidParamsError("n_paths >= 1 and n_steps >= 0 required")
        if not self.dt > 0.0:
            raise InvalidParamsError("dt must be positive")


@dataclass(frozen=True)
class SimPath:
    """Simulated trajectories with the reversion rate they were drawn at.

    Arrays are (n_paths, n_steps+1) and frozen after construction.
    """

    t0: float
    dt: float
    lam: float
    xs: np.ndarray
    ws: np.ndarray
    us: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.xs, self.ws, self.us):
            arr.setflags(write=False)

    @property
    def n_steps(self) -> int:
        return self.xs.shape[1] - 1

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.xs.shape[1])


def step_consts(lam: float, dt: float) -> tuple[float, float]:
    """Decay e^{-lam dt} and shock sd sqrt((1 - e^{-2 lam dt}) / (2 lam))
    of one exact OU transition."""
    decay = math.exp(-lam * dt)
    sd = math.sqrt((1.0 - math.exp(-2.0 * lam * dt)) / (2.0 * lam))
    return decay, sd


def exact_step(x, dt: float, z, mean: float, lam: float):
    """One exact OU transition: mean + (x-mean)e^{-lam dt} + sd(dt) * z."""
    decay, sd = step_consts(lam, dt)
    return mean + (x - mean) * decay + sd * z


def sample_stationary(mean: float, lam: float, z):
    """Draw from the stationary law N(mean, 1/(2 lam)) given standard normals."""
    if not lam > 0.0:
        raise InvalidParamsError("lam must be positive")
    return mean + z / np.sqrt(2.0 * lam)


def philox_stream(seed: int, *spawn_key: int) -> np.random.Generator:
    """Philox generator for ``seed``, or for its substream at ``spawn_key``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))


def _decay_recurrence(y: np.ndarray, lam_dt: float) -> None:
    """In place along the last axis: y[..., k] = d * y[..., k-1] + y[..., k]
    with d = e^{-lam dt}.

    Column 0 holds the start values and columns 1.. the increments s_k.
    Within a block of length B, y_{k0+j} = d^j (d y_{k0-1} +
    sum_{i<=j} s_{k0+i} d^{-i}), with B = floor(1 / (lam dt)), at least 1,
    so that no factor d^{-i} exceeds e.
    """
    m = y.shape[-1] - 1
    decay = math.exp(-lam_dt)
    block = max(int(1.0 / lam_dt), 1)
    lags = lam_dt * np.arange(min(block, m))
    grow, shrink = np.exp(lags), np.exp(-lags)
    for k0 in range(1, m + 1, block):
        blk = y[..., k0:k0 + block]
        width = blk.shape[-1]
        blk *= grow[:width]
        np.cumsum(blk, axis=-1, out=blk)
        blk += decay * y[..., k0 - 1:k0]
        blk *= shrink[:width]


def simulate(config: SimConfig, params: ModelParams, consts: DerivedConstants,
             x_init: float | None = None, u_init: float = 0.0,
             t0: float = 0.0) -> SimPath:
    """Simulate paths of (X, W, U) under the measure with the given mean.

    When ``x_init`` is None each path starts from its own stationary draw;
    otherwise all paths start at ``x_init``.  ``u_init`` seeds the U
    recursion (its stationary law has no closed form, only its mean).
    """
    lam = params.lam
    n, m = config.n_paths, config.n_steps
    dt, mean = config.dt, config.measure_mean
    decay, sd = step_consts(lam, dt)

    # one substream per path: layout is [x0 draw if needed, then steps]
    xs = np.empty((n, m + 1))
    for i in range(n):
        philox_stream(config.seed, i).standard_normal(out=xs[i])
    if x_init is None:
        xs[:, 0] = sample_stationary(mean, lam, xs[:, 0])
    else:
        xs[:, 0] = x_init

    # X as deviations from the mean, the shocks sd * z as increments
    x0 = xs[:, 0].copy()
    xs[:, 0] -= mean
    xs[:, 1:] *= sd
    _decay_recurrence(xs, lam * dt)
    xs += mean
    xs[:, 0] = x0          # exactly, not (x0 - mean) + mean

    # trapezoid reconstruction of W, and the U increments, row by row
    ws = np.empty_like(xs)
    us = np.empty_like(xs)
    ws[:, 0] = 0.0
    us[:, 0] = u_init
    half_w = 0.25 * consts.age_norm * lam * dt
    for i in range(n):
        x = xs[i]
        np.cumsum(np.diff(x) + 0.5 * lam * dt * (x[:-1] + x[1:]),
                  out=ws[i, 1:])
        x2 = x * x
        np.multiply(x2[:-1], decay, out=us[i, 1:])
        us[i, 1:] += x2[1:]
        us[i, 1:] *= half_w
    _decay_recurrence(us, lam * dt)

    return SimPath(t0=t0, dt=dt, lam=lam, xs=xs, ws=ws, us=us)
