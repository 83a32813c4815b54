"""Exact simulation of the stationary OU factor with W and U bookkeeping.

X steps use the exact Gaussian transition, so the marginal law of the
simulated factor is error-free at any step size; only the two running
integrals are discretised (trapezoid):

    W_t  = X_t - X_0 + int lam * X ds          (driving Brownian motion)
    U_t  = e^{-lam dt} U_{t-dt} + (age_norm/2) * clipped trapezoid of
           lam e^{lam(s-t)} X_s^2 over the step

Each path draws from its own substream spawned from (seed, path index),
so results do not depend on how paths are batched or ordered.
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

    # one substream per path: layout is [x0 draw if needed, then steps]
    z = np.empty((n, m + 1))
    for i in range(n):
        z[i] = philox_stream(config.seed, i).standard_normal(m + 1)

    xs = np.empty((n, m + 1))
    if x_init is None:
        xs[:, 0] = sample_stationary(mean, lam, z[:, 0])
    else:
        xs[:, 0] = x_init

    decay, sd = step_consts(lam, dt)
    for k in range(m):
        xs[:, k + 1] = mean + (xs[:, k] - mean) * decay + sd * z[:, k + 1]

    # trapezoid reconstruction of W and of the U increment integral
    ws = np.empty_like(xs)
    ws[:, 0] = 0.0
    if m:
        dw = np.diff(xs, axis=1) + 0.5 * lam * dt * (xs[:, :-1] + xs[:, 1:])
        np.cumsum(dw, axis=1, out=ws[:, 1:])

    us = np.empty_like(xs)
    us[:, 0] = u_init
    half_w = 0.25 * consts.age_norm * lam * dt
    for k in range(m):
        us[:, k + 1] = (us[:, k] * decay
                        + half_w * (decay * xs[:, k] ** 2 + xs[:, k + 1] ** 2))

    return SimPath(t0=t0, dt=dt, lam=lam, xs=xs, ws=ws, us=us)
