"""Exact simulation of the stationary mean-zero OU factor, with W and U
bookkeeping.

X steps use the exact Gaussian transition, so the marginal law of the
simulated factor is error-free at any step size; only the two running
integrals are discretised (trapezoid):

    W_t  = X_t - X_0 + int lam * X ds          (driving Brownian motion)
    U_t  = e^{-lam dt} U_{t-dt} + (age_norm/2) * clipped trapezoid of
           lam e^{lam(s-t)} X_s^2 over the step

Every draw comes from ``substream``: numpy's SFC64 bit generator (a
quarter to a third cheaper per normal than Philox) keyed by a
SeedSequence, with per-path substreams selected by spawn key.
``simulate`` draws nothing: it returns a ``SimPath`` that builds path i
on demand (``SimPath.row``) from its stationary draw and its own
substream spawned from (seed, i), so a row does not depend on how many
paths there are or in which order they are read, and a reader holds one
row at a time.  Along the time axis X is evaluated in blocks rather than
one step at a time: inside a block the linear recursion
y_k = e^{-lam dt} y_{k-1} + s_k is a scaled cumulative sum, with blocks
short enough that no scale factor exceeds e.  Rounding then differs from
the step-by-step recursion; at 3 x 200,000 steps of dt = 5e-5 the two
agree to 1e-12 absolute (tests/test_ou.py).  A row costs the row itself
and O(block) scratch for the recursion.

W is a fixed function of an X row, so ``w_row`` builds it one row at a
time on demand, from one cumulative sum of the row.  U exists only in
``advance``, which steps (X, U) forward without storing a path, for the
Monte Carlo oracles; it steps in shock units x / sd, so a drawn normal
is added without scaling, and at an even path count it draws antithetic
pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (DerivedConstants, InvalidParamsError, ModelParams,
                    _require_finite)


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    n_steps: int
    dt: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_paths < 1 or self.n_steps < 0 or self.seed < 0:
            raise InvalidParamsError(
                "n_paths >= 1, n_steps >= 0 and seed >= 0 required")
        _require_finite(self, ("dt",))
        if not self.dt > 0.0:
            raise InvalidParamsError("dt must be positive")


@dataclass(frozen=True)
class SimPath:
    """Simulated factor trajectories, drawn on demand: ``row(i)`` builds
    path i from its substream (seed, i).  W is not stored either:
    ``w_row`` builds it from one X row.
    """

    t0: float
    dt: float
    lam: float
    n_paths: int
    n_steps: int
    seed: int

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def row(self, i: int, out: np.ndarray | None = None) -> np.ndarray:
        """X along path i, written into ``out`` (length n_steps + 1) when
        given: the stationary start draw, then the exact steps."""
        if not 0 <= i < self.n_paths:
            raise IndexError(f"path {i} outside 0..{self.n_paths - 1}")
        x = np.empty(self.n_steps + 1) if out is None else out
        substream(self.seed, i).standard_normal(out=x)
        x[0] = sample_stationary(self.lam, x[0])
        x[1:] *= step_consts(self.lam, self.dt)[1]
        _decay_recurrence(x, self.lam * self.dt)
        return x

    @property
    def xs(self) -> np.ndarray:
        """Every row stacked into a read-only (n_paths, n_steps + 1) array."""
        xs = np.empty((self.n_paths, self.n_steps + 1))
        for i in range(self.n_paths):
            self.row(i, out=xs[i])
        xs.setflags(write=False)
        return xs


def step_consts(lam: float, dt: float) -> tuple[float, float]:
    """Decay e^{-lam dt} and shock sd sqrt((1 - e^{-2 lam dt}) / (2 lam))
    of one exact OU transition."""
    decay = math.exp(-lam * dt)
    sd = math.sqrt((1.0 - math.exp(-2.0 * lam * dt)) / (2.0 * lam))
    return decay, sd


def advance(x: np.ndarray, u, rng: np.random.Generator, n_steps: int,
            lam: float, dt: float,
            age_norm: float) -> tuple[np.ndarray, np.ndarray]:
    """Take ``n_steps`` exact mean-zero OU steps of ``x`` in place and
    return (x, U).

    Paths run along axis 0 of ``x`` (1-D, or 2-D with one column per
    start).  When len(x) is even, rows h.. are the antithetic partners of
    rows ..h, h = len(x) // 2: each step draws x[:h].size normals z
    (C order, so a 2-D draw is time-major) and shocks the halves by +z
    and -z.  When len(x) is odd, each step draws x.size normals.

    The steps run in shock units y = x / sd, so a step is
    y_k = d y_{k-1} +/- z_k with d = e^{-lam dt} and no scaling of z.
    U starts from ``u`` (scalar, or broadcastable to ``x``) and follows
    the trapezoid recursion
    U_k = d U_{k-1} + (age_norm lam dt / 4)(d X_{k-1}^2 + X_k^2),
    summed as U_n = u d^n + (age_norm lam dt sd^2 / 4) v_n with
    v_n = 2 w_n - y_n^2, w_k = d w_{k-1} + y_k^2 and w_0 = y_0^2 / 2:
    no factor exceeds 1.
    """
    decay, sd = step_consts(lam, dt)
    paired = len(x) % 2 == 0
    h = len(x) // 2 if paired else len(x)
    z = np.empty_like(x[:h])
    y = x               # x itself, in shock units until the end
    y /= sd
    y2 = y * y
    w = 0.5 * y2
    for _ in range(n_steps):
        y *= decay
        rng.standard_normal(out=z)
        y[:h] += z
        if paired:
            y[h:] -= z
        w *= decay
        np.multiply(y, y, out=y2)
        w += y2
    w *= 2.0
    w -= y2
    x *= sd
    return x, u * decay ** n_steps + 0.25 * age_norm * lam * dt * sd * sd * w


def sample_stationary(lam: float, z):
    """Draw from the stationary law N(0, 1/(2 lam)) given standard normals."""
    if not lam > 0.0:
        raise InvalidParamsError("lam must be positive")
    return z / np.sqrt(2.0 * lam)


def substream(seed: int, *spawn_key: int) -> np.random.Generator:
    """SFC64 generator for ``seed``, or for its substream at ``spawn_key``.

    Every random draw of the package comes from here."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=spawn_key)
    return np.random.Generator(np.random.SFC64(ss))


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


def w_row(x: np.ndarray, lam: float, dt: float,
          out: np.ndarray | None = None) -> np.ndarray:
    """W along one X row: W_0 = 0, then the trapezoid of
    W_t = X_t - X_0 + int lam X ds.

    With c = lam dt and p = 1 + c/2 the trapezoid sums to
    W_k = p ((c/p) S_{k-1} + X_k - X_0), S_k = X_0 + ... + X_k, so one
    cumulative sum and in-place passes over ``out`` build the row with
    no row-sized temporary.
    """
    w = np.empty_like(x) if out is None else out
    c = lam * dt
    p = 1.0 + 0.5 * c
    w[0] = 0.0
    tail = w[1:]
    np.cumsum(x[:-1], out=tail)
    tail *= c / p
    tail += x[1:]
    tail -= x[0]
    tail *= p
    return w


def simulate(config: SimConfig, params: ModelParams, consts: DerivedConstants,
             t0: float = 0.0) -> SimPath:
    """Mean-zero paths of X, each started from its own stationary draw;
    nothing is drawn until a row is read.  Only ``params.lam`` affects
    the result."""
    return SimPath(t0=t0, dt=config.dt, lam=params.lam,
                   n_paths=config.n_paths, n_steps=config.n_steps,
                   seed=config.seed)
