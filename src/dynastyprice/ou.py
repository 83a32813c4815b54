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
on demand from its stationary draw and its own substream spawned from
(seed, i), so a row does not depend on how many paths there are or in
which order they are read.  Along the time axis X is evaluated in blocks
rather than one step at a time: inside a block the linear recursion
y_k = e^{-lam dt} y_{k-1} + s_k is a scaled cumulative sum, with blocks
short enough that no scale factor exceeds e.  Rounding then differs from
the step-by-step recursion; at 3 x 200,000 steps of dt = 5e-5 the two
agree to 1e-12 absolute (tests/test_ou.py).  ``SimPath.chunks`` yields a
row in pieces of whole blocks, about ROW_CHUNK steps each, drawn into one
reused buffer, so a reader that streams holds O(piece) scratch whatever
the row's length; ``SimPath.row`` lays the same pieces end to end.

W is a fixed function of an X row: ``w_row`` builds it from one
cumulative sum of the row, and ``_w_piece`` does the same one piece at a
time with the running sum carried between pieces.  U exists only in
``advance``, which steps (X, U) forward without storing a path, for the
Monte Carlo oracles; it steps in shock units x / sd, so a drawn normal
is added without scaling, at an even path count it draws antithetic
pairs, and beside X it holds only U and one scratch array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (DerivedConstants, InvalidParamsError, ModelParams,
                    _require_finite)

ROW_CHUNK = 2**14   # SimPath.chunks: steps per piece, in whole blocks


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
        return self.t0 + self.dt * np.arange(self.n_steps + 1.0)

    def row(self, i: int, out: np.ndarray | None = None) -> np.ndarray:
        """X along path i, written into ``out`` (length n_steps + 1) when
        given: the pieces of ``chunks(i)`` laid end to end."""
        x = np.empty(self.n_steps + 1) if out is None else out
        k = 0
        for piece in self.chunks(i):
            x[k:k + len(piece)] = piece
            k += len(piece)
        return x

    def chunks(self, i: int):
        """X along path i in consecutive pieces that partition the row:
        the stationary start draw and the first m steps, then the next m
        steps at a time.

        Each piece is a view of one reused buffer, to be read before the
        next is requested.  m is a whole number of ``_decay_recurrence``
        blocks, about ROW_CHUNK steps, so the pieces draw, block and
        round exactly as one whole-row pass would."""
        if not 0 <= i < self.n_paths:
            raise IndexError(f"path {i} outside 0..{self.n_paths - 1}")
        return self._pieces(i)

    def _pieces(self, i: int):
        n, lam_dt = self.n_steps, self.lam * self.dt
        block = max(int(1.0 / lam_dt), 1)
        m = min(max(ROW_CHUNK // block, 1) * block, n)
        lags = lam_dt * np.arange(min(block, m))
        grow, shrink = np.exp(lags), np.exp(-lags)
        decay, sd = step_consts(self.lam, self.dt)
        rng = substream(self.seed, i)
        buf = np.empty(m + 1)
        rng.standard_normal(out=buf)
        buf[0] = sample_stationary(self.lam, buf[0])
        piece, done = buf, 0
        while True:
            piece[1:] *= sd
            _decay_recurrence(piece, decay, grow, shrink)
            yield piece if done == 0 else piece[1:]
            done += len(piece) - 1
            if done == n:
                return
            buf[0] = piece[-1]
            piece = buf[:min(m, n - done) + 1]
            rng.standard_normal(out=piece[1:])

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
    no factor exceeds 1.  Beside ``x`` the steps hold two arrays of its
    size: w, which becomes U in place, and one scratch that takes each
    step's draws z in its first rows and then y^2.
    """
    decay, sd = step_consts(lam, dt)
    paired = len(x) % 2 == 0
    h = len(x) // 2 if paired else len(x)
    y = x               # x itself, in shock units until the end
    y /= sd
    sq = y * y          # each step: the draws z in rows ..h, then y^2
    w = 0.5 * sq
    z = sq[:h]
    for _ in range(n_steps):
        y *= decay
        rng.standard_normal(out=z)
        y[:h] += z
        if paired:
            y[h:] -= z
        w *= decay
        np.multiply(y, y, out=sq)
        w += sq
    w *= 2.0
    w -= sq
    x *= sd
    w *= 0.25 * age_norm * lam * dt * sd * sd
    w += u * decay ** n_steps
    return x, w


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


def _decay_recurrence(y: np.ndarray, decay: float, grow: np.ndarray,
                      shrink: np.ndarray) -> None:
    """In place: y[k] = decay * y[k-1] + y[k], decay = e^{-lam dt}.

    Element 0 holds the start value and elements 1.. the increments s_k.
    Within a block of length B = len(grow), y_{k0+j} = d^j (d y_{k0-1} +
    sum_{i<=j} s_{k0+i} d^{-i}), with grow[i] = d^{-i} and shrink[i] =
    d^i; B = floor(1 / (lam dt)), at least 1, so no d^{-i} exceeds e.
    """
    block = max(len(grow), 1)
    for k0 in range(1, len(y), block):
        blk = y[k0:k0 + block]
        width = len(blk)
        blk *= grow[:width]
        np.cumsum(blk, out=blk)
        blk += decay * y[k0 - 1]
        blk *= shrink[:width]


def _w_piece(x: np.ndarray, s_prev: float, x0: float, lam_dt: float,
             out: np.ndarray) -> float:
    """W at the values ``x`` of one piece of an X row, into ``out``.

    ``s_prev`` is the running sum of every X before the piece (0 for the
    piece that starts the row) and ``x0`` the row's X_0.  Returns the
    running sum through the piece, the carry for the next one; the sums
    are the row's own sequential cumulative sum, piece by piece.
    """
    p = 1.0 + 0.5 * lam_dt
    out[0] = s_prev
    out[1:] = x[:-1]
    np.cumsum(out, out=out)
    s_next = out[-1] + x[-1]
    out *= lam_dt / p
    out += x
    out -= x0
    out *= p
    return s_next


def w_row(x: np.ndarray, lam: float, dt: float,
          out: np.ndarray | None = None) -> np.ndarray:
    """W along one X row: W_0 = 0, then the trapezoid of
    W_t = X_t - X_0 + int lam X ds.

    With c = lam dt and p = 1 + c/2 the trapezoid sums to
    W_k = p ((c/p) S_{k-1} + X_k - X_0), S_k = X_0 + ... + X_k, so one
    cumulative sum and in-place passes over ``out`` build the row with
    no row-sized temporary; ``_w_piece`` does the same piece by piece.
    """
    w = np.empty_like(x) if out is None else out
    _w_piece(x, 0.0, x[0], lam * dt, w)
    return w


def simulate(config: SimConfig, params: ModelParams, consts: DerivedConstants,
             t0: float = 0.0) -> SimPath:
    """Mean-zero paths of X, each started from its own stationary draw;
    nothing is drawn until a row is read.  Only ``params.lam`` affects
    the result."""
    return SimPath(t0=t0, dt=config.dt, lam=params.lam,
                   n_paths=config.n_paths, n_steps=config.n_steps,
                   seed=config.seed)
