"""Independent reference for the benchmark's pricing outputs.

Nothing here imports ``dynastyprice``.  The Riccati system for the
exponent functions a, b, c and their tilt derivatives is integrated with
SciPy's DOP853 at rtol 1e-13, carrying the stock's maturity integrand
and its x-derivative as extra states for every requested (x, u).  Past
the horizon T the integrand is e^{-rho tau} times a constant up to
O(e^{-lam tau}), so the remaining mass f(T)/rho is added analytically.

    python3 benchmarks/reference.py

recomputes the stock price at the calibrated defaults from scratch and
checks it against S = 1.05814794380 (two independent methods agree on
that value to 1e-10).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-13
ATOL = 1e-16
DEFAULTS_S = 1.05814794380
DEFAULTS_REL_TOL = 1e-9
DEFAULTS = dict(a0=0.0, a1=0.0, a2=1.0, lam=2.0, rho=0.04, epsilon=1.0,
                gamma_agg=0.49, alpha_mean=2.01)


@dataclass(frozen=True)
class Params:
    a0: float
    a1: float
    a2: float
    lam: float
    rho: float
    epsilon: float
    gamma_agg: float
    alpha_mean: float

    @property
    def age_norm(self) -> float:
        return self.lam / (1.0 + self.epsilon * self.lam)

    @property
    def spd_lin(self) -> float:
        return (self.alpha_mean * self.epsilon * self.age_norm
                - self.gamma_agg * self.a1)

    @property
    def spd_quad(self) -> float:
        return 0.5 * self.age_norm - self.gamma_agg * self.a2


def short_rate(p: Params, x: float, u: float) -> float:
    """r0 + r1 x + r2 x^2 + lam u from the kernel's drift."""
    a, b, c, lam = p.age_norm, p.spd_lin, p.spd_quad, p.lam
    r0 = p.rho - c - 0.5 * b * b
    r1 = b * (lam - 2.0 * c)
    r2 = 2.0 * lam * c - 0.5 * lam * a - 2.0 * c * c
    return r0 + r1 * x + r2 * x * x + lam * u


def stationary_u(p: Params, x: float) -> float:
    """Stationary mean of u at reversion level x: (A/2)(x^2 + 1/(2 lam))."""
    return 0.5 * p.age_norm * (x * x + 1.0 / (2.0 * p.lam))


@dataclass(frozen=True)
class Quotes:
    """Reference values per state; bonds are (n_states, n_maturities)."""

    stock: np.ndarray
    vol: np.ndarray
    stock_x: np.ndarray
    bonds: np.ndarray


def _rhs_factory(p: Params, xs: np.ndarray, us: np.ndarray):
    lam, rho, big_a = p.lam, p.rho, p.age_norm
    sl, sq = p.spd_lin, p.spd_quad
    x2 = xs * xs
    n = xs.size

    def rhs(t, y):
        a, b, c, da, db, dc = y[:6]
        out = np.empty_like(y)
        out[0] = lam * big_a * math.exp(-lam * t) - 2.0 * lam * a + a * a
        out[1] = (a - lam) * b
        out[2] = 0.5 * (a + b * b)
        out[3] = 2.0 * (a - lam) * da
        out[4] = da * b + (a - lam) * db
        out[5] = 0.5 * (da + 2.0 * b * db)
        expo = (-rho * t - (1.0 - math.exp(-lam * t)) * us
                + (0.5 * a - sq) * x2 + (b - sl) * xs + c)
        e = np.exp(expo)
        tilt = 0.5 * da * x2 + db * xs + dc
        out[6:6 + n] = tilt * e
        out[6 + n:] = ((da * xs + db) + tilt * ((a - 2.0 * sq) * xs + (b - sl))) * e
        return out

    return rhs


def quotes(p: Params, xs, us, maturities=()) -> Quotes:
    """S, h_x/S, S_x and zero-coupon bond prices at every (xs[i], us[i])."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    us = np.atleast_1d(np.asarray(us, dtype=float))
    n = xs.size
    rhs = _rhs_factory(p, xs, us)
    horizon = max(36.0 / p.lam, max(maturities, default=0.0))
    stops = sorted(set(float(m) for m in maturities if m > 0.0)) + [horizon]
    y = np.zeros(6 + 2 * n)
    y[:6] = (2.0 * p.spd_quad, p.spd_lin, 0.0, 2.0 * p.a2, p.a1, p.a0)
    t = 0.0
    at_stop = {}
    for stop in stops:
        if stop > t:
            sol = solve_ivp(rhs, (t, stop), y, method="DOP853",
                            rtol=RTOL, atol=ATOL)
            if not sol.success:
                raise ArithmeticError(f"reference ODE failed: {sol.message}")
            y = sol.y[:, -1].copy()
            t = stop
        at_stop[stop] = y.copy()

    # analytic tail: past the horizon f(tau) = f(T) e^{-rho (tau - T)}
    f_end = rhs(t, y)
    stock = y[6:6 + n] + f_end[6:6 + n] / p.rho
    stock_x = y[6 + n:] + f_end[6 + n:] / p.rho

    bonds = np.empty((n, len(maturities)))
    for k, m in enumerate(maturities):
        if m == 0.0:
            bonds[:, k] = 1.0
            continue
        a, b, c = at_stop[float(m)][:3]
        bonds[:, k] = np.exp((0.5 * a - p.spd_quad) * xs * xs
                             + (b - p.spd_lin) * xs + c - p.rho * m
                             - (1.0 - math.exp(-p.lam * m)) * us)
    return Quotes(stock=stock, vol=stock_x / stock, stock_x=stock_x,
                  bonds=bonds)


def drift_star(p: Params, x: float, u: float, a_star: float,
               stock: float, stock_x: float) -> float:
    """[r S - delta + (lam a* - 2 spd_quad x - spd_lin) S_x] / S."""
    dividend = p.a0 + p.a1 * x + p.a2 * x * x
    coef = p.lam * a_star - 2.0 * p.spd_quad * x - p.spd_lin
    return (short_rate(p, x, u) * stock - dividend + coef * stock_x) / stock


def transform(p: Params, x: float, tau: float) -> float:
    """Untilted transform exp(a x^2 / 2 + b x + c) at maturity tau."""
    def rhs(t, y):
        a, b, _ = y
        return (p.lam * p.age_norm * math.exp(-p.lam * t)
                - 2.0 * p.lam * a + a * a, (a - p.lam) * b, 0.5 * (a + b * b))
    sol = solve_ivp(rhs, (0.0, tau), (2.0 * p.spd_quad, p.spd_lin, 0.0),
                    method="DOP853", rtol=RTOL, atol=ATOL)
    a, b, c = sol.y[:, -1]
    return math.exp(0.5 * a * x * x + b * x + c)


def defaults_stock() -> float:
    p = Params(**DEFAULTS)
    x = p.alpha_mean
    return float(quotes(p, [x], [stationary_u(p, x)]).stock[0])


def main() -> int:
    s = defaults_stock()
    rel = abs(s - DEFAULTS_S) / DEFAULTS_S
    ok = rel <= DEFAULTS_REL_TOL
    print(f"stock_at_defaults={s:.12f} expected={DEFAULTS_S:.11f} "
          f"rel_err={rel:.2e} {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
