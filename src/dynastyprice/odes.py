"""Closed forms for the exponent functions a, b, c and their tilt derivatives.

The conditional expectation of the exponential-quadratic payoff is
exp(a(tau) x^2 / 2 + b(tau) x + c(tau)) where the three functions solve

    da/dtau / 2 = (lam A / 2) e^{-lam tau} - lam a + a^2 / 2
    db/dtau     = a b - lam b
    dc/dtau     = (a + b^2) / 2

with a(0) = 2(spd_quad + theta a2), b(0) = b0 = spd_lin + theta a1 and
c(0) = theta a0; theta is an exponential tilt on the terminal dividend
whose derivative at 0 produces the dividend-weighted expectations that
price the stock.  The Riccati equation linearises through a = -g'/g into
a second-order equation solved by Bessel functions of the scaled
argument z(u) = z0 e^{-lam u / 2}, z0 = 2 sqrt(A/lam):

    g(u)  = e^{-lam u} [alpha J2(z) - beta Y2(z)]
    g'(u) = -(lam z / 2) e^{-lam u} [alpha J1(z) - beta Y1(z)]

The identity J1 Y2 - J2 Y1 = -2/(pi z) forces g(0) = g0 = lam/pi for
every admissible parameter set.  Everything is evaluated through the
scaled combinations z^2 J2, z^2 * (z Y1), z^2 Y2, which stay
representable even when e^{-lam u} underflows.  b and c are closed too:

    b = b0 mu1,  c = theta a0 - log(g / g0) / 2 + b0^2 v / 2,
    mu1 = g0 e^{-lam tau} / g,  v = g0^2 I,
    I(tau) = int_0^tau e^{-2 lam t} / g^2 dt = [h / g]_0^tau / K,

with the companion h = e^{-lam u} [beta J2(z) + alpha Y2(z)], g rotated
by 90 degrees in the (J2, Y2) basis.  Both solve g'' + 2 lam g'
+ lam A e^{-lam u} g = 0, so g h' - g' h = K e^{-2 lam u} with
K = -(lam/pi)(alpha^2 + beta^2) (W{J2, Y2} = 2/(pi z), DLMF 10.5), which
never vanishes since g(0) != 0.

The tilt derivatives need no derivative of any coefficient: dg solves
the same linear equation with dg(0) = 0 (g(0) = lam/pi at every theta)
and dg'(0) = -2 a2 g0, so by Abel's identity g dg' - g' dg =
-2 a2 g0^2 e^{-2 lam u}, dg / g = -2 a2 v, and with mu0 = b0 v

    da = 2 a2 mu1^2,  db = mu1 (a1 + 2 a2 mu0),
    dc = a0 + a1 mu0 + a2 (mu0^2 + v).

The tilt factor da x^2 / 2 + db x + dc is then a0 + a1 m + a2 (m^2 + v)
= E^tau[delta(X_tau)], m = mu1 x + mu0: under the tau-forward measure
(the tau-bond as numeraire; Geman, El Karoui & Rochet, J. Appl. Probab.
1995) X_tau is Normal with mean m and variance v.  Each term is a
product of forward moments, so da ~ e^{-2 lam tau} keeps its relative
accuracy.  The RK4 integrator here (abc_numeric) is purely a cross-check.

In the known-parameter limit the forcing term vanishes (A = 0) and g is
elementary: g(u) = p + q e^{-2 lam u}, with companion
h(u) = -q + p e^{-2 lam u} and K = -2 lam (p^2 + q^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bessel
from .model import (DerivedConstants, InvalidParamsError, ModelParams,
                    NumericalError, _require_finite)

G_FLOOR = 1e-12
H_MAX = 0.0025      # largest RK4 step of the cross-check
RK4_TOL = 1e-9      # its step-doubling bound, relative to each component


class DegenerateGError(NumericalError):
    """g(tau) vanished on the requested range (pole of a)."""


class StepSizeUnderflowError(NumericalError):
    """The RK4 cross-check overflowed or missed RK4_TOL (pole of a nearby)."""


@dataclass(frozen=True)
class OdeInputs:
    theta: float
    params: ModelParams
    consts: DerivedConstants
    tau_max: float = 10.0
    n_grid: int = 2001

    def __post_init__(self) -> None:
        _require_finite(self, ("theta", "tau_max"))
        if not self.tau_max > 0.0:
            raise InvalidParamsError("tau_max must be positive")
        if self.n_grid < 2:
            raise InvalidParamsError("n_grid must be >= 2")


@dataclass(frozen=True)
class OdeSolution:
    """Grid values of a, b, c and their tilt derivatives at the input theta."""

    taus: np.ndarray
    a_vals: np.ndarray
    b_vals: np.ndarray
    c_vals: np.ndarray
    da_vals: np.ndarray
    db_vals: np.ndarray
    dc_vals: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.taus, self.a_vals, self.b_vals, self.c_vals,
                    self.da_vals, self.db_vals, self.dc_vals):
            arr.setflags(write=False)


def _bessel_coefficients(theta: float, params: ModelParams,
                         consts: DerivedConstants):
    """z0 and the coefficients alpha, beta of g in the (J2, Y2) basis
    (A > 0)."""
    lam, big_a = consts.lam, consts.age_norm
    chat = consts.spd_quad + theta * params.a2
    z0 = 2.0 * np.sqrt(big_a / lam)
    sqrt_la = np.sqrt(lam * big_a)
    j1_0, j2_0, w1_0, w2_0 = bessel.jy_scaled(z0)
    y1_0, y2_0 = w1_0 / z0, w2_0 / (z0 * z0)
    return (z0, sqrt_la * y1_0 - 2.0 * chat * y2_0,
            sqrt_la * j1_0 - 2.0 * chat * j2_0)


def g_infinity(params: ModelParams, consts: DerivedConstants) -> float:
    """g(inf) at theta = 0, the stock's margin from the Riccati pole:
    4 beta / (pi z0^2), or p when A = 0.  g is monotone in tau from
    g(0) = lam/pi, so it stays positive iff its limit does; raises
    DegenerateGError with the margin when that is below G_FLOOR."""
    if consts.age_norm == 0.0:
        margin = (consts.lam / np.pi) * (1.0 - consts.spd_quad / consts.lam)
    else:
        z0, _, beta = _bessel_coefficients(0.0, params, consts)
        margin = 4.0 * beta / (np.pi * z0 * z0)
    if not margin >= G_FLOOR:
        raise DegenerateGError(f"g vanishes on [0, inf): g(inf) = "
                               f"{margin:.6g} is below {G_FLOOR:g}")
    return float(margin)


def _g_derivs(u, theta: float, params: ModelParams, consts: DerivedConstants):
    """g, g', the companion h and the Wronskian constant K on an array of
    times u >= 0."""
    lam = consts.lam
    chat = consts.spd_quad + theta * params.a2
    u = np.asarray(u, dtype=float)

    if consts.age_norm == 0.0:
        # elementary limit: g = p + q e^{-2 lam u}, h = -q + p e^{-2 lam u}
        g0 = lam / np.pi
        e = np.exp(-2.0 * lam * u)
        q = chat * g0 / lam
        p = g0 - q
        return (p + q * e, -2.0 * lam * q * e, -q + p * e,
                -2.0 * lam * (p * p + q * q))

    z0, alpha, beta = _bessel_coefficients(theta, params, consts)
    z = z0 * np.exp(-0.5 * lam * u)
    z2 = z * z
    # J1, J2, z Y1 and z^2 Y2 from one series pass; z <= z0 <= sqrt(2)
    # because lam * eps >= 1
    j1_z, j2_z, w1_z, w2_z = bessel.jy_scaled(z)

    # e^{-lam u} = z^2 / z0^2 replaces the explicit exponential so that the
    # products with the singular Y factors never overflow.
    inv = 1.0 / (z0 * z0)
    g = inv * (alpha * z2 * j2_z - beta * w2_z)
    gdot = -0.5 * lam * inv * (alpha * z2 * z * j1_z - beta * z2 * w1_z)
    h = inv * (beta * z2 * j2_z + alpha * w2_z)
    big_k = -(lam / np.pi) * (alpha * alpha + beta * beta)
    return g, gdot, h, big_k


def _check_g(u, g, theta: float, params: ModelParams,
             consts: DerivedConstants) -> None:
    """Raise DegenerateGError unless g >= G_FLOOR at every time in ``u``
    (NaN fails too).  Only then is the message built: it names the
    earliest failing time, g there, and where g drops below G_FLOOR,
    bisected from 0 (g = lam/pi) since g changes sign at most once."""
    if np.all(g >= G_FLOOR):
        return
    u, g = (np.ravel(v) for v in np.broadcast_arrays(u, g))
    k = int(np.argmin(np.where(g >= G_FLOOR, np.inf, u)))
    lo, hi = 0.0, float(u[k])
    with np.errstate(all="ignore"):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            g_mid = _g_derivs(np.array([mid]), theta, params, consts)[0][0]
            if g_mid >= G_FLOOR:
                lo = mid
            else:
                hi = mid
    raise DegenerateGError(
        f"g vanishes on [0, {np.max(u):g}]: g < {G_FLOOR:g} from "
        f"tau = {hi:.6g} (g({u[k]:.6g}) = {g[k]:.6g})")


def g_closed(u, theta: float, params: ModelParams, consts: DerivedConstants):
    """(g, g') at times u >= 0; raises DegenerateGError where g < G_FLOOR."""
    g, gdot, *_ = _g_derivs(u, theta, params, consts)
    _check_g(u, g, theta, params, consts)
    return g, gdot


@np.errstate(all="ignore")     # _check_g and the callers reject inf and NaN
def abc_eval(inputs: OdeInputs) -> OdeSolution:
    """Evaluate a, b, c and their tilt derivatives from the closed forms."""
    params, consts, theta = inputs.params, inputs.consts, inputs.theta
    taus = np.linspace(0.0, inputs.tau_max, inputs.n_grid)

    g, gdot, h, big_k = _g_derivs(taus, theta, params, consts)
    _check_g(taus, g, theta, params, consts)

    a0, a1, a2 = params.a0, params.a1, params.a2
    g0 = g[0]
    b0 = consts.spd_lin + theta * a1
    # forward moments of X_tau: mean mu1 x + mu0 and variance v = g0^2 I
    mu1 = g0 * np.exp(-consts.lam * taus) / g
    v = g0 * g0 * (h / g - h[0] / g0) / big_k
    mu0 = b0 * v

    a = -gdot / g
    b = b0 * mu1
    c = theta * a0 - 0.5 * np.log(g / g0) + 0.5 * b0 * mu0
    da = 2.0 * a2 * mu1 * mu1
    db = mu1 * (a1 + 2.0 * a2 * mu0)
    dc = a0 + a1 * mu0 + a2 * (mu0 * mu0 + v)
    return OdeSolution(taus=taus, a_vals=a, b_vals=b, c_vals=c,
                       da_vals=da, db_vals=db, dc_vals=dc)


def _rk4(inputs: OdeInputs, steps: int) -> np.ndarray:
    """(a, b, c, da, db, dc) on the grid, ``steps`` RK4 steps per interval;
    six Python floats, since an array per stage is slower at this size."""
    params, consts, theta = inputs.params, inputs.consts, inputs.theta
    lam, la = consts.lam, consts.lam * consts.age_norm

    def rhs(t, y):
        a, b, c, da, db, dc = y
        return (la * math.exp(-lam * t) - 2.0 * lam * a + a * a,
                a * b - lam * b,
                0.5 * (a + b * b),
                2.0 * (a - lam) * da,
                da * b + (a - lam) * db,
                0.5 * (da + 2.0 * b * db))

    def shift(y, h, k):
        return tuple(yi + h * ki for yi, ki in zip(y, k))

    taus = np.linspace(0.0, inputs.tau_max, inputs.n_grid).tolist()
    y = (2.0 * (consts.spd_quad + theta * params.a2),
         consts.spd_lin + theta * params.a1,
         theta * params.a0,
         2.0 * params.a2, params.a1, params.a0)
    out = [y]
    for t0, t1 in zip(taus, taus[1:]):
        h = (t1 - t0) / steps
        for t in (t0 + i * h for i in range(steps)):
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, shift(y, 0.5 * h, k1))
            k3 = rhs(t + 0.5 * h, shift(y, 0.5 * h, k2))
            k4 = rhs(t + h, shift(y, h, k3))
            y = shift(y, h / 6.0, [p + 2.0 * (q + r) + s
                                   for p, q, r, s in zip(k1, k2, k3, k4)])
        out.append(y)
    return np.array(out)


def abc_numeric(inputs: OdeInputs) -> OdeSolution:
    """Integrate the coupled system with classical RK4 (cross-check only).

    The tilt-derivative block is the linearisation of the base system:
    d(da)/dtau = 2(a - lam) da, and so on.  Each output interval takes
    n = ceil(dtau / H_MAX) and 2n equal steps; the 2n values are returned
    if, per component, max |y_2n - y_n| <= RK4_TOL max |y_2n| over the
    grid (the raw gap: gap / 15 understates the error near a pole of a).
    A larger gap or a non-finite state raises StepSizeUnderflowError.
    """
    n = math.ceil(inputs.tau_max / (inputs.n_grid - 1) / H_MAX)
    coarse, fine = _rk4(inputs, n), _rk4(inputs, 2 * n)
    taus = np.linspace(0.0, inputs.tau_max, inputs.n_grid)
    bad = ~np.all(np.isfinite(fine), axis=1)
    if bad.any():
        raise StepSizeUnderflowError(
            f"RK4 state is not finite from tau = {taus[bad.argmax()]:.6g}")
    gap = np.abs(fine - coarse)
    excess = gap - RK4_TOL * np.max(np.abs(fine), axis=0)
    if not np.all(excess <= 0.0):      # an overflow of y_n fails too
        k = np.unravel_index(np.argmax(excess), excess.shape)
        raise StepSizeUnderflowError(
            f"RK4 step-doubling gap {gap[k]:.3g} at tau = {taus[k[0]]:.6g} "
            f"exceeds {RK4_TOL:g} of its component's scale")
    a, b, c, da, db, dc = fine.T
    return OdeSolution(taus=taus, a_vals=a, b_vals=b, c_vals=c,
                       da_vals=da, db_vals=db, dc_vals=dc)
