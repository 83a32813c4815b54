"""Bessel functions J and Y of orders 1 and 2 on positive real arguments.

These four functions are the only special functions the closed-form
solutions need, and they are implemented here rather than taken from a
library so that the accuracy budget is fully under our control.

Strategy: ascending power series below the crossover at z = 8, Hankel
asymptotic form with the Cephes rational approximations for P and Q
above it (Cephes Math Library, Stephen L. Moshier; the coefficient
tables are the standard public-domain ones).  Peak relative error is
around 1e-13 over (0, 50] away from zeros of the functions; near a zero
the error is absolute at roughly 1e-14.

Below the crossover one pass, `jy_scaled`, returns J1, J2 and the scaled
z*Y1(z) and z^2*Y2(z), which stay bounded as z -> 0+ (limits -2/pi and
-4/pi): one w = z^2/4, one log(z/2), one Horner run over the four stacked
series, stopped where the first omitted term, bounded at the largest w of
the call, is below 1e-21 (12 terms at z = sqrt(2), 14 at z = 2, 26 at
z = 8).  The Riccati machinery consumes exactly these four values; all
its arguments lie in (0, sqrt(2)], and the scaled forms keep it finite
even when z underflows.
"""

from __future__ import annotations

import numpy as np

EULER_GAMMA = 0.5772156649015328606065
TWO_OVER_PI = 0.6366197723675813430755
SQRT_TWO_OVER_PI = 0.7978845608028653558799
PI_OVER_4 = 0.7853981633974483096157
THREE_PI_OVER_4 = 2.3561944901923449288470
LN2 = 0.6931471805599453094172

_CROSSOVER = 8.0
_NTERMS = 34  # ascending-series length; last term < 1e-18 * result at z = 8

# Cephes rational tables for the Hankel asymptotic form, order 0
# (shared by j0 and y0).
_PP0 = np.array([
    7.96936729297347051624e-4, 8.28352392107440799803e-2,
    1.23953371646414299388e0, 5.44725003058768775090e0,
    8.74716500199817011941e0, 5.30324038235394892183e0,
    9.99999999999999997821e-1])
_PQ0 = np.array([
    9.24408810558863637013e-4, 8.56288474354474431428e-2,
    1.25352743901058953537e0, 5.47097740330417105182e0,
    8.76190883237069594232e0, 5.30605288235394617618e0,
    1.00000000000000000218e0])
_QP0 = np.array([
    -1.13663838898469149931e-2, -1.28252718670509318512e0,
    -1.95539544257735972385e1, -9.32060152123768231369e1,
    -1.77681167980488050595e2, -1.47077505154951170175e2,
    -5.14105326766599330220e1, -6.05014350600728481186e0])
_QQ0 = np.array([
    1.0,
    6.43178256118178023184e1, 8.56430025976980587198e2,
    3.88240183605401609683e3, 7.24046774195652478189e3,
    5.93072701187316984827e3, 2.06209331660327847417e3,
    2.42005740240291393179e2])

# Cephes rational tables, order 1 (shared by j1 and y1).
_PP1 = np.array([
    7.62125616208173112003e-4, 7.31397056940917570436e-2,
    1.12719608129684925192e0, 5.11207951146807644818e0,
    8.42404590141772420927e0, 5.21451598682361504063e0,
    1.00000000000000000254e0])
_PQ1 = np.array([
    5.71323128072548699714e-4, 6.88455908754495404082e-2,
    1.10514232634061696926e0, 5.07386386128601488557e0,
    8.39985554327604159757e0, 5.20982848682361821619e0,
    9.99999999999999997461e-1])
_QP1 = np.array([
    5.10862594750176621635e-2, 4.98213872951233449420e0,
    7.58238284132545283818e1, 3.66779609360150777800e2,
    7.10856304998926107277e2, 5.97489612400613639965e2,
    2.11688757100572135698e2, 2.52070205858023719784e1])
_QQ1 = np.array([
    1.0,
    7.42373277035675149943e1, 1.05644886038262816351e3,
    4.98641058337653607651e3, 9.56231892404756170795e3,
    7.99704160447350683650e3, 2.82619278517639096600e3,
    3.36093607810698293419e2])

# Ascending-series coefficient tables in the variable w = z^2/4.
_k = np.arange(_NTERMS, dtype=float)
_fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, _NTERMS + 2))))
_harm = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1.0, _NTERMS + 2))))
_psi = -EULER_GAMMA + _harm  # psi(k+1) = -gamma + H_k

_C_J0 = (-1.0) ** _k / _fact[:_NTERMS] ** 2
_C_J1 = (-1.0) ** _k / (_fact[:_NTERMS] * _fact[1:_NTERMS + 1])
_C_J2 = (-1.0) ** _k / (_fact[:_NTERMS] * _fact[2:_NTERMS + 2])
_C_Y0 = (-1.0) ** (_k + 1) * _harm[:_NTERMS] / _fact[:_NTERMS] ** 2
_C_W1 = (_psi[:_NTERMS] + _psi[1:_NTERMS + 1]) * _C_J1
_C_W2 = (_psi[:_NTERMS] + _psi[2:_NTERMS + 2]) * _C_J2
_C_JY = np.stack([_C_J1, _C_J2, _C_W1, _C_W2])
# log of each power's largest |coefficient| over the four stacked series;
# past the first power whose bound is below 1e-21 every series alternates
# with shrinking terms, so that term bounds the omitted tail
_LOG_C_JY = np.log(np.max(np.abs(_C_JY), axis=0))
_LOG_TAIL = np.log(1e-21)


def _polevl(x, coef):
    r = np.full_like(x, coef[0])
    for c in coef[1:]:
        r = r * x + c
    return r


def _series(w, coef):
    # Horner in w along the last axis of coef; the rows of a 2-D coef are
    # separate series sharing w
    c = coef.T.reshape(coef.shape[::-1] + (1,) * w.ndim)
    r = c[-1] * np.ones_like(w)
    for ck in c[-2::-1]:
        r *= w
        r += ck
    return r


def _log_half_z(z):
    # log(z/2) with the z == 0 lanes neutralised; callers multiply the
    # result by a factor that vanishes at z = 0.  Subtracting log 2 after
    # the log keeps subnormal z finite, where z / 2 would underflow to 0.
    return np.log(np.where(z > 0.0, z, 1.0)) - LN2


def _j0_small(z):
    return _series(z * z / 4.0, _C_J0)


def _y0_small(z):
    return TWO_OVER_PI * ((_log_half_z(z) + EULER_GAMMA) * _j0_small(z)
                          + _series(z * z / 4.0, _C_Y0))


def jy_scaled(z):
    """(J1, J2, z Y1, z^2 Y2) at 0 <= z <= 8 from one series pass in
    w = z^2/4; z Y1 and z^2 Y2 stay finite at z = 0."""
    z = np.asarray(z, dtype=float)
    w = z * z / 4.0
    w_max = max(np.max(w, initial=0.0), 1e-300)
    below = _LOG_C_JY + _k * np.log(w_max) < _LOG_TAIL
    n = int(np.argmax(below)) if below.any() else _NTERMS
    s = _series(w, _C_JY[:, :n])
    log_half_z = _log_half_z(z)
    j1_ = 0.5 * z * s[0]
    j2_ = 0.25 * z * z * s[1]
    zy1 = (TWO_OVER_PI * (z * log_half_z * j1_ - 1.0)
           - (z * z / (2.0 * np.pi)) * s[2])
    z2y2 = (-(4.0 / np.pi) * (1.0 + w)
            + TWO_OVER_PI * z * z * log_half_z * j2_
            - (z ** 4 / (4.0 * np.pi)) * s[3])
    return j1_, j2_, zy1, z2y2


def _asym(z, pp, pq, qp, qq, phase, kind):
    w = 5.0 / z
    s = 25.0 / (z * z)
    p = _polevl(s, pp) / _polevl(s, pq)
    q = _polevl(s, qp) / _polevl(s, qq)
    xn = z - phase
    if kind == "j":
        val = p * np.cos(xn) - w * q * np.sin(xn)
    else:
        val = p * np.sin(xn) + w * q * np.cos(xn)
    return SQRT_TWO_OVER_PI * val / np.sqrt(z)


def _split(z, small_fn, large_fn):
    # each branch runs on its own elements only; an empty one is skipped
    z = np.asarray(z, dtype=float)
    small = z <= _CROSSOVER
    out = np.empty_like(z)
    if small.any():
        out[small] = small_fn(z[small])
    if not small.all():
        out[~small] = large_fn(z[~small])
    return out


def j0(z):
    return _split(z, _j0_small,
                  lambda t: _asym(t, _PP0, _PQ0, _QP0, _QQ0, PI_OVER_4, "j"))


def j1(z):
    return _split(z, lambda t: jy_scaled(t)[0],
                  lambda t: _asym(t, _PP1, _PQ1, _QP1, _QQ1, THREE_PI_OVER_4, "j"))


def j2(z):
    return _split(z, lambda t: jy_scaled(t)[1],
                  lambda t: (2.0 / t) * j1(t) - j0(t))


def y0(z):
    return _split(z, _y0_small,
                  lambda t: _asym(t, _PP0, _PQ0, _QP0, _QQ0, PI_OVER_4, "y"))


def y1(z):
    return _split(z, lambda t: jy_scaled(t)[2] / t,
                  lambda t: _asym(t, _PP1, _PQ1, _QP1, _QQ1, THREE_PI_OVER_4, "y"))


def y2(z):
    return _split(z, lambda t: jy_scaled(t)[3] / (t * t),
                  lambda t: (2.0 / t) * y1(t) - y0(t))


def y1_scaled(z):
    """z * Y1(z), bounded near the origin (limit -2/pi)."""
    return _split(z, lambda t: jy_scaled(t)[2], lambda t: t * y1(t))


def y2_scaled(z):
    """z^2 * Y2(z), bounded near the origin (limit -4/pi)."""
    return _split(z, lambda t: jy_scaled(t)[3], lambda t: t * t * y2(t))


def _checked(order, z, first, second):
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0) or np.any(~np.isfinite(z)):
        raise ValueError("Bessel argument must be positive and finite")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    out = (first if order == 1 else second)(z)
    return out if out.ndim else float(out)


def bessel_j(order: int, z):
    """Bessel function of the first kind, order 1 or 2, for z > 0."""
    return _checked(order, z, j1, j2)


def bessel_y(order: int, z):
    """Bessel function of the second kind, order 1 or 2, for z > 0."""
    return _checked(order, z, y1, y2)
