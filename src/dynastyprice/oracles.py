"""Brute-force Monte Carlo verification of every closed form.

Every oracle reports (estimate, standard error), never a bare point
estimate; acceptance comparisons are made in standard-error units.  All
estimators run serially over a fixed draw order (time-major for the
forward simulations in mc_v, mc_stock and martingale_check, one spawned
substream per path in the path factory), so a fixed seed reproduces
results bitwise.  The path checks (xi_eta_check, aggregation_check)
build W from one X row at a time (``ou.w_row``), so beyond the X array
they hold only O(n_steps) temporaries.

The stock oracle integrates the pathwise payoff over maturities out to a
finite horizon and closes the integral with a geometric tail: once the
factor has relaxed to its stationary law (rate lam, complete within
10/lam), the expected integrand decays exactly like e^{-rho T}, so the
tail equals (mean rescaled integrand near the horizon)/rho with relative
bias O(e^{-lam * horizon}).  The tail estimate is accumulated per path
and therefore contributes to the reported standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.laguerre import laggauss

from . import model
from .beliefs import aggregate_log_lambda
from .model import DerivedConstants, InvalidParamsError, MarketState, ModelParams
from .odes import OdeInputs, abc_eval
from .ou import (SimConfig, SimPath, philox_stream, simulate, step_consts,
                 w_row)

LOG_PAYOFF_CAP = 700.0


class OverflowGuardError(ArithmeticError):
    """A simulated log payoff exceeded the exp() overflow cap."""


@dataclass(frozen=True)
class OracleConfig:
    n_paths: int
    dt: float
    burn_in: float
    horizon: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise InvalidParamsError("n_paths >= 1 required")
        if not 0.0 < self.dt <= 1e-3 + 1e-15:
            raise InvalidParamsError("dt must lie in (0, 1e-3]")
        if self.burn_in < 0.0 or self.horizon < 0.0:
            raise InvalidParamsError("burn_in and horizon must be nonnegative")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    se: float
    tail: float = 0.0


def _check_burn_in(cfg: OracleConfig, lam: float) -> None:
    if cfg.burn_in < 10.0 / lam:
        raise InvalidParamsError(
            f"burn_in must be >= 10/lam = {10.0 / lam:.3f} "
            "(past-window truncation)")


def mc_v(state: MarketState, t_horizon: float, theta: float,
         params: ModelParams, consts: DerivedConstants,
         cfg: OracleConfig) -> McEstimate:
    """Monte Carlo estimate of the exponential-quadratic transform.

    Simulates X forward from state.x under the reference measure and
    averages exp(theta*delta(X_T) + spd_lin*X_T + spd_quad*X_T^2 + I),
    I being the trapezoid of (A/2) lam e^{lam (s-T)} X_s^2.  The state's
    u plays no role: the transform depends on the factor level alone.
    """
    lam = consts.lam
    n_steps = int(round(t_horizon / cfg.dt))
    dt = cfg.dt
    rng = philox_stream(cfg.seed)
    decay, sd = step_consts(lam, dt)

    xs = np.full(cfg.n_paths, float(state.x))
    acc = np.zeros(cfg.n_paths)          # trapezoid of e^{lam s} X_s^2
    w_prev = 0.5 * dt * xs * xs
    for k in range(1, n_steps + 1):
        xs = xs * decay + sd * rng.standard_normal(cfg.n_paths)
        w_new = 0.5 * dt * math.exp(lam * k * dt) * xs * xs
        acc += w_prev + w_new
        w_prev = w_new
    integral = 0.5 * consts.age_norm * lam * math.exp(-lam * t_horizon) * acc

    log_pay = (theta * model.dividend(xs, params)
               + consts.spd_lin * xs + consts.spd_quad * xs * xs + integral)
    if float(np.max(log_pay)) > LOG_PAYOFF_CAP:
        raise OverflowGuardError(f"log payoff {np.max(log_pay):.1f} > 700")
    pay = np.exp(log_pay)
    se = 0.0 if cfg.n_paths == 1 else float(
        np.std(pay, ddof=1) / math.sqrt(cfg.n_paths))
    return McEstimate(mean=float(np.mean(pay)), se=se)


def mc_stock(state: MarketState, params: ModelParams,
             consts: DerivedConstants, cfg: OracleConfig,
             t_sub: int = 10, tail_window: float = 5.0) -> McEstimate:
    """Monte Carlo stock price from the pathwise pricing kernel.

    Per path, integrates zeta_T delta_T / zeta_t over a maturity grid of
    spacing t_sub * dt by trapezoid, then adds the geometric tail
    estimated from the e^{rho (T - horizon)}-rescaled integrand averaged
    over the final ``tail_window`` time units.
    """
    lam, rho = consts.lam, params.rho
    dt = cfg.dt
    n_steps = (int(round(cfg.horizon / dt)) // t_sub) * t_sub
    horizon = n_steps * dt
    if horizon <= tail_window:
        raise InvalidParamsError("horizon must exceed tail_window")
    big_dt = t_sub * dt
    rng = philox_stream(cfg.seed)
    decay, sd = step_consts(lam, dt)
    half_w = 0.25 * consts.age_norm * lam * dt

    xs = np.full(cfg.n_paths, float(state.x))
    us = np.full(cfg.n_paths, float(state.u))
    log_z0 = model.log_zeta(state, 0.0, params, consts)
    integral = np.zeros(cfg.n_paths)
    q_prev = np.full(cfg.n_paths, float(model.dividend(state.x, params)))
    tail_acc = np.zeros(cfg.n_paths)
    tail_count = 0
    win_lo = horizon - tail_window

    x2_prev = xs * xs
    for k in range(1, n_steps + 1):
        xs = xs * decay + sd * rng.standard_normal(cfg.n_paths)
        x2 = xs * xs
        us = us * decay + half_w * (decay * x2_prev + x2)
        x2_prev = x2
        if k % t_sub == 0:
            t_now = k * dt
            log_q = model.log_zeta_xu(xs, us, t_now, params, consts) - log_z0
            if float(np.max(log_q)) > LOG_PAYOFF_CAP:
                raise OverflowGuardError("log payoff exceeded 700")
            q = model.dividend(xs, params) * np.exp(log_q)
            integral += 0.5 * big_dt * (q_prev + q)
            q_prev = q
            if t_now >= win_lo - 1e-12:
                tail_acc += q * math.exp(rho * (t_now - horizon))
                tail_count += 1

    tails = tail_acc / (tail_count * rho)
    values = integral + tails
    se = 0.0 if cfg.n_paths == 1 else float(
        np.std(values, ddof=1) / math.sqrt(cfg.n_paths))
    return McEstimate(mean=float(np.mean(values)), se=se,
                      tail=float(np.mean(tails)))


def _lag_weights(lam: float, dt: float, n_steps: int) -> np.ndarray:
    """lam e^{-lam v} at the window lags v = 0, dt, ..., n_steps dt."""
    return lam * np.exp(-lam * dt * np.arange(n_steps + 1))


def _history(x: np.ndarray, wgt: np.ndarray, dt: float) -> float:
    """Window trapezoid of lam e^{-lam v} X_{t-v}^2 for one path row ``x``
    (oldest value first), ``wgt`` from _lag_weights."""
    x_rev = x[::-1]
    return float(np.trapezoid(x_rev * x_rev * wgt, dx=dt))


def xi_eta_check(path: SimPath) -> tuple[np.ndarray, np.ndarray]:
    """Deviations of the weighted-increment integrals from their closed forms.

    Per path row, evaluates by trapezoid over the window (t - T0, t]

        xi_hat  = int (W_t - W_{t-u}) lam e^{-lam u} du
        eta_hat = int (W_t - W_{t-u})^2 lam e^{-lam u} du

    and returns |xi_hat - X_t| and |eta_hat - (X_t^2 + H)| with H the
    same window's trapezoid of lam e^{-lam v} X_{t-v}^2, so truncation
    cancels between the two sides up to e^{-lam T0}.
    """
    dt = path.dt
    wgt = _lag_weights(path.lam, dt, path.n_steps)
    n_paths = path.xs.shape[0]
    xi_dev, eta_dev = np.empty(n_paths), np.empty(n_paths)
    ws = np.empty(path.n_steps + 1)
    for i in range(n_paths):
        x = path.xs[i]
        w_row(x, path.lam, dt, out=ws)
        x_t = x[-1]
        dw = ws[-1] - ws[::-1]
        xi_hat = np.trapezoid(dw * wgt, dx=dt)
        eta_hat = np.trapezoid(dw * dw * wgt, dx=dt)
        hist = _history(x, wgt, dt)
        xi_dev[i] = abs(xi_hat - x_t)
        eta_dev[i] = abs(eta_hat - (x_t * x_t + hist))
    return xi_dev, eta_dev


def aggregation_check(params: ModelParams, consts: DerivedConstants,
                      cfg: OracleConfig, population_n: int,
                      alpha_std: float = 0.1) -> tuple[float, float, float]:
    """Aggregation limit: population mean of (Gamma/gamma_i) log Lambda_i
    against (A/2) eta + alpha_mean eps A xi + deterministic age constant.

    Returns (z_statistic, population_mean, target).  The deterministic
    part has two pieces: E[(1/2) log(eps/(eps+u))] under the age density
    (Gauss-Laguerre), and -eps E[alpha^2] E[u/(2(eps+u))], whose age
    expectation is exactly A/(2 lam).
    """
    _check_burn_in(cfg, params.lam)
    n_steps = int(round(cfg.burn_in / cfg.dt))
    sim = SimConfig(n_paths=1, n_steps=n_steps, dt=cfg.dt, seed=cfg.seed,
                    measure_mean=0.0)
    path = simulate(sim, params, consts, t0=-cfg.burn_in)

    mean, se = aggregate_log_lambda(population_n, params, consts, path,
                                    seed=cfg.seed + 1, alpha_std=alpha_std)

    lam, eps, big_a = params.lam, params.epsilon, consts.age_norm
    x_t = float(path.xs[0, -1])
    eta = x_t * x_t + _history(path.xs[0], _lag_weights(lam, cfg.dt, n_steps),
                               cfg.dt)
    xi = x_t

    nodes, weights = laggauss(80)
    u_nodes = nodes / lam
    phi_mass = weights * big_a * (eps + u_nodes)
    const_log = float(np.sum(phi_mass * 0.5 * np.log(eps / (eps + u_nodes))))
    e_alpha_sq = params.alpha_mean ** 2 + alpha_std ** 2
    const_alpha = -eps * e_alpha_sq * big_a / (2.0 * lam)

    target = (0.5 * big_a * eta + params.alpha_mean * eps * big_a * xi
              + const_log + const_alpha)
    return float((mean - target) / se), mean, float(target)


def martingale_check(t_final: float, theta: float, params: ModelParams,
                     consts: DerivedConstants, cfg: OracleConfig,
                     n_outer: int = 100, n_inner: int = 1000) -> float:
    """Worst conditional-drift statistic of the transform martingale.

    M_t = V(t, X_t) exp(int_0^t (A/2) lam e^{lam (s - T)} X_s^2 ds) must
    have zero conditional drift.  For the three increments between
    checkpoints k T/3, outer paths set the conditioning state and inner
    paths estimate the conditional mean of the next checkpoint value;
    the pooled discrepancy is reported in standard-error units (worst
    increment).  Returns exactly 0 for T = 0.
    """
    if t_final == 0.0:
        return 0.0
    lam = consts.lam
    dt = cfg.dt
    rng = philox_stream(cfg.seed)
    decay, sd = step_consts(lam, dt)
    amp = 0.5 * consts.age_norm * lam * math.exp(-lam * t_final)

    sol = abc_eval(OdeInputs(theta=theta, params=params, consts=consts,
                             tau_max=t_final,
                             n_grid=max(int(round(t_final / dt)), 4) + 1))

    def v_closed(t_now: float, x: np.ndarray) -> np.ndarray:
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
            x_outer = x_outer * decay + sd * rng.standard_normal(n_outer)
            w_new = 0.5 * dt * math.exp(lam * i * dt) * x_outer ** 2
            j_outer += w_prev + w_new
            w_prev = w_new
        m1 = v_closed(t1, x_outer) * np.exp(amp * j_outer)

        diffs = np.empty(n_outer)
        errs = np.empty(n_outer)
        for j in range(n_outer):
            x_in = np.full(n_inner, x_outer[j])
            j_in = np.zeros(n_inner)
            w_prev_in = 0.5 * dt * math.exp(lam * n1 * dt) * x_in ** 2
            for i in range(n1 + 1, n1 + n2 + 1):
                x_in = x_in * decay + sd * rng.standard_normal(n_inner)
                w_new = 0.5 * dt * math.exp(lam * i * dt) * x_in ** 2
                j_in += w_prev_in + w_new
                w_prev_in = w_new
            m2 = v_closed(t2, x_in) * np.exp(amp * (j_outer[j] + j_in))
            diffs[j] = np.mean(m2) - m1[j]
            errs[j] = np.std(m2, ddof=1) / math.sqrt(n_inner)
        pooled = float(np.mean(diffs))
        pooled_se = float(np.sqrt(np.sum(errs ** 2)) / n_outer)
        worst = max(worst, abs(pooled / pooled_se))
    return worst
