"""Brute-force Monte Carlo verification of every closed form.

Every oracle reports (estimate, standard error), never a bare point
estimate; acceptance comparisons are made in standard-error units.  All
draws come from ``ou.substream`` (SFC64 keyed by a SeedSequence), and
all estimators run serially over a fixed draw order (time-major for the
forward simulations in mc_v, mc_stock and martingale_check, one spawned
substream per path in the path factory), so a fixed seed reproduces
results bitwise.  The forward simulations step (X, U) only through
``ou.advance``, which steps in shock units X / sd and carries
U_t = (A/2) int lam e^{lam (s-t)} X_s^2 ds by a decaying recursion, so
no weight e^{lam t} overflows at large lam T.  At an even path count
``ou.advance`` pairs the paths along axis 0 (rows h.. take the negated
shocks of rows ..h), and ``_mean_se`` takes the standard error from the
h pair means; an odd count draws every path independently.
martingale_check continues all outer paths together as one
(n_inner, n_outer) array, so each step is one time-major draw of
(n_inner / 2, n_outer) normals.  The path checks (xi_eta_check,
aggregation_check) draw stationary mean-zero X paths one row at a time
(``SimPath.row``, into one reused buffer in xi_eta_check) and build W
from that row (``ou.w_row``, one cumulative sum written in place), so
they hold O(n_steps) scratch and never a whole path array; their window
trapezoids are dot products of a row with the weights of
``_window_weights``.

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
from .model import (DerivedConstants, InvalidParamsError, MarketState,
                    ModelParams, NumericalError)
from .odes import OdeInputs, abc_eval
from .ou import (SimConfig, SimPath, advance, sample_stationary,
                 simulate, substream, w_row)

LOG_PAYOFF_CAP = 700.0
T_SUB = 10              # mc_stock: OU steps per maturity-grid interval
TAIL_WINDOW = 5.0       # mc_stock: time units averaged for the tail
ALPHA_STD = 0.1         # aggregation_check: sd of the dynasties' prior means
AGE_TAIL_MAX = 0.01     # aggregation_check: expected ages past the burn-in


class OverflowGuardError(NumericalError):
    """A simulated log payoff exceeded the exp() overflow cap."""


@dataclass(frozen=True)
class OracleConfig:
    """Sizes and seed of an oracle run.  Each oracle reads only some
    fields; callers fill the rest with placeholders (n_paths=1,
    horizon=1.0):

    - mc_stock: n_paths, dt, horizon, seed;
    - mc_v: n_paths, dt, seed (the horizon is its argument);
    - aggregation_check: dt, burn_in, seed (one path);
    - martingale_check: dt, seed (paths and horizon are arguments).
    """

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
        model._require_finite(self, ("burn_in", "horizon"))
        if self.burn_in < 0.0 or self.horizon < 0.0:
            raise InvalidParamsError("burn_in and horizon must be nonnegative")
        if self.seed < 0:
            raise InvalidParamsError("seed must be nonnegative")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    se: float
    tail: float = 0.0


def _mean_se(values: np.ndarray):
    """Mean and standard error along axis 0.  An even count holds the
    antithetic pairs of ``ou.advance``: the SE is then that of the pair
    means 0.5 (v[:h] + v[h:]).  One path or one pair gives SE 0."""
    n = len(values)
    if n % 2 == 0:
        n //= 2
        values = 0.5 * (values[:n] + values[n:])
    se = (np.std(values, axis=0, ddof=1) / math.sqrt(n) if n > 1
          else np.zeros(values.shape[1:]))
    return np.mean(values, axis=0), se


def mc_v(state: MarketState, t_horizon: float, theta: float,
         params: ModelParams, consts: DerivedConstants,
         cfg: OracleConfig) -> McEstimate:
    """Monte Carlo estimate of the exponential-quadratic transform.

    Simulates X forward from state.x under the reference measure and
    averages exp(theta*delta(X_T) + spd_lin*X_T + spd_quad*X_T^2 + I),
    I = U_T being the trapezoid of (A/2) lam e^{lam (s-T)} X_s^2 carried
    by ``ou.advance`` from U_0 = 0.  The state's u plays no role: the
    transform depends on the factor level alone.
    """
    if not 0.0 <= t_horizon < math.inf:
        raise InvalidParamsError("t_horizon must be finite and nonnegative")
    if not math.isfinite(theta):
        raise InvalidParamsError("theta must be finite")
    n_steps = int(round(t_horizon / cfg.dt))
    xs = np.full(cfg.n_paths, float(state.x))
    xs, integral = advance(xs, 0.0, substream(cfg.seed), n_steps,
                           consts.lam, cfg.dt, consts.age_norm)

    log_pay = (theta * model.dividend(xs, params)
               + consts.spd_lin * xs + consts.spd_quad * xs * xs + integral)
    if float(np.max(log_pay)) > LOG_PAYOFF_CAP:
        raise OverflowGuardError(f"log payoff {np.max(log_pay):.1f} > 700")
    mean, se = _mean_se(np.exp(log_pay))
    return McEstimate(mean=float(mean), se=float(se))


def mc_stock(state: MarketState, params: ModelParams,
             consts: DerivedConstants, cfg: OracleConfig) -> McEstimate:
    """Monte Carlo stock price from the pathwise pricing kernel.

    Per path, integrates zeta_T delta_T / zeta_t over a maturity grid of
    spacing T_SUB * dt by trapezoid, then adds the geometric tail
    estimated from the e^{rho (T - horizon)}-rescaled integrand averaged
    over the final TAIL_WINDOW time units.
    """
    rho, dt = params.rho, cfg.dt
    n_steps = (int(round(cfg.horizon / dt)) // T_SUB) * T_SUB
    horizon = n_steps * dt
    if horizon <= TAIL_WINDOW:
        raise InvalidParamsError(f"horizon must exceed {TAIL_WINDOW}")
    big_dt = T_SUB * dt
    rng = substream(cfg.seed)

    xs = np.full(cfg.n_paths, float(state.x))
    us = np.full(cfg.n_paths, float(state.u))
    log_z0 = model.log_zeta(state, 0.0, params, consts)
    integral = np.zeros(cfg.n_paths)
    q_prev = np.full(cfg.n_paths, float(model.dividend(state.x, params)))
    tail_acc = np.zeros(cfg.n_paths)
    tail_count = 0
    win_lo = horizon - TAIL_WINDOW

    for k in range(T_SUB, n_steps + 1, T_SUB):
        xs, us = advance(xs, us, rng, T_SUB, consts.lam, dt, consts.age_norm)
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
    mean, se = _mean_se(integral + tails)
    return McEstimate(mean=float(mean), se=float(se),
                      tail=float(np.mean(tails)))


def _window_weights(lam: float, dt: float, n_steps: int) -> np.ndarray:
    """Trapezoid weights of lam e^{-lam v} dv over the window lags
    v = n_steps dt, ..., dt, 0, in time order to match a path row (oldest
    value first): the window integral of lam e^{-lam v} f_{t-v} is
    f_row @ weights."""
    wgt = lam * dt * np.exp(-lam * dt * np.arange(n_steps, -1, -1))
    wgt[0] *= 0.5
    wgt[-1] *= 0.5 if n_steps else 0.0     # a one-point window has no width
    return wgt


def xi_eta_check(path: SimPath) -> tuple[np.ndarray, np.ndarray]:
    """Deviations of the weighted-increment integrals from their closed forms.

    Per path row, evaluates by trapezoid over the window (t - T0, t]

        xi_hat  = int (W_t - W_{t-u}) lam e^{-lam u} du
        eta_hat = int (W_t - W_{t-u})^2 lam e^{-lam u} du

    and returns |xi_hat - X_t| and |eta_hat - (X_t^2 + H)| with H the
    same window's trapezoid of lam e^{-lam v} X_{t-v}^2, so truncation
    cancels between the two sides up to e^{-lam T0}.  With the window
    weights c, sum C and W.c the dot product of the row with c, the
    trapezoids expand to xi_hat = W_t C - W.c,
    eta_hat = W_t^2 C - 2 W_t W.c + (W^2).c and H = (X^2).c.
    """
    dt = path.dt
    wgt = _window_weights(path.lam, dt, path.n_steps)
    wgt_sum = float(np.sum(wgt))
    xi_dev, eta_dev = np.empty(path.n_paths), np.empty(path.n_paths)
    x = np.empty(path.n_steps + 1)
    ws = np.empty_like(x)
    sq = np.empty_like(x)
    for i in range(path.n_paths):
        path.row(i, out=x)
        w_row(x, path.lam, dt, out=ws)
        x_t, w_t = x[-1], ws[-1]
        w_c = ws @ wgt
        xi_hat = w_t * wgt_sum - w_c
        eta_hat = (w_t * w_t * wgt_sum - 2.0 * w_t * w_c
                   + np.multiply(ws, ws, out=sq) @ wgt)
        hist = np.multiply(x, x, out=sq) @ wgt
        xi_dev[i] = abs(xi_hat - x_t)
        eta_dev[i] = abs(eta_hat - (x_t * x_t + hist))
    return xi_dev, eta_dev


def aggregation_check(params: ModelParams, consts: DerivedConstants,
                      cfg: OracleConfig, population_n: int
                      ) -> tuple[float, float, float]:
    """Aggregation limit: population mean of (Gamma/gamma_i) log Lambda_i
    against (A/2) eta + alpha_mean eps A xi + deterministic age constant.

    Returns (z_statistic, population_mean, target).  The deterministic
    part has two pieces: E[(1/2) log(eps/(eps+u))] under the age density
    (Gauss-Laguerre), and -eps E[alpha^2] E[u/(2(eps+u))], whose age
    expectation is exactly A/(2 lam).
    """
    lam, eps, big_a = params.lam, params.epsilon, consts.age_norm
    if cfg.burn_in < 10.0 / lam:
        raise InvalidParamsError(
            f"burn_in must be >= 10/lam = {10.0 / lam:.3f} "
            "(past-window truncation)")
    # sample_age's P(age >= b) = A e^{-lam b} (eps + b + 1/lam), b = burn_in
    past = population_n * big_a * math.exp(-lam * cfg.burn_in) * (
        eps + cfg.burn_in + 1.0 / lam)
    if past > AGE_TAIL_MAX:
        raise InvalidParamsError(f"burn_in {cfg.burn_in:g} leaves {past:.3g} "
                                 "dynasty ages expected past the path")
    n_steps = int(round(cfg.burn_in / cfg.dt))
    sim = SimConfig(n_paths=1, n_steps=n_steps, dt=cfg.dt, seed=cfg.seed)
    path = simulate(sim, params, consts, t0=-cfg.burn_in)

    x = path.row(0)
    mean, se = aggregate_log_lambda(population_n, params, path,
                                    w_row(x, lam, cfg.dt), seed=cfg.seed + 1,
                                    alpha_std=ALPHA_STD)

    x_t = float(x[-1])
    eta = x_t * x_t + float((x * x) @ _window_weights(lam, cfg.dt, n_steps))
    xi = x_t

    nodes, weights = laggauss(80)
    u_nodes = nodes / lam
    phi_mass = weights * big_a * (eps + u_nodes)
    const_log = float(np.sum(phi_mass * 0.5 * np.log(eps / (eps + u_nodes))))
    e_alpha_sq = params.alpha_mean ** 2 + ALPHA_STD ** 2
    const_alpha = -eps * e_alpha_sq * big_a / (2.0 * lam)

    target = (0.5 * big_a * eta + params.alpha_mean * eps * big_a * xi
              + const_log + const_alpha)
    return float((mean - target) / se), mean, float(target)


def martingale_check(t_final: float, theta: float, params: ModelParams,
                     consts: DerivedConstants, cfg: OracleConfig,
                     n_outer: int = 100, n_inner: int = 1000) -> float:
    """Worst conditional-drift statistic of the transform martingale.

    M_t = V(t, X_t) exp(int_0^t (A/2) lam e^{lam (s - T)} X_s^2 ds)
        = V(t, X_t) exp(e^{-lam (T - t)} U_t), U_0 = 0,
    must have zero conditional drift.  For the three increments between
    checkpoints k T/3, outer paths set the conditioning state (X, U) and
    inner paths continue from it to estimate the conditional mean of the
    next checkpoint value; the pooled discrepancy is reported in
    standard-error units (worst increment).  Returns exactly 0 for T = 0.
    Any other T must be finite and at least 3 dt, so that every increment
    takes a step, and the inner paths must be at least 3 (at 2, one
    antithetic pair) so that each conditional mean has a standard error.
    """
    if n_outer < 1 or n_inner < 3:
        raise InvalidParamsError("n_outer >= 1 and n_inner >= 3 required")
    if t_final == 0.0:
        return 0.0
    lam, dt, big_a = consts.lam, cfg.dt, consts.age_norm
    if not 3.0 * dt <= t_final < math.inf:
        raise InvalidParamsError(
            f"t_final must be 0 or finite and at least 3 dt = {3.0 * dt:g}")
    rng = substream(cfg.seed)
    # a, b, c at tau = T - k T/3 sit in column 3 - k
    sol = abc_eval(OdeInputs(theta=theta, params=params, consts=consts,
                             tau_max=t_final, n_grid=4))

    def m_value(k: int, n_done: int, x: np.ndarray, u) -> np.ndarray:
        """M at checkpoint k for paths simulated n_done steps to (x, u):
        V at tau = T - k T/3, U weighted at the simulated time n_done dt."""
        a, b, c = sol.a_vals[3 - k], sol.b_vals[3 - k], sol.c_vals[3 - k]
        weight = math.exp(-lam * (t_final - n_done * dt))
        return np.exp(0.5 * a * x * x + b * x + c + weight * u)

    worst = 0.0
    for k in range(3):
        n1 = int(round(k * t_final / 3.0 / dt))
        n2 = int(round((k + 1) * t_final / 3.0 / dt)) - n1

        x_outer = sample_stationary(lam, rng.standard_normal(n_outer))
        x_outer, u_outer = advance(x_outer, 0.0, rng, n1, lam, dt, big_a)
        m1 = m_value(k, n1, x_outer, u_outer)

        # column j continues outer path j with n_inner inner paths
        x_in, u_in = advance(np.tile(x_outer, (n_inner, 1)), u_outer, rng,
                             n2, lam, dt, big_a)
        mean2, errs = _mean_se(m_value(k + 1, n1 + n2, x_in, u_in))
        diffs = mean2 - m1
        pooled = float(np.mean(diffs))
        pooled_se = float(np.sqrt(np.sum(errs ** 2)) / n_outer)
        # at large lam T, V and the U weight leave M deterministic over
        # the early increments: zero SE, which passes only if exactly flat
        z = abs(pooled) / pooled_se if pooled_se > 0.0 else (
            0.0 if pooled == 0.0 else math.inf)
        worst = max(worst, z)
    return worst
