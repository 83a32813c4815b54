"""Per-dynasty belief machinery and its population aggregate.

A newborn agent gives lam*a a Normal prior with mean alpha and precision
epsilon and then observes the factor for dt_age units of time.  The
likelihood ratio of the agent's predictive law against the reference
measure is the Gaussian mixture integral

    Lambda = sqrt(eps / (eps + dt)) *
             exp((dW^2 + 2 alpha eps dW - eps alpha^2 dt) / (2 (eps + dt)))

with dW the increment of the driving Brownian motion since birth.  The
stationary age of the currently alive agent has density
phi(u) = age_norm * (eps + u) * lam * e^{-lam u}, a two-part mixture of
an exponential and a Gamma(2) law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InvalidParamsError, ModelParams, NumericalError
from .ou import SimPath, substream

AGE_CHUNK = 2**12   # sample_age, aggregate_log_lambda: dynasties per draw


def _chunks(n: int):
    """Consecutive slices of AGE_CHUNK covering range(n)."""
    return (slice(k, min(k + AGE_CHUNK, n)) for k in range(0, n, AGE_CHUNK))


class AgeExceedsPathError(NumericalError):
    """A sampled dynasty age reaches past the simulated burn-in window."""


@dataclass(frozen=True)
class BeliefInput:
    dw: float
    dt_age: float
    alpha_prior: float
    epsilon: float

    def __post_init__(self) -> None:
        if self.dt_age < 0.0:
            raise InvalidParamsError("dt_age must be nonnegative")
        if not self.epsilon > 0.0:
            raise InvalidParamsError("epsilon must be positive")


def lambda_density(b: BeliefInput):
    """Likelihood ratio of the agent's predictive law; strictly positive."""
    return np.exp(log_lambda_density(b.dw, b.dt_age, b.alpha_prior, b.epsilon))


def log_lambda_density(dw, dt_age, alpha, epsilon):
    """log Lambda for array inputs; used by the aggregation oracle."""
    denom = epsilon + dt_age
    quad = (dw * dw + 2.0 * alpha * epsilon * dw
            - epsilon * alpha * alpha * dt_age) / (2.0 * denom)
    return 0.5 * np.log(epsilon / denom) + quad


def posterior(b: BeliefInput) -> tuple[float, float]:
    """Posterior (mean, precision) of lam*a after observing (dw, dt_age)."""
    precision = b.epsilon + b.dt_age
    mean = (b.epsilon * b.alpha_prior + b.dw) / precision
    return mean, precision


def sample_age(epsilon: float, lam: float, rng: np.random.Generator,
               size: int | None = None):
    """Draw stationary agent ages from phi(u) = A (eps+u) lam e^{-lam u}.

    Exact via the mixture decomposition
    phi = (A eps) * Exp(lam) + (A/lam) * Gamma(2, lam); the weights sum
    to one exactly when A = lam / (1 + eps lam).  The draws are all n
    uniforms, then n exponentials, then n more, each taken AGE_CHUNK at a
    time into the ages and one flag per age.
    """
    if lam * epsilon < 1.0:
        raise InvalidParamsError("lam * epsilon >= 1 required")
    age_norm = lam / (1.0 + epsilon * lam)
    n = 1 if size is None else size
    take_exp = np.empty(n, dtype=bool)
    ages = np.empty(n)
    for sl in _chunks(n):
        take_exp[sl] = rng.random(sl.stop - sl.start) < age_norm * epsilon
    for sl in _chunks(n):
        ages[sl] = rng.exponential(1.0 / lam, sl.stop - sl.start)
    for sl in _chunks(n):
        e2 = rng.exponential(1.0 / lam, sl.stop - sl.start)
        np.copyto(e2, 0.0, where=take_exp[sl])
        ages[sl] += e2
    return float(ages[0]) if size is None else ages


def aggregate_log_lambda(population_size: int, params: ModelParams,
                         shared_path: SimPath, ws: np.ndarray, seed: int,
                         alpha_std: float = 0.1) -> tuple[float, float]:
    """Population average of Gamma * (1/gamma_i) * log Lambda_i, with every
    gamma_i at gamma_agg, and its standard error.

    All dynasties observe the same path, whose W row (``ou.w_row`` of its
    row 0) is ``ws``; ages are drawn from phi and prior means alpha_i from
    N(alpha_mean, alpha_std^2), independently.  The ages are the only
    population-sized array: the prior means are drawn AGE_CHUNK at a time
    and each chunk's values overwrite its ages.
    """
    if shared_path.n_paths != 1:
        raise InvalidParamsError("shared_path must hold a single trajectory")
    if population_size < 2:
        raise InvalidParamsError("population_size >= 2 required (a standard "
                                 "error needs two dynasties)")
    rng = substream(seed)

    window = shared_path.n_steps * shared_path.dt
    ages = sample_age(params.epsilon, params.lam, rng, population_size)
    if np.max(ages) >= window:
        raise AgeExceedsPathError(
            f"sampled age {np.max(ages):.3f} exceeds the {window:.3f} window")

    times = shared_path.times
    for sl in _chunks(population_size):
        alphas = rng.normal(params.alpha_mean, alpha_std, sl.stop - sl.start)
        dw = ws[-1] - np.interp(times[-1] - ages[sl], times, ws)
        ages[sl] = log_lambda_density(dw, ages[sl], alphas, params.epsilon)
    vals = ages
    mean = float(np.mean(vals))
    sq_dev = sum(float(np.sum((vals[sl] - mean) ** 2))
                 for sl in _chunks(population_size))
    se = math.sqrt(sq_dev / (population_size - 1)) / math.sqrt(population_size)
    return mean, se
