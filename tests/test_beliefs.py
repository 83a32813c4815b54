import numpy as np
import pytest

from dynastyprice import (BeliefInput, InvalidParamsError, SimConfig,
                          derive_constants, lambda_density, posterior,
                          sample_age, simulate)
from dynastyprice.beliefs import (AgeExceedsPathError, aggregate_log_lambda,
                                  log_lambda_density)
from dynastyprice.calibration import build_defaults


def gauss_hermite_lambda(dw, dt, alpha, eps, n_nodes=80):
    """Independent quadrature of the defining Gaussian-mixture integral.

    Lambda = int sqrt(eps/2pi) exp(-eps(m-alpha)^2/2 + m dW - m^2 dt/2) dm
    with m = alpha + t sqrt(2/eps) mapping onto the Hermite weight.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    m = alpha + nodes * np.sqrt(2.0 / eps)
    vals = np.exp(m * dw - 0.5 * m * m * dt)
    return float(np.sum(weights * vals) / np.sqrt(np.pi))


def test_lambda_no_data_is_unity():
    assert lambda_density(BeliefInput(0.0, 0.0, 1.3, 2.0)) == 1.0


def test_lambda_against_quadrature_oracle():
    for dw in (-1.0, 0.0, 0.5, 2.0):
        for dt in (0.3, 1.0, 3.0):
            for alpha in (0.0, 2.01, -0.7):
                for eps in (0.7, 1.0, 3.0):
                    got = lambda_density(BeliefInput(dw, dt, alpha, eps))
                    want = gauss_hermite_lambda(dw, dt, alpha, eps)
                    assert got == pytest.approx(want, rel=1e-10)


def test_lambda_known_parameter_limit():
    # eps -> inf recovers the fixed-drift change of measure
    dw, dt, alpha = 0.8, 1.7, 2.01
    got = lambda_density(BeliefInput(dw, dt, alpha, 1e12))
    want = np.exp(alpha * dw - 0.5 * alpha * alpha * dt)
    assert got == pytest.approx(want, rel=1e-9)


def test_lambda_positive_and_log_convexity():
    eps, dt = 1.3, 0.9
    dws = np.linspace(-3, 3, 41)
    vals = log_lambda_density(dws, dt, 0.4, eps)
    assert np.all(np.isfinite(vals))
    h = dws[1] - dws[0]
    second = np.diff(vals, 2) / h**2
    assert np.allclose(second, 1.0 / (eps + dt), rtol=1e-9)


def test_posterior():
    assert posterior(BeliefInput(0.0, 0.0, 1.1, 2.5)) == (1.1, 2.5)
    alpha, dt = 0.7, 3.0
    mean, prec = posterior(BeliefInput(alpha * dt, dt, alpha, 2.0))
    assert mean == pytest.approx(alpha, rel=1e-15)
    assert prec == 5.0
    # long samples pin the posterior mean at the empirical drift
    rate = 1.9
    big = 1e8
    mean, _ = posterior(BeliefInput(rate * big, big, 0.3, 2.0))
    assert mean == pytest.approx(rate, rel=1e-6)


def test_posterior_monotonicity():
    prev_prec = 0.0
    for dt in (0.0, 0.5, 2.0, 9.0):
        mean, prec = posterior(BeliefInput(1.0, dt, 0.2, 1.5))
        assert prec > prev_prec
        prev_prec = prec
        if dt > 0:
            lo, hi = sorted((0.2, 1.0 / dt))
            assert lo - 1e-12 <= mean <= hi + 1e-12


def test_age_mixture_weights_and_mean():
    lam, eps = 2.0, 1.0
    age_norm = lam / (1 + eps * lam)
    assert age_norm * eps == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert age_norm / lam == pytest.approx(1.0 / 3.0, rel=1e-15)
    rng = np.random.default_rng(4242)
    ages = sample_age(eps, lam, rng, size=1_000_000)
    want = age_norm * eps / lam + 2 * age_norm / lam**2
    se = ages.std(ddof=1) / np.sqrt(len(ages))
    assert abs(ages.mean() - want) < 3 * se


def test_age_density_normalised_and_decreasing():
    lam, eps = 2.0, 1.0
    age_norm = lam / (1 + eps * lam)
    u = np.linspace(0, 40, 100_001)
    phi = age_norm * (eps + u) * lam * np.exp(-lam * u)
    assert np.trapezoid(phi, u) == pytest.approx(1.0, abs=1e-7)
    assert np.all(np.diff(phi) < 0)
    # boundary lam*eps = 1: phi'(0) = 0
    lam2, eps2 = 2.0, 0.5
    a2 = lam2 / (1 + eps2 * lam2)
    h = 1e-6
    phi0 = a2 * (eps2 + 0.0) * lam2
    phip = a2 * (eps2 + h) * lam2 * np.exp(-lam2 * h)
    assert (phip - phi0) / h == pytest.approx(0.0, abs=1e-4)


def test_sample_age_requires_decreasing_density():
    rng = np.random.default_rng(1)
    with pytest.raises(InvalidParamsError):
        sample_age(0.4, 2.0, rng)


def test_aggregate_constant_path():
    # X == 0 path: dW == 0, so only the deterministic age terms survive
    params, _ = build_defaults()
    consts = derive_constants(params)
    n = 20_000
    from dynastyprice.ou import SimPath
    zeros = np.zeros((1, n + 1))
    flat = SimPath(t0=-20.0, dt=1e-3, lam=params.lam, xs=zeros.copy(),
                   u_init=0.0, age_norm=consts.age_norm)
    mean, se = aggregate_log_lambda(50_000, params, consts, flat, seed=11,
                                    alpha_std=0.0)
    # log Lambda = (1/2) log(eps/(eps+u)) - eps alpha^2 u / (2 (eps+u))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(11)))
    ages = sample_age(params.epsilon, params.lam, rng, 50_000)
    eps, al = params.epsilon, params.alpha_mean
    want = np.mean(0.5 * np.log(eps / (eps + ages))
                   - eps * al * al * ages / (2 * (eps + ages)))
    assert mean == pytest.approx(want, rel=1e-10)
    assert se > 0.0


def test_aggregate_age_window_guard():
    params, _ = build_defaults()
    consts = derive_constants(params)
    short = simulate(SimConfig(n_paths=1, n_steps=100, dt=1e-3, seed=2),
                     params, consts)
    with pytest.raises(AgeExceedsPathError):
        aggregate_log_lambda(10_000, params, consts, short, seed=8)


def test_aggregate_se_scales_with_population():
    params, _ = build_defaults()
    consts = derive_constants(params)
    path = simulate(SimConfig(n_paths=1, n_steps=20_000, dt=1e-3, seed=13),
                    params, consts, t0=-20.0)
    _, se_small = aggregate_log_lambda(20_000, params, consts, path, seed=3)
    _, se_big = aggregate_log_lambda(40_000, params, consts, path, seed=3)
    assert se_small / se_big == pytest.approx(np.sqrt(2.0), rel=0.10)
