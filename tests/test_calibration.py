import pytest

from dynastyprice import (CalibrationTarget, derive_constants,
                          expected_rate, limit_constants, solve_gamma)
from dynastyprice.calibration import NoPositiveRootError, _cubic, build_defaults


def test_expected_rate_gamma_zero():
    for a in (0.5, 2.0):
        want = 0.04 - 0.5 * a * a + a * a * 2.0
        assert expected_rate(0.0, a, 2.0, 0.04) == pytest.approx(want, rel=1e-14)


def test_expected_rate_equals_stationary_moments():
    # r0 + r1 E[X] + r2 E[X^2] with the known-parameter constants
    from dynastyprice import ModelParams
    gamma, a, lam, rho = 0.4943, 2.0115, 2.0, 0.04
    lim = limit_constants(ModelParams(a0=0, a1=0, a2=1, lam=lam, rho=rho,
                                      epsilon=1.0, gamma_agg=gamma,
                                      alpha_mean=a))
    want = lim.r0 + lim.r1 * a + lim.r2 * (a * a + 1.0 / (2.0 * lam))
    assert expected_rate(gamma, a, lam, rho) == pytest.approx(want, rel=1e-12)


def test_rounded_values_hit_target_rate_loosely():
    # the 4-decimal rounding moves the rate by ~(dEr/dGamma) * 1e-5 ~ 2e-4
    assert expected_rate(0.4943, 2.0115, 2.0, 0.04) == pytest.approx(0.01, abs=2.5e-4)


def test_cubic_bracketing_and_monotone_target():
    # l is increasing in both gamma and the target rate, so the root
    # moves down as the target rate rises
    t = CalibrationTarget(2.0, 0.01, 2.0, 0.04)
    assert _cubic(0.0, t) < 0.0
    gammas = [solve_gamma(CalibrationTarget(2.0, er, 2.0, 0.04))[0]
              for er in (0.005, 0.01, 0.02)]
    assert gammas[0] > gammas[1] > gammas[2]


def test_cubic_increasing_on_positive_axis():
    t = CalibrationTarget(2.0, 0.01, 2.0, 0.04)
    gamma, _ = solve_gamma(t)
    import numpy as np
    g = np.linspace(1e-6, 2 * gamma, 200)
    vals = np.array([_cubic(float(x), t) for x in g])
    assert np.all(np.diff(vals) > 0)


def test_no_positive_root_when_lam_small():
    with pytest.raises(NoPositiveRootError):
        solve_gamma(CalibrationTarget(2.0, 0.01, 0.4, 0.04))


def test_build_defaults():
    params, state = build_defaults()
    assert (params.a0, params.a1, params.a2) == (0.0, 0.0, 1.0)
    assert params.lam * params.epsilon >= 1.0
    assert state.x == 2.01
    assert state.u == pytest.approx(1.4300333333333333, rel=1e-14)
    consts = derive_constants(params)
    assert consts.age_norm == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert consts.spd_lin == pytest.approx(1.34, rel=1e-14)
    assert consts.spd_quad == pytest.approx(-0.15666666666666668, rel=1e-14)


def test_build_defaults_exact_flag():
    params, state = build_defaults(exact=True)
    assert params.gamma_agg == pytest.approx(0.4942894178620101, rel=1e-10)
    assert params.alpha_mean == pytest.approx(2.0115199370547736, rel=1e-10)
    assert state.x == params.alpha_mean
