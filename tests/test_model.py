import pytest

from dynastyprice import (InvalidParamsError, MarketState, ModelParams,
                          derive_constants, dividend, limit_constants,
                          log_zeta, short_rate)
from dynastyprice.calibration import build_defaults


@pytest.fixture()
def defaults():
    params, state = build_defaults()
    return params, state, derive_constants(params)


def test_derived_constants_at_defaults(defaults):
    params, _, consts = defaults
    assert consts.age_norm == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert consts.spd_lin == pytest.approx(1.34, rel=1e-14)
    assert consts.spd_quad == pytest.approx(-0.15666666666666668, rel=1e-14)


def test_derived_constants_zero_case():
    params = ModelParams(a0=0, a1=0, a2=0, lam=2.0, rho=0.04, epsilon=1.0,
                         gamma_agg=1e-12, alpha_mean=0.0)
    consts = derive_constants(params)
    assert consts.spd_lin == 0.0
    assert consts.spd_quad == pytest.approx(consts.age_norm / 2.0, rel=1e-15)


def test_limit_constants_known_parameter_case(defaults):
    params, _, _ = defaults
    lim = limit_constants(params)
    assert lim.age_norm == 0.0
    assert lim.spd_lin == pytest.approx(params.alpha_mean, rel=1e-15)
    assert lim.spd_quad == pytest.approx(-params.gamma_agg, rel=1e-15)


def test_derive_constants_pure(defaults):
    params, _, consts = defaults
    again = derive_constants(params)
    assert again == consts   # bitwise-equal fields


def test_short_rate_coefficient_identities(defaults):
    _, _, c = defaults
    rho = 0.04
    assert c.r0 == pytest.approx(rho - c.spd_quad - 0.5 * c.spd_lin ** 2, rel=1e-15)
    assert c.r1 == pytest.approx(c.spd_lin * (c.lam - 2 * c.spd_quad), rel=1e-15)
    assert c.r2 == pytest.approx(2 * c.lam * c.spd_quad - 0.5 * c.lam * c.age_norm
                                 - 2 * c.spd_quad ** 2, rel=1e-15)


def test_short_rate_origin_and_u_identity(defaults):
    _, _, consts = defaults
    assert short_rate(MarketState(0.0, 0.0), consts) == pytest.approx(
        consts.r0, rel=1e-15)
    for x, u in [(0.3, 0.2), (-1.1, 2.5), (2.01, 1.43)]:
        gap = (short_rate(MarketState(x, u), consts)
               - short_rate(MarketState(x, 0.0), consts))
        assert gap == pytest.approx(consts.lam * u, rel=1e-13)


def test_short_rate_known_parameter_formula(defaults):
    # r = (rho + G - a^2/2) + a(lam + 2G) x - 2G(lam + G) x^2 in the limit
    params, _, _ = defaults
    gam, a, lam, rho = 0.4943, 2.0115, 2.0, 0.04
    lim = limit_constants(ModelParams(a0=0, a1=0, a2=1, lam=lam, rho=rho,
                                      epsilon=1.0, gamma_agg=gam, alpha_mean=a))
    for x in (-1.0, 0.0, 0.7, 2.0115):
        want = ((rho + gam - 0.5 * a * a) + a * (lam + 2 * gam) * x
                - 2 * gam * (lam + gam) * x * x)
        assert short_rate(MarketState(x, 0.0), lim) == pytest.approx(want, rel=1e-12)


def test_dividend_examples():
    p = ModelParams(a0=0, a1=0, a2=1, lam=2, rho=0.04, epsilon=1,
                    gamma_agg=0.49, alpha_mean=2.01)
    assert dividend(0.0, p) == 0.0
    assert dividend(2.01, p) == pytest.approx(4.0401, rel=1e-14)
    q = ModelParams(a0=1, a1=2, a2=1, lam=2, rho=0.04, epsilon=1,
                    gamma_agg=0.49, alpha_mean=2.01)
    assert dividend(-1.0, q) == 0.0


def test_log_zeta_examples(defaults):
    params, state, consts = defaults
    assert log_zeta(MarketState(0.0, 0.0), 0.0, params, consts) == 0.0
    want = (consts.spd_lin * 2.01 + consts.spd_quad * 2.01 ** 2 + state.u)
    assert log_zeta(state, 0.0, params, consts) == pytest.approx(want, rel=1e-15)
    # the only explicit time dependence is -rho * t
    for dt in (0.5, 3.0):
        shift = (log_zeta(state, 1.0 + dt, params, consts)
                 - log_zeta(state, 1.0, params, consts))
        assert shift == pytest.approx(-params.rho * dt, rel=1e-12)


def test_param_validation():
    good = dict(a0=0, a1=0, a2=1, lam=2, rho=0.04, epsilon=1,
                gamma_agg=0.49, alpha_mean=2.01)
    with pytest.raises(InvalidParamsError):
        ModelParams(**{**good, "epsilon": 0.4})     # lam*eps < 1
    with pytest.raises(InvalidParamsError):
        ModelParams(**{**good, "rho": 0.0})
    with pytest.raises(InvalidParamsError):
        ModelParams(**{**good, "gamma_agg": -1.0})
    with pytest.raises(InvalidParamsError):
        MarketState(0.0, -0.1)


def test_age_norm_range_across_params():
    # age_norm in (0, 1/epsilon] whenever lam * epsilon >= 1
    for lam in (0.5, 1.0, 2.0, 7.0):
        for eps in (2.0 / lam, 1.5, 10.0):
            if lam * eps < 1.0:
                continue
            p = ModelParams(a0=0, a1=0, a2=1, lam=lam, rho=0.04, epsilon=eps,
                            gamma_agg=0.3, alpha_mean=1.0)
            a = derive_constants(p).age_norm
            assert 0.0 < a <= 1.0 / eps + 1e-15
