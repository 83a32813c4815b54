import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

import dynastyprice
from dynastyprice import (DegenerateGError, DerivedConstants, InvalidParamsError,
                          OdeInputs, abc_eval, abc_numeric, derive_constants,
                          g_closed)
from dynastyprice.calibration import build_defaults
from dynastyprice.odes import _rk4


@pytest.fixture()
def defaults():
    params, _ = build_defaults()
    return params, derive_constants(params)


def test_g_at_zero_is_lam_over_pi(defaults):
    params, consts = defaults
    for theta in (0.0, 0.1, -0.3, 2.0):
        g, _ = g_closed(np.array([0.0]), theta, params, consts)
        assert g[0] == pytest.approx(params.lam / math.pi, rel=1e-12)


def test_g_boundary_derivative(defaults):
    params, consts = defaults
    for theta in (0.0, 0.25):
        g, gdot = g_closed(np.array([0.0]), theta, params, consts)
        chat = consts.spd_quad + theta * params.a2
        assert -gdot[0] == pytest.approx(2.0 * chat * g[0], rel=1e-12)


def test_g_large_time_limit(defaults):
    # g -> (lam/(pi A)) (sqrt(lam A) J1(z0) - 2 (C + theta a2) J2(z0))
    from dynastyprice import bessel
    params, consts = defaults
    lam, big_a = params.lam, consts.age_norm
    z0 = 2.0 * math.sqrt(big_a / lam)
    for theta in (0.0, 0.1):
        chat = consts.spd_quad + theta * params.a2
        want = (lam / (math.pi * big_a)) * (
            math.sqrt(lam * big_a) * bessel.bessel_j(1, z0)
            - 2.0 * chat * bessel.bessel_j(2, z0))
        g, gdot = g_closed(np.array([60.0]), theta, params, consts)
        assert g[0] == pytest.approx(want, rel=1e-10)
        assert abs(gdot[0]) < 1e-12


def test_g_satisfies_its_ode(defaults):
    params, consts = defaults
    lam, big_a = params.lam, consts.age_norm
    h = 1e-5
    for u in (0.3, 1.0, 3.0):
        pts = np.array([u - h, u, u + h])
        g, gdot = g_closed(pts, 0.0, params, consts)
        gdd = (g[2] - 2.0 * g[1] + g[0]) / h**2
        res = 0.5 * gdd + lam * gdot[1] + 0.5 * lam * big_a * math.exp(-lam * u) * g[1]
        assert abs(res) < 1e-5


def test_degenerate_g_detected(defaults):
    # a2 < 0 makes spd_quad large positive and g crosses zero
    params, _ = defaults
    bad = replace(params, a2=-5.0)
    consts = derive_constants(bad)
    with pytest.raises(DegenerateGError):
        abc_eval(OdeInputs(theta=0.0, params=bad, consts=consts,
                           tau_max=10.0, n_grid=2001))


def test_two_node_grid(defaults):
    # the closed forms need no quadrature, so [0, tau] is a valid grid
    params, consts = defaults
    sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                             tau_max=2.5, n_grid=2))
    fine = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                              tau_max=2.5, n_grid=2001))
    np.testing.assert_array_equal(sol.taus, [0.0, 2.5])
    for got, want in ((sol.a_vals, fine.a_vals), (sol.b_vals, fine.b_vals),
                      (sol.c_vals, fine.c_vals), (sol.dc_vals, fine.dc_vals)):
        assert got[-1] == pytest.approx(want[-1], rel=1e-13)
    with pytest.raises(InvalidParamsError):
        OdeInputs(theta=0.0, params=params, consts=consts, tau_max=2.5,
                  n_grid=1)


@pytest.mark.parametrize("field, value", [
    ("theta", math.nan), ("theta", -math.inf),
    ("tau_max", math.inf), ("tau_max", math.nan)])
def test_ode_inputs_reject_non_finite(defaults, field, value):
    # an input error (exit 2), not a vanishing g on the grid (exit 3)
    params, consts = defaults
    kw = {"theta": 0.0, "tau_max": 2.5, field: value}
    with pytest.raises(InvalidParamsError, match=field):
        abc_eval(OdeInputs(params=params, consts=consts, **kw))


def test_boundary_values(defaults):
    params, consts = defaults
    for theta in (0.0, 0.1):
        sol = abc_eval(OdeInputs(theta=theta, params=params, consts=consts,
                                 tau_max=5.0, n_grid=1001))
        assert sol.a_vals[0] == pytest.approx(
            2.0 * (consts.spd_quad + theta * params.a2), rel=1e-13)
        assert sol.b_vals[0] == pytest.approx(
            consts.spd_lin + theta * params.a1, rel=1e-13)
        assert sol.c_vals[0] == pytest.approx(theta * params.a0, abs=1e-15)
        assert sol.da_vals[0] == pytest.approx(2.0 * params.a2, rel=1e-12)
        assert sol.db_vals[0] == pytest.approx(params.a1, abs=1e-12)
        assert sol.dc_vals[0] == pytest.approx(params.a0, abs=1e-15)


def test_a_at_origin_default(defaults):
    params, consts = defaults
    sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts))
    assert sol.a_vals[0] == pytest.approx(-0.31333333333333335, rel=1e-13)


def test_b_vanishes_when_initial_b_zero(defaults):
    # b(0) = spd_lin + theta a1 = 0 forces b == 0 while db stays finite
    params, _ = defaults
    theta = 0.5
    a1 = 1.0
    gamma = params.gamma_agg
    # choose alpha_mean so spd_lin = -theta * a1
    p = replace(params, a1=a1, alpha_mean=(gamma * a1 - theta * a1) / (2.0 / 3.0))
    consts = derive_constants(p)
    assert consts.spd_lin + theta * a1 == pytest.approx(0.0, abs=1e-14)
    sol = abc_eval(OdeInputs(theta=theta, params=p, consts=consts,
                             tau_max=4.0, n_grid=801))
    assert np.max(np.abs(sol.b_vals)) < 1e-14
    g, _ = g_closed(sol.taus, theta, p, consts)
    want_db = a1 * g[0] * np.exp(-p.lam * sol.taus) / g
    assert np.allclose(sol.db_vals, want_db, rtol=1e-11)


def _flat_consts(params, consts):
    # A = 0 (degenerate, test-only): the forcing term of the Riccati
    # equation vanishes and g is elementary
    return DerivedConstants(age_norm=0.0, spd_lin=consts.spd_lin,
                            spd_quad=consts.spd_quad, r0=0.0, r1=0.0, r2=0.0,
                            lam=params.lam)


# the default parameter set is criterion 2 (`validate.suite_ode`)
@pytest.mark.parametrize("case", ["a0_a1", "forcing_vanishes"])
def test_closed_vs_numeric(defaults, case):
    params, consts = defaults
    if case == "a0_a1":
        # nonzero a0 and a1 reach the b(0)-dependent terms of c and dc
        params = replace(params, a0=0.3, a1=0.7, lam=1.3, epsilon=1.2)
        consts = derive_constants(params)
    elif case == "forcing_vanishes":
        consts = _flat_consts(params, consts)
    for theta in (0.0, 0.1):
        inputs = OdeInputs(theta=theta, params=params, consts=consts,
                           tau_max=10.0, n_grid=2001)
        closed = abc_eval(inputs)
        numeric = abc_numeric(inputs)
        for name in ("a_vals", "b_vals", "c_vals", "da_vals", "db_vals",
                     "dc_vals"):
            cv = getattr(closed, name)
            nv = getattr(numeric, name)
            rel = np.max(np.abs(cv - nv)) / np.max(np.abs(cv))
            assert rel < 1e-8, f"{name}: {rel:.2e}"


def test_numeric_matches_separable_solution_when_forcing_vanishes(defaults):
    # A = 0 (degenerate, test-only): the Riccati equation is separable,
    # a(tau) = 2 lam C / (C - (C - lam) e^{2 lam tau})
    params, consts = defaults
    lam, c_quad = params.lam, consts.spd_quad
    flat = _flat_consts(params, consts)
    sol = abc_numeric(OdeInputs(theta=0.0, params=params, consts=flat,
                                tau_max=10.0, n_grid=2001))
    want = 2 * lam * c_quad / (c_quad - (c_quad - lam) * np.exp(2 * lam * sol.taus))
    assert np.max(np.abs(sol.a_vals - want)) < 1e-10
    # the elementary closed-form branch agrees too
    closed = abc_eval(OdeInputs(theta=0.0, params=params, consts=flat,
                                tau_max=10.0, n_grid=2001))
    assert np.max(np.abs(closed.a_vals - want)) < 1e-12


def test_numeric_stepper_is_fourth_order(defaults):
    # halving the RK4 step cuts the error against the separable a(tau)
    # by 2^4 = 16
    params, consts = defaults
    lam, c_quad = params.lam, consts.spd_quad
    inputs = OdeInputs(theta=0.0, params=params,
                       consts=_flat_consts(params, consts),
                       tau_max=10.0, n_grid=2001)
    taus = np.linspace(0.0, 10.0, 2001)
    want = 2 * lam * c_quad / (c_quad - (c_quad - lam) * np.exp(2 * lam * taus))
    errs = [np.max(np.abs(_rk4(inputs, steps)[:, 0] - want))
            for steps in (1, 2, 4)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.0 < coarse / fine < 20.0, errs


def test_long_horizon_stays_finite(defaults):
    # lam tau = 1600 drives z = z0 e^{-lam tau / 2} below the smallest
    # normal double; the scaled Bessel combinations must stay finite there
    params, consts = defaults
    sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                             tau_max=800.0, n_grid=8001))
    for name in ("a_vals", "b_vals", "c_vals", "da_vals", "db_vals",
                 "dc_vals"):
        assert np.all(np.isfinite(getattr(sol, name))), name


def test_import_leaves_scipy_integrate_unloaded():
    # no scipy module at all, even after the RK4 cross-check has run:
    # numpy is the only runtime dependency
    src = str(Path(dynastyprice.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import dynastyprice; "
            "from dynastyprice.validate import run_suite; "
            "assert all(r.passed for r in run_suite('ode')); "
            "sys.exit(any(m == 'scipy' or m.startswith('scipy.') "
            "for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_package_source_never_imports_scipy():
    imports = re.compile(r"^\s*(?:import|from)\s+scipy\b", re.MULTILINE)
    src = Path(dynastyprice.__file__).parent
    found = [path.name for path in sorted(src.glob("*.py"))
             if imports.search(path.read_text())]
    assert found == []


def test_c_equals_simpson_of_integrand(defaults):
    params, consts = defaults
    sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                             tau_max=10.0, n_grid=2001))
    direct = simpson(0.5 * (sol.a_vals + sol.b_vals ** 2), x=sol.taus)
    assert sol.c_vals[-1] == pytest.approx(direct, abs=1e-9)


def test_a_decays_geometrically(defaults):
    params, consts = defaults
    lam = params.lam
    pts = np.array([10.0 / lam * k for k in range(1, 6)])
    g, gdot = g_closed(pts, 0.0, params, consts)
    a = np.abs(-gdot / g)
    assert np.all(np.diff(a) < 0)
    ratios = a[1:] / a[:-1]
    assert np.all(ratios < 1e-3)   # ~ e^{-10} per step of 10/lam


def test_b_g_exp_product_constant(defaults):
    params, consts = defaults
    for theta in (0.0, 0.2):
        sol = abc_eval(OdeInputs(theta=theta, params=params, consts=consts,
                                 tau_max=6.0, n_grid=1201))
        g, _ = g_closed(sol.taus, theta, params, consts)
        prod = sol.b_vals * g * np.exp(params.lam * sol.taus)
        want = (consts.spd_lin + theta * params.a1) * (params.lam / math.pi)
        assert np.max(np.abs(prod - want)) / abs(want) < 1e-10


def test_theta_derivatives_match_finite_differences(defaults):
    params, consts = defaults
    eps = 1e-5
    base = OdeInputs(theta=0.0, params=params, consts=consts,
                     tau_max=8.0, n_grid=1601)
    sol = abc_eval(base)
    plus = abc_eval(OdeInputs(theta=eps, params=params, consts=consts,
                              tau_max=8.0, n_grid=1601))
    minus = abc_eval(OdeInputs(theta=-eps, params=params, consts=consts,
                               tau_max=8.0, n_grid=1601))
    for name, dname in (("a_vals", "da_vals"), ("b_vals", "db_vals"),
                        ("c_vals", "dc_vals")):
        fd = (getattr(plus, name) - getattr(minus, name)) / (2 * eps)
        dv = getattr(sol, dname)
        rel = np.max(np.abs(fd - dv)) / np.max(np.abs(dv))
        assert rel < 1e-5, f"{dname}: {rel:.2e}"


# da, db, dc at tau = k / lam, k = 1, 10, 20, 30, for the defaults with
# a0 = 0.3 and a1 = -0.4 at theta = 0: mp.diff in theta of the closed-form
# a, b and c (Bessel coefficients and the integral I through h / g, all
# at 40 digits), rounded to 30 digits
_LONG_TILT = {
    "bessel": (
        (1, 2.70684417150503477812612325364e-1,
         8.93017616893641041023724916367e-2,
         4.83956449180655633892030840087e-1),
        (10, 4.95255201152659228494714056651e-9,
         1.75204745404019298259225712414e-5,
         5.35809816710227878852605548056e-1),
        (20, 1.02082794805145277747311979885e-17,
         7.9544035524257859003407761664e-10,
         5.3580981766409969197664177217e-1),
        (30, 2.1040832259038664151060909185e-26,
         3.61129362830693774945389363602e-14,
         5.35809817664099693942757787577e-1)),
    "forcing_vanishes": (
        (1, 1.8430979590932580537005686182e-1,
         1.17482903808186415217317858837e-1,
         4.75821086564504894276071244756e-1),
        (10, 2.65951016804322624979941711711e-9,
         1.77203318878991549865039400593e-5,
         5.19838550302302560781235758351e-1),
        (20, 5.48165901232765798324577850041e-18,
         8.04501825180450247258629852239e-10,
         5.19838550991113021876551180399e-1),
        (30, 1.12985413302321193541489440026e-26,
         3.65243263569833083430908744152e-14,
         5.19838550991113023296295357992e-1)),
}


@pytest.mark.parametrize("case", sorted(_LONG_TILT))
def test_tilt_derivatives_at_long_maturities(case):
    # da ~ e^{-2 lam tau} falls far below the RK45 tolerances of
    # abc_numeric, so only fixed high-precision values pin it there
    params = replace(build_defaults()[0], a0=0.3, a1=-0.4)
    consts = (derive_constants(params) if case == "bessel"
              else dynastyprice.limit_constants(params))
    for k, *want in _LONG_TILT[case]:
        sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                                 tau_max=k / params.lam, n_grid=2))
        got = (sol.da_vals[-1], sol.db_vals[-1], sol.dc_vals[-1])
        for name, g, w in zip(("da", "db", "dc"), got, want):
            assert g == pytest.approx(w, rel=1e-13, abs=0.0), (name, k)


def test_c_increments_track_integrand_sign(defaults):
    params, consts = defaults
    sol = abc_eval(OdeInputs(theta=0.0, params=params, consts=consts,
                             tau_max=10.0, n_grid=2001))
    f = 0.5 * (sol.a_vals + sol.b_vals ** 2)
    inc = np.diff(sol.c_vals)
    pos = (f[:-1] >= 0) & (f[1:] >= 0)
    assert np.all(inc[pos] >= -1e-15)


def test_g_derivs_uses_two_fused_bessel_passes(defaults, monkeypatch):
    from dynastyprice import bessel, odes
    params, consts = defaults
    args = []
    fused = bessel.jy_scaled

    def counted(z):
        args.append(np.asarray(z))
        return fused(z)

    monkeypatch.setattr(bessel, "jy_scaled", counted)
    abc_eval(OdeInputs(theta=0.1, params=params, consts=consts,
                       tau_max=40.0, n_grid=4001))
    assert len(args) == 2
    odes._g_derivs(np.linspace(0.0, 5.0, 11), 0.0, params, consts)
    assert len(args) == 4
    assert max(float(np.max(z)) for z in args) <= math.sqrt(2.0)


def test_bessel_argument_bounded_over_admissible_box():
    # z0 = 2 sqrt(age_norm / lam) = 2 / sqrt(1 + eps lam) <= sqrt(2)
    # whenever lam * eps >= 1 (lam a power of two: eps lam = 1 exactly)
    for lam in 2.0 ** np.arange(-7, 8):
        for eps in np.geomspace(1.0, 1e4, 9) / lam:
            p = replace(build_defaults()[0], lam=float(lam),
                        epsilon=float(eps))
            consts = derive_constants(p)
            z0 = 2.0 * math.sqrt(consts.age_norm / consts.lam)
            assert 0.0 < z0 <= math.sqrt(2.0) * (1.0 + 1e-15)
