import pytest

from dynastyprice import DerivedConstants, OdeInputs, abc_numeric
from dynastyprice.calibration import build_defaults
from dynastyprice.odes import StepSizeUnderflowError
from dynastyprice.validate import SUITES, _check, run_suite, suite_appendix
from conftest import peak_bytes


def test_fast_suites_all_pass():
    rows = run_suite("all", seed=12345, fast=True)
    failing = [r for r in rows if not r.passed]
    assert not failing, failing
    assert {r.suite for r in rows} == set(SUITES) - {"all"}


def test_appendix_suite_holds_one_path_at_a_time():
    # each dt's path is released before the next one is simulated; the
    # largest path is the last: 30 paths x 200,001 steps of dt = 5e-5
    largest = 30 * 200_001 * 8
    rows = []
    peak = peak_bytes(lambda: rows.extend(suite_appendix(fast=True)))
    assert rows and all(r.passed for r in rows), rows
    assert peak < 1.5 * largest


def test_value_on_its_bound_fails():
    # rows compare strictly, as the acceptance criteria do
    assert not _check("s", "upper", 1e-8, 1e-8).passed
    assert not _check("s", "lower", 2.0, 2.0, larger_ok=True).passed
    assert _check("s", "upper", 0.99e-8, 1e-8).passed
    assert _check("s", "lower", 2.01, 2.0, larger_ok=True).passed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything")


def test_numeric_integrator_reports_pole():
    # a(0) above the unstable Riccati fixed point 2*lam blows up in
    # finite time; the cross-check integrator must fail loudly
    params, _ = build_defaults()
    flat = DerivedConstants(age_norm=0.0, spd_lin=0.0, spd_quad=3.0,
                            r0=0.0, r1=0.0, r2=0.0, lam=2.0)
    with pytest.raises(StepSizeUnderflowError):
        abc_numeric(OdeInputs(theta=0.0, params=params, consts=flat,
                              tau_max=5.0, n_grid=501))


def test_numeric_integrator_rejects_gap_near_pole():
    # short of the pole at ln(3)/4 ~ 0.275 the state stays finite, but
    # the step-doubling gap (8.6e-6 of dc's scale) exceeds RK4_TOL
    params, _ = build_defaults()
    flat = DerivedConstants(age_norm=0.0, spd_lin=0.0, spd_quad=3.0,
                            r0=0.0, r1=0.0, r2=0.0, lam=2.0)
    with pytest.raises(StepSizeUnderflowError, match="step-doubling gap"):
        abc_numeric(OdeInputs(theta=0.0, params=params, consts=flat,
                              tau_max=0.25, n_grid=101))
