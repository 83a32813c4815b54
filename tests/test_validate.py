import tracemalloc

import pytest

from dynastyprice import DerivedConstants, OdeInputs, abc_numeric
from dynastyprice.calibration import build_defaults
from dynastyprice.odes import StepSizeUnderflowError
from dynastyprice.validate import SUITES, run_suite, suite_appendix


def test_fast_suites_all_pass():
    rows = run_suite("all", seed=12345, fast=True)
    failing = [r for r in rows if not r.passed]
    assert not failing, failing
    assert {r.suite for r in rows} == set(SUITES) - {"all"}


def test_appendix_suite_holds_one_path_at_a_time():
    # each dt's path is released before the next one is simulated; the
    # largest path is the last: 30 paths x 200,001 steps of dt = 5e-5
    largest = 30 * 200_001 * 8
    tracemalloc.start()
    try:
        rows = suite_appendix(fast=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in rows), rows
    assert peak < 1.5 * largest


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
