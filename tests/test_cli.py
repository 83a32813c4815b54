import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynastyprice
from dynastyprice import MarketState, derive_constants, short_rate
from dynastyprice.calibration import build_defaults
from dynastyprice.cli import CONFIG_KEYS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_fresh(argv):
    # a fresh interpreter with numpy's default error handling, so that any
    # RuntimeWarning reaches stderr
    src = str(Path(dynastyprice.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            f"from dynastyprice.cli import main; sys.exit(main({argv!r}))")
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)


def assert_one_stderr_line(run, code, prefix):
    assert run.returncode == code
    assert run.stdout == ""
    assert run.stderr.startswith(prefix)
    assert run.stderr.count("\n") == 1 and run.stderr.endswith("\n")


def test_price_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "price")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == ("a0,a1,a2,lambda,rho,epsilon,gamma_agg,alpha_mean,"
                        "x,u,stock_price,tail_err,grid_err")
    assert len(lines) == 2
    stock = float(lines[1].split(",")[10])
    assert stock == pytest.approx(1.05814777, rel=1e-6)


def test_bond_zero_maturity(capsys):
    code, out, _ = run_cli(capsys, "bond", "--tau", "0")
    assert code == 0
    assert out.strip().splitlines()[1].endswith(",0,1")


def test_rate_matches_library(capsys):
    code, out, _ = run_cli(capsys, "rate")
    params, state = build_defaults()
    want = short_rate(state, derive_constants(params))
    got = float(out.strip().splitlines()[1].split(",")[-1])
    assert code == 0
    assert got == pytest.approx(want, rel=1e-10)   # CSV carries 12 digits


def test_sweep_header_and_monotonicity(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--param", "rho",
                           "--from", "0.02", "--to", "0.08", "--steps", "7")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "param,value,stock_price,tail_err,grid_err"
    stocks = [float(l.split(",")[2]) for l in lines[1:]]
    assert all(a > b for a, b in zip(stocks, stocks[1:]))
    assert all(l.split(",")[0] == "rho" for l in lines[1:])


def test_sweep_rejects_unknown_param(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--param", "a0", "--from", "0", "--to", "1",
              "--steps", "3"])
    assert exc.value.code == 2


def test_volsurf_csv(capsys):
    code, out, _ = run_cli(capsys, "volsurf", "--x-steps", "3",
                           "--u-steps", "2")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "x,u,h_x_over_S"
    assert len(lines) == 7
    # row-major: x varies in the outer loop
    xs = [float(l.split(",")[0]) for l in lines[1:]]
    assert xs == sorted(xs)


def test_volsurf_single_point_matches_volatility(capsys):
    from dynastyprice import volatility
    params, state = build_defaults()
    consts = derive_constants(params)
    code, out, _ = run_cli(capsys, "volsurf",
                           "--x-from", "2.01", "--x-to", "2.01",
                           "--x-steps", "1",
                           "--u-from", "1.43", "--u-to", "1.43",
                           "--u-steps", "1")
    got = float(out.strip().splitlines()[1].split(",")[2])
    want = volatility(MarketState(2.01, 1.43), params, consts)
    assert code == 0
    assert got == pytest.approx(want, rel=1e-5)


def test_calibrate_output(capsys):
    code, out, _ = run_cli(capsys, "calibrate")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "gamma,a,rate_residual"
    gamma, a, resid = (float(v) for v in lines[1].split(","))
    assert 0.490 <= gamma <= 0.498
    assert 2.005 <= a <= 2.015
    assert abs(resid) < 1e-10


def test_config_file_and_set(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nrho=0.05\nx=1.5\n")
    code, out, _ = run_cli(capsys, "rate", "--config", str(cfg),
                           "--set", "u=0.0")
    row = out.strip().splitlines()[1].split(",")
    assert code == 0
    assert float(row[4]) == 0.05 and float(row[8]) == 1.5 and float(row[9]) == 0.0


def test_unknown_key_rejected(capsys):
    code, _, err = run_cli(capsys, "price", "--set", "bogus=1")
    assert code == 2
    assert "unknown key" in err


def test_bad_value_rejected(capsys):
    code, _, err = run_cli(capsys, "price", "--set", "rho=fast")
    assert code == 2


def test_invalid_params_exit_config(capsys):
    # lam * epsilon < 1 violates the age-density invariant
    code, _, err = run_cli(capsys, "price", "--set", "epsilon=0.2")
    assert code == 2


def test_numerical_failure_exit(capsys):
    # a2 < 0 drives the exponent root through zero: degenerate-g
    code, _, err = run_cli(capsys, "price", "--set", "a2=-5")
    assert code == 3
    assert "numerical failure" in err


def test_degenerate_g_names_where_g_vanishes(capsys):
    # a2 = -5 puts the pole of a between the maturities 0.01 (priced) and
    # 30: the two-node grid [0, 30] fails only at 30, and the message
    # names where g first drops below the floor
    code, out, _ = run_cli(capsys, "bond", "--tau", "0.01", "--set", "a2=-5")
    assert code == 0
    assert math.isfinite(float(out.splitlines()[1].split(",")[-1]))
    code, _, err = run_cli(capsys, "bond", "--tau", "30", "--set", "a2=-5")
    assert code == 3
    tau = float(re.search(r"from tau = (\S+) ", err).group(1))
    assert 0.01 < tau <= 0.5
    assert "g(30) = -0.255" in err


def test_price_finite_at_small_rho(capsys):
    # tau_max = 10/rho = 1000 takes the Bessel argument into subnormals
    code, out, _ = run_cli(capsys, "price", "--set", "rho=0.01")
    stock = float(out.strip().splitlines()[1].split(",")[10])
    assert code == 0
    assert math.isfinite(stock)
    # the independent reference (benchmarks/reference.py) at these inputs
    assert stock == pytest.approx(2.113562353491, rel=1e-8)


def test_csv_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--param", "gamma_agg", "--from", "0.4", "--to",
                 "0.6", "--steps", "3", "--out", str(out1)]) == 0
    assert main(["sweep", "--param", "gamma_agg", "--from", "0.4", "--to",
                 "0.6", "--steps", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_validate_bessel_suite(capsys):
    code, out, _ = run_cli(capsys, "validate", "--suite", "bessel")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "suite,check,value,tolerance,status"
    assert all(l.endswith(",pass") for l in lines[1:])


def test_validate_failing_row_exits_1(monkeypatch, capsys):
    from dynastyprice import cli
    from dynastyprice.validate import CheckResult
    row = CheckResult("bessel", "forced", 2.0, 1.0, False)
    monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: [row])
    code, out, err = run_cli(capsys, "validate", "--suite", "bessel")
    assert code == 1
    assert out.splitlines()[1].startswith("bessel,forced,")
    assert out.splitlines()[1].endswith(",FAIL")
    assert err == ""


def test_validate_defaults_to_the_criterion_seed(capsys):
    # without --seed the Monte Carlo suites draw at their criterion's
    # seed (42 for aggregation, criterion 8)
    code, bare, _ = run_cli(capsys, "validate", "--suite", "aggregation")
    assert code == 0
    assert run_cli(capsys, "validate", "--suite", "aggregation",
                   "--seed", "42")[1] == bare


@pytest.mark.parametrize("argv", [
    ["price", "--set", "x=nan"],
    ["price", "--set", "u=inf"],
    ["price", "--set", "alpha_mean=nan"],
    ["price", "--set", "a1=nan"],
    ["price", "--set", "epsilon=inf"],
    ["rate", "--set", "x=nan"],
    ["bond", "--tau", "inf"],
    ["volsurf", "--x-steps", "0"],
    ["volsurf", "--u-steps", "0"],
    ["volsurf", "--x-steps", "-2"],
    ["sweep", "--param", "rho", "--from", "0.02", "--to", "0.08",
     "--steps", "-1"],
    ["calibrate", "--lam", "0.4"],
    ["calibrate", "--target-rate", "inf"],
    ["calibrate", "--rho", "nan"],
    ["calibrate", "--lam", "1e300"],
    ["volsurf", "--u-from", "-1", "--u-to", "1", "--u-steps", "2",
     "--x-steps", "1"],
    ["validate", "--suite", "bessel", "--seed", "-1"],
    ["validate", "--suite", "bessel", "--set", "seed=-1"],
    ["price", "--seed", "1"],
], ids=" ".join)
def test_bad_input_exits_config(capsys, argv):
    # non-finite values, empty grids and options a command does not take
    # (only validate draws, so only it takes --seed) exit 2, whether the
    # parser (SystemExit) or the command (return code) rejects them
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["validate", "--suite", "bessel", "--set", "a2=-5"],
    ["validate", "--suite", "bessel", "--config", "F"],
    ["price", "--set", "seed=3"],
    ["bond", "--tau", "1", "--config", "F"],
], ids=" ".join)
def test_command_rejects_inputs_it_does_not_read(tmp_path, capsys, argv):
    # validate reads no model key, and only validate --seed sets a seed:
    # neither is accepted and then dropped
    cfg = tmp_path / "F"
    cfg.write_text("seed=1\n")
    argv = [str(cfg) if a == "F" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["price", "--out", "MISSING"],
    ["calibrate", "--out", "MISSING"],
    ["validate", "--suite", "calibration", "--out", "MISSING"],
    ["price", "--config", "BINARY"],
], ids=" ".join)
def test_unusable_file_exits_config(tmp_path, capsys, argv):
    # exit 1 means a failed check, so an --out file that cannot be written
    # or a config that is not text is a config error, not a traceback
    binary = tmp_path / "run.cfg"
    binary.write_bytes(b"\xff\xferho=0.05\n")
    files = {"MISSING": str(tmp_path / "missing" / "x.csv"),
             "BINARY": str(binary)}
    code = main([files.get(a, a) for a in argv])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("config error: ") and out.err.count("\n") == 1


def test_readme_lists_the_config_keys():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    keys = re.search(r"keys are\s+`([^`]+)`", readme.read_text()).group(1)
    assert tuple(keys.split()) == CONFIG_KEYS


@pytest.mark.parametrize("argv", [
    ["price", "--set", "x=1e200"],
    ["volsurf", "--x-from", "1e200", "--x-to", "1e200", "--x-steps", "1",
     "--u-steps", "1"],
], ids=" ".join)
def test_overflowing_state_exits_numerical(capsys, argv):
    # a finite state whose integrand overflows is a numerical failure,
    # not a NaN price
    with np.errstate(all="ignore"):
        code = main(argv)
    out = capsys.readouterr()
    assert code == 3
    assert out.out == ""
    assert "numerical failure" in out.err


@pytest.mark.parametrize("argv", [
    ["price", "--set", "x=1e200"],
    ["price", "--set", "x=-60"],
    ["volsurf", "--x-from", "1e200", "--x-to", "1e200", "--x-steps", "1",
     "--u-steps", "1"],
    ["price", "--set", "epsilon=1e300"],
    ["price", "--set", "alpha_mean=1e200"],
    ["rate", "--set", "x=1e200"],
    ["bond", "--tau", "1", "--set", "x=1e200"],
], ids=" ".join)
def test_overflowing_state_prints_one_stderr_line(argv):
    # the failure is reported on one line, without RuntimeWarnings ahead
    # of it, and a non-finite result is never printed as a success
    assert_one_stderr_line(run_fresh(argv), 3, "numerical failure: ")


def test_numerical_errors_share_one_base():
    # cli.main maps NumericalError to exit 3
    from dynastyprice.beliefs import AgeExceedsPathError
    from dynastyprice.model import NumericalError
    from dynastyprice.odes import DegenerateGError, StepSizeUnderflowError
    from dynastyprice.oracles import OverflowGuardError
    from dynastyprice.pricing import (DivergentIntegralError,
                                      QuadratureToleranceError)
    for cls in (DegenerateGError, StepSizeUnderflowError,
                DivergentIntegralError, QuadratureToleranceError,
                OverflowGuardError, AgeExceedsPathError):
        assert issubclass(cls, NumericalError), cls.__name__


def test_volsurf_infinite_axis_end_prints_one_stderr_line():
    # checked before linspace, which would warn on the infinite step
    argv = ["volsurf", "--u-to", "inf", "--x-steps", "2", "--u-steps", "2"]
    assert_one_stderr_line(run_fresh(argv), 2, "config error: ")


def test_sweep_infinite_end_prints_one_stderr_line():
    # checked before linspace, which would warn on the infinite step
    argv = ["sweep", "--param", "rho", "--from", "0.02", "--to", "inf",
            "--steps", "3"]
    assert_one_stderr_line(run_fresh(argv), 2, "config error: ")


def test_validate_age_past_path_exits_numerical():
    # at population 100,000 seed 1459 samples a dynasty age beyond the
    # 10-unit burn-in path: a numerical failure on one stderr line, not a
    # traceback with the exit code of a failed check
    argv = ["validate", "--suite", "aggregation", "--seed", "1459"]
    assert_one_stderr_line(run_fresh(argv), 3, "numerical failure: ")
