"""Command-line surface: pricing queries, calibration, comparative-statics
sweeps, the volatility surface, and the validation suites.  All output is
CSV (figures are emitted as data, plotting happens elsewhere).

Each command takes only the inputs it reads: the pricing commands read
the model keys CONFIG_KEYS from --config and --set, calibrate its four
target flags, and validate --suite, --seed and --fast.  All take --out.

Exit codes: 0 success, 1 validation failure, 2 usage or config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from .calibration import (CalibrationTarget, NoPositiveRootError,
                          build_defaults, expected_rate, solve_gamma)
from .model import (InvalidParamsError, MarketState, ModelParams,
                    NumericalError, derive_constants, short_rate)
from .pricing import (DivergentIntegralError, bond_price, run_sweep,
                      stock_price, volatility_grid)
from .validate import SUITES, run_suite

# config key -> ModelParams field; the keys spell lam as lambda
_FIELDS = {("lambda" if f.name == "lam" else f.name): f.name
           for f in fields(ModelParams)}
CONFIG_KEYS = tuple(_FIELDS) + ("x", "u")

SWEEP_PARAMS = ("lambda", "epsilon", "rho", "alpha_mean", "gamma_agg")


class ConfigError(ValueError):
    pass


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def _int_at_least(lo: int):
    def integer(text: str) -> int:   # argparse names it in its errors
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {n}")
        return n
    return integer


def _default_config() -> dict:
    params, state = build_defaults()
    return {**{k: getattr(params, f) for k, f in _FIELDS.items()},
            "x": state.x, "u": state.u}


def _assign(cfg: dict, text: str) -> None:
    if "=" not in text:
        raise ConfigError(f"expected key=value, got {text!r}")
    key, _, value = text.partition("=")
    key, value = key.strip(), value.strip()
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown key {key!r}; valid: {', '.join(CONFIG_KEYS)}")
    try:
        cfg[key] = float(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def load_config(args) -> dict:
    """Defaults, then the --config file, then --set overrides."""
    cfg = _default_config()
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                lines = [line.strip() for line in fh]
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        for line in lines:
            if line and not line.startswith("#"):
                _assign(cfg, line)
    for item in args.set or []:
        _assign(cfg, item)
    return cfg


def make_model(cfg: dict) -> tuple[ModelParams, MarketState]:
    params = ModelParams(**{f: cfg[k] for k, f in _FIELDS.items()})
    return params, MarketState(x=cfg["x"], u=cfg["u"])


def _model(args, **override):
    """(cfg, params, state, consts) from the config, with ``override``."""
    cfg = {**load_config(args), **override}
    params, state = make_model(cfg)
    return cfg, params, state, derive_constants(params)


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def _emit_echo(cfg: dict, names: tuple, values: tuple, out_path) -> None:
    """A header and one row: the model inputs, then ``names``."""
    _emit([",".join(CONFIG_KEYS + names),
           ",".join(_fmt(v) for v in [cfg[k] for k in CONFIG_KEYS] + list(values))],
          out_path)


def cmd_price(args) -> int:
    cfg, params, state, consts = _model(args)
    report = stock_price(state, params, consts)
    _emit_echo(cfg, ("stock_price", "tail_err", "grid_err"),
               (report.stock, report.integrand_tail, report.grid_error),
               args.out)
    return 0


def cmd_bond(args) -> int:
    cfg, params, state, consts = _model(args)
    price = bond_price(state, args.tau, params, consts)
    _emit_echo(cfg, ("tau", "bond_price"), (args.tau, price), args.out)
    return 0


def cmd_rate(args) -> int:
    cfg, _, state, consts = _model(args)
    rate = short_rate(state, consts)
    if not np.isfinite(rate):
        raise DivergentIntegralError(f"rate not finite at x={state.x:.6g}")
    _emit_echo(cfg, ("rate",), (rate,), args.out)
    return 0


def cmd_sweep(args) -> int:
    if not np.all(np.isfinite((args.lo, args.hi))):
        raise ConfigError("sweep ends must be finite")
    values = np.linspace(args.lo, args.hi, args.steps)
    # the swept key's configured value is never priced, so it is not checked
    _, params, state, _ = _model(args, **{args.param: float(values[0])})
    reports = run_sweep(_FIELDS[args.param], values, params, state,
                        hold_state=args.hold_state)
    lines = ["param,value,stock_price,tail_err,grid_err"]
    for value, rep in zip(values, reports):
        lines.append(f"{args.param},{_fmt(value)},{_fmt(rep.stock)},"
                     f"{_fmt(rep.integrand_tail)},{_fmt(rep.grid_error)}")
    _emit(lines, args.out)
    return 0


def cmd_volsurf(args) -> int:
    _, params, _, consts = _model(args)
    ends = (args.x_from, args.x_to, args.u_from, args.u_to)
    if not np.all(np.isfinite(ends)):
        raise ConfigError("volsurf axis ends must be finite")
    xs = np.linspace(args.x_from, args.x_to, args.x_steps)
    us = np.linspace(args.u_from, args.u_to, args.u_steps)
    grid = volatility_grid(xs, us, params, consts)
    lines = ["x,u,h_x_over_S"]
    for i, xv in enumerate(xs):
        for j, uv in enumerate(us):
            lines.append(f"{_fmt(xv)},{_fmt(uv)},{_fmt(grid[i, j])}")
    _emit(lines, args.out)
    return 0


def cmd_calibrate(args) -> int:
    target = CalibrationTarget(risk_aversion=args.risk_aversion,
                               expected_rate=args.target_rate,
                               lam=args.lam, rho=args.rho)
    gamma, a = solve_gamma(target)
    resid = expected_rate(gamma, a, target.lam, target.rho) - target.expected_rate
    _emit(["gamma,a,rate_residual",
           f"{_fmt(gamma)},{_fmt(a)},{_fmt(resid)}"], args.out)
    return 0


def cmd_validate(args) -> int:
    rows = run_suite(args.suite, seed=args.seed, fast=args.fast)
    lines = ["suite,check,value,tolerance,status"]
    for r in rows:
        lines.append(f"{r.suite},{r.check},{_fmt(r.value)},{_fmt(r.tolerance)},"
                     f"{'pass' if r.passed else 'FAIL'}")
    _emit(lines, args.out)
    return 0 if all(r.passed for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynastyprice",
        description="Prices and diagnostics for the dynasty-beliefs economy")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, model=True):
        p = sub.add_parser(name, help=help)
        if model:
            p.add_argument("--config", help="key=value config file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override a single config key (repeatable)")
        p.add_argument("--out", help="write CSV here instead of stdout")
        p.set_defaults(fn=fn)
        return p

    command("price", cmd_price, "stock price at the configured state")
    p = command("bond", cmd_bond, "zero-coupon bond price")
    p.add_argument("--tau", type=float, required=True, help="maturity >= 0")
    command("rate", cmd_rate, "instantaneous riskless rate")

    p = command("sweep", cmd_sweep, "stock price along a parameter grid")
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--from", dest="lo", type=float, required=True)
    p.add_argument("--to", dest="hi", type=float, required=True)
    p.add_argument("--steps", type=_int_at_least(1), required=True)
    p.add_argument("--hold-state", action="store_true",
                   help="keep (x, u) fixed even for lambda/epsilon sweeps")

    p = command("volsurf", cmd_volsurf, "h_x/S on an (x, u) grid")
    p.add_argument("--x-from", type=float, default=1.2)
    p.add_argument("--x-to", type=float, default=2.0)
    p.add_argument("--x-steps", type=_int_at_least(1), default=10)
    p.add_argument("--u-from", type=float, default=5.0)
    p.add_argument("--u-to", type=float, default=10.0)
    p.add_argument("--u-steps", type=_int_at_least(1), default=10)

    p = command("calibrate", cmd_calibrate, "solve the rate-matching cubic",
                model=False)
    p.add_argument("--risk-aversion", type=float, default=2.0)
    p.add_argument("--target-rate", type=float, default=0.01)
    p.add_argument("--lam", type=float, default=2.0)
    p.add_argument("--rho", type=float, default=0.04)

    p = command("validate", cmd_validate, "run a verification suite",
                model=False)
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--seed", type=_int_at_least(0), default=None,
                   help="RNG seed of the Monte Carlo suites "
                        "(default: each criterion's seed)")
    p.add_argument("--fast", action="store_true",
                   help="smaller Monte Carlo sizes for smoke runs")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InvalidParamsError, NoPositiveRootError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
