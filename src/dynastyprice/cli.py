"""Command-line surface: pricing queries, calibration, comparative-statics
sweeps, the volatility surface, and the validation suites.  All output is
CSV (figures are emitted as data, plotting happens elsewhere).

Exit codes: 0 success, 1 validation failure, 2 usage or config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .calibration import (CalibrationTarget, NoPositiveRootError,
                          build_defaults, expected_rate, solve_gamma)
from .model import (InvalidParamsError, MarketState, ModelParams,
                    NumericalError, derive_constants, short_rate)
from .pricing import (DivergentIntegralError, bond_price, run_sweep,
                      stock_price, volatility_grid)
from .validate import SUITES, run_suite

PARAM_KEYS = ("a0", "a1", "a2", "lambda", "rho", "epsilon", "gamma_agg",
              "alpha_mean")
CONFIG_KEYS = PARAM_KEYS + ("x", "u", "seed")

SWEEP_PARAMS = ("lambda", "epsilon", "rho", "alpha_mean", "gamma_agg")


class ConfigError(ValueError):
    pass


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def _steps(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _default_config() -> dict:
    params, state = build_defaults()
    cfg = {"a0": params.a0, "a1": params.a1, "a2": params.a2,
           "lambda": params.lam, "rho": params.rho,
           "epsilon": params.epsilon, "gamma_agg": params.gamma_agg,
           "alpha_mean": params.alpha_mean, "x": state.x, "u": state.u,
           "seed": None}
    return cfg


def _parse_assignment(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise ConfigError(f"expected key=value, got {text!r}")
    key, _, value = text.partition("=")
    key = key.strip()
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown key {key!r}; valid: {', '.join(CONFIG_KEYS)}")
    return key, value.strip()


def _coerce(key: str, value: str):
    try:
        return int(value) if key == "seed" else float(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def load_config(args) -> dict:
    """Defaults, then config file, then --set overrides.

    Seed precedence: --seed beats an explicit config seed, which beats
    the DYNASTY_SEED environment variable; with none of them the seed is
    None, and each validate suite draws at its criterion's seed.
    """
    cfg = _default_config()
    seed_configured = False
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                for raw in fh:
                    line = raw.strip()
                    if not line or line.startswith("#"):
                        continue
                    key, value = _parse_assignment(line)
                    cfg[key] = _coerce(key, value)
                    seed_configured = seed_configured or key == "seed"
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
    for item in getattr(args, "set", None) or []:
        key, value = _parse_assignment(item)
        cfg[key] = _coerce(key, value)
        seed_configured = seed_configured or key == "seed"
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    elif not seed_configured and os.environ.get("DYNASTY_SEED"):
        try:
            cfg["seed"] = int(os.environ["DYNASTY_SEED"])
        except ValueError as exc:
            raise ConfigError("DYNASTY_SEED must be an integer") from exc
    if cfg["seed"] is not None and cfg["seed"] < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg['seed']}")
    return cfg


def make_model(cfg: dict) -> tuple[ModelParams, MarketState]:
    params = ModelParams(a0=cfg["a0"], a1=cfg["a1"], a2=cfg["a2"],
                         lam=cfg["lambda"], rho=cfg["rho"],
                         epsilon=cfg["epsilon"], gamma_agg=cfg["gamma_agg"],
                         alpha_mean=cfg["alpha_mean"])
    return params, MarketState(x=cfg["x"], u=cfg["u"])


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _echo_columns(cfg: dict) -> tuple[str, str]:
    keys = PARAM_KEYS + ("x", "u")
    return ",".join(keys), ",".join(_fmt(cfg[k]) for k in keys)


def cmd_price(args) -> int:
    cfg = load_config(args)
    params, state = make_model(cfg)
    consts = derive_constants(params)
    report = stock_price(state, params, consts)
    head, row = _echo_columns(cfg)
    _emit([head + ",stock_price,tail_err,grid_err",
           row + f",{_fmt(report.stock)},{_fmt(report.integrand_tail)},"
                 f"{_fmt(report.grid_error)}"], args.out)
    return 0


def cmd_bond(args) -> int:
    cfg = load_config(args)
    params, state = make_model(cfg)
    consts = derive_constants(params)
    price = bond_price(state, args.tau, params, consts)
    head, row = _echo_columns(cfg)
    _emit([head + ",tau,bond_price",
           row + f",{_fmt(args.tau)},{_fmt(price)}"], args.out)
    return 0


def cmd_rate(args) -> int:
    cfg = load_config(args)
    params, state = make_model(cfg)
    consts = derive_constants(params)
    rate = short_rate(state, consts)
    if not np.isfinite(rate):
        raise DivergentIntegralError(f"rate not finite at x={state.x:.6g}")
    head, row = _echo_columns(cfg)
    _emit([head + ",rate", row + f",{_fmt(rate)}"], args.out)
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args)
    if not np.all(np.isfinite((args.lo, args.hi))):
        raise ConfigError("sweep ends must be finite")
    values = np.linspace(args.lo, args.hi, args.steps)
    # the swept key's configured value is never priced, so it is not checked
    params, state = make_model({**cfg, args.param: float(values[0])})
    reports = run_sweep("lam" if args.param == "lambda" else args.param,
                        values, params, state, hold_state=args.hold_state)
    lines = ["param,value,stock_price,tail_err,grid_err"]
    for value, rep in zip(values, reports):
        lines.append(f"{args.param},{_fmt(value)},{_fmt(rep.stock)},"
                     f"{_fmt(rep.integrand_tail)},{_fmt(rep.grid_error)}")
    _emit(lines, args.out)
    return 0


def cmd_volsurf(args) -> int:
    cfg = load_config(args)
    params, _ = make_model(cfg)
    consts = derive_constants(params)
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
    cfg = load_config(args)
    rows = run_suite(args.suite, seed=cfg["seed"], fast=args.fast)
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

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a single config key (repeatable)")
        p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("price", help="stock price at the configured state")
    common(p)
    p.set_defaults(fn=cmd_price)

    p = sub.add_parser("bond", help="zero-coupon bond price")
    common(p)
    p.add_argument("--tau", type=float, required=True, help="maturity >= 0")
    p.set_defaults(fn=cmd_bond)

    p = sub.add_parser("rate", help="instantaneous riskless rate")
    common(p)
    p.set_defaults(fn=cmd_rate)

    p = sub.add_parser("sweep", help="stock price along a parameter grid")
    common(p)
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--from", dest="lo", type=float, required=True)
    p.add_argument("--to", dest="hi", type=float, required=True)
    p.add_argument("--steps", type=_steps, required=True)
    p.add_argument("--hold-state", action="store_true",
                   help="keep (x, u) fixed even for lambda/epsilon sweeps")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("volsurf", help="h_x/S on an (x, u) grid")
    common(p)
    p.add_argument("--x-from", type=float, default=1.2)
    p.add_argument("--x-to", type=float, default=2.0)
    p.add_argument("--x-steps", type=_steps, default=10)
    p.add_argument("--u-from", type=float, default=5.0)
    p.add_argument("--u-to", type=float, default=10.0)
    p.add_argument("--u-steps", type=_steps, default=10)
    p.set_defaults(fn=cmd_volsurf)

    p = sub.add_parser("calibrate", help="solve the rate-matching cubic")
    p.add_argument("--risk-aversion", type=float, default=2.0)
    p.add_argument("--target-rate", type=float, default=0.01)
    p.add_argument("--lam", type=float, default=2.0)
    p.add_argument("--rho", type=float, default=0.04)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("validate", help="run a verification suite")
    common(p)
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed of the Monte Carlo suites (fallback: "
                        "DYNASTY_SEED; default: each criterion's seed)")
    p.add_argument("--fast", action="store_true",
                   help="smaller Monte Carlo sizes for smoke runs")
    p.set_defaults(fn=cmd_validate)

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
