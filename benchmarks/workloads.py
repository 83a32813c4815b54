"""Inputs, operations and correctness checks of the three workloads.

A workload is a list of rounds; a round is a fixed list of operations
whose inputs come from (seed, round index) alone.  Runs always execute
whole rounds, so every run attempts the same mix of operations.

Each operation is a callable taking no arguments and returning its raw
outputs; the matching check compares those outputs with the independent
reference in ``reference.py`` (or with a property the method must have)
after the clock has stopped, and returns a status and the accuracy
figures reached, named as the per-layer metrics that report them: "ok"; "inaccurate", outside the stated accuracy, which
counts the operation as failed; or "wrong", a non-finite or malformed
output returned as a success, which makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.stats import qmc

import reference as ref
from dynastyprice import cli, model, oracles, ou, pricing

MATURITIES = (0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0)

# Stated accuracy per output (README, "Stated accuracy").
STOCK_REL_TOL = 1e-6
BOND_REL_TOL = 1e-8
VOL_ABS_TOL = 5e-6
DRIFT_ABS_TOL = 1e-5
RATE_REL_TOL = 1e-12
SURFACE_ABS_TOL = 1e-4
MC_STOCK_REL_BAND = 0.02
Z_BAND = 3.0

# quote: each round takes the next 8 points of a scrambled Sobol sequence
# over the box, so every round covers the box evenly
QUOTE_ROUND = 8
QUOTE_BOX = (("lam", 1.0, 2.5), ("rho", 0.04, 0.08), ("eps_frac", 0.0, 1.0),
             ("gamma_agg", 0.3, 0.7), ("alpha_mean", 1.5, 2.5),
             ("x", 1.5, 2.5), ("u_factor", 0.5, 1.5), ("a_star", 1.5, 2.5))

# surface: (parameter overrides, x steps, u steps), one op each per round
SURFACE_SLOTS = (
    ({}, 10, 10),
    ({"lambda": 2.5, "epsilon": 0.6, "rho": 0.05}, 20, 5),
    ({"lambda": 1.2, "rho": 0.06}, 40, 3),
)

# verify: oracle streams come from a fixed pool of keys (README)
VERIFY_POOL = 8


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, dict]]


OK, INACCURATE, WRONG = "ok", "inaccurate", "wrong"


def _status(within: bool) -> str:
    return OK if within else INACCURATE


def _below(value: float, limit: float, name: str) -> tuple[str, dict]:
    """Status of a statistic that must be finite and below ``limit``."""
    if not math.isfinite(value):
        return WRONG, {}
    return _status(value < limit), {name: value}


def _params(kw: dict) -> tuple[model.ModelParams, ref.Params]:
    return model.ModelParams(**kw), ref.Params(**kw)


# ---------------------------------------------------------------- quote

def _quote_inputs(point: np.ndarray) -> dict:
    v = {name: lo + (hi - lo) * t
         for (name, lo, hi), t in zip(QUOTE_BOX, point)}
    lam = v["lam"]
    kw = dict(a0=0.0, a1=0.0, a2=1.0, lam=lam, rho=v["rho"],
              epsilon=1.0 / lam + (2.0 - 1.0 / lam) * v["eps_frac"],
              gamma_agg=v["gamma_agg"], alpha_mean=v["alpha_mean"])
    u = ref.stationary_u(ref.Params(**kw), v["x"]) * v["u_factor"]
    return dict(kw=kw, x=v["x"], u=u, a_star=v["a_star"])


def quote_op(inp: dict) -> Op:
    mp, rp = _params(inp["kw"])
    x, u, a_star = inp["x"], inp["u"], inp["a_star"]

    def run():
        consts = model.derive_constants(mp)
        state = model.MarketState(x, u)
        report = pricing.stock_price(state, mp, consts)
        vol = pricing.volatility(state, mp, consts)
        drift = pricing.drift_star(state, a_star, mp, consts)
        rate = model.short_rate(state, consts)
        bonds = [pricing.bond_price(state, m, mp, consts) for m in MATURITIES]
        return report, vol, drift, rate, bonds

    def check(out):
        report, vol, drift, rate, bonds = out
        if not all(math.isfinite(v)
                   for v in (report.stock, vol, drift, rate, *bonds)):
            return WRONG, {}
        q = ref.quotes(rp, [x], [u], MATURITIES)
        s_ref, sx_ref = float(q.stock[0]), float(q.stock_x[0])
        drift_ref = ref.drift_star(rp, x, u, a_star, s_ref, sx_ref)
        rate_ref = ref.short_rate(rp, x, u)
        acc = {
            "pricing.stock_rel_err": abs(report.stock - s_ref) / s_ref,
            "pricing.vol_abs_err": abs(vol - float(q.vol[0])),
            "pricing.drift_abs_err": abs(drift - drift_ref),
            "pricing.bond_rel_err": max(abs(b / r - 1.0)
                                for b, r in zip(bonds, q.bonds[0])),
            "pricing.rate_rel_err": abs(rate - rate_ref) / max(abs(rate_ref), 1e-300),
        }
        reported = report.integrand_tail + report.grid_error
        acc["pricing.err_over_reported"] = abs(report.stock - s_ref) / reported
        return _status(acc["pricing.stock_rel_err"] <= STOCK_REL_TOL
                       and acc["pricing.vol_abs_err"] <= VOL_ABS_TOL
                       and acc["pricing.drift_abs_err"] <= DRIFT_ABS_TOL
                       and acc["pricing.bond_rel_err"] <= BOND_REL_TOL
                       and acc["pricing.rate_rel_err"] <= RATE_REL_TOL), acc

    return Op("quote", run, check)


def quote_round(seed: int, r: int) -> list[Op]:
    sobol = qmc.Sobol(d=len(QUOTE_BOX), scramble=True,
                      seed=np.random.default_rng(seed))
    m = math.ceil(math.log2(QUOTE_ROUND * (r + 1)))
    points = sobol.random_base2(m)[QUOTE_ROUND * r:QUOTE_ROUND * (r + 1)]
    return [quote_op(_quote_inputs(p)) for p in points]


# -------------------------------------------------------------- surface

def surface_op(overrides: dict, x_from: float, u_from: float,
               nx: int, nu: int) -> Op:
    kw = dict(ref.DEFAULTS)
    kw.update({"lam" if k == "lambda" else k: v for k, v in overrides.items()})
    _, rp = _params(kw)
    x_to, u_to = x_from + 0.8, u_from + 5.0
    argv = ["volsurf"]
    for k, v in overrides.items():
        argv += ["--set", f"{k}={v!r}"]
    argv += ["--x-from", repr(x_from), "--x-to", repr(x_to),
             "--x-steps", str(nx), "--u-from", repr(u_from),
             "--u-to", repr(u_to), "--u-steps", str(nu)]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"volsurf exited {code}")
        return buf.getvalue()

    def check(text):
        lines = text.strip().splitlines()
        if not lines or lines[0] != "x,u,h_x_over_S":
            return WRONG, {}
        try:
            rows = np.array([[float(v) for v in line.split(",")]
                             for line in lines[1:]])
        except ValueError:
            return WRONG, {}
        want = [(xv, uv) for xv in np.linspace(x_from, x_to, nx)
                for uv in np.linspace(u_from, u_to, nu)]
        # CSV carries 12 significant digits
        if (rows.shape != (nx * nu, 3) or not np.all(np.isfinite(rows))
                or not np.allclose(rows[:, :2], want, rtol=1e-11, atol=0.0)):
            return WRONG, {}
        # every cell, which includes the corners and the centre
        q = ref.quotes(rp, rows[:, 0], rows[:, 1])
        err = float(np.max(np.abs(rows[:, 2] - q.vol)))
        return _status(err <= SURFACE_ABS_TOL), {"pricing.surface_abs_err": err}

    return Op("surface", run, check)


def surface_round(seed: int, r: int) -> list[Op]:
    rng = np.random.default_rng([seed, r])
    return [surface_op(over, rng.uniform(1.1, 1.3), rng.uniform(4.5, 5.5),
                       nx, nu)
            for over, nx, nu in SURFACE_SLOTS]


# --------------------------------------------------------------- verify

MC_STOCK = dict(n_paths=10_000, dt=1e-3, horizon=8.0)
MC_V = dict(n_paths=100_000, dt=1e-3, tau=0.5)
XI_ETA = dict(n_paths=100, dt=5e-5, n_steps=200_000)
AGGREGATION = dict(population=100_000, dt=1e-4, burn_in=10.0)
MARTINGALE = dict(t_final=0.5, dt=1e-3, n_outer=100, n_inner=1000)


def verify_round(seed: int, r: int) -> list[Op]:
    key = (seed + r) % VERIFY_POOL
    return verify_ops(key)


def verify_ops(key: int) -> list[Op]:
    mp, rp = _params(ref.DEFAULTS)
    consts = model.derive_constants(mp)
    x = rp.alpha_mean
    state = model.MarketState(x, ref.stationary_u(rp, x))
    base = 1000 * (key + 1)

    def cfg(dt, seed, burn_in=10.0, n_paths=1, horizon=1.0):
        return oracles.OracleConfig(n_paths=n_paths, dt=dt, burn_in=burn_in,
                                    horizon=horizon, seed=seed)

    def run_mc_stock():
        c = MC_STOCK
        return oracles.mc_stock(state, mp, consts,
                                cfg(c["dt"], base + 1, n_paths=c["n_paths"],
                                    horizon=c["horizon"]))

    def check_mc_stock(est):
        if not math.isfinite(est.mean):
            return WRONG, {}
        s_ref = float(ref.quotes(rp, [state.x], [state.u]).stock[0])
        err = abs(est.mean - s_ref)
        band = max(MC_STOCK_REL_BAND * s_ref, Z_BAND * est.se)
        return _status(err <= band), {"oracles.mc_stock.rel_err": err / s_ref}

    def run_mc_v():
        c = MC_V
        return oracles.mc_v(state, c["tau"], 0.0, mp, consts,
                            cfg(c["dt"], base + 2, n_paths=c["n_paths"]))

    def check_mc_v(est):
        z = (est.mean - ref.transform(rp, state.x, MC_V["tau"])) / est.se
        return _below(abs(z), Z_BAND, "oracles.max_abs_z")

    def run_xi_eta():
        c = XI_ETA
        path = ou.simulate(ou.SimConfig(n_paths=c["n_paths"],
                                        n_steps=c["n_steps"], dt=c["dt"],
                                        seed=base + 3),
                           mp, consts, t0=-c["n_steps"] * c["dt"])
        return oracles.xi_eta_check(path)

    def check_xi_eta(out):
        xd, ed = out
        ratio = max(float(np.mean(xd)), float(np.mean(ed))) / (
            0.5 * math.sqrt(XI_ETA["dt"]))
        return _below(ratio, 1.0, "oracles.xi_eta.envelope_ratio")

    def run_aggregation():
        c = AGGREGATION
        return oracles.aggregation_check(
            mp, consts, cfg(c["dt"], base + 4, burn_in=c["burn_in"]),
            c["population"])

    def check_aggregation(out):
        return _below(abs(out[0]), Z_BAND, "oracles.max_abs_z")

    def run_martingale():
        c = MARTINGALE
        return oracles.martingale_check(c["t_final"], 0.0, mp, consts,
                                        cfg(c["dt"], base + 5),
                                        n_outer=c["n_outer"],
                                        n_inner=c["n_inner"])

    def check_martingale(z):
        return _below(z, Z_BAND, "oracles.max_abs_z")

    return [Op("mc_stock", run_mc_stock, check_mc_stock),
            Op("mc_v", run_mc_v, check_mc_v),
            Op("xi_eta", run_xi_eta, check_xi_eta),
            Op("aggregation", run_aggregation, check_aggregation),
            Op("martingale", run_martingale, check_martingale)]


ROUNDS = {"quote": quote_round, "surface": surface_round,
          "verify": verify_round}
