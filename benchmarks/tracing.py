"""Spans around calls into each layer of dynastyprice, from outside it.

Each public function a workload reaches is wrapped where its caller looks
it up: ``odes`` calls the Bessel functions through the ``bessel`` module,
while ``pricing``, ``oracles`` and ``cli`` import ``abc_eval``,
``simulate``, ``aggregate_log_lambda`` and ``volatility_grid`` by name.
Spans are kept in memory; a layer's self time is its spans' durations
minus the time covered by their child spans.  Counts come from the
arguments and results of the wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

# (module whose attribute is patched, attribute, layer)
PATCHES = (
    ("bessel", "j1", "bessel"), ("bessel", "j2", "bessel"),
    ("bessel", "y1", "bessel"), ("bessel", "y2", "bessel"),
    ("bessel", "y1_scaled", "bessel"), ("bessel", "y2_scaled", "bessel"),
    ("pricing", "abc_eval", "odes"), ("oracles", "abc_eval", "odes"),
    ("pricing", "stock_price", "pricing"), ("pricing", "volatility", "pricing"),
    ("pricing", "drift_star", "pricing"), ("pricing", "bond_price", "pricing"),
    ("cli", "volatility_grid", "pricing"), ("cli", "stock_price", "pricing"),
    ("cli", "bond_price", "pricing"),
    ("cli", "main", "cli"),
    ("ou", "simulate", "ou"), ("oracles", "simulate", "ou"),
    ("oracles", "mc_stock", "oracles"), ("oracles", "mc_v", "oracles"),
    ("oracles", "xi_eta_check", "oracles"),
    ("oracles", "aggregation_check", "oracles"),
    ("oracles", "martingale_check", "oracles"),
    ("oracles", "aggregate_log_lambda", "beliefs"),
)
LAYERS = ("bessel", "odes", "pricing", "cli", "ou", "oracles", "beliefs")


@dataclass
class Span:
    layer: str
    name: str
    parent: int
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    """``install`` puts the wrappers in place, ``restore`` removes them;
    spans accumulate across installs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved = []

    def install(self) -> None:
        for mod_name, attr, layer in PATCHES:
            mod = importlib.import_module(f"dynastyprice.{mod_name}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(layer, attr, fn))

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        """Call fn inside a span; used for the benchmark's own op spans."""
        return self._wrap(layer, name, fn)(*args, **kwargs)

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(layer, name, parent, 0.0)
            self.spans.append(span)
            self._stack.append(idx)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.info["raised"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.dur
                _count(span, self.spans, args, kwargs, result)
            return result
        return wrapper


def _count(span: Span, spans: list[Span], args, kwargs, result) -> None:
    """Counts from the call's arguments, and from its result (None when
    the call raised)."""
    name, info = span.name, span.info
    if span.layer == "bessel":
        # j2 reaches j1 through the module too; count outermost calls only
        if span.parent < 0 or spans[span.parent].layer != "bessel":
            info["points"] = int(np.size(args[0]))
    elif name == "abc_eval":
        info["nodes"] = args[0].n_grid
    elif name == "stock_price" and result is not None:
        info["n_grid"] = result.n_grid
    elif name == "volatility_grid":
        info["states"] = int(np.size(args[0]) * np.size(args[1]))
    elif name == "simulate":
        cfg = args[0]
        info["path_steps"] = cfg.n_paths * cfg.n_steps
        # z, xs, ws and us are each (n_paths, n_steps + 1) float64
        info["bytes"] = 4 * cfg.n_paths * (cfg.n_steps + 1) * 8
    elif name == "mc_stock":
        cfg = args[3]
        t_sub = kwargs.get("t_sub", 10)
        info["steps"] = (int(round(cfg.horizon / cfg.dt)) // t_sub) * t_sub
    elif name == "xi_eta_check":
        # peak temporaries: three (n_paths, n_steps + 1) float64 arrays
        info["bytes"] = 3 * args[0].xs.size * 8
    elif name == "aggregate_log_lambda":
        info["agents"] = int(args[0])


def write_spans(spans: list[Span], path: str) -> None:
    """One JSON object per span; times in seconds from the first span."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    t0 = spans[0].start if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "parent": s.parent,
                                 "layer": s.layer, "name": s.name,
                                 "start": s.start - t0, "dur": s.dur,
                                 "self": s.self_s, **s.info}) + "\n")


def _total(spans, pred, value) -> float:
    return float(sum(value(s) for s in spans if pred(s)))


def layer_metrics(spans: list[Span], n_ops: int) -> dict:
    """Per-layer metrics per operation, from the spans of n_ops operations."""
    out = {}

    def per_op(x):
        return x / n_ops

    def named(n):
        return lambda s: s.name == n

    def ratio(num, den):
        return num / den if den > 0.0 else 0.0

    self_by_layer = {layer: _total(spans, lambda s, l=layer: s.layer == l,
                                   lambda s: s.self_s) for layer in LAYERS}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_op(self_by_layer[layer])

    points = _total(spans, lambda s: "points" in s.info,
                    lambda s: s.info["points"])
    out["bessel.points"] = per_op(points)
    out["bessel.ns_per_point"] = ratio(self_by_layer["bessel"] * 1e9, points)

    out["odes.calls"] = per_op(_total(spans, named("abc_eval"), lambda s: 1))
    out["odes.nodes"] = per_op(_total(spans, named("abc_eval"),
                                      lambda s: s.info["nodes"]))
    out["odes.retries"] = per_op(_total(
        spans, lambda s: s.info.get("raised") == "QuadratureToleranceError",
        lambda s: 1))

    grids = [i for i, s in enumerate(spans) if s.name == "volatility_grid"]
    out["pricing.states_per_s"] = ratio(
        sum(spans[i].info["states"] for i in grids),
        sum(spans[i].dur for i in grids))
    stocks = [i for i, s in enumerate(spans)
              if s.name == "stock_price" and "n_grid" in s.info]
    solved = {i: [] for i in stocks}
    for s in spans:
        if s.name == "abc_eval" and s.parent in solved:
            solved[s.parent].append(s.info["nodes"])
    n_stock = len(stocks)
    out["pricing.refinements"] = ratio(
        sum(len(v) for v in solved.values()), n_stock)
    out["pricing.useful_node_ratio"] = ratio(
        sum(spans[i].info["n_grid"] for i in stocks),
        sum(sum(v) for v in solved.values()))
    out["pricing.n_grid"] = ratio(
        sum(spans[i].info["n_grid"] for i in stocks), n_stock)
    bonds = [s.dur for s in spans if s.name == "bond_price"]
    out["pricing.bond_ms"] = ratio(sum(bonds) * 1e3, len(bonds))

    sims = [s for s in spans if s.name == "simulate"]
    out["ou.path_steps_per_s"] = ratio(
        sum(s.info["path_steps"] for s in sims), sum(s.self_s for s in sims))
    out["ou.bytes"] = max((s.info["bytes"] for s in sims), default=0) / 1e6

    mcs = [s for s in spans if s.name == "mc_stock"]
    out["oracles.mc_stock.ms_per_step"] = ratio(
        sum(s.self_s for s in mcs) * 1e3, sum(s.info["steps"] for s in mcs))
    for key, fn in (("mc_v", "mc_v"), ("xi_eta", "xi_eta_check"),
                    ("aggregation", "aggregation_check"),
                    ("martingale", "martingale_check")):
        calls = [s.self_s for s in spans if s.name == fn]
        out[f"oracles.{key}.self_s"] = ratio(sum(calls), len(calls))
    out["oracles.xi_eta.bytes"] = max(
        (s.info["bytes"] for s in spans if s.name == "xi_eta_check"),
        default=0) / 1e6

    agg = [s for s in spans if s.name == "aggregate_log_lambda"]
    out["beliefs.agents_per_s"] = ratio(
        sum(s.info["agents"] for s in agg), sum(s.dur for s in agg))

    ops = [s for s in spans if s.layer == "bench"]
    out["bench.self_s"] = per_op(sum(s.self_s for s in ops))
    return out


def layer_shares(spans: list[Span]) -> dict:
    """Share of the traced operation time per layer and for the benchmark."""
    total = sum(s.dur for s in spans if s.layer == "bench")
    shares = {}
    for s in spans:
        shares[s.layer] = shares.get(s.layer, 0.0) + s.self_s
    return {k: v / total for k, v in shares.items()} if total > 0 else {}
