"""The library names, fields and call shapes that the benchmark relies on.

``benchmarks/tracing.py`` wraps functions by (module, attribute) and reads
counts from dataclass fields, and ``benchmarks/workloads.py`` calls the
oracles with fixed signatures; a rename or signature change in the
library would otherwise surface only as a benchmark that stops, reads
zero or fails every operation.
"""

import importlib
import importlib.util
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import dynastyprice
from dynastyprice import (OdeInputs, OracleConfig, PriceReport, SimConfig,
                          SimPath)

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _bench(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


def test_traced_attributes_are_callable():
    for mod_name, attr, _ in _bench("tracing").PATCHES:
        mod = importlib.import_module(f"dynastyprice.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"{mod_name}.{attr}"


def test_fields_the_tracer_reads_exist():
    read = {OdeInputs: {"n_grid"}, PriceReport: {"n_grid"},
            SimConfig: {"n_paths", "n_steps"},
            OracleConfig: {"horizon", "dt"}}
    for cls, names in read.items():
        assert names <= {f.name for f in fields(cls)}, cls.__name__
    # the xi_eta_check span reads path.xs.size, a property built on demand
    assert isinstance(SimPath.xs, property)


def test_exported_names_resolve():
    missing = [n for n in dynastyprice.__all__ if not hasattr(dynastyprice, n)]
    assert missing == []


def test_verify_operations_run_at_small_sizes(monkeypatch):
    # every verify operation, run and checked as the benchmark does, at
    # sizes small enough for the unit tests: statistics may miss their
    # bands, but nothing may raise or come back malformed ("wrong")
    monkeypatch.syspath_prepend(str(BENCH))
    wl = _bench("workloads")
    monkeypatch.setattr(wl, "MC_STOCK", dict(n_paths=200, dt=1e-3,
                                             horizon=6.0))
    monkeypatch.setattr(wl, "MC_V", dict(n_paths=200, dt=1e-3, tau=0.5))
    monkeypatch.setattr(wl, "XI_ETA", dict(n_paths=4, dt=5e-4, n_steps=2_000))
    monkeypatch.setattr(wl, "AGGREGATION", dict(population=2_000, dt=5e-4,
                                                burn_in=10.0))
    monkeypatch.setattr(wl, "MARTINGALE", dict(t_final=0.5, dt=1e-3,
                                               n_outer=4, n_inner=20))
    ops = wl.verify_ops(0)
    assert [op.kind for op in ops] == ["mc_stock", "mc_v", "xi_eta",
                                       "aggregation", "martingale"]
    for op in ops:
        status, _ = op.check(op.run())
        assert status in (wl.OK, wl.INACCURATE), op.kind


@pytest.mark.parametrize("workload", ["quote", "surface"])
def test_pricing_operations_pass_their_checks(monkeypatch, workload):
    # one round of each pricing workload at benchmark size, run and
    # checked as the benchmark does: a renamed report field or a lost
    # digit fails here before it fails every benchmark operation
    monkeypatch.syspath_prepend(str(BENCH))
    wl = _bench("workloads")
    for op in wl.ROUNDS[workload](0, 0):
        status, acc = op.check(op.run())
        assert status == wl.OK, (op.kind, acc)
