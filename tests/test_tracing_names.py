"""The library names and fields that the benchmark tracer relies on.

``benchmarks/tracing.py`` wraps functions by (module, attribute) and reads
counts from dataclass fields; a rename in the library would otherwise
surface only as a benchmark that stops or reads zero.
"""

import importlib
import importlib.util
import sys
from dataclasses import fields
from pathlib import Path

import dynastyprice
from dynastyprice import (OdeInputs, OracleConfig, PriceReport, SimConfig,
                          SimPath)


def _tracing():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


def test_traced_attributes_are_callable():
    for mod_name, attr, _ in _tracing().PATCHES:
        mod = importlib.import_module(f"dynastyprice.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"{mod_name}.{attr}"


def test_fields_the_tracer_reads_exist():
    read = {OdeInputs: {"n_grid"}, PriceReport: {"n_grid"},
            SimConfig: {"n_paths", "n_steps"},
            OracleConfig: {"horizon", "dt"}, SimPath: {"xs"}}
    for cls, names in read.items():
        assert names <= {f.name for f in fields(cls)}, cls.__name__


def test_exported_names_resolve():
    missing = [n for n in dynastyprice.__all__ if not hasattr(dynastyprice, n)]
    assert missing == []
