"""Benchmark command for dynastyprice.

    python3 benchmarks/run.py --workload quote|surface|verify \
        --seed N --seconds S --trace 0|1

Runs one workload from the root of a source checkout (the package is
loaded from ``src/``) as one closed loop: each operation starts when the
previous one has returned.  Whole rounds of operations run until the
timed phase has lasted ``--seconds``; every output is then checked
against the independent reference in ``reference.py``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  See README.md.
"""

import os

# BLAS and OpenMP pools are held to one thread, before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("quote", "surface", "verify")
SETUP_INTERPRETERS = 5
CHILD_TIMEOUT_S = 60.0
TAIL_MIN_OPS = 40        # the p75 tail has ten operations beyond it
WARMUP_SEED = 987654321

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "setup.import_s": "s", "setup.scipy_integrate_s": "s",
    "bessel.points": "count", "bessel.self_s": "s",
    "bessel.ns_per_point": "ns",
    "odes.calls": "count", "odes.nodes": "count", "odes.retries": "count",
    "odes.self_s": "s",
    "pricing.self_s": "s", "pricing.states_per_s": "1/s",
    "pricing.refinements": "count", "pricing.useful_node_ratio": "ratio",
    "pricing.n_grid": "count", "pricing.bond_ms": "ms",
    "pricing.stock_rel_err": "ratio", "pricing.bond_rel_err": "ratio",
    "pricing.vol_abs_err": "abs", "pricing.drift_abs_err": "abs",
    "pricing.surface_abs_err": "abs", "pricing.err_over_reported": "ratio",
    "cli.self_s": "s",
    "ou.self_s": "s", "ou.path_steps_per_s": "1/s", "ou.bytes": "MB",
    "oracles.self_s": "s",
    "oracles.mc_stock.ms_per_step": "ms", "oracles.mc_v.self_s": "s",
    "oracles.xi_eta.self_s": "s", "oracles.aggregation.self_s": "s",
    "oracles.martingale.self_s": "s", "oracles.xi_eta.bytes": "MB",
    "oracles.mc_stock.rel_err": "ratio", "oracles.max_abs_z": "ratio",
    "oracles.xi_eta.envelope_ratio": "ratio",
    "beliefs.self_s": "s", "beliefs.agents_per_s": "1/s",
    "bench.self_s": "s", "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def run_child(argv: list) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return proc


def measure_setup(workload: str) -> tuple:
    """Wall times of fresh interpreters that import the package and return
    one fixed warm-up call, and their import times."""
    argv = [sys.executable, os.path.join(HERE, "warmup.py"), workload]
    walls, imports = [], []
    for _ in range(SETUP_INTERPRETERS):
        start = time.perf_counter()
        proc = run_child(argv)
        walls.append(time.perf_counter() - start)
        imports.append(float(proc.stdout.strip().splitlines()[-1]))
    return walls, imports


def scipy_integrate_import_s() -> float:
    """Cumulative import time of scipy.integrate under -X importtime."""
    proc = run_child([sys.executable, "-X", "importtime", "-c",
                      "import dynastyprice"])
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "scipy.integrate":
            return float(re.sub(r"\D", "", parts[1])) / 1e6
    return 0.0


def run_ops(ops, call) -> list:
    """Run ops in a closed loop; records are (op, latency, output, error)."""
    records = []
    for op in ops:
        start = time.perf_counter()
        try:
            out, err = call(op), None
        except Exception as exc:     # the program refused the operation
            out, err = None, exc
        records.append((op, time.perf_counter() - start, out, err))
    return records


def timed_rounds(make_round, seconds: float, run_round) -> tuple:
    """Whole rounds within ``seconds``: (records, wall).

    The first round always runs; a further round starts only if, at the
    mean round time so far, it would end within ``seconds``."""
    records = []
    start = time.perf_counter()
    n_rounds = 0
    while True:
        records += run_round(make_round(n_rounds))
        n_rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (n_rounds + 1) / n_rounds > seconds:
            return records, elapsed


def check_records(records) -> tuple:
    """(failed, correct, worst accuracy figure per name) over the records."""
    failed, correct, worst = 0, True, {}
    for op, _, out, err in records:
        if err is not None:
            failed += 1
            continue
        status, acc = op.check(out)
        if status == "wrong":
            correct = False
        elif status == "inaccurate":
            failed += 1
        for k, v in acc.items():
            worst[k] = max(worst.get(k, 0.0), v)
    return failed, correct, worst


def end_to_end(make_round, seconds: float, setup_walls: list) -> tuple:
    records, wall = timed_rounds(make_round, seconds,
                                 lambda ops: run_ops(ops, lambda op: op.run()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = [r[1] for r in records]
    done = sum(1 for r in records if r[3] is None)
    metrics = {"setup_s": statistics.median(setup_walls),
               "ops_per_s": done / wall,
               "p50_ms": statistics.median(lat) * 1e3,
               "peak_rss_mb": peak_rss_mb}
    summary = dict(metrics, ops=len(records))
    if len(records) >= TAIL_MIN_OPS:
        summary["tail_ms_p75"] = statistics.quantiles(
            lat, n=4, method="inclusive")[2] * 1e3
    print("summary " + json.dumps(summary))
    return records, metrics, END_TO_END_UNITS


def per_layer(make_round, seconds: float, setup_imports: list,
              trace_path: str) -> tuple:
    """Each operation runs twice, untraced and traced, in alternating
    order so that drift in host speed cancels in the overhead; the spans
    are written to ``trace_path`` as JSON lines."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced = [], []

    def run_traced(op):
        tracer.install()
        try:
            return tracer.span("bench", f"op.{op.kind}", op.run)
        finally:
            tracer.restore()

    def run_pairs(ops):
        for op in ops:
            pair = [(plain, lambda o: o.run()), (traced, run_traced)]
            if len(plain) % 2:
                pair.reverse()
            for records, call in pair:
                records += run_ops([op], call)
        return []

    timed_rounds(make_round, seconds, run_pairs)
    tracing.write_spans(tracer.spans, trace_path)
    metrics = tracing.layer_metrics(tracer.spans, len(traced))
    plain_s = sum(r[1] for r in plain)
    traced_s = sum(r[1] for r in traced)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics["setup.import_s"] = statistics.median(setup_imports)
    metrics["setup.scipy_integrate_s"] = scipy_integrate_import_s()
    shares = tracing.layer_shares(tracer.spans)
    print("shares " + json.dumps({k: round(v, 4)
                                  for k, v in sorted(shares.items())}))
    # layer self times plus the benchmark's own time cover the traced op
    # time; the untraced time of the same ops differs by the overhead
    accounted = sum(s.self_s for s in tracer.spans)
    print(f"trace ops={len(traced)} "
          f"self_times_s={accounted / len(traced):.6f} "
          f"traced_op_s={traced_s / len(traced):.6f} "
          f"untraced_op_s={plain_s / len(plain):.6f}")
    return plain + traced, metrics, PER_LAYER_UNITS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dynastyprice benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dynastyprice", "__init__.py")):
        raise BenchError(f"no package source under {SRC}")
    setup_walls, setup_imports = measure_setup(args.workload)

    sys.path[:0] = [SRC, HERE]
    import reference
    import workloads

    # the reference must reproduce S = 1.05814794380 at the defaults
    s = reference.defaults_stock()
    ref_ok = abs(s / reference.DEFAULTS_S - 1.0) <= reference.DEFAULTS_REL_TOL

    round_of = workloads.ROUNDS[args.workload]
    warm = round_of(WARMUP_SEED, 0)[0]
    warm.check(warm.run())

    def make_round(r):
        # numpy seeds must be non-negative
        return round_of(args.seed % 2**63, r)

    if args.trace:
        trace_path = os.path.join(
            HERE, "out", f"trace-{args.workload}-{args.seed}.jsonl")
        records, metrics, units = per_layer(make_round, args.seconds,
                                            setup_imports, trace_path)
    else:
        records, metrics, units = end_to_end(make_round, args.seconds,
                                             setup_walls)
    failed, correct, worst = check_records(records)
    print("accuracy " + json.dumps(worst))
    # the accuracy figures are the largest over the run; 0 where unreached
    metrics = {k: metrics[k] if k in metrics else worst.get(k, 0.0)
               for k in units}
    print(json.dumps({
        "correct": bool(correct and ref_ok),
        "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
