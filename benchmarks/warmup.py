"""Set-up probe: a fresh interpreter imports dynastyprice and returns one
fixed warm-up call of the workload.

    python3 benchmarks/warmup.py quote|surface|verify

``run.py`` times whole runs of this script from outside; the script
prints the time its ``import dynastyprice`` took, in seconds.  It loads
nothing from the benchmark, so only the package's own set-up is timed.
"""

import sys
import time


def main() -> int:
    workload = sys.argv[1]
    start = time.perf_counter()
    import dynastyprice as dp
    import_s = time.perf_counter() - start

    params, state = dp.build_defaults()
    consts = dp.derive_constants(params)
    if workload == "quote":
        dp.stock_price(state, params, consts)
    elif workload == "surface":
        import contextlib
        import io

        from dynastyprice import cli
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["volsurf", "--x-steps", "2", "--u-steps", "2",
                      "--u-from", "1", "--u-to", "2"])
    elif workload == "verify":
        cfg = dp.OracleConfig(n_paths=1000, dt=1e-3, burn_in=5.0,
                              horizon=6.0, seed=1)
        dp.mc_stock(state, params, consts, cfg)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print(f"{import_s:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
