"""Command-line experiment runner.

Usage::

    python -m repro.bench.runner                     # every experiment
    python -m repro.bench.runner table6 fig4         # a subset
    REPRO_BENCH_SCALE=0.2 python -m repro.bench.runner table8

Tables print to stdout in the paper's layout; CSVs land in ``results/``.
Each experiment runs under a tracer whose span profile is written beside
its CSV; the timed rounds of
:func:`~repro.bench.workloads.best_of_rounds` switch it off.  Every index
is built on an :class:`~repro.kvstore.lsm.LSMStore` in a temporary
directory; the cached ones are closed, and their directories removed,
before the runner returns.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.reporting import format_table, write_csv, write_profile
from repro.bench.workloads import close_indexes
from repro.logs.datasets import bench_scale
from repro.obs.trace import Tracer, activate

DEFAULT_SCALE = 0.05


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        choices=[*ALL_EXPERIMENTS, []],
        help="experiments to run (default: all)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="dataset scale (default: $REPRO_BENCH_SCALE or "
        f"{DEFAULT_SCALE}); 1.0 = paper-sized",
    )
    parser.add_argument(
        "--results-dir",
        default="results",
        help="directory for CSV output (default: results/)",
    )
    args = parser.parse_args(argv)
    scale = args.scale if args.scale is not None else bench_scale(DEFAULT_SCALE)
    names = args.experiments or list(ALL_EXPERIMENTS)
    try:
        for name in names:
            tracer = Tracer(max_spans=50_000)
            started = time.perf_counter()
            with activate(tracer):
                result = ALL_EXPERIMENTS[name](scale)
            elapsed = time.perf_counter() - started
            print(format_table(result))
            path = write_csv(result, args.results_dir)
            profile_path = write_profile(name, tracer, args.results_dir)
            print(
                f"[{name} finished in {elapsed:.1f}s; csv: {path}; "
                f"profile: {profile_path}]"
            )
            print()
    finally:
        close_indexes()
    return 0


if __name__ == "__main__":
    sys.exit(main())
