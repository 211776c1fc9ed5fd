"""Benchmark harness: regenerate every table and figure of the paper.

Each experiment in §5 has a function here producing the same rows/series
the paper reports; ``python -m repro.bench.runner`` runs them all (or a
subset) and writes text tables plus CSV files under ``results/``.  Every
time an experiment reports comes from one rule,
:func:`~repro.bench.workloads.best_of_rounds`.

The pytest-benchmark suites in ``benchmarks/`` cover only the ablations
beyond the paper; the paper's tables and figures have the runner as their
one path.

Dataset sizes honour ``REPRO_BENCH_SCALE`` (default 1.0 in the library,
scaled down in the shipped benchmark defaults) so the full suite is
laptop-sized; the *shape* of every comparison -- who wins, by what factor,
where trends cross -- is what the reproduction targets, not the absolute
milliseconds of the authors' testbed.
"""

from repro.bench.reporting import ExperimentResult, format_table, write_csv
from repro.bench.workloads import (
    best_of_rounds,
    build_index,
    contiguous_patterns,
    prepared_dataset,
    stnm_patterns,
)

__all__ = [
    "ExperimentResult",
    "format_table",
    "write_csv",
    "best_of_rounds",
    "build_index",
    "prepared_dataset",
    "contiguous_patterns",
    "stnm_patterns",
]
