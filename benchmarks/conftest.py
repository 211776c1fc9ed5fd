"""Shared configuration of the pytest-benchmark suites.

These suites time the ablations beyond the paper (store backend, cache,
incremental update, suffix modes, pattern language, sharded service).  The paper's tables and figures have one path, the
experiment runner::

    python -m repro.bench.runner table6 fig4 --scale 0.1

Dataset sizes default to a small fraction of the paper's (so the whole
suite completes in minutes) and honour the ``REPRO_BENCH_SCALE``
environment variable::

    pytest benchmarks/ --benchmark-only                    # quick pass
    REPRO_BENCH_SCALE=0.25 pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from repro.logs.datasets import bench_scale

#: fraction of the paper's dataset sizes used by the benchmark suites
SCALE = bench_scale(default=0.02)
