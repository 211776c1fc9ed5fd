"""Composite-pattern queries: indexed prune-then-verify vs the SASE oracle.

Smoke benchmarks for the pattern language (runner twin:
``python -m repro.bench.runner pattern_language``, which also writes the
``BENCH_pattern_language.json`` perf-trajectory snapshot):

* the composite workload -- windowed / alternation / kleene / negation
  variants of gapped subsequences of real traces -- evaluated through
  the pair-index prune-then-verify path on an LSM-backed index;
* the same workload through the SASE NFA full scan, the streaming
  oracle of the differential suite and the baseline the indexed path
  must beat.
"""

from __future__ import annotations

import pytest

from conftest import SCALE
from repro.baselines.sase import SaseEngine
from repro.bench.workloads import (
    COMPOSITE_KINDS,
    composite_patterns,
    prepared_dataset,
)
from repro.core.engine import SequenceIndex
from repro.core.policies import Policy
from repro.kvstore import LSMStore

DATASET = "max_10000"
LENGTH = 4
PATTERNS_PER_KIND = 4


@pytest.fixture(scope="module")
def pattern_workload(tmp_path_factory):
    """One LSM-backed index and one composite workload, shared by kinds."""
    workdir = tmp_path_factory.mktemp("pattern-language")
    store = LSMStore(str(workdir / "db"), memtable_flush_bytes=256 * 1024)
    index = SequenceIndex(store, policy=Policy.STNM)
    log = prepared_dataset(DATASET, SCALE)
    index.update(log)
    store.flush()
    workload = composite_patterns(
        log,
        count=PATTERNS_PER_KIND * len(COMPOSITE_KINDS),
        length=LENGTH,
        index=index,
    )
    yield log, index, workload
    store.close()


@pytest.mark.parametrize("kind", COMPOSITE_KINDS)
def test_indexed_pattern_queries(benchmark, pattern_workload, kind):
    _, index, workload = pattern_workload
    patterns = [p for k, p in workload if k == kind]

    def run_all():
        for pattern in patterns:
            index.detect(pattern)

    run_all()  # warm-up: block cache
    benchmark.pedantic(run_all, rounds=3, iterations=1)


@pytest.mark.parametrize("kind", COMPOSITE_KINDS)
def test_sase_oracle_pattern_queries(benchmark, pattern_workload, kind):
    log, _, workload = pattern_workload
    engine = SaseEngine(log)
    patterns = [p for k, p in workload if k == kind]

    def run_all():
        for pattern in patterns:
            engine.query(pattern)

    benchmark.pedantic(run_all, rounds=3, iterations=1)
