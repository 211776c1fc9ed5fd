"""Table 5: the three STNM flavors on process-like logs.

Paper shape: all three flavors perform similarly on these datasets (the
differences that exist are small in absolute terms).  The flavors differ
only in pair creation, so that is what is timed per flavor; the index build
creates its pairs with Indexing whatever the flavor, and is timed once.
"""

from __future__ import annotations

import pytest

from conftest import CORE_DATASETS, SCALE
from repro.bench.workloads import build_index, prepared_dataset
from repro.core.pairs import indexing_pairs, parsing_pairs, state_pairs
from repro.core.policies import Policy

FLAVORS = (indexing_pairs, parsing_pairs, state_pairs)


@pytest.mark.parametrize("name", CORE_DATASETS)
@pytest.mark.parametrize("flavor", FLAVORS, ids=lambda f: f.__name__)
def test_stnm_pair_creation(benchmark, name, flavor):
    log = prepared_dataset(name, SCALE)
    views = [(trace.activities, trace.timestamps) for trace in log]
    benchmark.extra_info["events"] = log.num_events

    def run():
        for acts, stamps in views:  # each result dropped, as the builder does
            flavor(acts, stamps)

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.parametrize("name", CORE_DATASETS)
def test_stnm_index_build(benchmark, name):
    log = prepared_dataset(name, SCALE)
    benchmark.extra_info["events"] = log.num_events
    index = benchmark.pedantic(
        lambda: build_index(log, Policy.STNM), rounds=3, iterations=1
    )
    assert index.trace_ids()
