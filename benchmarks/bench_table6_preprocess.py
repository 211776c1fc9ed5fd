"""Table 6: pre-processing time of every system.

Paper shape: [19] wins on the small synthetic logs but collapses on real
(BPI) logs -- two orders of magnitude slower, failing entirely on BPI 2017;
our Strict/Indexing builds scale with the log and parallelise; the
Elasticsearch-style index sits between them on large logs.
"""

from __future__ import annotations

import pytest

from conftest import CORE_DATASETS, SCALE
from repro.baselines.elastic import ElasticIndex
from repro.baselines.suffix import SuffixArrayMatcher
from repro.bench.workloads import build_index, prepared_dataset
from repro.core.policies import Policy


@pytest.mark.parametrize("name", CORE_DATASETS)
def test_preprocess_suffix_19(benchmark, name):
    log = prepared_dataset(name, SCALE)
    matcher = benchmark.pedantic(lambda: SuffixArrayMatcher(log), rounds=3, iterations=1)
    benchmark.extra_info["distinct_traces"] = matcher.stats.distinct_traces


@pytest.mark.parametrize("name", CORE_DATASETS)
def test_preprocess_strict(benchmark, name):
    log = prepared_dataset(name, SCALE)
    benchmark.pedantic(lambda: build_index(log, Policy.SC), rounds=3, iterations=1)


@pytest.mark.parametrize("name", CORE_DATASETS)
def test_preprocess_indexing(benchmark, name):
    log = prepared_dataset(name, SCALE)
    benchmark.pedantic(lambda: build_index(log, Policy.STNM), rounds=3, iterations=1)


@pytest.mark.parametrize("name", CORE_DATASETS)
def test_preprocess_elasticsearch(benchmark, name):
    log = prepared_dataset(name, SCALE)
    index = benchmark.pedantic(lambda: ElasticIndex.from_log(log), rounds=3, iterations=1)
    assert index.num_documents == len(log)
