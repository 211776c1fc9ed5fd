"""Ablation: the LSM block cache.

Smoke benchmark of block cache on/off (the runner twin is ``python -m
repro.bench.runner ablation_cache``): point-read latency against a flushed
LSM store; warm reads should be served from parsed in-memory blocks, not
pread+parse.
"""

from __future__ import annotations

import pytest

from conftest import SCALE
from repro.bench.workloads import prepared_dataset
from repro.core.engine import SequenceIndex
from repro.kvstore import LSMStore

DATASET = "max_1000"
READS = 500


def _indexed_store(tmp_path, cache_bytes: int):
    store = LSMStore(
        str(tmp_path / f"db-{cache_bytes}"),
        memtable_flush_bytes=64 * 1024,
        block_cache_bytes=cache_bytes,
    )
    index = SequenceIndex(store)
    index.update(prepared_dataset(DATASET, SCALE))
    store.flush()
    return store, index


@pytest.mark.parametrize(
    "cache_bytes",
    [8 * 1024 * 1024, 0],
    ids=["block-cache-on", "block-cache-off"],
)
def test_point_reads(benchmark, tmp_path, cache_bytes):
    store, index = _indexed_store(tmp_path, cache_bytes)
    trace_ids = index.trace_ids()
    probes = [trace_ids[i % len(trace_ids)] for i in range(READS)]

    def read_all():
        for trace_id in probes:
            store.get("seq", trace_id)

    read_all()  # warm-up: "cache on" should measure hits, not first touches
    benchmark.pedantic(read_all, rounds=3, iterations=1)
    index.close()
