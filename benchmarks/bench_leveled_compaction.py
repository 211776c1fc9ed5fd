"""Ablation: leveled vs size-tiered compaction under sustained ingest.

Smoke benchmarks for the leveled-compaction rework (runner twin:
``python -m repro.bench.runner leveled_compaction``, which runs the
full-scale workload and writes the ``BENCH_leveled_compaction.json``
write-amplification snapshot):

* sustained partition-rotating ingest through the feed pipeline, per
  strategy, with write amplification and trivial-move counts recorded in
  ``extra_info``;
* reopen latency of the grown multi-level store (always lazy: manifest +
  footers only).

The strict leveled-below-size-tiered write-amp comparison lives in the
runner experiment, which ingests enough days for size-tiered's
second-generation merges to fire; at smoke scale this suite only checks
the mechanisms (compactions run, cold partitions sink as manifest-only
moves, lazy reopen touches no data blocks).
"""

from __future__ import annotations

import random

import pytest

from conftest import SCALE
from repro.core.engine import SequenceIndex
from repro.core.model import Event
from repro.ingest import EngineSink, FeedWriter, TailIngester
from repro.kvstore import LSMStore, LeveledConfig

DAYS = 4
TRACES_PER_DAY = max(10, int(150 * SCALE))
EVENTS_PER_TRACE = 8

STRATEGIES = ["size_tiered", "leveled"]


def _leveled_config() -> LeveledConfig:
    return LeveledConfig(
        l0_compact_tables=4,
        base_level_bytes=32 * 1024,
        fanout=8,
        max_output_bytes=16 * 1024,
        grandparent_limit_factor=2,
    )


def _day_events(day: int) -> list[Event]:
    rng = random.Random(f"leveled-bench-day-{day}")
    activities = [f"a{j:02d}" for j in range(12)]
    events: list[Event] = []
    for t in range(TRACES_PER_DAY):
        trace_id = f"{day:02d}-{t:06d}"
        clock = float(day * 1_000_000 + t)
        for _ in range(EVENTS_PER_TRACE):
            clock += rng.randint(1, 3)
            events.append(Event(trace_id, rng.choice(activities), clock))
    return events


def _open_store(path, strategy: str) -> LSMStore:
    kwargs = {"leveled": _leveled_config()} if strategy == "leveled" else {}
    return LSMStore(
        str(path),
        memtable_flush_bytes=8 * 1024,
        compaction=strategy,
        **kwargs,
    )


def _ingest(workdir, strategy: str) -> LSMStore:
    store = _open_store(workdir / "db", strategy)
    engine = SequenceIndex(store)
    for day in range(DAYS):
        feed = str(workdir / f"day{day:02d}.jsonl")
        with FeedWriter(feed) as writer:
            writer.append(_day_events(day))
        ingester = TailIngester(
            feed,
            EngineSink(engine, partition=f"day-{day:02d}"),
            feed + ".ckpt",
            batch_events=64,
        )
        ingester.drain()
        ingester.close()
    while store.compact():
        pass
    return store


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sustained_ingest(benchmark, tmp_path, strategy):
    def run():
        workdir = tmp_path / f"{strategy}-{run.counter}"
        run.counter += 1
        workdir.mkdir()
        store = _ingest(workdir, strategy)
        metrics = store.metrics.snapshot()
        store.close()
        return metrics

    run.counter = 0
    metrics = benchmark.pedantic(run, rounds=3, iterations=1)
    assert metrics["flushes"] > 0
    assert metrics["compactions"] > 0
    flushed = metrics["flush_bytes_written"]
    benchmark.extra_info["write_amp"] = (
        metrics["compaction_bytes_rewritten"] / flushed if flushed else 0.0
    )
    benchmark.extra_info["compactions"] = metrics["compactions"]
    benchmark.extra_info["moves"] = metrics["compaction_moves"]


def test_cold_partitions_sink_as_moves(tmp_path):
    store = _ingest(tmp_path, "leveled")
    try:
        metrics = store.metrics.snapshot()
        storage = store.storage_stats()
        # The rotating partitions leave cold key-disjoint regions behind;
        # the planner must sink at least some of them without a rewrite.
        assert metrics["compaction_moves"] > 0
        assert storage["level_count"] >= 2
    finally:
        store.close()


def test_reopen_latency(benchmark, tmp_path):
    store = _ingest(tmp_path, "leveled")
    tables = len(store.storage_stats()["sstables"])
    store.close()
    assert tables > 1

    def reopen():
        reopened = LSMStore(str(tmp_path / "db"), auto_compact=False)
        metrics = reopened.metrics.snapshot()
        reopened.close()
        return metrics

    metrics = benchmark.pedantic(reopen, rounds=5, iterations=1)
    benchmark.extra_info["sstables"] = tables
    # The manifest-only contract: no data block is read at open.
    assert metrics["block_reads"] == 0
    assert metrics["lazy_meta_loads"] == 0
