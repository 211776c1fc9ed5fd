"""stream_ingest: FeedWriter -> TailIngester -> EngineSink -> one LSM engine.

Events arrive interleaved across traces in timestamp order, so every batch
extends open traces and takes the ``LastChecked`` incremental path that
``index_bulk`` never does: many small batches, a checkpoint fsync each.

Phase 1 is an open loop.  One generator thread appends 15-event batches on a
20 ms schedule (750 events/s, about 40 % of capacity) for half of ``--seconds`` and issues one
``detect`` every fifth tick; freshness is taken per event, from the feed's
``at`` stamp to the return of ``apply``, and generator lateness is reported.
Phase 2 appends the next ``BURST_EVENTS`` of the log as one burst and times
``drain()``, at the host's reference speed (``common.HostSpeed``): only this
phase measures capacity.  The stream stops there; an
event costs more the longer its trace already is, so draining the whole log
would not fit the driver's cap on run time.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.engine import SequenceIndex
from repro.core.model import EventLog
from repro.ingest import (
    Checkpoint, EngineSink, FeedWriter, TailIngester, index_snapshot, read_feed,
    store_checkpoint,
)

from common import (
    PATTERN_SEED, Outcome, RunConfig, at_reference, dir_bytes, load_log, median, open_store,
    peak_rss_mb, percentile, ratio, sample_sequences, timed,
)
from proxies import SinkProxy, StoreProxy, store_write_layers
from spans import obs_self_times

TICK_S = 0.020
EVENTS_PER_TICK = 15
DETECT_EVERY = 5
PHASE1_SHARE = 0.5
BURST_EVENTS = 12000
SETUP_REPEATS = 7
CHECKPOINT_CALLS = 50


def interleaved(log: EventLog, seed: int) -> list:
    """Every event of the log in timestamp order, traces interleaved; the
    seed orders the events that share a timestamp."""
    events = list(log.events())
    random.Random(seed).shuffle(events)
    events.sort(key=lambda event: event.timestamp)
    return events


@dataclass
class Fixture:
    """Feed, engine and ingester over fresh files; what ``setup_s`` times."""

    root: Path
    log: EventLog
    generate_s: float
    stream: list
    store: Any
    engine: SequenceIndex
    writer: FeedWriter
    sink: SinkProxy
    ingester: TailIngester

    @classmethod
    def build(cls, cfg: RunConfig, root: Path) -> "Fixture":
        generate_s, log = load_log(cfg)
        store = open_store(root / "store")
        if cfg.recorder is not None:
            store = StoreProxy(store, cfg.recorder, str(root / "store" / "wal.log"))
        engine = SequenceIndex(store)
        feed_path, checkpoint_path = str(root / "feed.jsonl"), str(root / "checkpoint.json")
        sink = SinkProxy(EngineSink(engine), cfg.recorder)
        return cls(root, log, generate_s, interleaved(log, cfg.seed), store, engine,
                   FeedWriter(feed_path), sink,
                   TailIngester(feed_path, sink, checkpoint_path))

    def close(self) -> None:
        self.ingester.close()
        self.writer.close()
        self.engine.close()


def run(cfg: RunConfig) -> Outcome:
    rec = cfg.recorder
    setups = []
    for attempt in range(SETUP_REPEATS):
        cfg.speed.sample(5)
        start = time.perf_counter()
        fixture = Fixture.build(cfg, cfg.work_dir / f"fixture-{attempt}")
        setups.append((start, time.perf_counter()))
        if attempt < SETUP_REPEATS - 1:
            fixture.close()
    cfg.speed.sample(5)
    setups = [at_reference(cfg, start, end) for start, end in setups]
    log, stream, engine, sink = fixture.log, fixture.stream, fixture.engine, fixture.sink
    writer, ingester = fixture.writer, fixture.ingester
    patterns = [list(p) for p in
                sample_sequences(random.Random(PATTERN_SEED), list(log), 5, 16, set())]

    # Phase 1: open loop on a fixed schedule, never beyond half of the log.
    ticks = int(min(cfg.seconds * PHASE1_SHARE / TICK_S,
                    len(stream) / 2 / EVENTS_PER_TICK))
    phase1_events = ticks * EVENTS_PER_TICK
    stream = stream[:phase1_events + BURST_EVENTS]
    late_ms: list[float] = []
    append_ms: list[float] = []
    detect_failures = 0
    lag_bytes_max = 0
    ingester.start()
    begin = time.perf_counter()
    for tick in range(ticks):
        due = begin + tick * TICK_S
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        late_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
        batch = stream[tick * EVENTS_PER_TICK:(tick + 1) * EVENTS_PER_TICK]
        elapsed, _ = timed(cfg, "ingest.feed_append", writer.append, batch)
        append_ms.append(elapsed * 1e3)
        if tick % DETECT_EVERY == 0:
            pattern = patterns[tick // DETECT_EVERY % len(patterns)]
            try:
                timed(cfg, "core.query", engine.detect, pattern)
            except Exception:  # a live query must never fail beside ingest
                detect_failures += 1
            lag_bytes_max = max(lag_bytes_max, ingester.stats().lag_bytes)
    give_up = begin + cfg.seconds * 4
    while ingester.stats().events_applied < phase1_events and time.perf_counter() < give_up:
        time.sleep(0.01)
    phase1 = ingester.stop()
    ingester.close()
    sink.observing = False

    # Phase 2: the rest of the log as one pre-appended burst, drained by an
    # ingester restarted from the checkpoint.
    burst = stream[phase1_events:]
    writer.append(burst)
    writer.close()
    sink.speed = cfg.speed
    with TailIngester(ingester.feed_path, sink, ingester.checkpoint_path) as ingester:
        drain_start = time.perf_counter()
        drain_s, stats = timed(cfg, "ingest.drain", ingester.drain)
    sink.speed = None
    drain_cost = cfg.speed.cost(drain_start, drain_start + drain_s)
    reference_drain_s = at_reference(cfg, drain_start, drain_start + drain_s)

    rss_mb = peak_rss_mb()  # before the reference build below inflates it
    failed = detect_failures
    failed += stats.lag_bytes != 0
    failed += phase1.events_applied + stats.events_applied != len(stream)
    with SequenceIndex() as clean:
        clean.update(EventLog.from_events(stream))
        failed += index_snapshot(engine) != index_snapshot(clean)
    sstables = engine.store.sstable_count
    timed(cfg, "kvstore.close", engine.close)

    freshness_ms = [seconds * 1e3 for seconds in sink.freshness_s]
    end_to_end = {
        "setup_s": median(setups),
        "throughput_per_s": len(burst) / reference_drain_s,
        "latency_p50_ms": median(freshness_ms),
        "disk_bytes_per_event": dir_bytes(fixture.root / "store") / len(stream),
        "peak_rss_mb": rss_mb,
    }
    p99 = percentile(freshness_ms, 0.99)
    per_layer: dict[str, float] = {}
    obs: dict = {}
    if rec is not None:
        obs = obs_self_times(sink.tracer)
        totals = rec.totals()
        per_layer = store_write_layers(totals, fixture.store)
        probe_path = str(fixture.root / "checkpoint-probe.json")
        checkpoint_s, _ = timed(cfg, "ingest.checkpoint", lambda: [
            store_checkpoint(probe_path, Checkpoint(i, i, i))
            for i in range(CHECKPOINT_CALLS)])
        read_feed_s, _ = timed(cfg, "ingest.read_feed", read_feed, str(fixture.root / "feed.jsonl"))
        per_layer["core.update_self_s"] = totals["ingest.apply"]["self_s"]
        per_layer.update({
            "logs.generate_s": fixture.generate_s,
            "freshness_p99_ms": p99,
            "kvstore.sstables_final": sstables,
            "ingest.feed_append_ms_per_batch": median(append_ms),
            "ingest.read_feed_s": read_feed_s,
            "ingest.apply_s": totals["ingest.apply"]["total_s"],
            "ingest.checkpoint_ms_per_batch": checkpoint_s / CHECKPOINT_CALLS * 1e3,
            "ingest.batches": stats.batches,
            "ingest.events_per_batch": ratio(len(stream), stats.batches),
            "ingest.lag_bytes_max": lag_bytes_max,
            "ingest.deduped": phase1.events_deduped + stats.events_deduped,
            "ingest.generator_late_ms_p99": percentile(late_ms, 0.99),
        })
    return Outcome(
        end_to_end=end_to_end,
        attempted=len(stream) + ticks // DETECT_EVERY + 3,
        failed=int(failed),
        extras={"freshness_p99_ms": p99},
        per_layer=per_layer, obs=obs,
        notes={
            "events": len(stream), "phase1_events": phase1_events,
            "phase1_rate_per_s": EVENTS_PER_TICK / TICK_S, "burst_events": len(burst),
            "drain_seconds": round(drain_s, 3), "host_cost": drain_cost,
            "batches": stats.batches,
            "freshness_samples": len(freshness_ms),
            "generator_late_ms_p99": round(percentile(late_ms, 0.99), 3),
        },
    )
