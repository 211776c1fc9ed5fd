"""The micro-batch tail loop: dedup, live visibility, metrics, convergence."""

from __future__ import annotations

import os
import runpy
import time

import pytest

from repro.core.engine import SequenceIndex
from repro.core.model import Event
from repro.core.policies import Policy
from repro.faults import CRASH, Fault, FaultSchedule, FaultyIO, RealIO, SimulatedCrash
from repro.ingest import (
    EngineSink,
    FeedEvent,
    FeedWriter,
    TailIngester,
    index_snapshot,
    load_checkpoint,
)
from repro.kvstore import LSMStore
from repro.obs.registry import REGISTRY
from repro.shard import ShardedSequenceIndex

from tests.core.test_builder import _CountingStore


def _ab_events(n, trace="t1"):
    """n alternating A/B events on one trace: n // 2 completions of (A, B)."""
    return [
        Event(trace, "AB"[i % 2], float(i + 1)) for i in range(n)
    ]


def _write_feed(path, events, stamp=True):
    with FeedWriter(path) as writer:
        writer.append(events, stamp=stamp)


class TestDropIndexed:
    """The replay filter, where it lives now: ``update(dedup=True)``."""

    def test_unknown_traces_pass_through(self):
        with SequenceIndex(policy=Policy.STNM) as engine:
            stats = engine.update(_ab_events(4), dedup=True)
            assert (stats.events_indexed, stats.events_deduped) == (4, 0)

    def test_at_or_before_tail_is_dropped(self):
        with SequenceIndex(policy=Policy.STNM) as engine:
            engine.update(_ab_events(2))  # timestamps 1..2
            stats = engine.update(_ab_events(4), dedup=True)  # timestamps 1..4
            assert (stats.events_indexed, stats.events_deduped) == (2, 2)
            assert [ts for _, ts in engine.get_trace("t1")] == [1.0, 2.0, 3.0, 4.0]

    def test_tail_advances_within_the_batch(self):
        # Two events with equal timestamps on one trace: the first advances
        # the running tail, so the second is dropped as a duplicate.
        events = [Event("t1", "A", 5.0), Event("t1", "A", 5.0)]
        with SequenceIndex(policy=Policy.STNM) as engine:
            stats = engine.update(events, dedup=True)
            assert (stats.events_indexed, stats.events_deduped) == (1, 1)

    def test_tail_read_once_per_trace(self):
        store = _CountingStore()
        with SequenceIndex(store, policy=Policy.STNM) as engine:
            engine.update(_ab_events(6) + _ab_events(6, trace="t2"))
            store.get_calls = store.multi_get_calls = store.keys_read = 0
            sink = EngineSink(engine)
            assert sink.apply(_ab_feed_events(8) + _ab_feed_events(8, trace="t2")) == (4, 12)
            # One batched read names each trace once; no point read at all.
            assert (store.get_calls, store.multi_get_calls, store.keys_read) == (0, 1, 2)


def _ab_feed_events(n, trace="t1"):
    return [
        FeedEvent(trace, "AB"[i % 2], float(i + 1)) for i in range(n)
    ]


class TestEngineSink:
    def test_replayed_batch_is_a_no_op(self):
        with SequenceIndex(policy=Policy.STNM) as engine:
            sink = EngineSink(engine)
            events = _ab_feed_events(6)
            assert sink.apply(events) == (6, 0)
            before = len(engine.detect(["A", "B"]))
            assert sink.apply(events) == (0, 6)  # full replay: all deduped
            assert len(engine.detect(["A", "B"])) == before

    def test_straddling_batch_keeps_its_fresh_suffix(self):
        with SequenceIndex(policy=Policy.STNM) as engine:
            sink = EngineSink(engine)
            events = _ab_feed_events(8)
            sink.apply(events[:4])
            assert sink.apply(events) == (4, 4)
            assert len(engine.detect(["A", "B"])) == 4


class TestTailIngester:
    def test_drain_indexes_the_feed(self, tmp_path):
        feed = str(tmp_path / "feed.jsonl")
        checkpoint = str(tmp_path / "cp")
        _write_feed(feed, _ab_events(10))
        with SequenceIndex(LSMStore(str(tmp_path / "ix"))) as engine:
            with TailIngester(
                feed, EngineSink(engine), checkpoint, batch_events=3
            ) as ingester:
                stats = ingester.drain()
            assert stats.events_applied == 10
            assert stats.events_deduped == 0
            assert stats.lag_bytes == 0
            assert stats.batches == 4  # ceil(10 / 3)
            assert len(engine.detect(["A", "B"])) == 5
        assert load_checkpoint(checkpoint).offset == stats.offset

    def test_live_visibility_without_restart(self, tmp_path):
        feed = str(tmp_path / "feed.jsonl")
        with SequenceIndex(policy=Policy.STNM) as engine:
            with TailIngester(
                feed, EngineSink(engine), str(tmp_path / "cp")
            ) as ingester:
                _write_feed(feed, _ab_events(4))
                ingester.drain()
                assert len(engine.detect(["A", "B"])) == 2
                # The feed grows; the same engine instance sees the new
                # events after the next drain -- no reopen, no rebuild.
                with FeedWriter(feed) as writer:
                    writer.append(
                        [Event("t1", "A", 10.0), Event("t1", "B", 11.0)]
                    )
                ingester.drain()
                assert len(engine.detect(["A", "B"])) == 3

    def test_checkpoint_resume_reads_nothing_twice(self, tmp_path):
        feed = str(tmp_path / "feed.jsonl")
        checkpoint = str(tmp_path / "cp")
        _write_feed(feed, _ab_events(6))
        with SequenceIndex(policy=Policy.STNM) as engine:
            with TailIngester(
                feed, EngineSink(engine), checkpoint
            ) as ingester:
                ingester.drain()
            with TailIngester(
                feed, EngineSink(engine), checkpoint
            ) as ingester:
                stats = ingester.drain()
            assert stats.events_read == 0
            assert stats.events_applied == 0

    def test_lost_checkpoint_replay_converges(self, tmp_path):
        # The checkpoint is gone but the index survived: the whole feed
        # replays and every event is deduplicated against the indexed
        # tails, leaving the index logically unchanged.
        feed = str(tmp_path / "feed.jsonl")
        _write_feed(feed, _ab_events(8))
        with SequenceIndex(LSMStore(str(tmp_path / "ix"))) as engine:
            with TailIngester(
                feed, EngineSink(engine), str(tmp_path / "cp1")
            ) as ingester:
                ingester.drain()
            before = index_snapshot(engine)
            with TailIngester(
                feed, EngineSink(engine), str(tmp_path / "cp2")
            ) as ingester:
                stats = ingester.drain()
            assert stats.events_read == 8
            assert stats.events_applied == 0
            assert stats.events_deduped == 8
            assert index_snapshot(engine) == before

    def test_events_appended_during_a_step_wait_for_the_next(self, tmp_path):
        # The checkpoint moves to where the step's read ended, not to
        # wherever the feed ends once the batch is applied.
        feed = str(tmp_path / "feed.jsonl")
        checkpoint = str(tmp_path / "cp")
        early, late = _ab_events(6)[:4], _ab_events(6)[4:]
        with FeedWriter(feed) as writer, SequenceIndex(policy=Policy.STNM) as engine:
            writer.append(early)
            read_end = writer.tell()

            class ProducerAppends(RealIO):
                """The producer appends as the first checkpoint is stored."""

                def open(self, path, mode="rb"):
                    if writer.tell() == read_end:
                        writer.append(late)
                    return super().open(path, mode)

            with TailIngester(
                feed, EngineSink(engine), checkpoint, io=ProducerAppends()
            ) as ingester:
                assert ingester.step() == 4
                assert load_checkpoint(checkpoint).offset == read_end < writer.tell()
                assert len(engine.get_trace("t1")) == 4
                assert ingester.step() == 2
                assert load_checkpoint(checkpoint).offset == writer.tell()
                assert ingester.step() == 0
            with SequenceIndex(policy=Policy.STNM) as clean:
                clean.update(early + late)
                assert index_snapshot(engine) == index_snapshot(clean)

    def test_background_follow_tails_a_growing_feed(self, tmp_path):
        feed = str(tmp_path / "feed.jsonl")
        with SequenceIndex(policy=Policy.STNM) as engine:
            ingester = TailIngester(
                feed,
                EngineSink(engine),
                str(tmp_path / "cp"),
                poll_interval_s=0.005,
            )
            try:
                ingester.start()
                with FeedWriter(feed) as writer:
                    for i in range(4):
                        writer.append(
                            [Event("t1", "AB"[i % 2], float(i + 1))]
                        )
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if ingester.stats().events_applied == 4:
                        break
                    time.sleep(0.01)
                stats = ingester.stop()
                assert stats.events_applied == 4
                assert len(engine.detect(["A", "B"])) == 2
            finally:
                ingester.close()

    def test_a_timed_run_drains_the_feed_and_a_stopped_one_does_not(self, tmp_path):
        feed = str(tmp_path / "feed.jsonl")
        _write_feed(feed, _ab_events(10))
        # duration_s: the tail loop ends at once, then the feed is drained
        with SequenceIndex() as engine:
            with TailIngester(
                feed, EngineSink(engine), str(tmp_path / "cp1"), batch_events=3
            ) as ingester:
                stats = ingester.run(duration_s=0)
            assert (stats.events_applied, stats.batches, stats.lag_bytes) == (10, 4, 0)
        # stop(): the batch in flight is applied and checkpointed, no other
        with SequenceIndex() as engine:
            with TailIngester(
                feed,
                EngineSink(engine),
                str(tmp_path / "cp2"),
                batch_events=3,
                pre_apply_hook=lambda batch_no: ingester.stop(),
            ) as ingester:
                stats = ingester.run()
            assert (stats.events_applied, stats.batches) == (3, 1)
            assert stats.lag_bytes > 0
            assert load_checkpoint(str(tmp_path / "cp2")).offset == stats.offset
            assert len(engine.get_trace("t1")) == 3

    def test_rejects_nonpositive_batch_size(self, tmp_path):
        with pytest.raises(ValueError):
            TailIngester(
                str(tmp_path / "f"), None, str(tmp_path / "cp"), batch_events=0
            )


def _example_sink():
    """``MonthlySink`` of examples/periodic_pipeline.py, the shipped recipe."""
    examples = os.path.join(os.path.dirname(__file__), "..", "..", "examples")
    return runpy.run_path(os.path.join(examples, "periodic_pipeline.py"))["MonthlySink"]


class TestRoutingSink:
    """A sink is anything with ``apply``: per-period partitions need no more."""

    def test_routed_ingest_equals_per_partition_batches(self, tmp_path):
        MonthlySink = _example_sink()
        month = 30 * 86_400.0
        events = sorted(
            [Event("jan", "AB"[i % 2], float(i + 1)) for i in range(4)]
            + [Event("feb", "AB"[i % 2], month + i) for i in range(4)]
            # one trace straddling the month boundary
            + [Event("both", "A", 9.0), Event("both", "B", month + 9.0)],
            key=lambda e: e.timestamp,
        )
        feed = str(tmp_path / "feed.jsonl")
        checkpoint = str(tmp_path / "cp")
        _write_feed(feed, events)

        # batch 1 is applied, not checkpointed: its checkpoint's first I/O dies
        kill = FaultyIO(FaultSchedule([Fault(CRASH, "open", nth=2)]))

        with SequenceIndex(LSMStore(str(tmp_path / "ix"))) as engine:
            sink = MonthlySink(engine)
            with TailIngester(feed, sink, checkpoint, batch_events=4, io=kill) as ingester:
                with pytest.raises(SimulatedCrash):
                    ingester.drain()
            with TailIngester(feed, sink, checkpoint, batch_events=4) as ingester:
                stats = ingester.drain()
            assert stats.events_deduped == 4  # batch 1, replayed
            assert stats.events_applied == 2  # batch 2

            with SequenceIndex(policy=Policy.STNM) as clean:
                clean.update([e for e in events if e.timestamp < month], "month-00")
                clean.update([e for e in events if e.timestamp >= month], "month-01")
                # each partition, then their union (the straddling pair
                # lands in month-01, where it completed)
                for name in ("month-00", "month-01", None):
                    routed = engine.detect(["A", "B"], partition=name)
                    assert routed == clean.detect(["A", "B"], partition=name)
                assert len(routed) == 5
                assert index_snapshot(engine) == index_snapshot(clean)


class TestMetrics:
    def test_ingester_exports_progress_and_freshness(self, tmp_path):
        feed = str(tmp_path / "feed.jsonl")
        _write_feed(feed, _ab_events(6))
        with SequenceIndex(policy=Policy.STNM) as engine:
            ingester = TailIngester(
                feed, EngineSink(engine), str(tmp_path / "cp"), name="t-ing"
            )
            try:
                ingester.drain()
                rendered = REGISTRY.render()
                assert 'repro_ingest_events_total{ingest="t-ing"} 6' in rendered
                assert 'repro_ingest_lag_bytes{ingest="t-ing"} 0' in rendered
                assert "repro_ingest_freshness_events_total" in rendered
                assert "repro_ingest_freshness_p99_seconds" in rendered
            finally:
                ingester.close()
            assert "t-ing" not in REGISTRY.render()

    def test_freshness_counts_only_stamped_events(self, tmp_path):
        feed = str(tmp_path / "feed.jsonl")
        _write_feed(feed, _ab_events(4), stamp=False)
        with SequenceIndex(policy=Policy.STNM) as engine:
            with TailIngester(
                feed, EngineSink(engine), str(tmp_path / "cp")
            ) as ingester:
                stats = ingester.drain()
                assert stats.events_applied == 4
                samples = ingester.freshness.samples()
                assert samples["repro_ingest_freshness_events_total"] == 0

    def test_replayed_batches_do_not_pollute_freshness(self, tmp_path):
        feed = str(tmp_path / "feed.jsonl")
        _write_feed(feed, _ab_events(4))
        with SequenceIndex(policy=Policy.STNM) as engine:
            with TailIngester(
                feed, EngineSink(engine), str(tmp_path / "cp1")
            ) as ingester:
                ingester.drain()
            # Replay through a fresh checkpoint: all events dedup, and the
            # (stale) stamps must not be re-observed as freshness.
            with TailIngester(
                feed, EngineSink(engine), str(tmp_path / "cp2")
            ) as replayer:
                replayer.drain()
                samples = replayer.freshness.samples()
                assert samples["repro_ingest_freshness_events_total"] == 0


class TestSharded:
    def test_sharded_ingest_matches_clean_single_store_build(self, tmp_path):
        events = _ab_events(10) + _ab_events(8, trace="t2")
        feed = str(tmp_path / "feed.jsonl")
        _write_feed(feed, sorted(events, key=lambda e: e.timestamp))
        sharded = ShardedSequenceIndex.open(
            str(tmp_path / "shx"), LSMStore, num_shards=2
        )
        try:
            with TailIngester(
                feed, EngineSink(sharded), str(tmp_path / "cp"), batch_events=4
            ) as ingester:
                stats = ingester.drain()
            assert stats.events_applied == 18
            streamed = index_snapshot(sharded)
        finally:
            sharded.close()
        with SequenceIndex(LSMStore(str(tmp_path / "ix"))) as clean:
            clean.update(events)
            assert streamed == index_snapshot(clean)
