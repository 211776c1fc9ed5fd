"""Remote ingest: the ServiceSink path and server-side replay dedup."""

from __future__ import annotations

import pytest

from repro.core.engine import SequenceIndex
from repro.core.policies import Policy
from repro.ingest import EngineSink, FeedWriter, ServiceSink, TailIngester
from repro.service import SequenceService, ServiceClient
from repro.shard import ShardedSequenceIndex

from tests.ingest.test_ingester import _ab_events


@pytest.fixture(params=[1, 2], ids=["single", "sharded"])
def service(request):
    if request.param == 1:
        engine = SequenceIndex(policy=Policy.STNM)
    else:
        engine = ShardedSequenceIndex(
            [SequenceIndex(policy=Policy.STNM) for _ in range(2)]
        )
    svc = SequenceService(engine, port=0)
    svc.start()
    yield svc
    svc.shutdown()
    engine.close()


def _feed(tmp_path, events):
    path = str(tmp_path / "feed.jsonl")
    with FeedWriter(path) as writer:
        writer.append(events)
    return path


class TestServiceSink:
    def test_remote_ingest_is_queryable(self, service, tmp_path):
        host, port = service.address
        feed = _feed(
            tmp_path, _ab_events(6) + _ab_events(4, trace="t2")
        )
        with ServiceClient(host, port) as client:
            with TailIngester(
                feed,
                ServiceSink(client),
                str(tmp_path / "cp"),
                batch_events=4,
            ) as ingester:
                stats = ingester.drain()
            assert stats.events_applied == 10
            assert stats.events_deduped == 0
            assert len(client.detect(["A", "B"])) == 5

    def test_server_side_dedup_makes_replay_idempotent(self, service, tmp_path):
        # A fresh checkpoint replays the whole feed over the wire; the
        # server's indexed-tail filter (dedup=True) drops every event, so
        # the convergence guarantee survives the network hop.
        host, port = service.address
        feed = _feed(tmp_path, _ab_events(8))
        with ServiceClient(host, port) as client:
            with TailIngester(
                feed, ServiceSink(client), str(tmp_path / "cp1")
            ) as ingester:
                ingester.drain()
            before = len(client.detect(["A", "B"]))
            with TailIngester(
                feed, ServiceSink(client), str(tmp_path / "cp2")
            ) as replayer:
                stats = replayer.drain()
            assert stats.events_applied == 0
            assert stats.events_deduped == 8
            assert len(client.detect(["A", "B"])) == before

    def test_dedup_flag_counts_in_the_response(self, service, tmp_path):
        host, port = service.address
        with ServiceClient(host, port) as client:
            batch = [("t9", "A", 1.0), ("t9", "B", 2.0)]
            first = client.ingest(batch, dedup=True)
            again = client.ingest(batch, dedup=True)
        assert first["events_indexed"] == 2
        assert again["events_indexed"] == 0
        assert again["events_deduped"] == 2


    def test_pure_replay_keeps_generation_and_warm_caches(self, service):
        # A fully deduplicated batch writes nothing, so it must not bump any
        # write generation: the next identical query reads no postings from
        # a store.
        engine = service.engine
        shards = getattr(engine, "shards", None) or [engine]
        host, port = service.address
        batch = [(trace, "AB"[i % 2], float(i + 1)) for trace in ("t1", "t2", "t3", "t4")
                 for i in range(4)]
        with ServiceClient(host, port) as client:
            client.ingest(batch, dedup=True)
            warm = client.detect(["A", "B"])
            generations = [shard.write_generation for shard in shards]
            misses = [shard.postings_cache_stats()["misses"] for shard in shards]
            replay = client.ingest(batch, dedup=True)
            assert (replay["events_indexed"], replay["events_deduped"]) == (0, 16)
            assert [shard.write_generation for shard in shards] == generations
            assert client.detect(["A", "B"]) == warm
            assert [shard.postings_cache_stats()["misses"] for shard in shards] == misses
            # ... and a batch that does write still invalidates.
            client.ingest([("t1", "A", 9.0), ("t1", "B", 10.0)], dedup=True)
            assert [shard.write_generation for shard in shards] != generations
            assert len(client.detect(["A", "B"])) == len(warm) + 1


class TestLocalRemoteEquivalence:
    def test_same_feed_same_matches(self, tmp_path):
        events = _ab_events(10) + _ab_events(6, trace="t2")
        feed = _feed(tmp_path, sorted(events, key=lambda e: e.timestamp))
        with SequenceIndex(policy=Policy.STNM) as local:
            with TailIngester(
                feed, EngineSink(local), str(tmp_path / "cp-local")
            ) as ingester:
                ingester.drain()
            expected = len(local.detect(["A", "B"]))

        engine = SequenceIndex(policy=Policy.STNM)
        svc = SequenceService(engine, port=0)
        svc.start()
        try:
            host, port = svc.address
            with ServiceClient(host, port) as client:
                with TailIngester(
                    feed, ServiceSink(client), str(tmp_path / "cp-remote")
                ) as ingester:
                    ingester.drain()
                assert len(client.detect(["A", "B"])) == expected
        finally:
            svc.shutdown()
            engine.close()
