"""Streaming ingest: tail an append-only event feed into a live index.

The subsystem in one picture::

    producer --append--> feed.jsonl --tail--> TailIngester --micro-batch-->
        EngineSink (in-process engine)  or  ServiceSink (`ingest` RPC)
        --> SequenceIndex.update() / ShardedSequenceIndex.update()
        ... while detect()/count()/contains() keep serving

* :mod:`repro.ingest.feed` -- the JSONL feed format, append-stamped for
  freshness measurement, torn-tail safe for byte-offset tailing;
* :mod:`repro.ingest.checkpoint` -- durable apply-then-checkpoint offsets;
* :mod:`repro.ingest.ingester` -- the micro-batch tail loop, replay
  deduplication, backpressure-aware service sink, metrics;
* :mod:`repro.ingest.freshness` -- the event-appended -> visible-in-detect
  latency histogram behind the freshness SLO;
* :mod:`repro.ingest.convergence` -- canonical index snapshots used to
  prove streaming == batch (see :mod:`repro.faults.ingest`).

Operator docs: docs/INGEST.md.  CLI: ``python -m repro feed`` /
``python -m repro ingest``.
"""

from repro.ingest.checkpoint import Checkpoint, load_checkpoint, store_checkpoint
from repro.ingest.convergence import index_snapshot
from repro.ingest.feed import (
    FeedEvent,
    FeedFormatError,
    FeedWriter,
    feed_size,
    read_feed,
)
from repro.ingest.freshness import FreshnessTracker
from repro.ingest.ingester import (
    EngineSink,
    IngestStats,
    ServiceSink,
    TailIngester,
)

__all__ = [
    "Checkpoint",
    "EngineSink",
    "FeedEvent",
    "FeedFormatError",
    "FeedWriter",
    "FreshnessTracker",
    "IngestStats",
    "ServiceSink",
    "TailIngester",
    "feed_size",
    "index_snapshot",
    "load_checkpoint",
    "read_feed",
    "store_checkpoint",
]
