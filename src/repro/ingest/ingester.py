"""The tailing ingester: append-only feed -> live index, in micro-batches.

``TailIngester`` turns the batch ``update()`` path into a continuous
pipeline.  One :meth:`~TailIngester.step` is one micro-batch:

1. read up to ``batch_events`` complete events from the feed, starting at
   the durable checkpoint offset (:mod:`repro.ingest.feed` guarantees torn
   tails are never consumed);
2. apply them through the sink -- a live engine (:class:`EngineSink`:
   single-store or sharded, queries keep serving throughout because
   ``update()`` never stops the world) or a running query service
   (:class:`ServiceSink`: the ``ingest`` op with its backpressure seam) --
   as ``update(dedup=True)``, which drops the events the index already
   holds (this is what makes crash replay convergent, see below);
3. observe end-to-end freshness for every stamped event (append instant ->
   batch visible);
4. persist the checkpoint.

Crash recovery is replay-to-converge: the checkpoint is written strictly
*after* the batch is applied, so a kill at any instant leaves the
checkpoint at or behind the index.  Restarting replays the suffix since
the checkpoint; ``dedup`` drops every event whose timestamp is at or before
its trace's indexed tail, so the replayed prefix is a no-op and the final
index state equals a clean batch build over the same feed
(:mod:`repro.faults.ingest` proves this under seeded kills between
``update()`` calls; a kill *inside* one is the hole docs/INGEST.md states).

The ingester registers with the process metrics registry: batch/event/
dedup counters, an ingest byte-lag gauge, and the freshness histogram of
:mod:`repro.ingest.freshness` all appear in ``python -m repro metrics``
style expositions (docs/METRICS.md).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.ingest.checkpoint import Checkpoint, load_checkpoint, store_checkpoint
from repro.ingest.feed import FeedEvent, feed_size, read_feed
from repro.ingest.freshness import FreshnessTracker
from repro.obs.registry import REGISTRY

__all__ = [
    "EngineSink",
    "IngestStats",
    "ServiceSink",
    "TailIngester",
]


class EngineSink:
    """Applies micro-batches to a live engine (single-store or sharded).

    ``engine`` is anything with the ``SequenceIndex`` write surface
    (``update()``).  Queries on the same engine keep
    serving while batches apply, and see a batch's events as soon as it
    returns: the answer memo is keyed by write generation, and the per-row
    caches drop exactly the rows the batch wrote.
    """

    def __init__(self, engine: Any, partition: str = "") -> None:
        self.engine = engine
        self.partition = partition

    def apply(self, events: list[FeedEvent]) -> tuple[int, int]:
        """Apply one batch, deduplicated; returns (applied, dropped)."""
        stats = self.engine.update(
            [event.to_event() for event in events], self.partition, dedup=True
        )
        return stats.events_indexed, stats.events_deduped


class ServiceSink:
    """Ships micro-batches to a running query service over the ingest op.

    The server applies the same replay filter (``dedup=True``), so remote
    ingest keeps the convergence guarantee.  Backpressure (``overloaded``)
    is retried with exponential backoff up to ``max_retries`` times -- the
    service's bounded ingest pool slows this producer down instead of
    dropping its events.
    """

    def __init__(
        self,
        client: Any,
        partition: str = "",
        max_retries: int = 8,
        retry_wait_s: float = 0.05,
    ) -> None:
        self.client = client
        self.partition = partition
        self.max_retries = max_retries
        self.retry_wait_s = retry_wait_s

    def apply(self, events: list[FeedEvent]) -> tuple[int, int]:
        from repro.service.client import ServiceError

        batch = [
            (event.trace_id, event.activity, event.timestamp)
            for event in events
        ]
        wait = self.retry_wait_s
        for attempt in range(self.max_retries + 1):
            try:
                result = self.client.ingest(
                    batch, partition=self.partition, dedup=True
                )
            except ServiceError as exc:
                if exc.code != "overloaded" or attempt == self.max_retries:
                    raise
                time.sleep(wait)
                wait *= 2
            else:
                return (
                    int(result.get("events_indexed", 0)),
                    int(result.get("events_deduped", 0)),
                )
        raise AssertionError("unreachable")  # pragma: no cover


@dataclass(frozen=True)
class IngestStats:
    """Progress snapshot of one ingester (cumulative across restarts)."""

    offset: int
    batches: int
    events_read: int
    events_applied: int
    events_deduped: int
    lag_bytes: int


class TailIngester:
    """Tails one feed into one sink with durable micro-batch checkpoints."""

    def __init__(
        self,
        feed_path: str,
        sink: Any,
        checkpoint_path: str,
        batch_events: int = 256,
        poll_interval_s: float = 0.05,
        name: str | None = None,
        pre_apply_hook: Callable[[int], None] | None = None,
        pre_checkpoint_hook: Callable[[int], None] | None = None,
    ) -> None:
        if batch_events <= 0:
            raise ValueError("batch_events must be positive")
        self.feed_path = feed_path
        self.sink = sink
        self.checkpoint_path = checkpoint_path
        self.batch_events = batch_events
        self.poll_interval_s = poll_interval_s
        #: fault-injection seams for the crash-replay harness: called with
        #: the batch ordinal just before apply / just before checkpoint
        self.pre_apply_hook = pre_apply_hook
        self.pre_checkpoint_hook = pre_checkpoint_hook
        self.freshness = FreshnessTracker()
        self._lock = threading.Lock()
        self._checkpoint = load_checkpoint(checkpoint_path)
        self._events_read = 0
        self._events_applied = 0
        self._events_deduped = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._obs_handle: int | None = REGISTRY.register(
            {"ingest": name if name is not None else feed_path}, self._collect
        )

    # -- metrics ------------------------------------------------------------------

    def _collect(self) -> dict[str, float]:
        stats = self.stats()
        samples = {
            "repro_ingest_batches_total": stats.batches,
            "repro_ingest_events_total": stats.events_applied,
            "repro_ingest_deduped_total": stats.events_deduped,
            "repro_ingest_lag_bytes": stats.lag_bytes,
        }
        samples.update(self.freshness.samples())
        return samples

    def stats(self) -> IngestStats:
        with self._lock:
            checkpoint = self._checkpoint
            read = self._events_read
            applied = self._events_applied
            deduped = self._events_deduped
        return IngestStats(
            offset=checkpoint.offset,
            batches=checkpoint.batches,
            events_read=read,
            events_applied=applied,
            events_deduped=deduped,
            lag_bytes=max(0, feed_size(self.feed_path) - checkpoint.offset),
        )

    # -- the micro-batch loop -----------------------------------------------------

    def step(self) -> int:
        """Consume one micro-batch; returns the number of events read.

        Returns 0 when the feed holds no complete unconsumed line -- the
        caller decides whether to poll again (:meth:`run`) or stop
        (:meth:`drain`).
        """
        checkpoint = self._checkpoint
        events, new_offset = read_feed(
            self.feed_path, checkpoint.offset, self.batch_events
        )
        if new_offset == checkpoint.offset:
            return 0
        batch_no = checkpoint.batches
        if events:
            if self.pre_apply_hook is not None:
                self.pre_apply_hook(batch_no)
            applied, dropped = self.sink.apply(events)
            visible_at = time.time()
            if applied and not dropped:
                # Replayed batches (dropped > 0) are excluded: their events
                # became visible before the crash, so re-observing them now
                # would record the outage, not the pipeline's freshness.
                for event in events:
                    if event.appended_at is not None:
                        self.freshness.observe(visible_at - event.appended_at)
        else:
            applied = dropped = 0  # only blank lines: just advance
        if self.pre_checkpoint_hook is not None:
            self.pre_checkpoint_hook(batch_no)
        advanced = Checkpoint(
            offset=new_offset,
            batches=checkpoint.batches + 1,
            events=checkpoint.events + applied,
        )
        store_checkpoint(self.checkpoint_path, advanced)
        with self._lock:
            self._checkpoint = advanced
            self._events_read += len(events)
            self._events_applied += applied
            self._events_deduped += dropped
        return len(events)

    def drain(self) -> IngestStats:
        """Consume every complete event currently in the feed, then stop."""
        while not self._stop.is_set() and self.step() > 0:
            pass
        return self.stats()

    def run(self, duration_s: float | None = None) -> IngestStats:
        """Tail the feed until :meth:`stop` (or for ``duration_s``), then
        drain whatever is already complete in the feed."""
        deadline = (
            time.monotonic() + duration_s if duration_s is not None else None
        )
        while not self._stop.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                break
            if self.step() == 0:
                self._stop.wait(self.poll_interval_s)
        return self.drain()

    # -- background operation -----------------------------------------------------

    def start(self, duration_s: float | None = None) -> "TailIngester":
        """Run the tail loop on a background thread (idempotent stop)."""
        if self._thread is not None:
            raise RuntimeError("ingester already started")
        self._thread = threading.Thread(
            target=self.run, args=(duration_s,), name="repro-ingest", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> IngestStats:
        """Signal the loop to finish its current batch and join it."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        return self.stats()

    def close(self) -> None:
        """Stop the loop and unregister the metrics collector."""
        self.stop()
        if self._obs_handle is not None:
            REGISTRY.unregister(self._obs_handle)
            self._obs_handle = None

    def __enter__(self) -> "TailIngester":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
