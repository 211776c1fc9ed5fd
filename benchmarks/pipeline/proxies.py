"""Delegating proxies at the three public seams the benchmark measures through.

* :class:`StoreProxy` -- the ``KeyValueStore`` handed to the engine (traced
  runs only);
* :class:`SinkProxy` -- the sink handed to ``TailIngester`` (every
  ``stream_ingest`` run: it is where per-event freshness is taken);
* :class:`ClientProxy` -- the calls made on a ``ServiceClient``.

Each forwards everything it does not time, so the program sees the object it
would see without the benchmark.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable

from repro.obs import Tracer, activate
from repro.service.client import ServiceError

from common import ratio
from spans import SpanRecorder


class StoreProxy:
    """Times the engine's point reads and writes on the wrapped store."""

    def __init__(self, store: Any, recorder: SpanRecorder, wal_path: str) -> None:
        self._store = store
        self._rec = recorder
        self._wal_path = wal_path
        self._wal_size = 0
        #: bytes appended to the active WAL, sampled by a stat after every
        #: write; the one record that triggers each flush is not seen
        self.wal_bytes = 0
        self.multi_get_keys = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)

    def _write(self, name: str, fn: Callable[..., Any], *args: Any) -> None:
        self._rec.call(name, fn, *args)
        try:
            size = os.path.getsize(self._wal_path)
        except OSError:  # mid-rotation
            size = 0
        self.wal_bytes += size - self._wal_size if size >= self._wal_size else size
        self._wal_size = size

    def merge(self, table: str, key: Any, delta: Any) -> None:
        self._write("kvstore.merge", self._store.merge, table, key, delta)

    def put(self, table: str, key: Any, value: Any) -> None:
        self._write("kvstore.put", self._store.put, table, key, value)

    def delete(self, table: str, key: Any) -> None:
        self._write("kvstore.delete", self._store.delete, table, key)

    def get(self, table: str, key: Any, default: Any = None) -> Any:
        return self._rec.call("kvstore.get", self._store.get, table, key, default)

    def multi_get(self, table: str, keys: Any, default: Any = None) -> list[Any]:
        keys = list(keys)
        self.multi_get_keys += len(keys)
        return self._rec.call("kvstore.multi_get", self._store.multi_get, table, keys, default)


def store_write_layers(totals: dict[str, dict[str, float]], store: StoreProxy) -> dict[str, float]:
    """The kvstore write-path numbers of a traced run, from the proxy's spans
    (``totals`` is ``SpanRecorder.totals()``) and the store's own counters."""

    def spans(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0.0)

    counters = store.metrics.snapshot()
    flush_bytes = counters["flush_bytes_written"]
    multi_gets = spans("kvstore.multi_get", "calls")
    return {
        "kvstore.merge_s": spans("kvstore.merge", "total_s"),
        "kvstore.get_s": spans("kvstore.get", "total_s"),
        "kvstore.get_calls": spans("kvstore.get", "calls"),
        "kvstore.multi_get_s": spans("kvstore.multi_get", "total_s"),
        "kvstore.multi_get_calls": multi_gets,
        "kvstore.keys_per_multi_get": ratio(store.multi_get_keys, multi_gets),
        "kvstore.flush_s": spans("kvstore.flush", "total_s"),
        "kvstore.close_s": spans("kvstore.close", "total_s"),
        "kvstore.wal_bytes": store.wal_bytes,
        "kvstore.flushes": counters["flushes"],
        "kvstore.compactions": counters["compactions"],
        "kvstore.write_amp": ratio(
            flush_bytes + counters["compaction_bytes_rewritten"], flush_bytes),
    }


class SinkProxy:
    """Takes per-event freshness at the return of ``apply``.

    Freshness is the feed's ``at`` stamp to the instant the batch holding
    the event became queryable.  With a recorder, ``apply`` is also a span
    and runs under a ``repro.obs`` tracer of its own (the ingester thread
    has no ambient one), which catches flush and compaction stalls.
    """

    def __init__(self, sink: Any, recorder: SpanRecorder | None = None) -> None:
        self._sink = sink
        self._rec = recorder
        self.tracer = Tracer(max_spans=1_000_000) if recorder is not None else None
        self.observing = True
        self.freshness_s: list[float] = []
        #: a ``HostSpeed`` to sample after every batch, set while ``drain()``
        #: is timed: the drain runs on the calling thread and this is the one
        #: place between its batches that the benchmark owns
        self.speed: Any = None

    def __getattr__(self, name: str) -> Any:
        return getattr(self._sink, name)

    def apply(self, events: list[Any]) -> tuple[int, int]:
        if self._rec is None:
            result = self._sink.apply(events)
        else:
            with activate(self.tracer):
                result = self._rec.call("ingest.apply", self._sink.apply, events)
        visible_at = time.time()
        if self.observing:
            self.freshness_s.extend(
                visible_at - event.appended_at
                for event in events
                if event.appended_at is not None
            )
        if self.speed is not None:
            self.speed.sample()
        return result


class ClientProxy:
    """Times each call on a ``ServiceClient`` and tallies failures per code."""

    def __init__(self, client: Any, recorder: SpanRecorder | None = None) -> None:
        self._client = client
        self._rec = recorder
        self.errors_by_code: dict[str, int] = {}
        self.first_error: dict[str, str] = {}  # one message per code, for the notes

    def close(self) -> None:
        self._client.close()

    def call(self, op: str, *args: Any, request: Any = None) -> tuple[float, Any, str | None]:
        """``(seconds, result, error code or None)`` of one request."""
        fn = getattr(self._client, op)
        start = time.perf_counter()
        code = None
        result = None
        try:
            if self._rec is None:
                result = fn(*args)
            else:
                result = self._rec.call(f"service.{op}", fn, *args, request=request)
        except ServiceError as exc:
            code, message = exc.code, exc.message
        except OSError as exc:
            code, message = "transport", str(exc)
        elapsed = time.perf_counter() - start
        if code is not None:
            self.errors_by_code[code] = self.errors_by_code.get(code, 0) + 1
            self.first_error.setdefault(code, f"{op}: {message}")
        return elapsed, result, code
