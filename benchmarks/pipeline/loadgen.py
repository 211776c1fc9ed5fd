"""The benchmark's own load generator for ``serve_mixed``.

Two connections, neither with more than one request in flight.  The ingest
connection is a closed loop: 8-event batches as fast as the server commits
them.  The analyst connection polls on a timer, one ``detect`` every
``READ_INTERVAL_S``, walking the hot pool round-robin in a seeded order; its
latency counts from the instant a request was due, so a stall shows.  Each
connection walks a request sequence fixed by the seed alone, so two runs with
one seed see the same prefix however far each gets.  Write traces are
namespaced by run id, carry monotonic timestamps, and rotate after
``BATCHES_PER_TRACE`` batches so the cost of a write does not drift as the
run goes on.  Failures are tallied per error code; a read that returns a wrong
match set is a failure too.

What was tried first, and why it went:

* The issue's mix, 80 % reads and 20 % writes in a closed loop on both
  connections.  After every commit each connection recomputes the whole pool
  within one cache generation, and that reaches a fault of the baseline
  commit: ``QueryProcessor._cardinalities`` clears its Count-row cache once
  it holds more than 4 096 rows, also under a query that found part of its
  rows there, which then fails with a ``KeyError`` (served as
  ``bad_request``, about one request in 1 500).  A benchmark workload may
  hold no failing operation and nothing under ``src/`` changes here.  A
  recomputed read caches at most 9 rows per shard, so the analyst's 20
  reads/s stay under 2 800 rows in the driver's 15 s, whatever the pool; a
  run of ``--seconds`` 23 or more can reach the fault, and a request it
  fails counts as failed like any other.
* A closed-loop analyst, paced against the writes or free-running.  A write
  invalidates every cached pool answer; a cached read takes 0.06 ms, a
  recomputed one 7 to 25 ms and a write 30 ms.  Whenever the analyst gets
  round the pool before the next commit, it collects dozens of cached
  answers in the remaining milliseconds, so the share of cached reads, and
  with it the read median, flips between runs (0.07 to 27 ms).  On a timer a
  pattern comes round every 400 ms, a dozen commits later, and every read
  recomputes beside a write in progress, which is what this workload is for.
  The cached path alone is ``service.hot_read_p50_ms`` in the traced run.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from proxies import ClientProxy

EVENTS_PER_WRITE = 8
BATCHES_PER_TRACE = 5
READ_INTERVAL_S = 0.05


@dataclass(frozen=True)
class Request:
    kind: str  # "read" or "write"
    pattern: int = -1  # index into the hot pool
    events: tuple[tuple[str, str, float], ...] = ()


def read_stream(seed: int, pool_size: int) -> Iterator[Request]:
    """The analyst connection's endless, deterministic request sequence."""
    order = list(range(pool_size))
    random.Random(seed * 1009).shuffle(order)
    while True:
        for pattern in order:
            yield Request("read", pattern=pattern)


def write_stream(seed: int, run_id: str, alphabet: list[str]) -> Iterator[Request]:
    """The ingest connection's endless, deterministic request sequence."""
    rng = random.Random(seed * 1009 + 1)
    batch = 0
    while True:
        trace = f"w-{run_id}-{batch // BATCHES_PER_TRACE}"
        first = (batch % BATCHES_PER_TRACE) * EVENTS_PER_WRITE
        events = tuple(
            (trace, rng.choice(alphabet), float(first + i + 1))
            for i in range(EVENTS_PER_WRITE)
        )
        batch += 1
        yield Request("write", events=events)


@dataclass
class ConnectionLog:
    """What one connection saw: every request with its start and latency."""

    requests: list[tuple[float, Request, float, bool]] = field(default_factory=list)
    acked_tail: dict[str, float] = field(default_factory=dict)
    wrong_results: int = 0


def canonical(rows: Any) -> frozenset:
    """A served ``detect`` result as a comparable match set."""
    return frozenset((row["trace_id"], tuple(row["timestamps"])) for row in rows)


def drive(proxy: ClientProxy, stream: Iterator[Request], pool: list[list[str]],
          expected: list[frozenset], deadline: float, interval_s: float,
          tag: str) -> ConnectionLog:
    """One connection until ``deadline`` (``perf_counter``).

    With ``interval_s`` the requests are due on that schedule and their
    latency counts from the due instant; with 0 the loop is closed.
    """
    log = ConnectionLog()
    begin = time.perf_counter()
    for sequence, request in enumerate(stream):
        start = time.perf_counter()
        if interval_s:
            due = begin + sequence * interval_s
            if due > start:
                time.sleep(min(due, deadline) - start)
                start = time.perf_counter()
        if start >= deadline:
            break
        if request.kind == "read":
            elapsed, result, code = proxy.call(
                "detect", pool[request.pattern], request=f"{tag}-{sequence}")
            if interval_s:
                elapsed += start - max(due, begin)
            ok = code is None
            if ok and canonical(result) != expected[request.pattern]:
                log.wrong_results += 1
                ok = False
        else:
            elapsed, result, code = proxy.call(
                "ingest", request.events, request=f"{tag}-{sequence}")
            ok = code is None and result.get("events_indexed") == len(request.events)
            if ok:
                log.acked_tail[request.events[-1][0]] = request.events[-1][2]
        log.requests.append((start, request, elapsed, ok))
    return log


def run_connections(proxies: list[ClientProxy], streams: list[Iterator[Request]],
                    intervals: list[float], pool: list[list[str]],
                    expected: list[frozenset], seconds: float, tag: str) -> list[ConnectionLog]:
    """One thread per connection, started together, for ``seconds``."""
    logs: list[Any] = [None] * len(proxies)
    deadline = time.perf_counter() + seconds

    def worker(i: int) -> None:
        logs[i] = drive(proxies[i], streams[i], pool, expected, deadline, intervals[i],
                        f"{tag}{i}")

    threads = [threading.Thread(target=worker, args=(i,), name=f"loadgen-{i}")
               for i in range(len(proxies))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if any(log is None for log in logs):
        raise RuntimeError("a load-generator connection died; see the traceback above")
    return logs
