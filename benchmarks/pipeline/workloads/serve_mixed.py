"""serve_mixed: a 2-shard store behind ``python -m repro serve``, under load.

The server is a subprocess, so the load generator does not share its GIL.
Two connections (no more than ``nproc`` on the 2-core machine this was sized
for) drive it for ``--seconds``: an analyst polls ``detect`` every 50 ms from
the issue's hot pool of 8 rare-pair length-10 patterns; an ingester sends
8-event ``ingest`` batches in a closed loop, each of which invalidates one
shard's cache generation and with it every cached pool answer.  Writes sit
beside reads, so a read gain that costs writes, or the reverse, is visible:
the rate is the ingester's (acknowledged events per second; the analyst's
20 requests/s are set by its timer and would only dilute it), the latency the
analyst's.  Both are as read: the server is another process, and calibration
units run beside the client's own threads read the host's speed too poorly to
scale by; only the set-up, which is single-threaded, is taken at the
reference speed (``common.HostSpeed``).
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import time

from repro.core.model import Event
from repro.executor import ParallelExecutor
from repro.service import ServiceClient
from repro.shard.index import ShardedSequenceIndex

import loadgen
from common import (
    PATTERN_SEED, REPO_ROOT, Outcome, RunConfig, at_reference, dir_bytes, load_log, match_set,
    median, open_store, percentile, sample_sequences, timed, update_batches,
)
from proxies import ClientProxy

SHARDS = 2
CONNECTIONS = 2  # one analyst, one ingester
POOL_SIZE = 8
POOL_CANDIDATES = 600
PING_COUNT = 200
FANOUT_ROUNDS = 10


def hot_pool(engine, log) -> list[list[str]]:
    """The matching length-10 patterns whose rarest consecutive pair is rarest.

    A pattern whose pair chain matches nothing is answered from the Count
    table alone, so only patterns with at least one match qualify.
    """
    rng = random.Random(PATTERN_SEED)
    candidates = sample_sequences(rng, list(log), 10, POOL_CANDIDATES, set())
    candidates.sort(key=lambda p: min(s.completions for s in engine.statistics(list(p)).pairs))
    pool: list[list[str]] = []
    for pattern in candidates:
        if len(pool) < POOL_SIZE and engine.detect(list(pattern)):
            pool.append(list(pattern))
    if len(pool) < POOL_SIZE:
        raise RuntimeError(f"only {len(pool)} matching pool patterns at this scale and seed")
    return pool


class Server:
    """``python -m repro serve`` as a child process on an ephemeral port,
    pinned to one processor.

    The server's threads share one interpreter lock, so it cannot use a
    second processor; left free, its connection threads land on different
    ones and hand the lock across.  On the 2-core VM this was sized on that
    flips the workload, for minutes at a time, into a second mode (read
    median 39 ms against 22, a fifth fewer writes: three of four free runs
    against none of twelve pinned ones), which no bound covers.
    """

    def __init__(self, store: str) -> None:
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", store, "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
        )
        # before the child has started a thread: they inherit the mask
        os.sched_setaffinity(self.process.pid, {min(os.sched_getaffinity(0))})
        line = self.process.stdout.readline()  # "serving <store> (...) on host:port"
        if " on " not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.rsplit(" on ", 1)[1].strip().rsplit(":", 1)
        self.address = (host, int(port))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """Drain (SIGINT), then wait; kill only if the drain hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def latencies_ms(logs, kind: str) -> list[float]:
    return [elapsed * 1e3 for log in logs
            for _start, request, elapsed, ok in log.requests
            if ok and request.kind == kind]


def run(cfg: RunConfig) -> Outcome:
    rec = cfg.recorder
    root = cfg.work_dir / "store"
    setup_start = time.perf_counter()
    generate_s, log = load_log(cfg)
    # The fixture is built shard after shard: two builder threads on one GIL
    # take 1.7x as long to write the same store.  The server opens it with
    # the defaults ``repro serve`` gives.
    engine = ShardedSequenceIndex.open(
        root, open_store, num_shards=SHARDS, executor=ParallelExecutor.serial())
    for batch in update_batches(log, cfg.seed):
        cfg.speed.sample(5)
        engine.update(batch)
    cfg.speed.sample(5)
    pool = hot_pool(engine, log)
    expected = [frozenset(match_set(engine.detect(p))) for p in pool]
    per_shard_events = [0] * SHARDS
    for trace in log:
        per_shard_events[engine.shard_of(trace.trace_id)] += len(trace)
    engine.close()
    store_bytes = dir_bytes(root)  # before the load, so that it repeats exactly
    if cfg.trace:
        shutil.copytree(root, cfg.work_dir / "replay")
    server = Server(str(root))
    try:
        proxies = [ClientProxy(ServiceClient(*server.address), rec)
                   for _ in range(CONNECTIONS)]
        setup_s = at_reference(cfg, setup_start, time.perf_counter())

        # Before load: the pool over the socket equals the in-process answers.
        failed = sum(
            loadgen.canonical(proxies[0].call("detect", p)[1] or ()) != want
            for p, want in zip(pool, expected)
        )
        alphabet = sorted(log.activities())
        run_id = f"s{cfg.seed}"
        per_layer: dict[str, float] = {}
        mixed_seconds = cfg.seconds
        if cfg.trace:
            mixed_seconds = cfg.seconds * 2 / 3
            pings = [proxies[0].call("ping")[0] * 1e3 for _ in range(PING_COUNT)]
            hot = loadgen.run_connections(
                proxies[:1], [loadgen.read_stream(cfg.seed, POOL_SIZE)], [0.0], pool,
                expected, cfg.seconds / 3, "hot")
            per_layer["service.ping_rtt_ms"] = median(pings)
            per_layer["service.hot_read_p50_ms"] = median(latencies_ms(hot, "read"))
        streams = [loadgen.read_stream(cfg.seed, POOL_SIZE),
                   loadgen.write_stream(cfg.seed, run_id, alphabet)]
        load_start = time.perf_counter()
        logs = loadgen.run_connections(
            proxies, streams, [loadgen.READ_INTERVAL_S, 0.0], pool, expected,
            mixed_seconds, "mix")
        load_s = time.perf_counter() - load_start
        stats = proxies[0].call("stats")[1] or {}
        rss_mb = server.peak_rss_mb()
        for proxy in proxies:
            proxy.close()
    finally:
        server.stop()

    requests = [row for log_ in logs for row in log_.requests]
    ok_count = sum(ok for *_rest, ok in requests)
    failed += len(requests) - ok_count
    reads, writes = latencies_ms(logs, "read"), latencies_ms(logs, "write")

    # After load: every acknowledged ingest is visible in the reopened store.
    acked = {trace: tail for log_ in logs for trace, tail in log_.acked_tail.items()}
    with ShardedSequenceIndex.open(root, open_store) as reopened:
        lost = sum(reopened.indexed_tail(trace) != tail for trace, tail in acked.items())
    failed += lost
    acked_events = loadgen.EVENTS_PER_WRITE * len(writes)

    end_to_end = {
        "setup_s": setup_s,
        "throughput_per_s": acked_events / load_s,
        "latency_p50_ms": median(reads),
        "disk_bytes_per_event": store_bytes / log.num_events,
        "peak_rss_mb": rss_mb,
    }
    extras = {"serve_qps": ok_count / load_s, "serve_write_p50_ms": median(writes)}
    errors: dict[str, int] = {}
    first_error: dict[str, str] = {}
    for proxy in proxies:
        for code, count in proxy.errors_by_code.items():
            errors[code] = errors.get(code, 0) + count
            first_error.setdefault(code, proxy.first_error[code])
    if cfg.trace:
        per_layer.update({
            "logs.generate_s": generate_s,
            **extras,
            "service.read_p99_ms": percentile(reads, 0.99),
            "service.write_p99_ms": percentile(writes, 0.99),
            "service.rejected": errors.get("overloaded", 0),
            "service.deadline_exceeded": errors.get("deadline", 0),
            "service.errors": sum(errors.values()) + sum(log_.wrong_results for log_ in logs),
            "service.acked_writes_lost": lost,
            "shard.event_skew": max(per_shard_events) / (sum(per_shard_events) / SHARDS),
            "kvstore.sstables_final": stats.get("totals", {}).get("sstables", 0),
        })
        per_layer.update({f"service.errors_by_code.{code}": count
                          for code, count in errors.items()})
        per_layer.update(replay_layers(cfg, requests, pool, median(reads)))
    return Outcome(
        end_to_end=end_to_end,
        attempted=len(requests) + len(pool) + len(acked),
        failed=failed,
        extras=extras,
        per_layer=per_layer,
        notes={
            "events": log.num_events, "acked_write_events": acked_events,
            "connections": CONNECTIONS, "server": f"subprocess pid {server.process.pid}",
            "requests": len(requests), "reads": len(reads), "writes": len(writes),
            "errors_by_code": errors, "first_error": first_error,
            "acked_writes_lost": lost,
            "load_seconds": round(load_s, 3), "shards": SHARDS,
            "host_cost": cfg.speed.cost(setup_start, load_start),
        },
    )


def replay_layers(cfg: RunConfig, requests, pool, served_read_p50_ms: float) -> dict[str, float]:
    """In-process replay of the served sequence on a pre-load copy of the store.

    The replay has the engine work of the served run and none of the framing,
    admission, threads or contention, so served minus replayed is the
    service's share of a read.  The fan-out overhead is then taken on the
    same copy with the coordinator's result cache off, so every call fans out:
    the sharded call minus the slowest per-shard engine call.
    """
    replay_root = cfg.work_dir / "replay"
    budget_s = cfg.seconds / 5
    read_ms: list[float] = []
    started = time.perf_counter()
    with ShardedSequenceIndex.open(replay_root, open_store) as engine:
        for _start, request, _elapsed, ok in sorted(requests, key=lambda row: row[0]):
            if time.perf_counter() - started > budget_s:
                break
            if not ok:
                continue
            if request.kind == "read":
                elapsed, _ = timed(cfg, "shard.replay_read", engine.detect, pool[request.pattern])
                read_ms.append(elapsed * 1e3)
            else:
                timed(cfg, "shard.replay_write", engine.update,
                      [Event(*event) for event in request.events])
    overheads: list[float] = []
    with ShardedSequenceIndex.open(replay_root, open_store, query_cache_size=0) as engine:
        for round_no in range(FANOUT_ROUNDS):
            for pattern in pool:
                whole, _ = timed(cfg, "shard.detect", engine.detect, pattern)
                slowest = max(
                    timed(cfg, "core.shard_detect", shard.query.detect, pattern)[0]
                    for shard in engine.shards
                )
                if round_no:  # the first round fills the postings caches
                    overheads.append((whole - slowest) * 1e3)
    return {
        "service.overhead_ms": served_read_p50_ms - median(read_ms),
        "shard.fanout_overhead_ms": median(overheads),
    }
