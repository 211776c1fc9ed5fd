"""index_bulk: the paper's batch pipeline, timed until ``close()`` returns.

The log arrives as 10 ``update()`` calls of whole traces into a single-store
``SequenceIndex(LSMStore)``, then ``close()``; deferred flush and compaction
are therefore paid inside the measured time.  A run makes a fixed number of
builds (``repeats``: two at the driver's 15 s), each in a fresh directory.
Every build takes the same eleven steps, ten ``update()`` calls and
``close()``, over the same inputs, and machine noise only ever slows a step
down, so each step counts with its fastest instance: the rate is events over
the sum of the eleven, the latency the median of the ten calls.  Every
duration is taken at the host's reference speed (``common.HostSpeed``).
"""

from __future__ import annotations

import random
import shutil
import time

from repro.core.engine import SequenceIndex
from repro.core.pairs import create_pairs
from repro.core.postings import decode_postings, encode_postings

from common import (
    PATTERN_SEED, Outcome, RunConfig, at_reference, chain_oracle, dir_bytes, load_log, match_set,
    median, open_store, peak_rss_mb, ratio, repeats, sample_sequences, timed,
    update_batches,
)
from proxies import StoreProxy, store_write_layers

GATE_DETECTS = 50
SETUP_REPEATS = 5
NOMINAL_BUILD_S = 7.5  # at the driver's --seconds 15: two builds


def reference_pairs(log, keep_postings: bool):
    """Per-pair completion counts straight from ``create_pairs``.

    The posting lists themselves are kept only for the traced codec
    measurement: they would otherwise dominate the untraced run's memory.
    """
    counts: dict[tuple[str, str], int] = {}
    postings: dict[tuple[str, str], list] = {}
    creation_s = 0.0
    for trace in log:
        start = time.perf_counter()
        pairs = create_pairs(trace.activities, trace.timestamps)
        creation_s += time.perf_counter() - start
        for pair, completions in pairs.items():
            counts[pair] = counts.get(pair, 0) + len(completions)
            if keep_postings:
                postings.setdefault(pair, []).extend(
                    (trace.trace_id, ts_a, ts_b) for ts_a, ts_b in completions
                )
    return creation_s, counts, postings


def check_build(path, log, reference_counts, patterns) -> int:
    """Failed checks on a finished build: Count totals, then sampled detects."""
    failed = 0
    with SequenceIndex(open_store(path)) as index:
        stored = {
            (key[0], second): int(stats[1])
            for key, per_second in index.store.scan("count")
            for second, stats in per_second.items()
        }
        if stored != reference_counts:
            failed += 1
        for pattern in patterns:
            if match_set(index.detect(list(pattern))) != chain_oracle(log, pattern):
                failed += 1
    return failed


def run(cfg: RunConfig) -> Outcome:
    rec = cfg.recorder
    # The fixture is the log, its batches and the expected Count table.
    setups, creation = [], []
    for repeat in range(SETUP_REPEATS):
        cfg.speed.sample(5)
        start = time.perf_counter()
        generate_s, log = load_log(cfg)
        batches = update_batches(log, cfg.seed)
        creation_s, reference_counts, reference_postings = reference_pairs(
            log, rec is not None and repeat == SETUP_REPEATS - 1)
        setups.append((start, time.perf_counter()))
        creation.append(creation_s)
    cfg.speed.sample(5)
    setups = [at_reference(cfg, start, end) for start, end in setups]
    events = log.num_events
    patterns = sample_sequences(random.Random(PATTERN_SEED), list(log), 5, GATE_DETECTS, set())

    step_s, disk, failed = [], [], 0  # step_s: one row of eleven per build
    per_layer: dict[str, float] = {}
    notes: dict[str, float] = {}
    builds = 1 if rec is not None else repeats(cfg.seconds, NOMINAL_BUILD_S)
    measured_from = time.perf_counter()
    for build in range(builds):
        path = cfg.work_dir / f"build-{build}"
        t0 = time.perf_counter()
        store = open_store(path)
        if rec is not None:
            store = StoreProxy(store, rec, str(path / "wal.log"))
        index = SequenceIndex(store)
        windows = []  # of the eleven steps, a calibration sample either side
        for batch in batches:
            cfg.speed.sample(5)
            start = time.perf_counter()
            timed(cfg, "core.update", index.update, batch)
            windows.append((start, time.perf_counter()))
        if rec is not None:
            timed(cfg, "kvstore.flush", index.flush)
            per_layer["kvstore.sstables_final"] = store.sstable_count
        cfg.speed.sample(5)
        start = time.perf_counter()
        timed(cfg, "kvstore.close", index.close)
        windows.append((start, time.perf_counter()))
        build_s = time.perf_counter() - t0
        cfg.speed.sample(5)
        step_s.append([at_reference(cfg, start, end) for start, end in windows])
        disk.append(dir_bytes(path))
        failed += check_build(path, log, reference_counts, patterns)
        shutil.rmtree(path)
        if rec is not None:  # one traced build is the whole decomposition
            totals = rec.totals()
            per_layer.update(store_write_layers(totals, store))
            # update() wall time minus the store-proxy calls nested inside it
            per_layer["core.update_self_s"] = totals["core.update"]["self_s"]
            notes["traced_build_s"] = build_s  # taken outside every span

    fastest = [min(instances) for instances in zip(*step_s)]
    end_to_end = {
        "setup_s": median(setups),
        "throughput_per_s": events / sum(fastest),
        "latency_p50_ms": median(fastest[:-1]) * 1e3,
        "disk_bytes_per_event": median(disk) / events,
        "peak_rss_mb": peak_rss_mb(),
    }
    attempted = builds * (len(batches) + 1 + 1 + len(patterns))
    if rec is not None:
        per_layer["logs.generate_s"] = generate_s
        per_layer["core.pair_creation_s"] = min(creation)
        per_layer["core.pairs_per_event"] = sum(reference_counts.values()) / events
        per_layer.update(codec_layers(cfg, reference_postings))
    return Outcome(
        end_to_end=end_to_end, attempted=attempted, failed=failed, per_layer=per_layer,
        notes={"builds": builds, "events": events, "traces": len(log),
               "store_bytes": int(median(disk)), "update_calls": builds * len(batches),
               "host_cost": cfg.speed.cost(measured_from, time.perf_counter()), **notes},
    )


def codec_layers(cfg: RunConfig, postings: dict) -> dict[str, float]:
    """The postings codec called directly on the run's real posting lists."""
    lists = list(postings.values())
    entries = sum(len(entries) for entries in lists)
    encode_s, chunks = timed(
        cfg, "core.postings_encode", lambda: [encode_postings(e) for e in lists])
    decode_s, _ = timed(
        cfg, "core.postings_decode", lambda: [decode_postings(c) for c in chunks])
    encoded_mb = sum(len(chunk) for chunk in chunks) / 1e6
    return {
        "core.postings_encode_mb_per_s": ratio(encoded_mb, encode_s),
        "core.postings_decode_mb_per_s": ratio(encoded_mb, decode_s),
        "core.postings_bytes_per_entry": ratio(encoded_mb * 1e6, entries),
    }
