"""query_cold: 750 distinct queries, each executed once per reopened store.

The query working set is far above the 128-entry query cache, the 64-entry
postings cache and the 256-entry sequence cache, and the store is several
times the 8 MiB block cache (both sizes are printed), so every query plans,
fetches, decodes, joins and verifies for real.  A pass reopens the store --
cold engine caches, cold block cache -- and runs every query once, in
seed-shuffled order; a run makes a fixed number of passes (``repeats``: three
at the driver's 15 s).  Machine noise only ever slows a query down, so a
query's latency is its fastest pass; the percentiles are taken over the
queries and the rate is the queries over the sum of those latencies.  A pass's
latencies are taken at the host's reference speed during that pass
(``common.HostSpeed``).
"""

from __future__ import annotations

import random
import time

from repro.baselines.sase.engine import SaseEngine
from repro.core.engine import SequenceIndex
from repro.obs import Tracer, activate

from common import (
    BLOCK_CACHE_BYTES, PATTERN_SEED, Outcome, RunConfig, at_reference, build_store, dir_bytes,
    hit_ratio, load_log, match_set, median, open_store, peak_rss_mb, percentile,
    ratio, reference_matches, repeats, sample_composites, sample_sequences, timed,
    update_batches,
)
from proxies import StoreProxy
from spans import obs_self_times

#: class -> (number of queries, number of them checked against a reference);
#: the issue's mix at half its size, so that a run holds three passes
MIX = {
    "detect10": (250, 40),
    "detect5": (150, 20),
    "detect2": (100, 10),
    "composite": (150, 30),
    "count": (50, 0),
    "continuation": (50, 0),
}
SASE_BASELINE_QUERIES = 100
NOMINAL_PASS_S = 5.0  # at the driver's --seconds 15: three passes
CALIBRATE_EVERY = 10  # queries between two calibration units (about 40 ms)
STAGES = ("plan", "fetch_postings", "intersect", "join", "materialize", "verify")


def make_queries(log, seed: int) -> list[tuple[str, object]]:
    """The deduplicated, seed-shuffled query list: ``(class, pattern)``."""
    rng = random.Random(PATTERN_SEED)
    traces = list(log)
    alphabet = sorted(log.activities())
    taken: set = set()
    queries: list[tuple[str, object]] = []
    for klass, length in (("detect10", 10), ("detect5", 5), ("detect2", 2),
                          ("count", 4), ("continuation", 3)):
        queries += [(klass, list(p)) for p in
                    sample_sequences(rng, traces, length, MIX[klass][0], taken)]
    queries += [("composite", p) for p in
                sample_composites(rng, traces, alphabet, MIX["composite"][0], taken)]
    random.Random(seed).shuffle(queries)
    return queries


def execute(index: SequenceIndex, klass: str, pattern):
    if klass == "count":
        return index.count(pattern)
    if klass == "continuation":
        return index.continuations(pattern, mode="hybrid", top_k=5)
    return index.detect(pattern)


def run_pass(cfg: RunConfig, path, queries, traced: bool) -> dict:
    """One cold pass over every query; latencies, results summary, counters."""
    rec = cfg.recorder if traced else None
    start = time.perf_counter()
    store = open_store(path)
    if rec is not None:
        store = StoreProxy(store, rec, str(path / "wal.log"))
    index = SequenceIndex(store)
    reopen_s = time.perf_counter() - start
    latencies: list[float] = []
    results = []
    tracer = Tracer(max_spans=1_000_000)
    pass_start = time.perf_counter()
    if rec is None:
        for i, (klass, pattern) in enumerate(queries):
            if i % CALIBRATE_EVERY == 0:
                cfg.speed.sample()
            t0 = time.perf_counter()
            result = execute(index, klass, pattern)
            latencies.append(time.perf_counter() - t0)
            results.append(result)
    else:
        with activate(tracer):
            for i, (klass, pattern) in enumerate(queries):
                if i % CALIBRATE_EVERY == 0:
                    cfg.speed.sample()
                t0 = time.perf_counter()
                result = rec.call("core.query", execute, index, klass, pattern, request=i)
                latencies.append(time.perf_counter() - t0)
                results.append(result)
    wall_s = time.perf_counter() - pass_start
    cost = cfg.speed.cost(pass_start, pass_start + wall_s)
    out = {
        "reopen_s": reopen_s,
        "wall_s": wall_s,
        "latencies": latencies,
        "at_reference": [latency / cost for latency in latencies],
        "host_cost": cost,
        "results": results,
        "checksum": checksum(queries, results),
        "sstables": store.sstable_count,
        "query_cache": index.query_cache_stats(),
        "postings_cache": index.postings_cache_stats(),
        "store": store.metrics.snapshot(),
        "tracer": tracer,
        "proxy": store if rec is not None else None,
    }
    index.close()
    return out


def checksum(queries, results) -> int:
    """Total matches, counts and proposals: repeats exactly for one seed."""
    return sum(r if klass == "count" else len(r)
               for (klass, _), r in zip(queries, results))


def run(cfg: RunConfig) -> Outcome:
    path = cfg.work_dir / "store"
    setup_start = time.perf_counter()
    generate_s, log = load_log(cfg)
    build_store(path, update_batches(log, cfg.seed), cfg.speed)
    queries = make_queries(log, cfg.seed)
    setup_build_s = at_reference(cfg, setup_start, time.perf_counter())
    events = log.num_events
    store_bytes = dir_bytes(path)

    passes = [run_pass(cfg, path, queries, traced=False)]
    if cfg.trace:
        traced = run_pass(cfg, path, queries, traced=True)
    else:
        for _ in range(1, repeats(cfg.seconds, NOMINAL_PASS_S)):
            passes.append(run_pass(cfg, path, queries, traced=False))
            del passes[-1]["results"]  # the checksum is enough for later passes

    rss_mb = peak_rss_mb()  # before the reference computations below
    # Correctness: sampled match sets against their references, the
    # exact-repeat checksum across passes, and a query cache that never hit.
    first = passes[0]
    failed = 0
    sase = SaseEngine(log)
    budget = {klass: checked for klass, (_, checked) in MIX.items()}
    gate_checks = 0
    for (klass, pattern), result in zip(queries, first["results"]):
        if budget[klass] > 0:
            budget[klass] -= 1
            gate_checks += 1
            if match_set(result) != reference_matches(log, sase, pattern):
                failed += 1
    total = first["checksum"]
    failed += sum(later["checksum"] != total for later in passes[1:])
    for done in passes + ([traced] if cfg.trace else []):
        if done["query_cache"].get("hits", 0) != 0:
            failed += 1

    by_class: dict[str, list[float]] = {klass: [] for klass in MIX}
    for (klass, _), latency in zip(queries, first["latencies"]):
        by_class[klass].append(latency)
    best = [min(times) for times in zip(*(p["at_reference"] for p in passes))]
    p50 = percentile(best, 0.5) * 1e3
    p99 = percentile(best, 0.99) * 1e3
    end_to_end = {
        "setup_s": setup_build_s + median([p["reopen_s"] for p in passes]),
        "throughput_per_s": len(queries) / sum(best),
        "latency_p50_ms": p50,
        "disk_bytes_per_event": store_bytes / events,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "events": events, "traces": len(log), "queries": len(queries),
        "passes": len(passes), "host_cost": median([p["host_cost"] for p in passes]),
        "match_checksum": total,
        "store_bytes": store_bytes, "block_cache_bytes": BLOCK_CACHE_BYTES,
        "query_cache_hits": sum(p["query_cache"].get("hits", 0) for p in passes),
        "cache_entries": "query 128, postings 64, sequences 256",
    }
    per_layer: dict[str, float] = {}
    obs: dict = {}
    if cfg.trace:
        obs = obs_self_times(traced["tracer"])
        per_layer = read_side_layers(cfg, queries, first, traced, obs)
        per_layer["logs.generate_s"] = generate_s
        per_layer["query_p99_ms"] = p99
        for klass, latencies in by_class.items():
            per_layer[f"core.{klass}_p50_ms"] = median(latencies) * 1e3
        per_layer.update(sase_baseline(cfg, sase, queries, first))
    return Outcome(
        end_to_end=end_to_end,
        attempted=len(queries) * (len(passes) + int(cfg.trace)) + gate_checks + len(passes),
        failed=failed, extras={"query_p99_ms": p99}, per_layer=per_layer, obs=obs,
        notes=notes,
    )


def read_side_layers(cfg, queries, untraced, traced, obs) -> dict[str, float]:
    """Stage self times from the obs spans; store numbers from proxy and counters."""
    n = len(queries)
    totals = cfg.recorder.totals()
    query_total_s = totals["core.query"]["total_s"]
    stage_s = {stage: obs.get(stage, {}).get("self_s", 0.0) for stage in STAGES}
    store_read_s = obs.get("lsm.multi_get", {}).get("self_s", 0.0)
    glue_s = query_total_s - sum(stage_s.values()) - store_read_s
    matches = sum(len(r) for (klass, _), r in zip(queries, untraced["results"])
                  if klass in ("detect10", "detect5", "detect2", "composite"))
    store = untraced["store"]
    multi_get = totals.get("kvstore.multi_get", {"calls": 0, "total_s": 0.0})
    layers = {f"core.{stage}_ms": seconds / n * 1e3 for stage, seconds in stage_s.items()}
    layers.update({
        "core.query_traced_ms": query_total_s / n * 1e3,
        "core.store_read_ms": store_read_s / n * 1e3,
        "core.glue_ms": glue_s / n * 1e3,
        "core.entries_decoded_per_match": ratio(
            obs.get("fetch_postings", {}).get("entries", 0), matches),
        "core.postings_cache_hit_ratio": hit_ratio(traced["postings_cache"]),
        "core.query_cache_hit_ratio": hit_ratio(traced["query_cache"]),
        "kvstore.multi_get_s": multi_get["total_s"],
        "kvstore.multi_get_calls": multi_get["calls"],
        "kvstore.keys_per_multi_get": ratio(traced["proxy"].multi_get_keys, multi_get["calls"]),
        "kvstore.reopen_ms": untraced["reopen_s"] * 1e3,
        "kvstore.sstables_final": untraced["sstables"],
        "kvstore.block_reads_per_get": ratio(store["block_reads"], store["gets"]),
        "kvstore.block_cache_hit_ratio": ratio(
            store["block_cache_hits"], store["block_cache_hits"] + store["block_cache_misses"]),
        "kvstore.bloom_skip_ratio": ratio(
            store["bloom_skips"], store["bloom_skips"] + store["sstable_reads"]),
        "obs.traced_over_untraced": ratio(traced["wall_s"], untraced["wall_s"]),
    })
    return layers


def sase_baseline(cfg, sase, queries, untraced) -> dict[str, float]:
    """The same length-10 patterns through the index-free SaseEngine."""
    sample = [(i, pattern) for i, (klass, pattern) in enumerate(queries)
              if klass == "detect10"][:SASE_BASELINE_QUERIES]
    sase_s, _ = timed(cfg, "baselines.sase",
                      lambda: [sase.query(pattern) for _, pattern in sample])
    ours_s = sum(untraced["latencies"][i] for i, _ in sample)
    return {
        "baselines.sase_ms_per_query": ratio(sase_s, len(sample)) * 1e3,
        "baselines.sase_ratio": ratio(ours_s, sase_s),
    }
