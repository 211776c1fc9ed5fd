"""One function per table/figure of the paper's evaluation (§5).

Every function returns an :class:`~repro.bench.reporting.ExperimentResult`
whose rows mirror the paper's presentation.  All functions take ``scale``
(fraction of the paper's dataset sizes) so the whole suite can run at
laptop size; relative comparisons -- the reproduction target -- survive
scaling.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from repro.baselines.elastic import ElasticIndex
from repro.baselines.sase import SaseEngine
from repro.baselines.suffix import SuffixArrayMatcher
from repro.bench.reporting import ExperimentResult
from repro.bench.workloads import (
    ROUNDS,
    best_of_rounds,
    build_index,
    contiguous_patterns,
    prepared_dataset,
    prepared_index,
    stnm_patterns,
)
from repro.core.model import EventLog
from repro.core.pairs import fold_indexing_pairs, parsing_pairs, state_pairs
from repro.core.policies import Policy
from repro.logs.datasets import DATASETS
from repro.logs.generator import RandomLogConfig, generate_random_log
from repro.logs.stats import profile_log
from repro.shard.hashing import shard_for_trace

#: dataset order used by Tables 5/6/7/8
TABLE_DATASETS: tuple[str, ...] = DATASETS

#: the timing rule every timed experiment states under its table
_ROUNDS_NOTE = (
    f"every time: the fastest of {ROUNDS} untraced rounds, columns "
    "interleaved, after one warm-up call per column"
)


def _fold_indexing(activities: Sequence[str], timestamps: Sequence[float]) -> dict:
    """Indexing as the builder runs it: one new trace folded into rows of
    its own (``core.pairs.indexing_pairs`` would add a conversion to
    columns that the builder never makes)."""
    rows: dict = {}
    fold_indexing_pairs(activities, timestamps, None, 0, rows)
    return rows


#: the STNM flavors of §4 that Table 5 and Figure 3 time, by column name
_STNM_FLAVORS = {
    "indexing": _fold_indexing,
    "parsing": parsing_pairs,
    "state": state_pairs,
}


def _each(fn: Callable[[Any], object], items: Iterable[Any]) -> None:
    """``fn(item)`` for every item, each result dropped as soon as it is
    made: a column of :func:`best_of_rounds` keeps nothing alive for the
    garbage collector to walk while it or a later column is timed."""
    for item in items:
        fn(item)


def _flavor_columns(log: EventLog) -> list[Callable[[], None]]:
    """Per STNM flavor, a column creating every trace's pairs of ``log`` in
    the column form the builder consumes, each trace's result dropped as the
    builder drops it."""
    views = [(trace.activities, trace.timestamps) for trace in log]

    def run(flavor) -> None:
        for acts, stamps in views:
            flavor(acts, stamps)

    return [partial(run, flavor) for flavor in _STNM_FLAVORS.values()]


# --- Table 4 / Figure 2 ---------------------------------------------------------


def exp_table4(scale: float, datasets: Sequence[str] = TABLE_DATASETS) -> ExperimentResult:
    """Dataset inventory: traces and distinct activities per log."""
    result = ExperimentResult(
        "table4",
        "Number of traces and distinct activities per event log",
        ["log file", "traces", "activities", "events"],
    )
    for name in datasets:
        profile = profile_log(prepared_dataset(name, scale))
        result.add(name, profile.num_traces, profile.num_activities, profile.num_events)
    result.note(f"scale={scale} of the paper's dataset sizes")
    return result


def exp_fig2(scale: float, datasets: Sequence[str] = TABLE_DATASETS) -> ExperimentResult:
    """Events-per-trace and activities-per-trace distribution summaries."""
    result = ExperimentResult(
        "fig2",
        "Distributions of events and unique activities per trace",
        [
            "log file",
            "events/trace min",
            "events/trace mean",
            "events/trace max",
            "acts/trace min",
            "acts/trace mean",
            "acts/trace max",
        ],
    )
    for name in datasets:
        profile = profile_log(prepared_dataset(name, scale))
        events = profile.events_per_trace
        acts = profile.activities_per_trace
        result.add(
            name,
            events.minimum,
            events.mean,
            events.maximum,
            acts.minimum,
            acts.mean,
            acts.maximum,
        )
    return result


# --- Table 5: STNM pair-indexing flavors on process-like logs ----------------------


def exp_table5(
    scale: float, datasets: Sequence[str] = TABLE_DATASETS
) -> ExperimentResult:
    """Pair-creation time of the three STNM flavors per dataset -- the one
    stage in which they differ -- and the whole STNM index build, which
    creates its pairs with Indexing."""
    result = ExperimentResult(
        "table5",
        "STNM pair-creation time per flavor, and the whole index build (seconds)",
        ["log file", *_STNM_FLAVORS, "build"],
    )
    for name in datasets:
        log = prepared_dataset(name, scale)
        build = partial(_each, partial(build_index, policy=Policy.STNM), [log])
        times, _ = best_of_rounds([*_flavor_columns(log), build])
        result.add(name, *times)
    result.note(_ROUNDS_NOTE)
    return result


# --- Figure 3: flavors on large random logs (three sweeps) --------------------------


def exp_fig3(scale: float) -> ExperimentResult:
    """Pair-creation time of the three flavors across the paper's sweeps.

    Sweep axes follow §5.2: events/trace at 1000 traces x 500 activities;
    traces at <=1000 events x 100 activities; activities at 500 traces x
    <=500 events.  Trace counts scale with ``scale``.
    """
    result = ExperimentResult(
        "fig3",
        "STNM pair creation on random logs (seconds)",
        ["sweep", "x", *_STNM_FLAVORS],
    )

    def run(sweep: str, x_value: int, config: RandomLogConfig) -> None:
        times, _ = best_of_rounds(_flavor_columns(generate_random_log(config)))
        result.add(sweep, x_value, *times)

    traces_base = max(5, round(1000 * scale))
    for max_events in (100, 500, 1000, 2000, 4000):
        run(
            "events/trace",
            max_events,
            RandomLogConfig(
                num_traces=traces_base,
                max_events_per_trace=max_events,
                num_activities=500,
                seed=31,
            ),
        )
    for traces in (100, 500, 1000, 2500, 5000):
        run(
            "traces",
            traces,
            RandomLogConfig(
                num_traces=max(5, round(traces * scale)),
                max_events_per_trace=1000,
                num_activities=100,
                seed=32,
            ),
        )
    acts_traces = max(5, round(500 * scale))
    for acts in (4, 20, 100, 500, 1000, 2000):
        run(
            "activities",
            acts,
            RandomLogConfig(
                num_traces=acts_traces,
                max_events_per_trace=500,
                num_activities=acts,
                seed=33,
            ),
        )
    result.note("x axes keep the paper's values; trace counts scaled by scale")
    result.note(_ROUNDS_NOTE)
    return result


# --- Table 6: pre-processing comparison -----------------------------------------------


def _build_counts(log: EventLog, policy: Policy) -> tuple[int, int]:
    """One :func:`~repro.bench.workloads.build_index` over ``log``:
    ``(events indexed, pairs created)``."""
    stats = build_index(log, policy)
    return stats.events_indexed, stats.pairs_created


def _load_datasets(names: Sequence[str], scale: float) -> int:
    """Load (and cache) every named dataset; returns the process id, so a
    pool's warm-up can tell when each worker holds them."""
    for name in names:
        prepared_dataset(name, scale)
    return os.getpid()


def _shard_writer(
    name: str, scale: float, policy: Policy, writers: int, shard: int
) -> tuple[int, int]:
    """One of Table 6's shard writers: index placement slice ``shard`` of
    ``writers`` into a store of its own; only the counts come back."""
    log = prepared_dataset(name, scale)
    mine = [trace for trace in log if shard_for_trace(trace.trace_id, writers) == shard]
    return _build_counts(EventLog(mine, name=log.name), policy)


def exp_table6(
    scale: float,
    datasets: Sequence[str] = TABLE_DATASETS,
    workers: int | None = None,
) -> ExperimentResult:
    """Index-construction time: [19], Strict and Indexing (1 thread and
    ``workers`` shard writers), ES.

    A shard writer is a process indexing the traces
    :func:`~repro.shard.hashing.shard_for_trace` places on its shard into a
    store of its own.  Every cell comes from :func:`best_of_rounds`; the
    writers' ``(events, pairs)`` totals in its warm-up calls must equal the
    1-thread build's.  Those totals are all a column keeps: the suffix trie
    and the ES index are dropped inside their calls.
    """
    workers = workers or os.cpu_count() or 1
    result = ExperimentResult(
        "table6",
        "Pre-processing time comparison (seconds)",
        [
            "log file",
            "[19] suffix",
            "strict (1 thread)",
            "strict",
            "indexing (1 thread)",
            "indexing",
            "elasticsearch",
        ],
    )
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
        # Outside the timed rounds: start every worker and load the logs.
        warm: set[int] = set()
        while len(warm) < workers:
            warm.update(
                pool.map(_load_datasets, [datasets] * workers, [scale] * workers)
            )
        for name in datasets:
            log = prepared_dataset(name, scale)

            def writers(policy: Policy) -> tuple[int, ...]:
                job = partial(_shard_writer, name, scale, policy, workers)
                return tuple(map(sum, zip(*pool.map(job, range(workers)))))

            best, totals = best_of_rounds(
                [
                    partial(_each, SuffixArrayMatcher, [log]),
                    partial(_build_counts, log, Policy.SC),
                    partial(writers, Policy.SC),
                    partial(_build_counts, log, Policy.STNM),
                    partial(writers, Policy.STNM),
                    partial(_each, ElasticIndex.from_log, [log]),
                ]
            )
            for serial in (1, 3):
                if totals[serial + 1] != totals[serial]:
                    raise AssertionError(
                        f"{name}: {workers} shard writers indexed (events, pairs) "
                        f"{totals[serial + 1]}, the 1-thread build {totals[serial]}"
                    )
            result.add(name, *best)
    result.note(f"strict / indexing: {workers} shard writers (processes)")
    result.note(_ROUNDS_NOTE)
    return result


# --- Table 7 / Figure 4: SC query response ----------------------------------------------


def exp_table7(
    scale: float,
    datasets: Sequence[str] = TABLE_DATASETS,
    patterns_per_length: int = 20,
) -> ExperimentResult:
    """SC detection: [19] vs our method, each at pattern lengths 2 and 10."""
    result = ExperimentResult(
        "table7",
        "SC query response times (seconds per query)",
        ["log file", "[19] (len 2)", "[19] (len 10)", "ours (len 2)", "ours (len 10)"],
    )
    for name in datasets:
        log = prepared_dataset(name, scale)
        matcher = SuffixArrayMatcher(log)
        index = prepared_index(name, scale, Policy.SC)
        short = contiguous_patterns(log, 2, patterns_per_length, seed=7)
        long = contiguous_patterns(log, 10, patterns_per_length, seed=8)
        (suffix_short, suffix_long, ours_short, ours_long), _ = best_of_rounds(
            [
                partial(_each, matcher.detect, short),
                partial(_each, matcher.detect, long),
                partial(_each, index.detect, short),
                partial(_each, index.detect, long),
            ]
        )
        n_short, n_long = max(1, len(short)), max(1, len(long))
        result.add(
            name,
            suffix_short / n_short,
            suffix_long / n_long,
            ours_short / n_short,
            ours_long / n_long,
        )
    result.note(_ROUNDS_NOTE)
    return result


def exp_fig4(
    scale: float,
    dataset: str = "max_10000",
    lengths: Sequence[int] = (2, 3, 4, 5, 6, 7, 8, 9, 10),
    patterns_per_length: int = 20,
) -> ExperimentResult:
    """Our detection time as a function of the query pattern length."""
    result = ExperimentResult(
        "fig4",
        f"Response time vs pattern length ({dataset})",
        ["pattern length", "seconds per query"],
    )
    log = prepared_dataset(dataset, scale)
    index = prepared_index(dataset, scale, Policy.STNM)
    for length in lengths:
        patterns = stnm_patterns(log, length, patterns_per_length, seed=length)
        (elapsed,), _ = best_of_rounds([partial(_each, index.detect, patterns)])
        result.add(length, elapsed / max(1, len(patterns)))
    result.note(_ROUNDS_NOTE)
    return result


# --- Table 8: STNM query response vs Elasticsearch and SASE --------------------------------


def exp_table8(
    scale: float,
    datasets: Sequence[str] = TABLE_DATASETS,
    lengths: Sequence[int] = (2, 5, 10),
    patterns_per_config: int = 20,
) -> ExperimentResult:
    """STNM detection: Elasticsearch-like vs SASE vs our method."""
    result = ExperimentResult(
        "table8",
        "STNM query response times (seconds per query)",
        ["pattern length", "log file", "elasticsearch", "sase", "ours"],
    )
    engines = {}
    for name in datasets:
        log = prepared_dataset(name, scale)
        engines[name] = (
            log,
            ElasticIndex.from_log(log),
            SaseEngine(log),
            prepared_index(name, scale, Policy.STNM),
        )
    for length in lengths:
        for name in datasets:
            log, elastic, sase, index = engines[name]
            patterns = stnm_patterns(log, length, patterns_per_config, seed=length)
            times, _ = best_of_rounds(
                [
                    partial(_each, elastic.span_search, patterns),
                    partial(_each, sase.query, patterns),
                    partial(_each, index.detect, patterns),
                ]
            )
            count = max(1, len(patterns))
            result.add(length, name, *(elapsed / count for elapsed in times))
    result.note(_ROUNDS_NOTE)
    return result


# --- Figures 5-7: pattern continuation --------------------------------------------------------


def exp_fig5(
    scale: float,
    dataset: str = "max_10000",
    lengths: Sequence[int] = (1, 2, 3, 4, 5, 6),
    patterns_per_length: int = 5,
) -> ExperimentResult:
    """Accurate vs Fast continuation response time vs pattern length."""
    result = ExperimentResult(
        "fig5",
        f"Continuation response time vs pattern length ({dataset})",
        ["pattern length", "accurate", "fast"],
    )
    log = prepared_dataset(dataset, scale)
    index = prepared_index(dataset, scale, Policy.STNM)
    for length in lengths:
        patterns = stnm_patterns(log, length, patterns_per_length, seed=50 + length)
        times, _ = best_of_rounds(
            [
                partial(_each, partial(index.continuations, mode=mode), patterns)
                for mode in ("accurate", "fast")
            ]
        )
        count = max(1, len(patterns))
        result.add(length, *(elapsed / count for elapsed in times))
    result.note(_ROUNDS_NOTE)
    return result


def _fig67_setup(scale: float, dataset: str, pattern_length: int = 4):
    log = prepared_dataset(dataset, scale)
    index = prepared_index(dataset, scale, Policy.STNM)
    pattern = stnm_patterns(log, pattern_length, 1, seed=67)[0]
    return index, pattern


def exp_fig6(
    scale: float,
    dataset: str = "max_10000",
    top_ks: Sequence[int] = (1, 2, 4, 6, 8, 10, 12),
) -> ExperimentResult:
    """Hybrid continuation response time vs topK (4-event pattern)."""
    result = ExperimentResult(
        "fig6",
        f"Continuation response time vs topK ({dataset})",
        ["topK", "hybrid", "accurate", "fast"],
    )
    index, pattern = _fig67_setup(scale, dataset)
    modes = [{"mode": "accurate"}, {"mode": "fast"}]
    modes += [{"mode": "hybrid", "top_k": top_k} for top_k in top_ks]
    (accurate, fast, *hybrid), _ = best_of_rounds(
        [partial(_each, partial(index.continuations, **kw), [pattern]) for kw in modes]
    )
    for top_k, elapsed in zip(top_ks, hybrid):
        result.add(top_k, elapsed, accurate, fast)
    result.note(f"pattern: {pattern}")
    result.note(_ROUNDS_NOTE)
    return result


def exp_fig7(
    scale: float,
    dataset: str = "max_10000",
    top_ks: Sequence[int] = (1, 2, 4, 8, 12, 16, 24, 32, 48),
) -> ExperimentResult:
    """Hybrid continuation accuracy vs topK (ground truth = Accurate)."""
    result = ExperimentResult(
        "fig7",
        f"Continuation accuracy vs topK ({dataset})",
        ["topK", "accuracy"],
    )
    index, pattern = _fig67_setup(scale, dataset)
    reference = index.continuations(pattern, mode="accurate")
    for top_k in top_ks:
        hybrid = index.continuations(pattern, mode="hybrid", top_k=top_k)
        accuracy = index.explorer.ranking_accuracy(reference, hybrid)
        result.add(top_k, accuracy)
    result.note(f"pattern: {pattern}")
    return result


def exp_ablation_cache(
    scale: float, dataset: str = "max_1000", reads: int = 2000
) -> ExperimentResult:
    """Ablation: the LSM block cache on/off (not a paper experiment).

    Measures point-read latency through the block cache, enabled vs
    disabled, on an indexed registry dataset.
    """
    import shutil
    import tempfile

    from repro.core.engine import SequenceIndex
    from repro.kvstore import LSMStore

    result = ExperimentResult(
        "ablation_cache",
        f"Serving-layer cache ablation ({dataset})",
        ["configuration", "operation", "ops", "total time (s)", "us/op"],
    )
    log = prepared_dataset(dataset, scale)
    for label, cache_bytes in (("block cache on", 8 * 1024 * 1024), ("block cache off", 0)):
        workdir = tempfile.mkdtemp(prefix="repro-cache-ablation-")
        try:
            store = LSMStore(
                workdir, memtable_flush_bytes=64 * 1024, block_cache_bytes=cache_bytes
            )
            index = SequenceIndex(store)
            index.update(log)
            store.flush()
            trace_ids = index.trace_ids()
            probes = [trace_ids[i % len(trace_ids)] for i in range(reads)]
            # the warm-up call leaves "cache on" measuring hits, not misses
            (elapsed,), _ = best_of_rounds(
                [partial(_each, partial(store.get, "seq"), probes)]
            )
            result.add(label, "point read", reads, elapsed, elapsed / reads * 1e6)
            index.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    result.note("block cache: LSM data blocks")
    result.note(_ROUNDS_NOTE)
    return result


def exp_pattern_language(
    scale: float,
    dataset: str = "max_10000",
    patterns_per_kind: int = 8,
    length: int = 4,
) -> ExperimentResult:
    """Composite patterns: indexed prune-then-verify vs the SASE oracle.

    Not a paper experiment.  Runs the composite-pattern workload --
    windowed / alternation / kleene / negation variants of gapped
    subsequences of real traces -- through the pair-index
    prune-then-verify path and through the SASE NFA full scan that
    serves as its differential oracle.  Every match set is asserted
    byte-identical between the two engines before timing, so the
    speedup column only ever compares agreeing implementations.  Also
    writes a ``BENCH_pattern_language.json`` perf-trajectory snapshot.
    """
    import json
    import shutil
    import tempfile

    from repro.bench.workloads import COMPOSITE_KINDS, composite_patterns
    from repro.core.engine import SequenceIndex
    from repro.kvstore import LSMStore

    result = ExperimentResult(
        "pattern_language",
        f"Composite patterns: indexed vs SASE oracle ({dataset}, "
        f"{length} positives)",
        ["kind", "patterns", "sase s/query", "indexed s/query", "speedup"],
    )
    log = prepared_dataset(dataset, scale)
    workdir = tempfile.mkdtemp(prefix="repro-pattern-language-")
    snapshot_kinds = []
    try:
        store = LSMStore(workdir, memtable_flush_bytes=256 * 1024)
        index = SequenceIndex(store, policy=Policy.STNM)
        index.update(log)
        store.flush()
        workload = composite_patterns(
            log,
            count=patterns_per_kind * len(COMPOSITE_KINDS),
            length=length,
            index=index,
        )
        oracle = SaseEngine(log)
        for kind, pattern in workload:  # verification doubles as warm-up
            indexed = {(m.trace_id, m.timestamps) for m in index.detect(pattern)}
            expected = {(m.trace_id, m.timestamps) for m in oracle.query(pattern)}
            if indexed != expected:  # pragma: no cover - differential guard
                raise AssertionError(
                    f"engines diverge on {pattern}: indexed-only "
                    f"{sorted(indexed - expected)}, oracle-only "
                    f"{sorted(expected - indexed)}"
                )
        total_sase = total_indexed = 0.0
        total_queries = 0
        for kind in COMPOSITE_KINDS:
            patterns = [p for k, p in workload if k == kind]
            queries = max(1, len(patterns))
            (sase_s, indexed_s), _ = best_of_rounds(
                [
                    partial(_each, oracle.query, patterns),
                    partial(_each, index.detect, patterns),
                ]
            )
            total_sase += sase_s
            total_indexed += indexed_s
            total_queries += queries
            result.add(
                kind,
                len(patterns),
                sase_s / queries,
                indexed_s / queries,
                sase_s / indexed_s if indexed_s else float("inf"),
            )
            snapshot_kinds.append(
                {
                    "kind": kind,
                    "patterns": len(patterns),
                    "sase_seconds_per_query": sase_s / queries,
                    "indexed_seconds_per_query": indexed_s / queries,
                    "speedup": sase_s / indexed_s if indexed_s else float("inf"),
                }
            )
        result.add(
            "all",
            len(workload),
            total_sase / total_queries,
            total_indexed / total_queries,
            total_sase / total_indexed if total_indexed else float("inf"),
        )
        store.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    snapshot = {
        "experiment": "pattern_language",
        "dataset": dataset,
        "scale": scale,
        "positive_elements": length,
        "patterns_per_kind": patterns_per_kind,
        "rounds": ROUNDS,
        "sase_seconds_per_query": total_sase / total_queries,
        "indexed_seconds_per_query": total_indexed / total_queries,
        "speedup": total_sase / total_indexed if total_indexed else float("inf"),
        "kinds": snapshot_kinds,
    }
    with open("BENCH_pattern_language.json", "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2)
        fh.write("\n")
    result.note("every match set verified identical to the SASE oracle")
    result.note(_ROUNDS_NOTE)
    result.note("snapshot: BENCH_pattern_language.json")
    return result


def exp_sharded_service(
    scale: float,
    dataset: str = "max_10000",
    length: int = 10,
    num_patterns: int = 8,
    clients: int = 8,
    duration_s: float = 4.0,
    write_fraction: float = 0.2,
) -> ExperimentResult:
    """Sharded scatter-gather service vs the single-store engine.

    Not a paper experiment.  Indexes the Table 8 dataset into a
    single-store engine and into 1/2/4-shard sharded stores, serves each
    behind :class:`~repro.service.server.SequenceService`, and drives the
    same closed-loop mixed read/write workload (Table 8 rare-pair
    length-10 patterns, ``write_fraction`` ingest batches) against every
    configuration.  Before any load runs, each sharded engine's match
    sets are asserted byte-identical to the single-store engine's.
    Writes a ``BENCH_sharded_service.json`` perf-trajectory snapshot with
    p50/p99 latency and QPS per configuration.
    """
    import json
    import shutil
    import tempfile

    from repro.bench.workloads import rare_pair_patterns
    from repro.core.engine import SequenceIndex
    from repro.kvstore import LSMStore
    from repro.service import SequenceService, run_loadgen
    from repro.shard import ShardedSequenceIndex

    result = ExperimentResult(
        "sharded_service",
        f"Sharded service under mixed read/write ({dataset}, "
        f"{clients} clients, {write_fraction:.0%} writes)",
        [
            "engine",
            "shards",
            "qps",
            "read p50 ms",
            "read p99 ms",
            "write p50 ms",
            "write p99 ms",
            "rejected",
        ],
    )
    log = prepared_dataset(dataset, scale)
    workdir = tempfile.mkdtemp(prefix="repro-sharded-service-")
    configs: list[dict] = []
    try:

        def store_factory(path: str) -> LSMStore:
            return LSMStore(path, memtable_flush_bytes=256 * 1024)

        def run_config(name: str, engine, num_shards: int, reference):
            """Serve ``engine``, assert correctness, run the load, record."""
            if reference is not None:
                for pattern, expected in reference:
                    got = [
                        (m.trace_id, m.timestamps)
                        for m in engine.detect(pattern)
                    ]
                    assert got == expected, (
                        f"sharded match set diverged on {pattern} "
                        f"({num_shards} shards)"
                    )
            service = SequenceService(engine, port=0, max_inflight=clients * 2)
            service.start()
            host, port = service.address
            try:
                report = run_loadgen(
                    host,
                    port,
                    patterns,
                    clients=clients,
                    duration_s=duration_s,
                    write_fraction=write_fraction,
                    seed=0,
                )
            finally:
                service.shutdown()
            read = report.latency_ms.get("read", {})
            write = report.latency_ms.get("write", {})
            result.add(
                name,
                num_shards,
                report.qps,
                read.get("p50", 0.0),
                read.get("p99", 0.0),
                write.get("p50", 0.0),
                write.get("p99", 0.0),
                report.rejected,
            )
            configs.append(
                {
                    "engine": name,
                    "num_shards": num_shards,
                    "qps": report.qps,
                    "requests": report.requests,
                    "rejected": report.rejected,
                    "deadline_exceeded": report.deadline_exceeded,
                    "errors": report.errors,
                    "latency_ms": report.latency_ms,
                    "matches_identical": reference is not None,
                }
            )

        # -- single-store baseline (also the correctness reference) ---------
        single = SequenceIndex(store_factory(f"{workdir}/single"))
        single.update(log)
        patterns = rare_pair_patterns(log, single, length, num_patterns)
        reference = [
            (
                pattern,
                [
                    (m.trace_id, m.timestamps)
                    for m in single.detect(pattern)
                ],
            )
            for pattern in patterns
        ]
        try:
            run_config("single", single, 1, None)
        finally:
            single.close()

        # -- sharded configurations ----------------------------------------
        for num_shards in (1, 2, 4):
            sharded = ShardedSequenceIndex.open(
                f"{workdir}/sharded-{num_shards}",
                store_factory,
                num_shards=num_shards,
            )
            try:
                sharded.update(log)
                run_config("sharded", sharded, num_shards, reference)
            finally:
                sharded.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    single_qps = configs[0]["qps"]
    best = max(configs[1:], key=lambda c: c["qps"])
    snapshot = {
        "experiment": "sharded_service",
        "dataset": dataset,
        "scale": scale,
        "pattern_length": length,
        "patterns": len(patterns),
        "clients": clients,
        "duration_s": duration_s,
        "write_fraction": write_fraction,
        "single_store_qps": single_qps,
        "best_sharded_qps": best["qps"],
        "best_sharded_shards": best["num_shards"],
        "speedup": best["qps"] / single_qps if single_qps else float("inf"),
        "configs": configs,
    }
    with open("BENCH_sharded_service.json", "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2)
        fh.write("\n")
    result.note(
        "every sharded configuration's match sets asserted identical to "
        "the single-store engine before load"
    )
    result.note("snapshot: BENCH_sharded_service.json")
    return result


#: every experiment, keyed by the name used on the runner command line
ALL_EXPERIMENTS: dict[str, Callable[[float], ExperimentResult]] = {
    "table4": exp_table4,
    "fig2": exp_fig2,
    "table5": exp_table5,
    "fig3": exp_fig3,
    "table6": exp_table6,
    "table7": exp_table7,
    "fig4": exp_fig4,
    "table8": exp_table8,
    "fig5": exp_fig5,
    "fig6": exp_fig6,
    "fig7": exp_fig7,
    "ablation_cache": exp_ablation_cache,
    "pattern_language": exp_pattern_language,
    "sharded_service": exp_sharded_service,
}
