"""Process-wide metrics registry with Prometheus-style text exposition.

Every store (and every :class:`~repro.core.engine.SequenceIndex`) registers
a *collector* -- a zero-argument callable returning ``{exposition_name:
value}`` samples -- labelled with its identity.  :meth:`MetricsRegistry.render`
then produces the standard text format::

    # HELP repro_store_gets_total Point reads served (each multi_get key counts once).
    # TYPE repro_store_gets_total counter
    repro_store_gets_total{backend="lsm",store="/data/ix"} 1042

Collectors are held through :class:`weakref.WeakMethod`, so a store that is
garbage-collected without ``close()`` simply disappears from the next
collection instead of leaking; ``close()`` unregisters eagerly.  Every
exposition name must appear in :data:`METRIC_CATALOG` (type + help text),
and the doc-coverage test (`tests/test_docs.py`) requires each catalogued
name and each raw ``StoreMetrics`` counter to be documented in
``docs/METRICS.md`` -- adding a counter without documenting it fails CI.

The module-level :data:`REGISTRY` is the default registry used by the
stores, the engine, and ``python -m repro metrics``.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Callable

#: exposition name -> (prometheus type, help text).  ``*_total`` names are
#: monotonic counters; bare names are point-in-time gauges.
METRIC_CATALOG: dict[str, tuple[str, str]] = {
    # -- StoreMetrics counters (one exposition line per counter) ------------
    "repro_store_puts_total": ("counter", "Put ops accepted (each op of a write batch)."),
    "repro_store_merges_total": ("counter", "Merge delta ops accepted."),
    "repro_store_deletes_total": ("counter", "Delete (tombstone) ops accepted."),
    "repro_store_gets_total": (
        "counter",
        "Point reads served (each multi_get key counts once).",
    ),
    "repro_store_scans_total": ("counter", "scan()/scan_range() calls."),
    "repro_store_flushes_total": ("counter", "Memtable flushes persisted."),
    "repro_store_compactions_total": ("counter", "Compaction rounds swapped in."),
    "repro_store_compaction_aborts_total": (
        "counter",
        "Compactions discarded by the pre-swap integrity check.",
    ),
    "repro_store_bloom_skips_total": (
        "counter",
        "SSTables skipped by a negative bloom-filter probe.",
    ),
    "repro_store_sstable_reads_total": (
        "counter",
        "SSTable point probes that passed the bloom filter.",
    ),
    "repro_store_block_cache_hits_total": ("counter", "Block-cache hits."),
    "repro_store_block_cache_misses_total": ("counter", "Block-cache misses."),
    "repro_store_multi_get_batches_total": ("counter", "Batched multi_get calls."),
    "repro_store_write_batches_total": (
        "counter",
        "write() calls: atomic batches, one WAL frame each on the LSM store.",
    ),
    "repro_store_compressed_blocks_total": (
        "counter",
        "SSTable blocks written compressed (blocks that actually shrank).",
    ),
    "repro_store_postings_cache_hits_total": (
        "counter",
        "Row-cache hits on decoded postings (bumped by the query layer).",
    ),
    "repro_store_postings_cache_misses_total": (
        "counter",
        "Row-cache misses on decoded postings (bumped by the query layer).",
    ),
    "repro_store_postings_cache_invalidations_total": (
        "counter",
        "Decoded postings a write dropped from the row cache (it wrote their row).",
    ),
    "repro_store_sequence_cache_hits_total": (
        "counter",
        "Row-cache hits on decoded Seq rows (bumped by the query layer).",
    ),
    "repro_store_sequence_cache_misses_total": (
        "counter",
        "Row-cache misses on decoded Seq rows (bumped by the query layer).",
    ),
    "repro_store_sequence_cache_invalidations_total": (
        "counter",
        "Decoded Seq rows a write dropped from the row cache (it wrote their row).",
    ),
    "repro_store_planner_reorders_total": (
        "counter",
        "Executed plans that deviated from left-to-right order.",
    ),
    "repro_store_flush_bytes_written_total": (
        "counter",
        "Data bytes persisted by memtable flushes.",
    ),
    "repro_store_compaction_bytes_rewritten_total": (
        "counter",
        "Data bytes re-persisted by compaction merges (write amplification).",
    ),
    "repro_store_block_reads_total": (
        "counter",
        "Physical SSTable data-block loads (block-cache hits excluded).",
    ),
    "repro_store_lazy_meta_loads_total": (
        "counter",
        "Lazily-opened SSTables that materialized index/bloom metadata.",
    ),
    "repro_store_read_operands_total": (
        "counter",
        "Records point reads merged: memtable deltas plus SSTable records.",
    ),
    # -- store shape gauges -------------------------------------------------
    "repro_store_sstables": ("gauge", "Live SSTables on disk."),
    "repro_store_tables": ("gauge", "Logical tables created."),
    "repro_sstable_bytes_on_disk": (
        "gauge",
        "Total size of live SSTable files (post-compression bytes).",
    ),
    # -- block cache occupancy ---------------------------------------------
    "repro_block_cache_entries": ("gauge", "Blocks currently cached."),
    "repro_block_cache_bytes": ("gauge", "Bytes currently cached."),
    "repro_block_cache_evictions_total": ("counter", "Blocks evicted by LRU."),
    # -- row cache ----------------------------------------------------------
    "repro_row_cache_bytes": (
        "gauge",
        "Estimated resident bytes of the decoded rows the row cache holds.",
    ),
    "repro_row_cache_evictions_total": (
        "counter",
        "Decoded rows the row cache evicted to stay within cache_bytes.",
    ),
    "repro_postings_cache_hits_total": ("counter", "Row-cache hits on postings."),
    "repro_postings_cache_misses_total": ("counter", "Row-cache misses on postings."),
    "repro_postings_cache_entries": ("gauge", "Postings held in the row cache."),
    "repro_sequence_cache_hits_total": ("counter", "Row-cache hits on Seq rows."),
    "repro_sequence_cache_misses_total": ("counter", "Row-cache misses on Seq rows."),
    "repro_sequence_cache_entries": ("gauge", "Seq rows held in the row cache."),
    # -- engine state -------------------------------------------------------
    "repro_index_write_generation": (
        "gauge",
        "Write generation of the index: the writes it has applied.",
    ),
    # -- slow-query log -----------------------------------------------------
    "repro_slow_queries_total": (
        "counter",
        "Queries that exceeded the slow-query threshold.",
    ),
    # -- sharded coordinator ------------------------------------------------
    "repro_shard_count": ("gauge", "Shards behind the sharded index."),
    "repro_shard_fanout_total": (
        "counter",
        "Scatter-gather fan-outs issued (one per coordinator query).",
    ),
    "repro_shard_fanout_deadline_total": (
        "counter",
        "Fan-outs stopped because the per-request deadline expired.",
    ),
    # -- query service ------------------------------------------------------
    "repro_service_requests_total": ("counter", "Requests received."),
    "repro_service_rejected_total": (
        "counter",
        "Queries refused by admission control ('overloaded').",
    ),
    "repro_service_ingest_rejected_total": (
        "counter",
        "Ingest batches refused after the bounded backpressure wait.",
    ),
    "repro_service_deadline_exceeded_total": (
        "counter",
        "Requests that missed their deadline (before or during execution).",
    ),
    "repro_service_errors_total": (
        "counter",
        "Requests that failed with an unexpected server-side error.",
    ),
    "repro_service_connections_total": ("counter", "Client connections accepted."),
    "repro_service_active_requests": (
        "gauge",
        "Requests currently executing inside the engine.",
    ),
    # -- streaming ingest ---------------------------------------------------
    "repro_ingest_batches_total": (
        "counter",
        "Micro-batches applied and checkpointed by the tailing ingester.",
    ),
    "repro_ingest_events_total": (
        "counter",
        "Feed events read by the tailing ingester (applied + deduped).",
    ),
    "repro_ingest_deduped_total": (
        "counter",
        "Replayed events dropped by the indexed-tail dedup filter.",
    ),
    "repro_ingest_lag_bytes": (
        "gauge",
        "Feed bytes appended but not yet applied (checkpoint lag).",
    ),
    # -- ingest freshness (append -> visible-in-detect latency) -------------
    # Cumulative histogram buckets: each counts events whose freshness was
    # at or under the bound; *_events_total is the +Inf bucket.
    "repro_ingest_freshness_le_10ms_total": (
        "counter",
        "Events visible within 10 ms of feed append.",
    ),
    "repro_ingest_freshness_le_50ms_total": (
        "counter",
        "Events visible within 50 ms of feed append.",
    ),
    "repro_ingest_freshness_le_100ms_total": (
        "counter",
        "Events visible within 100 ms of feed append.",
    ),
    "repro_ingest_freshness_le_500ms_total": (
        "counter",
        "Events visible within 500 ms of feed append.",
    ),
    "repro_ingest_freshness_le_1s_total": (
        "counter",
        "Events visible within 1 s of feed append.",
    ),
    "repro_ingest_freshness_le_5s_total": (
        "counter",
        "Events visible within 5 s of feed append.",
    ),
    "repro_ingest_freshness_events_total": (
        "counter",
        "Events with a freshness observation (the +Inf bucket).",
    ),
    "repro_ingest_freshness_max_seconds": (
        "gauge",
        "Worst append-to-visible latency observed since start.",
    ),
    "repro_ingest_freshness_p50_seconds": (
        "gauge",
        "Median append-to-visible latency over the recent window.",
    ),
    "repro_ingest_freshness_p95_seconds": (
        "gauge",
        "95th-percentile append-to-visible latency over the recent window.",
    ),
    "repro_ingest_freshness_p99_seconds": (
        "gauge",
        "99th-percentile append-to-visible latency over the recent window.",
    ),
    # -- fault injection ----------------------------------------------------
    "repro_faults_injected_total": (
        "counter",
        "Faults injected by FaultyIO schedules (process-wide; 0 in production).",
    ),
}

Collector = Callable[[], dict[str, float]]


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class MetricsRegistry:
    """Named collection of metric sources; renders consistent snapshots.

    A *collection* calls every live collector exactly once and assembles
    all samples before rendering, so one exposition document is internally
    consistent per source (each source contributes one atomic
    ``StoreMetrics.snapshot()`` -- see ``docs/METRICS.md`` for the exact
    guarantee).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sources: dict[int, tuple[dict[str, str], Any]] = {}
        self._next_handle = 1

    def register(self, labels: dict[str, str], collector: Collector) -> int:
        """Add a metric source; returns a handle for :meth:`unregister`.

        Bound methods are held weakly (via their ``__self__``), plain
        callables strongly.
        """
        ref: Any
        if hasattr(collector, "__self__"):
            ref = weakref.WeakMethod(collector)  # type: ignore[arg-type]
        else:
            ref = collector
        with self._lock:
            handle = self._next_handle
            self._next_handle += 1
            self._sources[handle] = (dict(labels), ref)
        return handle

    def unregister(self, handle: int) -> None:
        with self._lock:
            self._sources.pop(handle, None)

    def collect(self) -> dict[str, list[tuple[dict[str, str], float]]]:
        """One sample pass: ``{name: [(labels, value), ...]}``, pruning
        sources whose owner was garbage-collected or raised on collect."""
        with self._lock:
            sources = list(self._sources.items())
        samples: dict[str, list[tuple[dict[str, str], float]]] = {}
        dead: list[int] = []
        for handle, (labels, ref) in sources:
            collector = ref() if isinstance(ref, weakref.WeakMethod) else ref
            if collector is None:
                dead.append(handle)
                continue
            try:
                source_samples = collector()
            except Exception:
                dead.append(handle)  # closed mid-collect: drop the source
                continue
            for name, value in source_samples.items():
                samples.setdefault(name, []).append((labels, value))
        if dead:
            with self._lock:
                for handle in dead:
                    self._sources.pop(handle, None)
        return samples

    def render(self) -> str:
        """Prometheus text exposition of one consistent collection pass."""
        samples = self.collect()
        lines: list[str] = []
        for name in sorted(samples):
            metric_type, help_text = METRIC_CATALOG.get(
                name, ("untyped", "Undocumented metric.")
            )
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {metric_type}")
            rows = sorted(
                samples[name], key=lambda item: sorted(item[0].items())
            )
            for labels, value in rows:
                if labels:
                    label_body = ",".join(
                        f'{key}="{_escape_label(str(val))}"'
                        for key, val in sorted(labels.items())
                    )
                    lines.append(f"{name}{{{label_body}}} {_format_value(value)}")
                else:
                    lines.append(f"{name} {_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def store_samples(
    metrics_snapshot: dict[str, int],
    sstables: int | None = None,
    tables: int | None = None,
    cache_stats: dict[str, int] | None = None,
    bytes_on_disk: int | None = None,
) -> dict[str, float]:
    """Map a :class:`~repro.kvstore.lsm.StoreMetrics` snapshot (plus shape
    gauges and block-cache occupancy) to exposition names."""
    samples: dict[str, float] = {
        f"repro_store_{name}_total": value
        for name, value in metrics_snapshot.items()
    }
    if sstables is not None:
        samples["repro_store_sstables"] = sstables
    if tables is not None:
        samples["repro_store_tables"] = tables
    if bytes_on_disk is not None:
        samples["repro_sstable_bytes_on_disk"] = bytes_on_disk
    if cache_stats:
        samples["repro_block_cache_entries"] = cache_stats.get("entries", 0)
        samples["repro_block_cache_bytes"] = cache_stats.get("weight", 0)
        samples["repro_block_cache_evictions_total"] = cache_stats.get("evictions", 0)
    return samples


#: the default process-wide registry
REGISTRY = MetricsRegistry()
