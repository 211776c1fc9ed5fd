"""`ShardedSequenceIndex`: scatter-gather over N independent engine shards.

Every shard is a full single-store :class:`~repro.core.engine.SequenceIndex`
over its own :class:`~repro.kvstore.api.KeyValueStore`; traces are assigned
by :func:`~repro.shard.hashing.shard_for_trace`, so one trace's Seq row,
Index postings and Count/LastChecked contributions all live on the same
shard and per-trace pruning never crosses a shard boundary.

The query surface is :class:`~repro.core.engine.QueryEngine`'s -- the same
front half (coercion, validation, result memo, slow-query timing, explain)
the single-store engine uses; what this engine supplies is the
scatter-gather back half:

1. **fan out, once** -- every shard's query processor runs the whole query
   concurrently on the coordinator's :class:`~repro.executor.ParallelExecutor`
   (one thread per shard), under the request deadline, each against its
   own per-row postings/sequence caches.  Each shard plans from
   the posting lists it fetches: its own entry counts are its real
   intermediate work, and no order changes an answer;
2. **merge** -- per-shard results are disjoint by construction (traces do
   not span shards), so merging is concatenation + a stable sort by trace
   id (a sum for ``count``, a sorted union for ``contains``),
   byte-identical to the single-store engine's output.  The shards' group
   cardinalities sum into the :class:`~repro.core.matches.QueryPlan` a
   single store would print, for ``explain``.

Writes fan out the same way: the batch is split by trace shard and each
sub-batch applies under that shard's own writer lock, so only the written
shards' generations move, and on those only the rows the sub-batch wrote
leave the per-row caches -- a query keeps every other warm cache entry,
which is where the mixed read/write throughput win comes from (see
BENCH_sharded_service.json).

Cross-shard consistency is per-shard read-committed: a query racing an
``update()`` may see the new batch on some shards and not yet on others;
each trace's result is always consistent because a trace lives on exactly
one shard.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.core.builder import UpdateStats
from repro.core.continuation import ContinuationExplorer
from repro.core.engine import QueryEngine, SequenceIndex
from repro.core.errors import DeadlineExceeded
from repro.core.matches import PairStats, PatternMatch, PatternStats, QueryPlan
from repro.core.model import Event, EventLog
from repro.core.pattern import Pattern
from repro.core.policies import Policy
from repro.core.query import build_plan
from repro.executor import ParallelExecutor
from repro.kvstore.api import StoreClosedError
from repro.obs.registry import REGISTRY
from repro.obs.trace import current_tracer
from repro.shard.hashing import HASH_NAME, shard_for_trace

MANIFEST_NAME = "SHARDS.json"
_MANIFEST_VERSION = 1


def write_manifest(root: str | Path, num_shards: int) -> None:
    """Persist the shard layout of a sharded store directory."""
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": _MANIFEST_VERSION,
        "num_shards": int(num_shards),
        "hash": HASH_NAME,
    }
    path = root / MANIFEST_NAME
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    tmp.replace(path)


def read_manifest(root: str | Path) -> dict[str, Any]:
    """Load and validate a shard manifest; raises on unknown layouts."""
    path = Path(root) / MANIFEST_NAME
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("version") != _MANIFEST_VERSION:
        raise ValueError(f"unsupported shard manifest version: {manifest!r}")
    if manifest.get("hash") != HASH_NAME:
        raise ValueError(
            f"unsupported shard hash {manifest.get('hash')!r}; this build "
            f"only understands {HASH_NAME!r}"
        )
    num_shards = manifest.get("num_shards")
    if not isinstance(num_shards, int) or num_shards <= 0:
        raise ValueError(f"invalid num_shards in shard manifest: {manifest!r}")
    return manifest


def is_sharded_store(root: str | Path) -> bool:
    """True when ``root`` holds a shard manifest."""
    return (Path(root) / MANIFEST_NAME).is_file()


def shard_paths(root: str | Path, num_shards: int) -> list[Path]:
    """Per-shard store directories under a sharded store root."""
    return [Path(root) / f"shard-{i:02d}" for i in range(num_shards)]


class _ShardMetrics:
    """Coordinator-level counters, registry-collected."""

    def __init__(self, num_shards: int) -> None:
        self.num_shards = num_shards
        self._lock = threading.Lock()
        self.fanouts = 0
        self.deadline_exceeded = 0

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def collect(self) -> dict[str, float]:
        with self._lock:
            return {
                "repro_shard_count": self.num_shards,
                "repro_shard_fanout_total": self.fanouts,
                "repro_shard_fanout_deadline_total": self.deadline_exceeded,
            }


def _sum_rows(
    rows: Iterable[dict[str, tuple[float, int]]]
) -> dict[str, tuple[float, int]]:
    """Sum ``{event: (sum_duration, completions)}`` rows element-wise."""
    merged: dict[str, tuple[float, int]] = {}
    for row in rows:
        for event, (duration, completions) in row.items():
            total, count = merged.get(event, (0.0, 0))
            merged[event] = (total + duration, count + completions)
    return merged


class ShardedSequenceIndex(QueryEngine):
    """Scatter-gather engine over N single-store engine shards.

    Same read/write surface as :class:`~repro.core.engine.SequenceIndex`
    (the single-store engine is the 1-shard case of it), answering every
    query byte-identically on the same data.

    On ``deadline`` expiry the pending shard fan-out is cancelled and
    :class:`~repro.core.errors.DeadlineExceeded` propagates -- the serving
    layer maps it to a ``deadline`` error response.
    """

    def __init__(
        self,
        shards: Sequence[SequenceIndex],
        executor: ParallelExecutor | None = None,
        query_cache_size: int = 128,
        name: str = "sharded",
    ) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        super().__init__(query_cache_size)
        self.shards = list(shards)
        self._owns_executor = executor is None
        self.executor = executor or ParallelExecutor(max_workers=len(self.shards))
        # Count / ReverseCount rows summed across shards: a trace lives on
        # exactly one shard, so durations and completions are both additive.
        self.explorer = ContinuationExplorer(
            self._detect_uncached,
            lambda first: _sum_rows(s.query.count_row(first) for s in self.shards),
            lambda second: _sum_rows(
                s.query.reverse_count_row(second) for s in self.shards
            ),
        )
        self.metrics = _ShardMetrics(len(self.shards))
        self._obs_handle = REGISTRY.register(
            {"index": name}, self.metrics.collect
        )
        self._closed = False

    # -- construction over on-disk stores ----------------------------------------

    @classmethod
    def open(
        cls,
        root: str | Path,
        store_factory: Callable[[str], Any],
        num_shards: int | None = None,
        executor: ParallelExecutor | None = None,
        query_cache_size: int = 128,
        **engine_kwargs: Any,
    ) -> "ShardedSequenceIndex":
        """Open (or create) a sharded store rooted at ``root``.

        ``store_factory(path)`` builds one shard's
        :class:`~repro.kvstore.api.KeyValueStore`.  An existing manifest
        wins over ``num_shards`` (reopening with a different count would
        strand traces on the wrong shard); creating a new store requires
        ``num_shards``.
        """
        root = Path(root)
        if is_sharded_store(root):
            manifest = read_manifest(root)
            if num_shards is not None and num_shards != manifest["num_shards"]:
                raise ValueError(
                    f"store at {root} has {manifest['num_shards']} shards; "
                    f"cannot reopen with {num_shards} (resharding is not "
                    "supported)"
                )
            num_shards = manifest["num_shards"]
        else:
            if num_shards is None:
                raise ValueError("num_shards is required to create a new store")
            write_manifest(root, num_shards)
        shards = [
            SequenceIndex(store_factory(str(path)), **engine_kwargs)
            for path in shard_paths(root, num_shards)
        ]
        return cls(
            shards,
            executor=executor,
            query_cache_size=query_cache_size,
            name=str(root),
        )

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def policy(self) -> Policy:
        return self.shards[0].policy

    def shard_of(self, trace_id: str) -> int:
        """The shard index owning ``trace_id``."""
        return shard_for_trace(trace_id, len(self.shards))

    @property
    def write_generations(self) -> tuple[int, ...]:
        """Per-shard write generations (the coordinator cache epoch)."""
        return tuple(shard.write_generation for shard in self.shards)

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("sharded index is closed")

    # -- lifecycle ----------------------------------------------------------------

    def flush(self) -> None:
        for shard in self.shards:
            shard.flush()

    def close(self) -> None:
        """Close every shard; later writes and queries raise
        :class:`~repro.kvstore.api.StoreClosedError`."""
        if self._closed:
            return
        self._closed = True
        REGISTRY.unregister(self._obs_handle)
        errors: list[Exception] = []
        for shard in self.shards:
            try:
                shard.close()
            except Exception as exc:  # close every shard before re-raising
                errors.append(exc)
        if self._owns_executor:
            self.executor.close()
        if errors:
            raise errors[0]

    def __enter__(self) -> "ShardedSequenceIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- writes -------------------------------------------------------------------

    def update(
        self,
        new_events: EventLog | Iterable[Event],
        partition: str = "",
        dedup: bool = False,
    ) -> UpdateStats:
        """Index a batch, fanned out to the owning shards.

        The batch is split by trace hash; each non-empty sub-batch is one
        ``update()`` on its shard, which holds that shard's writer lock
        (concurrent ``update()`` calls interleave across shards but
        serialize per shard, keeping the builder's read-modify-write
        bookkeeping safe).  Only written shards bump their write
        generation, which keys the answer memo; each written shard drops
        from its per-row caches exactly the rows its sub-batch wrote, so
        queries keep every other warm postings, Seq and Count row.
        """
        self._check_open()
        per_shard = self._split_events(new_events)
        touched = [i for i, batch in enumerate(per_shard) if batch is not None]
        if not touched:
            return UpdateStats(partition=partition)

        results = self.executor.gather([
            (lambda i=i: self.shards[i].update(per_shard[i], partition, dedup))
            for i in touched
        ])
        merged = UpdateStats(partition=partition)
        for stats in results:
            merged.traces_seen += stats.traces_seen
            merged.new_traces += stats.new_traces
            merged.events_indexed += stats.events_indexed
            merged.events_deduped += stats.events_deduped
            merged.pairs_created += stats.pairs_created
        return merged

    def _split_events(
        self, new_events: EventLog | Iterable[Event]
    ) -> list[EventLog | list[Event] | None]:
        """Partition a batch by owning shard, preserving input order."""
        n = len(self.shards)
        if isinstance(new_events, EventLog):
            buckets: list[list[Any] | None] = [None] * n
            for trace in new_events:
                i = shard_for_trace(trace.trace_id, n)
                if buckets[i] is None:
                    buckets[i] = []
                buckets[i].append(trace)
            return [
                EventLog(bucket, name=new_events.name) if bucket is not None else None
                for bucket in buckets
            ]
        event_buckets: list[list[Event] | None] = [None] * n
        for event in new_events:
            i = shard_for_trace(event.trace_id, n)
            if event_buckets[i] is None:
                event_buckets[i] = []
            event_buckets[i].append(event)
        return list(event_buckets)

    def prune_trace(self, trace_id: str) -> None:
        """Forget one trace's ``Seq`` row (shard-local); no answer changes."""
        self._check_open()
        self.shards[self.shard_of(trace_id)].prune_trace(trace_id)

    # -- scatter-gather helpers ---------------------------------------------------

    def _gather(
        self, thunks: Sequence[Callable[[], Any]], deadline: float | None
    ) -> list[Any]:
        self._check_open()
        self.metrics.bump("fanouts")
        span = current_tracer().span("shard.fanout")
        with span:
            if span.enabled:
                span.add("shards", len(thunks))
            try:
                return self.executor.gather(thunks, deadline=deadline)
            except DeadlineExceeded:
                self.metrics.bump("deadline_exceeded")
                raise

    # -- what this engine supplies to QueryEngine -----------------------------------

    def _epoch(self) -> tuple[int, ...]:
        self._check_open()  # a memoized answer is a query too
        return self.write_generations

    def _run(
        self,
        op: str,
        query: tuple[str, ...] | Pattern,
        partition: str | None,
        policy: Policy | None,
        deadline: float | None,
        **limits: Any,
    ) -> tuple[Any, QueryPlan]:
        """One fan-out: every shard plans from its own postings and answers.

        The answers merge; the shards' group cardinalities sum into the plan
        one store over all of the data would print.
        """
        per_shard = self._gather(
            [
                (
                    lambda run=shard.query.execute: run(
                        op, query, partition, policy, deadline, **limits
                    )
                )
                for shard in self.shards
            ],
            deadline,
        )
        answers = [answer for answer, _ in per_shard]
        cardinalities = zip(*(plan.cardinalities for _, plan in per_shard))
        plan = build_plan(query, tuple(map(sum, cardinalities)), policy)
        if op == "count":
            return sum(answers), plan
        if op == "contains":
            return sorted(trace_id for found in answers for trace_id in found), plan
        if op == "detect":
            return self._merge_matches(answers, limits.get("max_matches")), plan
        return None, plan

    @staticmethod
    def _merge_matches(
        per_shard: list[list[PatternMatch]], max_matches: int | None
    ) -> list[PatternMatch]:
        """Disjoint-union merge: stable sort by trace id, then truncate.

        Stability preserves each trace's chronological match order, and the
        per-shard ``max_matches`` caps compose exactly: any match within the
        global first ``k`` has fewer than ``k`` predecessors globally, hence
        fewer than ``k`` on its own shard, so its shard returned it.
        """
        span = current_tracer().span("shard.merge")
        with span:
            merged = [m for matches in per_shard for m in matches]
            merged.sort(key=lambda m: m.trace_id)
            if max_matches is not None:
                merged = merged[:max_matches]
            if span.enabled:
                span.add("matches", len(merged))
            return merged

    def _statistics(
        self, pattern: Sequence[str], all_pairs: bool, deadline: float | None
    ) -> PatternStats:
        """Pairwise statistics merged across shards (sums and max)."""
        per_shard = self._gather(
            [
                (lambda s=shard: s.query.statistics(pattern, all_pairs))
                for shard in self.shards
            ],
            deadline,
        )

        def merge_pairs(rows: tuple[PairStats, ...]) -> PairStats:
            lasts = [r.last_completion for r in rows if r.last_completion is not None]
            return PairStats(
                pair=rows[0].pair,
                completions=sum(r.completions for r in rows),
                total_duration=sum(r.total_duration for r in rows),
                last_completion=max(lasts) if lasts else None,
            )

        return PatternStats(
            pattern=tuple(pattern),
            pairs=tuple(
                merge_pairs(rows)
                for rows in zip(*(stats.pairs for stats in per_shard))
            ),
            extra_pairs=tuple(
                merge_pairs(rows)
                for rows in zip(*(stats.extra_pairs for stats in per_shard))
            ),
        )

    def detect_with_prefixes(
        self, pattern: Sequence[str], partition: str | None = ""
    ) -> dict[int, list[PatternMatch]]:
        """Completions of the pattern and every prefix, merged per length."""
        per_shard = self._gather(
            [
                (lambda s=shard: s.query.detect_with_prefixes(pattern, partition))
                for shard in self.shards
            ],
            deadline=None,
        )
        # A shard's join stops snapshotting once its chains run out, so a
        # prefix length is present iff some shard still held chains there.
        return {
            length: self._merge_matches(
                [found.get(length, []) for found in per_shard], None
            )
            for length in sorted(set().union(*per_shard))
        }

    # -- introspection ------------------------------------------------------------

    def trace_ids(self) -> list[str]:
        """Ids of all tracked traces, globally sorted."""
        merged = [tid for shard in self.shards for tid in shard.trace_ids()]
        merged.sort()
        return merged

    def get_trace(self, trace_id: str) -> list[tuple[str, float]]:
        """The indexed sequence of one trace (shard-local lookup)."""
        return self.shards[self.shard_of(trace_id)].get_trace(trace_id)

    def indexed_tail(self, trace_id: str) -> float | None:
        """Last indexed timestamp of one trace (shard-local lookup)."""
        return self.shards[self.shard_of(trace_id)].indexed_tail(trace_id)

    def top_pairs(self, k: int = 10) -> list[tuple[tuple[str, str], int]]:
        """The ``k`` globally most frequent pairs (summed across shards)."""
        if k <= 0:
            raise ValueError("k must be positive")
        totals: dict[tuple[str, str], int] = {}
        for shard in self.shards:
            # Unbounded per-shard top list: global top-k needs every pair a
            # shard knows, since a pair rare on one shard may be hot overall.
            for key, per_second in shard.store.scan("count"):
                first = key[0]
                for second, stats in per_second.items():
                    pair = (first, second)
                    totals[pair] = totals.get(pair, 0) + int(stats[1])
        frequencies = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
        return frequencies[:k]

    def activities(self) -> set[str]:
        """Union of every shard's observed activity alphabet."""
        alphabet: set[str] = set()
        for shard in self.shards:
            alphabet |= shard.activities()
        return alphabet

    def storage_stats(self) -> dict[str, Any]:
        """Aggregated storage accounting: per-shard breakdown plus totals."""
        per_shard = []
        totals = {
            "sstables": 0,
            "records": 0,
            "data_bytes": 0,
            "raw_data_bytes": 0,
            "file_bytes": 0,
        }
        for i, shard in enumerate(self.shards):
            stats = shard.store.storage_stats()
            per_shard.append({"shard": i, **stats})
            totals["sstables"] += len(stats.get("sstables", ()))
            for name in ("records", "data_bytes", "raw_data_bytes", "file_bytes"):
                totals[name] += stats.get(name, 0)
        raw = totals["raw_data_bytes"]
        disk = totals["data_bytes"]
        totals["compression_ratio"] = (raw / disk) if disk else 1.0
        return {
            "num_shards": len(self.shards),
            "shards": per_shard,
            "totals": totals,
        }

    def format_stats(self) -> dict[str, dict[str, dict[str, int]]]:
        """Every shard's :meth:`IndexTables.format_stats`, summed.

        A full scan of the list tables -- an operator report, which is why
        it is not part of :meth:`storage_stats` (the service's ``stats`` op).
        """
        merged: dict[str, dict[str, dict[str, int]]] = {}
        for shard in self.shards:
            for table, formats in shard.tables.format_stats().items():
                for name, slot in formats.items():
                    total = merged.setdefault(table, {}).setdefault(
                        name, {"chunks": 0, "entries": 0}
                    )
                    total["chunks"] += slot["chunks"]
                    total["entries"] += slot["entries"]
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedSequenceIndex(num_shards={len(self.shards)})"
