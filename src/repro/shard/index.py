"""`ShardedSequenceIndex`: scatter-gather over N independent engine shards.

Every shard is a full single-store :class:`~repro.core.engine.SequenceIndex`
over its own :class:`~repro.kvstore.api.KeyValueStore`; traces are assigned
by :func:`~repro.shard.hashing.shard_for_trace`, so one trace's Seq row,
Index postings, Count contributions and LastChecked bookkeeping all live on
the same shard and per-trace pruning never crosses a shard boundary.

Reads run scatter-gather:

1. **plan once** -- per-pair cardinalities are summed across shards (each
   shard answers from its Count rows, served warm by its planner cache) and
   one global :class:`~repro.core.matches.QueryPlan` is built from the
   merged counts; a globally-zero pair proves the result empty before any
   posting list is touched;
2. **fan out** -- every shard executes the same plan concurrently on the
   shared :class:`~repro.executor.ParallelExecutor` (persistent thread
   pool), each against its own generation-keyed postings/sequence caches;
3. **merge** -- per-shard results are disjoint by construction (traces do
   not span shards), so merging is concatenation + a stable sort by trace
   id, byte-identical to the single-store engine's output order.

Writes fan out the same way: the batch is split by trace shard and each
sub-batch applies under that shard's ingest lock, so only the written
shards' cache generations move -- a query touching the other shards keeps
every warm cache entry, which is where the mixed read/write throughput win
comes from (see BENCH_sharded_service.json).

Cross-shard consistency is per-shard read-committed: a query racing an
``update()`` may see the new batch on some shards and not yet on others;
each trace's result is always consistent because a trace lives on exactly
one shard.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.core.builder import UpdateStats
from repro.core.engine import SequenceIndex
from repro.core.errors import DeadlineExceeded, EmptyPatternError
from repro.core.matches import PairStats, PatternMatch, PatternStats
from repro.core.model import Event, EventLog
from repro.core.pattern import Pattern, parse_pattern
from repro.core.policies import Policy
from repro.executor import ParallelExecutor
from repro.kvstore.cache import LRUCache
from repro.obs.registry import REGISTRY
from repro.obs.trace import current_tracer
from repro.shard.hashing import HASH_NAME, shard_for_trace

MANIFEST_NAME = "SHARDS.json"
_MANIFEST_VERSION = 1
_MISS = object()


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


class ShardedSequenceIndex:
    """Scatter-gather facade over N single-store engine shards.

    Mirrors the read/write surface of :class:`~repro.core.engine.SequenceIndex`
    (``update``/``detect``/``count``/``contains``/``statistics``/``prune_trace``
    plus the introspection helpers); ``continuations`` and prefix detection
    are not distributed yet and raise :class:`NotImplementedError`.

    Query methods accept an optional absolute ``deadline``
    (``time.monotonic()`` instant); on expiry the pending shard fan-out is
    cancelled and :class:`~repro.core.errors.DeadlineExceeded` propagates --
    the serving layer maps it to a ``deadline`` error response.
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
        self.shards = list(shards)
        if executor is None:
            executor = ParallelExecutor(
                backend="thread" if len(self.shards) > 1 else "serial",
                max_workers=len(self.shards),
                persistent=True,
            )
            self._owns_executor = True
        else:
            self._owns_executor = False
        self.executor = executor
        self._ingest_locks = [threading.Lock() for _ in self.shards]
        self._query_cache = LRUCache(query_cache_size) if query_cache_size > 0 else None
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

    # -- lifecycle ----------------------------------------------------------------

    def flush(self) -> None:
        for shard in self.shards:
            shard.flush()

    def close(self) -> None:
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
        self, new_events: EventLog | Iterable[Event], partition: str = ""
    ) -> UpdateStats:
        """Index a batch, fanned out to the owning shards.

        The batch is split by trace hash; each non-empty sub-batch applies
        under its shard's ingest lock (concurrent ``update()`` calls
        interleave across shards but serialize per shard, keeping the
        builder's read-modify-write bookkeeping safe).  Only written shards
        bump their write generation, so queries keep their warm cache
        entries on every untouched shard.
        """
        per_shard = self._split_events(new_events)
        touched = [i for i, batch in enumerate(per_shard) if batch is not None]
        if not touched:
            return UpdateStats(partition=partition)

        def apply(i: int) -> UpdateStats:
            with self._ingest_locks[i]:
                return self.shards[i].update(per_shard[i], partition)

        results = self.executor.gather([
            (lambda i=i: apply(i)) for i in touched
        ])
        merged = UpdateStats(partition=partition)
        for stats in results:
            merged.traces_seen += stats.traces_seen
            merged.new_traces += stats.new_traces
            merged.events_indexed += stats.events_indexed
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
        """Forget one trace's update bookkeeping (shard-local)."""
        i = self.shard_of(trace_id)
        with self._ingest_locks[i]:
            self.shards[i].prune_trace(trace_id)

    # -- scatter-gather helpers ---------------------------------------------------

    def _gather(
        self, thunks: Sequence[Callable[[], Any]], deadline: float | None
    ) -> list[Any]:
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

    def _cached(
        self, key: tuple[Hashable, ...], compute: Callable[[], Any]
    ) -> Any:
        """Coordinator query-result memo, keyed by all shard generations."""
        if self._query_cache is None:
            return compute()
        full_key = (self.write_generations,) + key
        cached = self._query_cache.get(full_key, _MISS)
        if cached is not _MISS:
            return list(cached) if isinstance(cached, tuple) else cached
        result = compute()
        self._query_cache.put(
            full_key, tuple(result) if isinstance(result, list) else result
        )
        return result

    def _composite(self, pattern: object) -> Pattern | None:
        if isinstance(pattern, Pattern):
            return pattern
        if isinstance(pattern, str):
            return parse_pattern(pattern)
        return None

    def _merged_plan(self, pattern: Sequence[str], partition: str | None):
        """One global plan from summed per-shard Count cardinalities.

        Returns ``None`` when some pair has zero completions on *every*
        shard -- the global zero-cardinality early exit.
        """
        span = current_tracer().span("shard.plan")
        with span:
            pairs = tuple(zip(pattern, pattern[1:]))
            per_shard = self._gather(
                [
                    (lambda s=shard: s.query.cardinalities(pairs))
                    for shard in self.shards
                ],
                deadline=None,
            )
            merged = tuple(sum(cards) for cards in zip(*per_shard))
            if span.enabled:
                span.add("pairs", len(pairs))
                span.add("min_cardinality", min(merged, default=0))
            if 0 in merged:
                return None
            return self.shards[0].query.plan_from_cardinalities(
                pattern, merged, partition
            )

    def _merged_pattern_plan(self, pattern: Pattern, partition: str | None):
        """Global composite plan from summed per-shard group cardinalities.

        Returns ``None`` when a positive adjacency is empty on every shard.
        """
        span = current_tracer().span("shard.plan")
        with span:
            query0 = self.shards[0].query
            groups = query0.pattern_groups(pattern)
            flat = tuple(pair for group in groups for pair in group)
            per_shard = self._gather(
                [
                    (lambda s=shard: s.query.cardinalities(flat))
                    for shard in self.shards
                ],
                deadline=None,
            )
            flat_merged = [sum(cards) for cards in zip(*per_shard)]
            merged: list[int] = []
            offset = 0
            for group in groups:
                merged.append(sum(flat_merged[offset : offset + len(group)]))
                offset += len(group)
            if span.enabled:
                span.add("groups", len(groups))
                span.add("min_cardinality", min(merged, default=0))
            if groups and 0 in merged:
                return None
            return query0.plan_pattern_from_cardinalities(
                pattern, merged, partition
            )

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

    # -- reads --------------------------------------------------------------------

    def detect(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        policy: Policy | None = None,
        max_matches: int | None = None,
        within: float | None = None,
        deadline: float | None = None,
    ) -> list[PatternMatch]:
        """All completions of ``pattern``, byte-identical to the single-store
        engine's result on the same data."""
        composite = self._composite(pattern)
        if composite is not None:
            self._check_composite(policy, within)
            return self._cached(
                ("detect", composite, partition, max_matches),
                lambda: self._detect_composite(
                    composite, partition, max_matches, deadline
                ),
            )
        if len(pattern) == 0:
            raise EmptyPatternError("cannot detect an empty pattern")
        key = ("detect", tuple(pattern), partition, policy, max_matches, within)
        return self._cached(
            key,
            lambda: self._detect_plain(
                pattern, partition, policy, max_matches, within, deadline
            ),
        )

    def _detect_plain(
        self,
        pattern: Sequence[str],
        partition: str | None,
        policy: Policy | None,
        max_matches: int | None,
        within: float | None,
        deadline: float | None,
    ) -> list[PatternMatch]:
        plan = None
        if policy is not Policy.STAM and len(pattern) >= 2:
            plan = self._merged_plan(pattern, partition)
            if plan is None:
                return []
        per_shard = self._gather(
            [
                (
                    lambda s=shard: s.query.detect(
                        pattern, partition, policy, max_matches, within, plan
                    )
                )
                for shard in self.shards
            ],
            deadline,
        )
        return self._merge_matches(per_shard, max_matches)

    def _detect_composite(
        self,
        pattern: Pattern,
        partition: str | None,
        max_matches: int | None,
        deadline: float | None,
    ) -> list[PatternMatch]:
        plan = self._merged_pattern_plan(pattern, partition)
        if plan is None:
            return []
        per_shard = self._gather(
            [
                (
                    lambda s=shard: s.query.detect_pattern(
                        pattern, partition, max_matches, plan
                    )
                )
                for shard in self.shards
            ],
            deadline,
        )
        return self._merge_matches(per_shard, max_matches)

    def count(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        within: float | None = None,
        deadline: float | None = None,
    ) -> int:
        """Number of completions of ``pattern`` across all shards."""
        composite = self._composite(pattern)
        if composite is not None:
            self._check_composite(within=within)
            return self._cached(
                ("count", composite, partition),
                lambda: self._count_composite(composite, partition, deadline),
            )
        if len(pattern) == 0:
            raise EmptyPatternError("cannot detect an empty pattern")
        return self._cached(
            ("count", tuple(pattern), partition, within),
            lambda: self._count_plain(pattern, partition, within, deadline),
        )

    def _count_plain(
        self,
        pattern: Sequence[str],
        partition: str | None,
        within: float | None,
        deadline: float | None,
    ) -> int:
        plan = None
        if len(pattern) >= 2:
            plan = self._merged_plan(pattern, partition)
            if plan is None:
                return 0
        per_shard = self._gather(
            [
                (lambda s=shard: s.query.count(pattern, partition, within, plan))
                for shard in self.shards
            ],
            deadline,
        )
        return sum(per_shard)

    def _count_composite(
        self, pattern: Pattern, partition: str | None, deadline: float | None
    ) -> int:
        plan = self._merged_pattern_plan(pattern, partition)
        if plan is None:
            return 0
        per_shard = self._gather(
            [
                (lambda s=shard: s.query.count_pattern(pattern, partition, plan))
                for shard in self.shards
            ],
            deadline,
        )
        return sum(per_shard)

    def contains(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        deadline: float | None = None,
    ) -> list[str]:
        """Sorted ids of traces containing ``pattern``."""
        composite = self._composite(pattern)
        if composite is not None:
            self._check_composite()
            return self._cached(
                ("contains", composite, partition),
                lambda: self._contains_compute(
                    lambda s, plan: s.query.contains_pattern(
                        composite, partition, plan
                    ),
                    lambda: self._merged_pattern_plan(composite, partition),
                    deadline,
                ),
            )
        if len(pattern) == 0:
            raise EmptyPatternError("cannot detect an empty pattern")
        if len(pattern) == 1:
            return self._cached(
                ("contains", tuple(pattern), partition),
                lambda: self._contains_compute(
                    lambda s, plan: s.query.contains(pattern, partition),
                    None,
                    deadline,
                ),
            )
        return self._cached(
            ("contains", tuple(pattern), partition),
            lambda: self._contains_compute(
                lambda s, plan: s.query.contains(pattern, partition, plan),
                lambda: self._merged_plan(pattern, partition),
                deadline,
            ),
        )

    def _contains_compute(
        self,
        run: Callable[[SequenceIndex, Any], list[str]],
        make_plan: Callable[[], Any] | None,
        deadline: float | None,
    ) -> list[str]:
        plan = None
        if make_plan is not None:
            plan = make_plan()
            if plan is None:
                return []
        span_input = self._gather(
            [(lambda s=shard: run(s, plan)) for shard in self.shards],
            deadline,
        )
        merged = [trace_id for found in span_input for trace_id in found]
        merged.sort()
        return merged

    def statistics(
        self,
        pattern: Sequence[str],
        all_pairs: bool = False,
        deadline: float | None = None,
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

    def continuations(self, *args: Any, **kwargs: Any) -> Any:
        raise NotImplementedError(
            "continuation exploration is not distributed yet; open each "
            "shard as a single-store SequenceIndex for shard-local proposals"
        )

    def detect_with_prefixes(self, *args: Any, **kwargs: Any) -> Any:
        raise NotImplementedError(
            "prefix detection snapshots only exist under single-store "
            "left-to-right evaluation"
        )

    def _check_composite(
        self, policy: Policy | None = None, within: float | None = None
    ) -> None:
        if policy is not None:
            raise ValueError(
                "composite patterns fix the skip-till-next-match strategy; "
                "the policy argument applies to plain sequence patterns only"
            )
        if within is not None:
            raise ValueError(
                "composite patterns carry their window inside the expression "
                "(WITHIN ...); the within= argument applies to plain "
                "sequence patterns only"
            )
        # Per-shard engines re-validate the policy; check eagerly so the
        # error surfaces before any fan-out.
        self.shards[0]._check_composite()

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
        """Last indexed timestamp of one trace (shard-local lookup).

        Routes to the owning shard, so the streaming ingester's replay
        filter works identically over sharded and single-store engines.
        """
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
            stats_fn = getattr(shard.store, "storage_stats", None)
            stats = stats_fn() if stats_fn is not None else {}
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
