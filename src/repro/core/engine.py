"""`SequenceIndex`: the facade tying pre-processing and querying together.

This is the class downstream users interact with::

    from repro import SequenceIndex, Policy
    from repro.kvstore import LSMStore

    index = SequenceIndex(LSMStore("/data/index"), policy=Policy.STNM)
    index.update(new_log)                      # periodic batch (Algorithm 1)
    index.detect(["search", "search", "buy"])  # pattern detection
    index.statistics(["a", "b", "c"])          # pairwise statistics
    index.continuations(["a", "b"], mode="hybrid", top_k=5)

The store argument accepts any :class:`~repro.kvstore.api.KeyValueStore`;
omitting it uses an in-memory store (useful for exploration and tests).

The query half of that surface lives in :class:`QueryEngine`, which the
sharded :class:`~repro.shard.index.ShardedSequenceIndex` shares: input
coercion, argument validation, the result memo, slow-query timing and
``explain`` are written once, and an engine only says where a query runs
and how partial answers and plans combine.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.core.builder import IndexBuilder, UpdateStats, WrittenKeys
from repro.core.continuation import ContinuationExplorer
from repro.core.errors import PolicyMismatchError
from repro.core.matches import (
    ContinuationProposal,
    PatternMatch,
    PatternStats,
    QueryPlan,
)
from repro.core.model import Event, EventLog
from repro.core.pattern import Pattern
from repro.core.policies import Policy
from repro.core.query import QueryProcessor, as_query, check_deadline, check_limits
from repro.kvstore import InMemoryStore
from repro.kvstore.cache import LRUCache
from repro.kvstore.api import KeyValueStore
from repro.obs.profile import QueryProfile, profile_from_tracer
from repro.obs.registry import REGISTRY
from repro.obs.slowlog import SlowQueryEntry, SlowQueryLog
from repro.obs.trace import Tracer, activate, current_tracer

_MODES = ("accurate", "fast", "hybrid")
_MISS = object()


class QueryEngine:
    """The query surface of an index engine, single-store or sharded.

    Everything in front of a query's execution is here, once: the pattern
    is coerced (list of activities, :class:`~repro.core.pattern.Pattern` or
    expression string), the arguments are validated, the answer is looked
    up in the generation-keyed **query-result cache**, the call is timed
    for the slow-query log, and ``explain``/``explain_profile`` return the
    plan (and stage profile) of a real execution.  An engine supplies:

    * :attr:`policy`, :attr:`num_shards` and :meth:`_epoch` (the memo's
      invalidation key: every write moves it);
    * :meth:`_run` -- where a query plans and runs (here, or once on every
      shard) and how partial answers and plans combine;
    * :meth:`_statistics`, and an :attr:`explorer` built over
      :meth:`_detect_uncached` and its ``Count`` / ``ReverseCount`` row
      readers -- the same for the statistics tables (counts are additive
      across shards because a trace lives on exactly one).

    Every query method takes an absolute ``deadline``
    (``time.monotonic()`` instant): it is checked between query stages --
    and cancels a pending shard fan-out -- raising
    :class:`~repro.core.errors.DeadlineExceeded`.

    Every query call is timed; with ``slow_query_threshold`` set (in
    seconds, or via the ``REPRO_SLOW_QUERY_MS`` environment variable) calls
    at or above the threshold land in :attr:`slow_query_log`.
    """

    policy: Policy
    num_shards: int
    explorer: ContinuationExplorer

    def __init__(
        self, query_cache_size: int, slow_query_threshold: float | None = None
    ) -> None:
        self._query_cache = LRUCache(query_cache_size) if query_cache_size > 0 else None
        if slow_query_threshold is None:
            env_ms = os.environ.get("REPRO_SLOW_QUERY_MS", "").strip()
            if env_ms:
                slow_query_threshold = float(env_ms) / 1e3
        self.slow_query_log = (
            SlowQueryLog(slow_query_threshold)
            if slow_query_threshold is not None
            else None
        )

    # -- supplied by the engine ------------------------------------------------------

    def _epoch(self) -> Hashable:
        raise NotImplementedError

    def _run(
        self,
        op: str,
        query: tuple[str, ...] | Pattern,
        partition: str | None,
        policy: Policy | None,
        deadline: float | None,
        **limits: Any,
    ) -> tuple[Any, QueryPlan]:
        """Plan and run ``op`` (``detect``/``count``/``contains``, or
        ``explain``, whose answer is ``None``): ``(answer, plan)``."""
        raise NotImplementedError

    def _statistics(
        self, pattern: Sequence[str], all_pairs: bool, deadline: float | None
    ) -> PatternStats:
        raise NotImplementedError

    # -- the shared front half -------------------------------------------------------

    def query_cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the query-result cache."""
        return self._query_cache.stats() if self._query_cache is not None else {}

    def slow_queries(self) -> list[SlowQueryEntry]:
        """Recent slow queries (empty when no threshold is configured)."""
        return self.slow_query_log.entries if self.slow_query_log is not None else []

    def _observe_query(
        self, kind: str, detail: str, compute: Callable[[], Any]
    ) -> Any:
        """Run one query call under a span and the slow-query timer."""
        span = current_tracer().span(kind)
        start = time.perf_counter()
        try:
            with span:
                return compute()
        finally:
            if self.slow_query_log is not None:
                self.slow_query_log.observe(
                    kind, detail, time.perf_counter() - start
                )

    def _cached(self, key: tuple[Hashable, ...], compute: Callable[[], Any]) -> Any:
        """Memoize ``compute()`` under the current write epoch.

        List results are stored as tuples and returned as fresh lists, so a
        caller reordering/extending its list cannot poison later cache hits.
        The elements themselves (:class:`PatternMatch`, :class:`PatternStats`,
        :class:`ContinuationProposal`, plain strings/ints) are shared between
        the cache and every caller -- safe because they are all immutable
        (frozen dataclasses with tuple fields).
        """
        if self._query_cache is None:
            return compute()
        full_key = (self._epoch(),) + key
        cached = self._query_cache.get(full_key, _MISS)
        if cached is not _MISS:
            return list(cached) if isinstance(cached, tuple) else cached
        result = compute()
        self._query_cache.put(
            full_key, tuple(result) if isinstance(result, list) else result
        )
        return result

    def _check_arguments(
        self,
        query: tuple[str, ...] | Pattern,
        policy: Policy | None = None,
        max_matches: int | None = None,
        within: float | None = None,
    ) -> None:
        """Reject out-of-range limits and, for a composite pattern,
        unsupported arguments.

        Composite semantics are skip-till-next-match by definition and the
        pair-index pruning is sound only over STNM pairs (an SC index
        records strictly-contiguous pairs, so a trace can match a composite
        pattern while holding none of its index pairs).  The window lives
        in the expression (``WITHIN``), not in the ``within=`` post-filter.
        """
        check_limits(max_matches, within)
        if not isinstance(query, Pattern):
            return
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
        if self.policy is not Policy.STNM:
            raise PolicyMismatchError(
                "composite pattern queries need an index built with "
                f"Policy.STNM; this index uses {self.policy.value!r}, whose "
                "pairs cannot prune skip-till-next-match candidates soundly"
            )

    def _answer(
        self,
        op: str,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None,
        policy: Policy | None,
        deadline: float | None,
        explain: bool = False,
        **limits: Any,
    ) -> Any:
        """One ``detect``/``count``/``contains`` call, front to back.

        With ``explain`` the memo is bypassed, so the plan always reflects
        a real execution, and ``(answer, plan)`` is returned.
        """
        query = as_query(pattern)
        self._check_arguments(query, policy, **limits)
        check_deadline(deadline)

        def run() -> tuple[Any, QueryPlan]:
            return self._run(op, query, partition, policy, deadline, **limits)

        shown = str(query) if isinstance(query, Pattern) else list(query)
        return self._observe_query(
            f"query.{op}",
            f"pattern={shown!r} partition={partition!r}",
            run
            if explain
            else lambda: self._cached(
                (op, query, partition, policy, *limits.values()),
                lambda: run()[0],
            ),
        )

    def _detect_uncached(
        self, pattern: Sequence[str], partition: str | None
    ) -> list[PatternMatch]:
        """One detection, no memo (the explorer's probes)."""
        return self._run("detect", as_query(pattern), partition, None, None)[0]

    # -- queries ----------------------------------------------------------------------

    def detect(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        policy: Policy | None = None,
        max_matches: int | None = None,
        within: float | None = None,
        explain: bool = False,
        explain_profile: bool = False,
        deadline: float | None = None,
    ) -> (
        list[PatternMatch]
        | tuple[list[PatternMatch], QueryPlan]
        | tuple[list[PatternMatch], QueryPlan, QueryProfile]
    ):
        """All completions of ``pattern`` (Algorithm 2).

        ``pattern`` may also be a :class:`~repro.core.pattern.Pattern` or a
        pattern expression string -- e.g. ``"SEQ(A, !B, (C|D)+) WITHIN 10"``
        -- which is finished by verification instead of the chain join
        (requires a STNM index; ``policy``/``within`` must stay unset).
        ``max_matches`` caps the result; negative values raise
        ``ValueError``.

        With ``explain=True`` the return value is ``(matches, plan)`` where
        ``plan`` records the group cardinalities, the order and the
        finisher the planner chose; explain calls bypass the query-result
        cache so the plan always reflects a real execution.
        ``explain_profile=True`` (implies ``explain``) additionally runs
        the detection under a fresh tracer and returns ``(matches, plan,
        profile)``, where ``profile`` breaks the call into stages
        (fetch_postings / plan / intersect / join / materialize or verify;
        the sharded engine reports shard.fanout / shard.merge).
        """
        limits = {"max_matches": max_matches, "within": within}
        if explain_profile:
            tracer = Tracer()
            with activate(tracer):
                matches, plan = self._answer(
                    "detect", pattern, partition, policy, deadline, True, **limits
                )
            return matches, plan, profile_from_tracer(tracer, "query.detect")
        return self._answer(
            "detect", pattern, partition, policy, deadline, explain, **limits
        )

    def explain(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        policy: Policy | None = None,
    ) -> QueryPlan:
        """The execution plan a detection of ``pattern`` would use: its
        posting lists are fetched, the finisher does not run."""
        query = as_query(pattern)
        self._check_arguments(query, policy)
        return self._run("explain", query, partition, policy, None)[1]

    def count(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        within: float | None = None,
        deadline: float | None = None,
    ) -> int:
        """Number of completions of ``pattern``."""
        return self._answer("count", pattern, partition, None, deadline, within=within)

    def contains(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        deadline: float | None = None,
    ) -> list[str]:
        """Sorted ids of traces containing ``pattern``."""
        return self._answer("contains", pattern, partition, None, deadline)

    def statistics(
        self,
        pattern: Sequence[str],
        all_pairs: bool = False,
        deadline: float | None = None,
    ) -> PatternStats:
        """Pairwise statistics of ``pattern`` (constant-time per pair).

        ``all_pairs=True`` also reads every non-adjacent pattern pair for a
        tighter completions bound (§3.2.1's accuracy/time trade-off).
        """
        check_deadline(deadline)
        return self._observe_query(
            "query.statistics",
            f"pattern={list(pattern)!r} all_pairs={all_pairs}",
            lambda: self._cached(
                ("statistics", tuple(pattern), all_pairs),
                lambda: self._statistics(pattern, all_pairs, deadline),
            ),
        )

    def continuations(
        self,
        pattern: Sequence[str],
        mode: str = "hybrid",
        top_k: int = 5,
        within: float | None = None,
        partition: str | None = "",
    ) -> list[ContinuationProposal]:
        """Ranked candidate next events (Algorithms 3-5, Equation 1)."""
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")

        def compute() -> list[ContinuationProposal]:
            if mode == "accurate":
                return self.explorer.accurate(pattern, within, partition)
            if mode == "fast":
                return self.explorer.fast(pattern)
            return self.explorer.hybrid(pattern, top_k, within, partition)

        return self._observe_query(
            "query.continuations",
            f"pattern={list(pattern)!r} mode={mode!r} top_k={top_k}",
            lambda: self._cached(
                ("continuations", tuple(pattern), mode, top_k, within, partition),
                compute,
            ),
        )

    def explore_at(
        self, pattern: Sequence[str], position: int, partition: str | None = ""
    ) -> list[ContinuationProposal]:
        """Propose insertions at arbitrary pattern positions (§7 extension)."""
        return self.explorer.explore_at(pattern, position, partition)


class SequenceIndex(QueryEngine):
    """Inverted event-pair index over an event log collection.

    The caches follow one rule in three parts:

    * **answers are memoized per generation.**  Read queries (``detect``/
      ``count``/``contains``/``statistics``/``continuations``) are memoized
      in a small LRU **query-result cache** whose keys embed the index's
      *write generation* -- a counter bumped by every :meth:`update` and
      :meth:`prune_trace` -- because an answer depends on many rows: post-
      write queries never hash to a pre-write key, and the dead generation
      ages out of the LRU.  Set ``query_cache_size=0`` to disable.
    * **per-row caches drop exactly the rows a write touched.**  The
      **decoded-postings cache** (:class:`~repro.core.postings.Postings`
      keyed ``(partition, pair)``; ``postings_cache_size=0`` disables it),
      the **decoded-sequence cache** (Seq rows keyed by trace id;
      ``sequence_cache_size=0``) and the Count / ReverseCount rows of the
      continuation explorer carry no generation: a write drops the pairs,
      traces and activities it wrote and leaves every other warm row, so
      a detection beside a live ingest still skips the store read and the
      chunk-dictionary parse of the pairs the ingest did not touch.
    * **a fetch that overlapped a write does not fill the cache**
      (:class:`~repro.core.query.QueryProcessor`).

    A store has one writer at a time, and the rule lives here and nowhere
    else: :meth:`update` and :meth:`prune_trace` hold one private lock
    around the mutation *and* the cache invalidation, whoever calls them
    (ingester thread, service handler, shard fan-out); readers never take it.

    The engine registers its caches and write generation with the
    process-wide metrics registry (``python -m repro metrics``); the query
    surface itself -- slow-query log and ``explain_profile`` included -- is
    :class:`QueryEngine`'s.
    """

    num_shards = 1

    def __init__(
        self,
        store: KeyValueStore | None = None,
        policy: Policy = Policy.STNM,
        query_cache_size: int = 128,
        postings_cache_size: int = 64,
        sequence_cache_size: int = 256,
        slow_query_threshold: float | None = None,
    ) -> None:
        super().__init__(query_cache_size, slow_query_threshold)
        self.store = store if store is not None else InMemoryStore()
        self.builder = IndexBuilder(self.store, policy)
        self.tables = self.builder.tables
        self._postings_cache = (
            LRUCache(postings_cache_size) if postings_cache_size > 0 else None
        )
        self._sequence_cache = (
            LRUCache(sequence_cache_size) if sequence_cache_size > 0 else None
        )
        self.query = QueryProcessor(
            self.tables,
            postings_cache=self._postings_cache,
            sequence_cache=self._sequence_cache,
        )
        self.explorer = ContinuationExplorer(
            self._detect_uncached,
            self.query.count_row,
            self.query.reverse_count_row,
        )
        self._write_lock = threading.Lock()
        self._obs_handle = REGISTRY.register(
            {"index": getattr(self.store, "obs_name", "index")},
            self._collect_obs_metrics,
        )

    @property
    def policy(self) -> Policy:
        return self.builder.policy

    @property
    def write_generation(self) -> int:
        """Monotonic counter of index mutations (query-cache epoch)."""
        return self.query.generation

    def postings_cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the decoded-postings cache."""
        return self._postings_cache.stats() if self._postings_cache is not None else {}

    def sequence_cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the decoded-sequence cache."""
        return self._sequence_cache.stats() if self._sequence_cache is not None else {}

    def _collect_obs_metrics(self) -> dict[str, float]:
        """Metrics-registry collector: engine caches, generation, slowlog."""
        samples: dict[str, float] = {
            "repro_index_write_generation": self.write_generation
        }
        for prefix, stats in (
            ("repro_query_cache", self.query_cache_stats()),
            ("repro_postings_cache", self.postings_cache_stats()),
            ("repro_sequence_cache", self.sequence_cache_stats()),
        ):
            if stats:
                samples[f"{prefix}_hits_total"] = stats.get("hits", 0)
                samples[f"{prefix}_misses_total"] = stats.get("misses", 0)
                samples[f"{prefix}_evictions_total"] = stats.get("evictions", 0)
                samples[f"{prefix}_entries"] = stats.get("entries", 0)
        if self.slow_query_log is not None:
            samples["repro_slow_queries_total"] = self.slow_query_log.stats()["slow"]
        return samples

    # -- what this engine supplies to QueryEngine -----------------------------------

    def _epoch(self) -> int:
        return self.write_generation

    def _run(
        self,
        op: str,
        query: tuple[str, ...] | Pattern,
        partition: str | None,
        policy: Policy | None,
        deadline: float | None,
        **limits: Any,
    ) -> tuple[Any, QueryPlan]:
        return self.query.execute(op, query, partition, policy, deadline, **limits)

    def _statistics(
        self, pattern: Sequence[str], all_pairs: bool, deadline: float | None
    ) -> PatternStats:
        return self.query.statistics(pattern, all_pairs)  # one read: no stage to stop at

    def detect_with_prefixes(
        self, pattern: Sequence[str], partition: str | None = ""
    ) -> dict[int, list[PatternMatch]]:
        """Completions of the pattern and every prefix (free by-product)."""
        return self.query.detect_with_prefixes(pattern, partition)

    # -- pre-processing -----------------------------------------------------------

    def update(
        self,
        new_events: EventLog | Iterable[Event],
        partition: str = "",
        dedup: bool = False,
    ) -> UpdateStats:
        """Index a batch of new events (incremental, duplicate-free).

        ``dedup`` is the replay filter of streaming ingest (docs/INGEST.md):
        events at or before their trace's indexed tail are dropped instead of
        raising :class:`~repro.core.errors.TraceOrderError`.

        The caches learn of the write *after* it is applied: the
        generation moves and the rows the update wrote
        (``UpdateStats.written``) leave the per-row caches -- every row, if
        the update failed part-way.  A query racing the update memoizes its
        possibly-partial answer under the pre-update generation, which no
        post-update query reads, and a row fetched while the update ran is
        not cached (:class:`~repro.core.query.QueryProcessor`).  A batch
        that indexed nothing (empty, or a pure replay) wrote nothing and
        leaves the generation -- and every warm cache -- alone.
        """
        with self._write_lock:
            try:
                stats = self.builder.update(new_events, partition, dedup)
            except BaseException:
                self.query.forget(None)
                raise
            if stats.events_indexed:
                self.query.forget(stats.written)
            return stats

    def prune_trace(self, trace_id: str) -> None:
        """Forget a completed trace's ``Seq`` row (§3.1.3): one blind delete.

        No answer changes -- Index entries, counts and last completions are
        facts about the log, not the trace -- but the trace can no longer
        receive incremental appends.  As in :meth:`update`, the caches learn
        of the delete after it is applied: the generation moves and the
        trace's Seq row leaves the sequence cache.
        """
        with self._write_lock:
            try:
                self.tables.delete_sequence(trace_id)
            finally:
                self.query.forget(WrittenKeys(traces=(trace_id,)))

    def flush(self) -> None:
        """Flush the underlying store (durable backends)."""
        self.store.flush()

    def close(self) -> None:
        REGISTRY.unregister(self._obs_handle)
        self.store.close()

    def __enter__(self) -> "SequenceIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection -------------------------------------------------------------------

    def trace_ids(self) -> list[str]:
        """Ids of traces currently tracked in the Seq table."""
        return [trace_id for trace_id, _ in self.tables.iter_sequences()]

    def get_trace(self, trace_id: str) -> list[tuple[str, float]]:
        """The indexed ``(activity, timestamp)`` sequence of one trace."""
        return list(zip(*self.tables.get_sequence(trace_id)))

    def indexed_tail(self, trace_id: str) -> float | None:
        """Timestamp of the trace's last indexed event (``None`` if unknown).

        Introspection only: ``update(dedup=True)`` applies the replay filter
        of docs/INGEST.md against this same tail, from the ``Seq`` row it
        reads anyway.  A trace pruned via :meth:`prune_trace` reads as
        unknown again.
        """
        return self.tables.get_sequence_tail(trace_id)

    def top_pairs(self, k: int = 10) -> list[tuple[tuple[str, str], int]]:
        """The ``k`` most frequent event pairs, from the Count table.

        A cheap exploratory primitive (one table scan, no detection): which
        follow-relations dominate the log.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        frequencies: list[tuple[tuple[str, str], int]] = []
        for key, per_second in self.store.scan("count"):
            first = key[0]
            for second, stats in per_second.items():
                frequencies.append(((first, second), int(stats[1])))
        frequencies.sort(key=lambda item: (-item[1], item[0]))
        return frequencies[:k]

    def activities(self) -> set[str]:
        """Activity alphabet observed by the index (via the Count tables)."""
        alphabet: set[str] = set()
        for key, value in self.store.scan("count"):
            alphabet.add(key[0])
            alphabet.update(value)
        for key, value in self.store.scan("reverse_count"):
            alphabet.add(key[0])
            alphabet.update(value)
        return alphabet

    def storage_stats(self) -> dict[str, Any]:
        """The store's storage accounting (empty for in-memory backends)."""
        return self.store.storage_stats()

    def format_stats(self) -> dict[str, dict[str, dict[str, int]]]:
        """Chunks and rows per storage format (:meth:`IndexTables.format_stats`)."""
        return self.tables.format_stats()
