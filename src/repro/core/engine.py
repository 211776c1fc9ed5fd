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
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.core.builder import IndexBuilder, UpdateStats
from repro.core.continuation import ContinuationExplorer
from repro.core.errors import PolicyMismatchError
from repro.core.matches import (
    ContinuationProposal,
    PatternMatch,
    PatternPlan,
    PatternStats,
    QueryPlan,
)
from repro.core.model import Event, EventLog
from repro.core.pattern import Pattern, parse_pattern
from repro.core.policies import PairMethod, Policy
from repro.core.query import QueryProcessor
from repro.executor import ParallelExecutor
from repro.kvstore import InMemoryStore
from repro.kvstore.cache import LRUCache
from repro.kvstore.api import KeyValueStore
from repro.obs.profile import QueryProfile, profile_from_tracer
from repro.obs.registry import REGISTRY
from repro.obs.slowlog import SlowQueryEntry, SlowQueryLog
from repro.obs.trace import Tracer, activate, current_tracer

_MODES = ("accurate", "fast", "hybrid")
_MISS = object()


class SequenceIndex:
    """Inverted event-pair index over an event log collection.

    Read queries (``detect``/``count``/``contains``/``statistics``/
    ``continuations``) are memoized in a small LRU **query-result cache**.
    Cache keys embed the index's *write generation* -- a counter bumped by
    every :meth:`update` and :meth:`prune_trace` -- so a batch update
    invalidates every stale entry by construction: post-update queries
    simply never hash to a pre-update key, and the dead generation ages out
    of the LRU.  Set ``query_cache_size=0`` to disable.

    A second, lower-level **decoded-postings cache** memoizes per-pair
    :class:`~repro.core.postings.Postings` (keyed by ``(generation,
    partition, pair)``), so repeated detections sharing pairs skip the store
    read and the chunk-dictionary parse even when the full query differs.
    Set ``postings_cache_size=0`` to disable.
    ``planner`` and ``batched_reads`` toggle the selectivity-driven join
    reordering and the batched ``multi_get`` read path; both exist for the
    planner ablation benchmark and should stay on otherwise.

    Every query API call is timed; with ``slow_query_threshold`` set (in
    seconds, or via the ``REPRO_SLOW_QUERY_MS`` environment variable) calls
    at or above the threshold land in :attr:`slow_query_log`.  The engine
    also registers its caches and write generation with the process-wide
    metrics registry (``python -m repro metrics``), and
    ``detect(..., explain_profile=True)`` returns a per-stage
    :class:`~repro.obs.profile.QueryProfile` alongside the plan.
    """

    def __init__(
        self,
        store: KeyValueStore | None = None,
        policy: Policy = Policy.STNM,
        method: PairMethod | None = None,
        executor: ParallelExecutor | None = None,
        query_cache_size: int = 128,
        postings_cache_size: int = 64,
        sequence_cache_size: int = 256,
        planner: bool = True,
        batched_reads: bool = True,
        slow_query_threshold: float | None = None,
    ) -> None:
        self.store = store if store is not None else InMemoryStore()
        self.builder = IndexBuilder(self.store, policy, method, executor)
        self.tables = self.builder.tables
        self.tables.batched_reads = batched_reads
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
            generation=lambda: self._generation,
            planner_enabled=planner,
        )
        self.explorer = ContinuationExplorer(self.tables, self.query)
        self._query_cache = LRUCache(query_cache_size) if query_cache_size > 0 else None
        self._generation = 0
        if slow_query_threshold is None:
            env_ms = os.environ.get("REPRO_SLOW_QUERY_MS", "").strip()
            if env_ms:
                slow_query_threshold = float(env_ms) / 1e3
        self.slow_query_log = (
            SlowQueryLog(slow_query_threshold)
            if slow_query_threshold is not None
            else None
        )
        self._obs_handle = REGISTRY.register(
            {"index": getattr(self.store, "obs_name", "index")},
            self._collect_obs_metrics,
        )

    @property
    def policy(self) -> Policy:
        return self.builder.policy

    @property
    def method(self) -> PairMethod:
        return self.builder.method

    @property
    def write_generation(self) -> int:
        """Monotonic counter of index mutations (query-cache epoch)."""
        return self._generation

    def query_cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the query-result cache."""
        return self._query_cache.stats() if self._query_cache is not None else {}

    def postings_cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the decoded-postings cache."""
        return self._postings_cache.stats() if self._postings_cache is not None else {}

    def sequence_cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the decoded-sequence cache."""
        return self._sequence_cache.stats() if self._sequence_cache is not None else {}

    def slow_queries(self) -> list[SlowQueryEntry]:
        """Recent slow queries (empty when no threshold is configured)."""
        return self.slow_query_log.entries if self.slow_query_log is not None else []

    def _collect_obs_metrics(self) -> dict[str, float]:
        """Metrics-registry collector: engine caches, generation, slowlog."""
        samples: dict[str, float] = {
            "repro_index_write_generation": self._generation
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
        """Memoize ``compute()`` under the current write generation.

        List results are stored as tuples and returned as fresh lists, so a
        caller reordering/extending its list cannot poison later cache hits.
        The elements themselves (:class:`PatternMatch`, :class:`PatternStats`,
        :class:`ContinuationProposal`, plain strings/ints) are shared between
        the cache and every caller -- safe because they are all immutable
        (frozen dataclasses with tuple fields).
        """
        if self._query_cache is None:
            return compute()
        full_key = (self._generation,) + key
        sentinel = _MISS
        cached = self._query_cache.get(full_key, sentinel)
        if cached is not sentinel:
            return list(cached) if isinstance(cached, tuple) else cached
        result = compute()
        self._query_cache.put(
            full_key, tuple(result) if isinstance(result, list) else result
        )
        return result

    # -- pre-processing -----------------------------------------------------------

    def update(
        self, new_events: EventLog | Iterable[Event], partition: str = ""
    ) -> UpdateStats:
        """Index a batch of new events (incremental, duplicate-free).

        The write generation is bumped *after* the batch is applied (in a
        ``finally``, so a partially applied failed update also invalidates):
        a query racing the update caches its possibly-partial result under
        the pre-update generation, which no post-update query ever reads.
        Bumping before the update would let such a partial result be cached
        under the new generation and served as a hit indefinitely.
        """
        try:
            return self.builder.update(new_events, partition)
        finally:
            self._generation += 1

    def prune_trace(self, trace_id: str) -> None:
        """Forget a completed trace's update bookkeeping (§3.1.3).

        Queries over already-indexed pairs keep working; the trace simply
        can no longer receive incremental appends.  As in :meth:`update`,
        the generation bump happens after the mutation.
        """
        try:
            activities, _ = self.tables.get_sequence(trace_id)
            self.tables.prune_trace(trace_id, set(activities))
        finally:
            self._generation += 1

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

    # -- queries ----------------------------------------------------------------------

    def _composite(self, pattern: object) -> Pattern | None:
        """Route :class:`Pattern` objects and expression strings.

        Plain lists/tuples of activities keep the Algorithm 2 chain-join
        path; a :class:`~repro.core.pattern.Pattern` or a pattern
        expression string (``"SEQ(A, !B, (C|D)+) WITHIN 10"``) takes the
        composite prune-then-verify path.
        """
        if isinstance(pattern, Pattern):
            return pattern
        if isinstance(pattern, str):
            return parse_pattern(pattern)
        return None

    def _check_composite(
        self, policy: Policy | None = None, within: float | None = None
    ) -> None:
        """Guard composite-pattern queries against unsupported arguments.

        Composite semantics are skip-till-next-match by definition and the
        pair-index pruning is sound only over STNM pairs (an SC index
        records strictly-contiguous pairs, so a trace can match a composite
        pattern while holding none of its index pairs).  The window lives
        in the expression (``WITHIN``), not in the ``within=`` post-filter.
        """
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

    def detect(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        policy: Policy | None = None,
        max_matches: int | None = None,
        within: float | None = None,
        explain: bool = False,
        explain_profile: bool = False,
    ) -> (
        list[PatternMatch]
        | tuple[list[PatternMatch], QueryPlan | PatternPlan]
        | tuple[list[PatternMatch], QueryPlan | PatternPlan, QueryProfile]
    ):
        """All completions of ``pattern`` (Algorithm 2).

        ``pattern`` may also be a :class:`~repro.core.pattern.Pattern` or a
        pattern expression string -- e.g. ``"SEQ(A, !B, (C|D)+) WITHIN 10"``
        -- which routes to the composite prune-then-verify path (requires a
        STNM index; ``policy``/``within`` must stay unset).

        With ``explain=True`` the return value is ``(matches, plan)`` where
        ``plan`` records the pair cardinalities and join order the planner
        chose; explain calls bypass the query-result cache so the plan
        always reflects a real execution.  ``explain_profile=True``
        (implies ``explain``) additionally runs the detection under a fresh
        tracer and returns ``(matches, plan, profile)``, where ``profile``
        breaks the call into stages (plan / fetch_postings / intersect /
        join / materialize -- or plan / fetch_postings / intersect / verify
        on the composite path).
        """
        composite = self._composite(pattern)
        if composite is not None:
            self._check_composite(policy, within)
            detail = f"pattern={str(composite)!r} partition={partition!r}"
            if explain_profile:
                tracer = Tracer()
                with activate(tracer):
                    matches = self._observe_query(
                        "query.detect",
                        detail,
                        lambda: self.query.detect_pattern(
                            composite, partition, max_matches
                        ),
                    )
                plan = self.query.plan_pattern(composite, partition)
                profile = profile_from_tracer(tracer, "query.detect")
                return matches, plan, profile
            if explain:
                plan = self.query.plan_pattern(composite, partition)
                matches = self._observe_query(
                    "query.detect",
                    detail,
                    lambda: self.query.detect_pattern(
                        composite, partition, max_matches
                    ),
                )
                return matches, plan
            return self._observe_query(
                "query.detect",
                detail,
                lambda: self._cached(
                    ("detect", composite, partition, max_matches),
                    lambda: self.query.detect_pattern(
                        composite, partition, max_matches
                    ),
                ),
            )
        detail = f"pattern={list(pattern)!r} partition={partition!r}"
        if explain_profile:
            tracer = Tracer()
            with activate(tracer):
                matches = self._observe_query(
                    "query.detect",
                    detail,
                    lambda: self.query.detect(
                        pattern, partition, policy, max_matches, within
                    ),
                )
            plan = self.explain(pattern, partition)
            profile = profile_from_tracer(tracer, "query.detect")
            return matches, plan, profile
        if explain:
            plan = self.explain(pattern, partition)
            matches = self._observe_query(
                "query.detect",
                detail,
                lambda: self.query.detect(
                    pattern, partition, policy, max_matches, within
                ),
            )
            return matches, plan
        return self._observe_query(
            "query.detect",
            detail,
            lambda: self._cached(
                ("detect", tuple(pattern), partition, policy, max_matches, within),
                lambda: self.query.detect(
                    pattern, partition, policy, max_matches, within
                ),
            ),
        )

    def explain(
        self, pattern: Sequence[str] | Pattern | str, partition: str | None = ""
    ) -> QueryPlan | PatternPlan:
        """The execution plan a detection of ``pattern`` would use."""
        composite = self._composite(pattern)
        if composite is not None:
            self._check_composite()
            return self.query.plan_pattern(composite, partition)
        if len(pattern) < 2:
            # Length-0/1 patterns never reach the join; report a trivial plan.
            return QueryPlan(
                pattern=tuple(pattern),
                pairs=(),
                cardinalities=(),
                order=(),
                reordered=False,
                partition=partition,
            )
        return self.query.plan(pattern, partition)

    def count(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        within: float | None = None,
    ) -> int:
        """Number of completions of ``pattern``."""
        composite = self._composite(pattern)
        if composite is not None:
            self._check_composite(within=within)
            return self._observe_query(
                "query.count",
                f"pattern={str(composite)!r} partition={partition!r}",
                lambda: self._cached(
                    ("count", composite, partition),
                    lambda: self.query.count_pattern(composite, partition),
                ),
            )
        return self._observe_query(
            "query.count",
            f"pattern={list(pattern)!r} partition={partition!r}",
            lambda: self._cached(
                ("count", tuple(pattern), partition, within),
                lambda: self.query.count(pattern, partition, within),
            ),
        )

    def detect_with_prefixes(
        self, pattern: Sequence[str], partition: str | None = ""
    ) -> dict[int, list[PatternMatch]]:
        """Completions of the pattern and every prefix (free by-product)."""
        return self.query.detect_with_prefixes(pattern, partition)

    def contains(
        self, pattern: Sequence[str] | Pattern | str, partition: str | None = ""
    ) -> list[str]:
        """Ids of traces containing ``pattern``."""
        composite = self._composite(pattern)
        if composite is not None:
            self._check_composite()
            return self._observe_query(
                "query.contains",
                f"pattern={str(composite)!r} partition={partition!r}",
                lambda: self._cached(
                    ("contains", composite, partition),
                    lambda: self.query.contains_pattern(composite, partition),
                ),
            )
        return self._observe_query(
            "query.contains",
            f"pattern={list(pattern)!r} partition={partition!r}",
            lambda: self._cached(
                ("contains", tuple(pattern), partition),
                lambda: self.query.contains(pattern, partition),
            ),
        )

    def statistics(self, pattern: Sequence[str], all_pairs: bool = False) -> PatternStats:
        """Pairwise statistics of ``pattern`` (constant-time per pair).

        ``all_pairs=True`` also reads every non-adjacent pattern pair for a
        tighter completions bound (§3.2.1's accuracy/time trade-off).
        """
        return self._observe_query(
            "query.statistics",
            f"pattern={list(pattern)!r} all_pairs={all_pairs}",
            lambda: self._cached(
                ("statistics", tuple(pattern), all_pairs),
                lambda: self.query.statistics(pattern, all_pairs),
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

    # -- introspection -------------------------------------------------------------------

    def trace_ids(self) -> list[str]:
        """Ids of traces currently tracked in the Seq table."""
        return [trace_id for trace_id, _ in self.tables.iter_sequences()]

    def get_trace(self, trace_id: str) -> list[tuple[str, float]]:
        """The indexed ``(activity, timestamp)`` sequence of one trace."""
        return list(zip(*self.tables.get_sequence(trace_id)))

    def indexed_tail(self, trace_id: str) -> float | None:
        """Timestamp of the trace's last indexed event (``None`` if unknown).

        The streaming ingester's replay filter compares feed events against
        this tail to make crash replay idempotent (docs/INGEST.md); a trace
        pruned via :meth:`prune_trace` reads as unknown again, matching the
        builder's refusal to append to pruned traces.
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
