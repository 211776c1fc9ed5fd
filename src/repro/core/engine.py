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

The engine surface lives in :class:`QueryEngine`, written once over a list
of shards: a :class:`SequenceIndex` is one shard core and the engine whose
only shard is itself, and the sharded
:class:`~repro.shard.index.ShardedSequenceIndex` holds N of them and adds
only its placement rule and the shard manifest.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Iterable, Sequence

from repro.core.builder import IndexBuilder, UpdateStats, WrittenKeys
from repro.core.continuation import ContinuationExplorer
from repro.core.errors import PolicyMismatchError
from repro.core.matches import (
    ContinuationProposal,
    PairStats,
    PatternMatch,
    PatternStats,
    QueryPlan,
)
from repro.core.model import Event, EventLog
from repro.core.pattern import Pattern
from repro.core.policies import Policy
from repro.core.query import (
    POSTINGS,
    SEQUENCE,
    QueryProcessor,
    as_query,
    build_plan,
    check_deadline,
    check_limits,
)
from repro.kvstore import InMemoryStore
from repro.kvstore.cache import LRUCache
from repro.kvstore.api import KeyValueStore, StoreClosedError
from repro.obs.profile import QueryProfile, profile_from_tracer
from repro.obs.registry import REGISTRY
from repro.obs.slowlog import SlowQueryEntry, SlowQueryLog
from repro.obs.trace import Tracer, activate, current_tracer

_MODES = ("accurate", "fast", "hybrid")


def check_cache_bytes(size: int) -> None:
    """Zero turns the row cache off; a negative size is an error."""
    if size < 0:
        raise ValueError("cache_bytes must be non-negative (0 turns the cache off)")


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


def _merge_pair_stats(*rows: PairStats) -> PairStats:
    """One pair's statistics over every shard: sums, and the latest completion."""
    lasts = [r.last_completion for r in rows if r.last_completion is not None]
    return PairStats(
        rows[0].pair,
        sum(r.completions for r in rows),
        sum(r.total_duration for r in rows),
        max(lasts, default=None),
    )


def _sum_rows(
    rows: list[dict[str, tuple[float, int]]]
) -> dict[str, tuple[float, int]]:
    """Sum ``{event: (sum_duration, completions)}`` rows element-wise."""
    if len(rows) == 1:
        return rows[0]
    merged: dict[str, tuple[float, int]] = {}
    for row in rows:
        for event, (duration, completions) in row.items():
            total, count = merged.get(event, (0.0, 0))
            merged[event] = (total + duration, count + completions)
    return merged


class QueryEngine:
    """An index engine over :attr:`shards`, single-store or sharded.

    The front half of a query is written here once: the pattern is coerced
    (list of activities, :class:`~repro.core.pattern.Pattern` or expression
    string), the arguments are validated, the call is timed for the
    slow-query log, and ``explain``/``explain_profile`` return the plan (and
    stage profile) of the execution.  Every answer is computed from the
    shards' row caches and stores; no answer is memoized.

    So is the back half, over :class:`SequenceIndex` shards holding disjoint
    traces: a query runs on every shard through :meth:`_gather` and the
    partial answers, plans, statistics and Count rows merge by
    concatenation or sum; a write splits by :meth:`shard_of` and applies
    each sub-batch in the calling thread.  With one shard -- a
    :class:`SequenceIndex` is its own only shard -- every merge is the
    identity and a write is not split.  The sharded engine supplies the
    placement rule; either engine's gather runs in the calling thread.

    Every query method takes an absolute ``deadline``
    (``time.monotonic()`` instant): it is checked between query stages and
    between shards -- a stage already running is never interrupted --
    raising :class:`~repro.core.errors.DeadlineExceeded`.  Every query call is
    timed; with ``slow_query_threshold`` set (in seconds, or via the
    ``REPRO_SLOW_QUERY_MS`` environment variable) calls at or above the
    threshold land in :attr:`slow_query_log`.  After :meth:`close` every
    write and query raises :class:`~repro.kvstore.api.StoreClosedError`.
    """

    shards: Sequence[SequenceIndex]
    _obs_handle: int

    def __init__(self, slow_query_threshold: float | None = None) -> None:
        if slow_query_threshold is None:
            env_ms = os.environ.get("REPRO_SLOW_QUERY_MS", "").strip()
            if env_ms:
                slow_query_threshold = float(env_ms) / 1e3
        self.slow_query_log = (
            SlowQueryLog(slow_query_threshold)
            if slow_query_threshold is not None
            else None
        )
        # Count / ReverseCount rows summed across shards: a trace lives on
        # exactly one shard, so durations and completions are both additive.
        self.explorer = ContinuationExplorer(
            lambda pattern, partition: self._run(
                "detect", as_query(pattern), partition, None, None
            )[0],
            lambda first: _sum_rows([s.query.count_row(first) for s in self.shards]),
            lambda second: _sum_rows(
                [s.query.reverse_count_row(second) for s in self.shards]
            ),
        )
        self._closed = False

    @property
    def policy(self) -> Policy:
        return self.shards[0].builder.policy

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, trace_id: str) -> int:
        """The index in :attr:`shards` of the shard owning ``trace_id`` (the
        one shard here; the sharded engine places traces by hash)."""
        return 0

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("index is closed")

    def _gather(
        self, task: Callable[[SequenceIndex], Any], deadline: float | None
    ) -> list[Any]:
        """``task(shard)`` for every shard in the calling thread, results in
        shard order.  ``deadline`` is checked before each shard, so one that
        expires inside shard *i*'s work stops the fan-out before shard *i+1*
        starts; each shard's query also checks it between its own stages."""
        self._check_open()
        results = []
        for shard in self.shards:
            check_deadline(deadline)
            results.append(task(shard))
        return results

    # -- the front half ----------------------------------------------------------------

    def query_cache_stats(self) -> dict[str, int]:
        """Always ``{}``: there is no query-result cache.

        Kept for ``benchmarks/pipeline/workloads/query_cold.py``, which reads
        it on every pass; ROADMAP item 1(a)'s harness edit removes it.
        """
        return {}

    def slow_queries(self) -> list[SlowQueryEntry]:
        """Recent slow queries (empty when no threshold is configured)."""
        return self.slow_query_log.entries if self.slow_query_log is not None else []

    def _observe_query(
        self, kind: str, detail: str, compute: Callable[[], Any]
    ) -> Any:
        """Run one query call under a span and the slow-query timer."""
        self._check_open()
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
        """One ``detect``/``count``/``contains`` call, front to back; with
        ``explain``, ``(answer, plan)`` is returned."""
        query = as_query(pattern)
        self._check_arguments(query, policy, **limits)
        check_deadline(deadline)
        shown = str(query) if isinstance(query, Pattern) else list(query)
        answer, plan = self._observe_query(
            f"query.{op}",
            f"pattern={shown!r} partition={partition!r}",
            lambda: self._run(op, query, partition, policy, deadline, **limits),
        )
        return (answer, plan) if explain else answer

    # -- the back half, once over the shards --------------------------------------------

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
        ``explain``, whose answer is ``None``): ``(answer, plan)``.

        Every shard plans from the posting lists it fetches and answers.
        The answers merge, and the shards' group cardinalities sum into the
        plan one store over all of the data would print.
        """
        per_shard = self._gather(
            lambda shard: shard.query.execute(
                op, query, partition, policy, deadline, **limits
            ),
            deadline,
        )
        if len(per_shard) == 1:
            return per_shard[0]
        answers = [answer for answer, _ in per_shard]
        cardinalities = zip(*(plan.cardinalities for _, plan in per_shard))
        plan = build_plan(query, tuple(map(sum, cardinalities)), policy)
        if op == "count":
            return sum(answers), plan
        if op == "contains":
            return sorted(trace_id for found in answers for trace_id in found), plan
        if op == "detect":
            return _merge_matches(answers, limits.get("max_matches")), plan
        return None, plan

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
        finisher the planner chose.
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

        def compute() -> PatternStats:  # sums, and the latest completion
            per_shard = self._gather(
                lambda shard: shard.query.statistics(pattern, all_pairs), deadline
            )
            if len(per_shard) == 1:
                return per_shard[0]
            return PatternStats(
                tuple(pattern),
                tuple(map(_merge_pair_stats, *(s.pairs for s in per_shard))),
                tuple(map(_merge_pair_stats, *(s.extra_pairs for s in per_shard))),
            )

        return self._observe_query(
            "query.statistics",
            f"pattern={list(pattern)!r} all_pairs={all_pairs}",
            compute,
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
            compute,
        )

    def explore_at(
        self, pattern: Sequence[str], position: int, partition: str | None = ""
    ) -> list[ContinuationProposal]:
        """Propose insertions at arbitrary pattern positions (§7 extension)."""
        self._check_open()
        return self.explorer.explore_at(pattern, position, partition)

    def detect_with_prefixes(
        self, pattern: Sequence[str], partition: str | None = ""
    ) -> dict[int, list[PatternMatch]]:
        """Completions of the pattern and every prefix (a free by-product
        of the join), merged per length."""
        per_shard = self._gather(
            lambda shard: shard.query.detect_with_prefixes(pattern, partition), None
        )
        if len(per_shard) == 1:
            return per_shard[0]
        # A shard's join stops snapshotting once its chains run out, so a
        # prefix length is present iff some shard still held chains there.
        return {
            length: _merge_matches([found.get(length, []) for found in per_shard], None)
            for length in sorted(set().union(*per_shard))
        }

    # -- writes -----------------------------------------------------------------------

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

        The batch is split by owning shard, and each non-empty sub-batch is
        applied in the calling thread, one after another, under that shard's
        writer lock (:meth:`SequenceIndex._apply`): concurrent callers
        interleave across shards and serialize per shard.  An update is
        atomic per shard store only; a failure leaves the shards written
        before it written, and a replay with ``dedup`` converges.  Only the
        written shards' generations move, and each drops from its per-row
        caches exactly the rows its sub-batch wrote.
        """
        self._check_open()
        if len(self.shards) == 1:
            return self.shards[0]._apply(new_events, partition, dedup)
        per_shard: list[list[Any]] = [[] for _ in self.shards]
        for item in new_events:  # the traces of an EventLog, else events
            per_shard[self.shard_of(item.trace_id)].append(item)
        merged = UpdateStats(partition=partition)
        for shard, batch in zip(self.shards, per_shard):
            if not batch:
                continue
            if isinstance(new_events, EventLog):
                batch = EventLog(batch, name=new_events.name)
            stats = shard._apply(batch, partition, dedup)
            merged.traces_seen += stats.traces_seen
            merged.new_traces += stats.new_traces
            merged.events_indexed += stats.events_indexed
            merged.events_deduped += stats.events_deduped
            merged.pairs_created += stats.pairs_created
            merged.cached_sequences += stats.cached_sequences
        return merged

    def prune_trace(self, trace_id: str) -> None:
        """Forget a completed trace's ``Seq`` row (§3.1.3): one blind delete
        on the trace's shard.

        No answer changes -- Index entries, counts and last completions are
        facts about the log, not the trace -- but the trace can no longer
        receive incremental appends.
        """
        self._check_open()
        self.shards[self.shard_of(trace_id)]._prune(trace_id)

    # -- lifecycle --------------------------------------------------------------------

    def flush(self) -> None:
        """Flush every shard's store (durable backends)."""
        for shard in self.shards:
            shard.store.flush()

    def close(self) -> None:
        """Close every shard's store.  Idempotent; afterwards every write and
        query raises :class:`~repro.kvstore.api.StoreClosedError`."""
        if self._closed:
            return
        self._closed = True
        REGISTRY.unregister(self._obs_handle)
        errors: list[Exception] = []
        for shard in self.shards:  # a sharded engine's shards close with it
            shard._closed = True
            REGISTRY.unregister(shard._obs_handle)
            try:
                shard.store.close()
            except Exception as exc:  # close every shard before re-raising
                errors.append(exc)
        if errors:
            raise errors[0]

    def __enter__(self) -> QueryEngine:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection ----------------------------------------------------------------

    def trace_ids(self) -> list[str]:
        """Ids of the traces tracked in the Seq tables, sorted."""
        self._check_open()
        return sorted(
            tid for shard in self.shards for tid, _ in shard.tables.iter_sequences()
        )

    def get_trace(self, trace_id: str) -> list[tuple[str, float]]:
        """The indexed ``(activity, timestamp)`` sequence of one trace."""
        self._check_open()
        shard = self.shards[self.shard_of(trace_id)]
        return list(zip(*shard.tables.get_sequence(trace_id)))

    def indexed_tail(self, trace_id: str) -> float | None:
        """Timestamp of the trace's last indexed event (``None`` if unknown).

        Introspection only: ``update(dedup=True)`` applies the replay filter
        of docs/INGEST.md against this same tail, from the ``Seq`` row it
        reads anyway.  A trace pruned via :meth:`prune_trace` reads as
        unknown again.
        """
        self._check_open()
        return self.shards[self.shard_of(trace_id)].tables.get_sequence_tail(trace_id)

    def top_pairs(self, k: int = 10) -> list[tuple[tuple[str, str], int]]:
        """The ``k`` most frequent event pairs, from the Count tables.

        A cheap exploratory primitive (one table scan per shard, no
        detection): which follow-relations dominate the log.  Every pair a
        shard knows is summed, since a pair rare on one shard may be hot
        overall.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        self._check_open()
        totals: dict[tuple[str, str], int] = {}
        for shard in self.shards:
            for key, per_second in shard.store.scan("count"):
                for second, stats in per_second.items():
                    pair = (key[0], second)
                    totals[pair] = totals.get(pair, 0) + int(stats[1])
        return sorted(totals.items(), key=lambda item: (-item[1], item[0]))[:k]

    def activities(self) -> set[str]:
        """Activity alphabet observed by the index (via the Count tables)."""
        self._check_open()
        alphabet: set[str] = set()
        for shard in self.shards:
            for table in ("count", "reverse_count"):
                for key, value in shard.store.scan(table):
                    alphabet.add(key[0])
                    alphabet.update(value)
        return alphabet

    def format_stats(self) -> dict[str, dict[str, dict[str, int]]]:
        """Chunks and rows per storage format, summed over the shards'
        :meth:`IndexTables.format_stats`.

        A full scan of the list tables -- an operator report, which is why
        it is not part of ``storage_stats()`` (the service's ``stats`` op).
        """
        self._check_open()
        merged: dict[str, dict[str, dict[str, int]]] = {}
        for shard in self.shards:
            for table, formats in shard.tables.format_stats().items():
                totals = merged.setdefault(table, {})
                for name, slot in formats.items():
                    total = totals.setdefault(name, {"chunks": 0, "entries": 0})
                    total["chunks"] += slot["chunks"]
                    total["entries"] += slot["entries"]
        return merged


class SequenceIndex(QueryEngine):
    """Inverted event-pair index over one store: a shard core, and the
    engine whose only shard is itself.

    Every query is answered from the row cache and the store, and the row
    cache follows one rule in two parts:

    * **the row cache drops exactly the rows a write touched** -- and
      refreshes the Seq rows it extended, which the next write to those
      traces reads from there.  One LRU of
      ``cache_bytes`` (default 8 MiB, the store's block-cache default)
      holds every decoded row -- :class:`~repro.core.postings.Postings`
      keyed by partition and pair, Seq rows by trace id, and the Count /
      ReverseCount rows of the continuation explorer -- each charged its
      estimated resident size.  Rows carry no generation: a write drops the
      pairs, traces and activities it wrote and leaves every other warm
      row, so a detection beside a live ingest still skips the store read
      and the chunk-dictionary parse of the pairs the ingest did not touch.
      ``cache_bytes=0`` disables it, Count rows included; a negative size
      raises ``ValueError``.
    * **a fetch that overlapped a write does not fill the cache**: the
      *write generation*, bumped by every :meth:`update` and
      :meth:`prune_trace` that wrote, tells it
      (:class:`~repro.core.query.QueryProcessor`).

    A store has one writer at a time, and the rule lives here and nowhere
    else: :meth:`_apply` and :meth:`_prune`, which :meth:`update` and
    :meth:`prune_trace` call on the owning shard, hold one private lock
    around the mutation *and* the cache invalidation, whoever calls them;
    readers never take it.  The row cache and write generation are reported
    to the process-wide metrics registry (``python -m repro metrics``).
    """

    def __init__(
        self,
        store: KeyValueStore | None = None,
        policy: Policy = Policy.STNM,
        cache_bytes: int = 8 * 1024 * 1024,
        slow_query_threshold: float | None = None,
    ) -> None:
        super().__init__(slow_query_threshold)
        check_cache_bytes(cache_bytes)
        row_cache = LRUCache(cache_bytes) if cache_bytes else None
        self.shards = (self,)
        self.store = store if store is not None else InMemoryStore()
        self.builder = IndexBuilder(self.store, policy)
        self.tables = self.builder.tables
        self.query = QueryProcessor(self.tables, row_cache)
        self._write_lock = threading.Lock()
        self._obs_handle = REGISTRY.register(
            {"index": getattr(self.store, "obs_name", "index")},
            self._collect_obs_metrics,
        )

    @property
    def write_generation(self) -> int:
        """Monotonic counter of index mutations (the row cache's fill rule)."""
        return self.query.generation

    def row_cache_stats(self) -> dict[str, int]:
        """The row cache's budget: ``capacity`` and held ``weight`` in bytes,
        entries, hits, misses and evictions (empty with ``cache_bytes=0``)."""
        cache = self.query.row_cache
        return cache.stats() if cache is not None else {}

    def postings_cache_stats(self) -> dict[str, int]:
        """Hits, misses and entries of the decoded postings in the row cache."""
        return self.query.kind_stats(POSTINGS)

    def sequence_cache_stats(self) -> dict[str, int]:
        """Hits, misses and entries of the decoded Seq rows in the row cache."""
        return self.query.kind_stats(SEQUENCE)

    def storage_stats(self) -> dict[str, Any]:
        """The store's storage accounting (empty for in-memory backends)."""
        self._check_open()
        return self.store.storage_stats()

    def _collect_obs_metrics(self) -> dict[str, float]:
        """Metrics-registry collector: row cache, generation, slowlog."""
        samples: dict[str, float] = {
            "repro_index_write_generation": self.write_generation
        }
        for prefix, stats in (
            ("repro_postings_cache", self.postings_cache_stats()),
            ("repro_sequence_cache", self.sequence_cache_stats()),
        ):
            if stats:
                samples[f"{prefix}_hits_total"] = stats["hits"]
                samples[f"{prefix}_misses_total"] = stats["misses"]
                samples[f"{prefix}_entries"] = stats["entries"]
        row_cache = self.row_cache_stats()
        if row_cache:
            samples["repro_row_cache_bytes"] = row_cache["weight"]
            samples["repro_row_cache_evictions_total"] = row_cache["evictions"]
        if self.slow_query_log is not None:
            samples["repro_slow_queries_total"] = self.slow_query_log.stats()["slow"]
        return samples

    # -- the shard primitives QueryEngine writes through ------------------------------

    def _apply(
        self, new_events: EventLog | Iterable[Event], partition: str, dedup: bool
    ) -> UpdateStats:
        """Apply one (sub-)batch under the writer lock.

        The old Seq rows are read through the row cache
        (:meth:`~repro.core.query.QueryProcessor.stored_sequences`).  The
        caches learn of the write *after* it is applied: the generation moves
        and the rows the update wrote (``UpdateStats.written``) leave the
        per-row caches, but for the Seq rows of known traces, which are put
        back extended -- every row leaves, if the update failed part-way.  A
        row fetched while the update ran is not cached
        (:class:`~repro.core.query.QueryProcessor`).  A batch that indexed
        nothing (empty, or a pure replay) wrote nothing and leaves the
        generation -- and every warm row -- alone.
        """
        with self._write_lock:
            try:
                stats = self.builder.update(
                    new_events, partition, dedup, self.query.stored_sequences
                )
            except BaseException:
                self.query.forget(None)
                raise
            if stats.events_indexed:
                self.query.forget(stats.written)
            return stats

    def _prune(self, trace_id: str) -> None:
        """Delete one trace's ``Seq`` row under the writer lock; as in
        :meth:`_apply`, the generation moves and the row leaves the sequence
        cache after the delete."""
        with self._write_lock:
            try:
                self.tables.delete_sequence(trace_id)
            finally:
                self.query.forget(WrittenKeys(traces=(trace_id,)))
