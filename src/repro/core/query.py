"""The query processor component (§3.2): statistics and pattern detection.

*Statistics* queries read only the ``Count`` and ``LastChecked`` tables --
constant work per pattern pair, fetched as one batched read.

*Pattern detection* is one procedure for every kind of query -- a list of
activities (Algorithm 2), a list under skip-till-any-match, a composite
:class:`~repro.core.pattern.Pattern` (alternation, Kleene, negation,
WITHIN) -- because they all prune the same way and differ only in how a
surviving trace is finished:

1. **fetch_postings** -- each adjacency of positive elements is a pruning
   *group* of index pairs (one pair for a plain sequence, one per branch
   combination under alternation); the posting lists of every group pair
   come in one batched ``multi_get`` per Index table, as
   :class:`~repro.core.postings.Postings`, through the optional row cache
   (see :class:`QueryProcessor`).
2. **plan** -- one :class:`~repro.core.matches.QueryPlan` from the entry
   counts of those posting lists, known once their headers are parsed: a
   group's cardinality is the sum over its branch pairs, exact for the
   partition read.  No ``Count`` row is read.  A zero-cardinality group
   proves the result empty before any column is decoded.
3. **intersect** -- per-group trace sets come from the chunk dictionaries
   alone and are intersected cheapest group first *before* any column is
   decoded, with an empty-set early exit.
4. the plan's **finisher** on the survivors:

   * ``join`` (+ ``materialize``) for a list: consecutive pair entries are
     chained by joining on the shared event's timestamp, starting at the
     *rarest* pair and extending bidirectionally, cheapest adjacent pair
     next, so the intermediate chain set is bounded by the smallest posting
     list.  Because the index's pairs are greedy and non-overlapping, both
     endpoints of a completion are unique within a trace: a chain extends
     in at most one way, the join order never changes the result
     (property-tested against left-to-right evaluation and a brute-force
     oracle), and one hash table keyed ``(trace_id, timestamp)`` serves all
     traces of a step.  The table is filled straight from the posting
     columns of the chunks that mention a surviving trace -- no per-entry
     regrouping -- and probed once per live chain.  The join needs no Seq
     row.
   * ``verify`` for a ``Pattern``: each survivor's stored sequence is
     checked with :func:`repro.core.pattern.find_matches`, which enforces
     windows and negations from the indexed timestamps.  Semantics match
     the SASE oracle (:class:`repro.baselines.sase.nfa.PatternNfa`) exactly
     -- the differential suite holds the two byte-identical.
   * ``enumerate`` for skip-till-any-match (STAM, §7 future work) and for a
     single activity: any STAM match implies the corresponding STNM pairs
     exist, so the pruning is sound, and the stored sequence is enumerated
     exhaustively per survivor.

The finishers stay apart on purpose: the chain join reports exactly the
completions the pair index recorded, while STNM-greedy verification may
retry from a later occurrence than the greedy pair did, so the two disagree
on some patterns (DESIGN.md).  ``deadline`` (an absolute
``time.monotonic()`` instant) is checked between stages.
:meth:`QueryProcessor.execute` runs the stages and returns the answer with
the plan it ran.

The detection by-product the paper mentions -- matches of every pattern
*prefix* -- is available through :meth:`QueryProcessor.detect_with_prefixes`,
which runs the same join in left-to-right order (prefix snapshots only
exist in that order); it is also the reference the planner property tests
compare against.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Collection, Iterator, Sequence

from repro.core.builder import SeqRow, WrittenKeys
from repro.core.continuation import CountRow
from repro.core.errors import DeadlineExceeded, EmptyPatternError
from repro.core.matches import PairStats, PatternMatch, PatternStats, QueryPlan
from repro.core.pattern import (
    Pattern,
    find_matches,
    occurrence_positions,
    parse_pattern,
)
from repro.core.policies import Policy
from repro.core.postings import Postings
from repro.core.tables import IndexTables
from repro.kvstore.cache import LRUCache
from repro.obs.trace import current_tracer

Chain = tuple[float, ...]
Groups = tuple[tuple[tuple[str, str], ...], ...]

_MISS = object()

#: the kinds of decoded row the row cache holds; a cache key is
#: ``(kind, scope, key)``: an Index row's scope is the partition read
#: (``None`` for the union), a Count row's whether it is a ReverseCount row,
#: and a Seq row has the one scope ``None``
POSTINGS, SEQUENCE, COUNT = "postings", "sequence", "count"
KINDS = (POSTINGS, SEQUENCE, COUNT)

# Resident bytes of a decoded Seq row (two lists; per event two pointers, an
# int timestamp and, mostly, its own short activity str) and of a decoded
# Count row (a dict; per follower an entry, its str key and a
# ``(float, int)`` tuple), measured as for Postings.nbytes.
_SEQ_ROW_BYTES = 128
_SEQ_EVENT_BYTES = 88
_COUNT_ROW_BYTES = 96
_COUNT_FOLLOWER_BYTES = 176

#: what the row cache charges a decoded row of each kind
_CHARGE = {
    POSTINGS: lambda postings: postings.nbytes,
    SEQUENCE: lambda row: _SEQ_ROW_BYTES + _SEQ_EVENT_BYTES * len(row[0]),
    COUNT: lambda row: _COUNT_ROW_BYTES + _COUNT_FOLLOWER_BYTES * len(row),
}
#: the store metrics a kind's lookups bump (``<name>_hits`` / ``_misses``)
_STORE_COUNTERS = {POSTINGS: "postings_cache", SEQUENCE: "sequence_cache"}


def as_query(pattern: Sequence[str] | Pattern | str) -> tuple[str, ...] | Pattern:
    """The canonical (hashable) form of a query input.

    A :class:`~repro.core.pattern.Pattern` or a pattern expression string
    (``"SEQ(A, !B, (C|D)+) WITHIN 10"``) is a composite pattern; any other
    sequence is a plain list of activities.
    """
    if isinstance(pattern, Pattern):
        return pattern
    if isinstance(pattern, str):
        return parse_pattern(pattern)
    query = tuple(pattern)
    if not query:
        raise EmptyPatternError("cannot detect an empty pattern")
    return query


def pruning_groups(query: tuple[str, ...] | Pattern) -> Groups:
    """The pruning groups of ``query`` (deterministic, plan-free).

    Each adjacency of *positive* elements becomes one group holding every
    branch pair of the two elements' alternation sets.  Negated elements
    are skipped entirely -- a forbidden pair with zero count must not prune
    the query -- and Kleene elements prune like their plain selves (a
    single occurrence satisfies ``+``, so only the base pair is required).
    A list of activities has one single-pair group per consecutive pair.
    """
    if not isinstance(query, Pattern):
        return tuple(((a, b),) for a, b in zip(query, query[1:]))
    elements = query.elements
    positives = query.positive_indices
    return tuple(
        tuple(
            (a, b)
            for a in elements[left].types
            for b in elements[right].types
        )
        for left, right in zip(positives, positives[1:])
    )


def check_limits(max_matches: int | None, within: float | None) -> None:
    """Reject out-of-range result limits (both arrive from outside)."""
    if max_matches is not None and max_matches < 0:
        raise ValueError("max_matches must be non-negative")
    if within is not None and within < 0:
        raise ValueError("within must be non-negative")


def check_deadline(deadline: float | None) -> None:
    """Raise :class:`DeadlineExceeded` once ``deadline`` has passed."""
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExceeded("deadline expired between query stages")


def build_plan(
    query: tuple[str, ...] | Pattern,
    cardinalities: tuple[int, ...],
    policy: Policy | None,
) -> QueryPlan:
    """The plan of ``query`` given one cardinality per pruning group.

    The input selects the finisher.  The join order starts at the rarest
    group and grows the covered window towards whichever adjacent pair is
    cheaper; the other finishers only prune, cheapest group first.  The
    scatter-gather coordinator calls this with every shard's cardinalities
    summed, which yields exactly the plan a single store prints.
    """
    groups = pruning_groups(query)
    negated: tuple[str, ...] = ()
    if isinstance(query, Pattern):
        finisher = "verify"
        negated = tuple(str(e) for e in query.elements if e.negated)
    elif policy is Policy.STAM or len(query) == 1:
        finisher = "enumerate"
    else:
        finisher = "join"
    natural = tuple(range(len(groups)))
    if finisher == "join":
        order = _rarest_first_order(cardinalities)
    else:
        order = tuple(sorted(natural, key=lambda i: (cardinalities[i], i)))
    return QueryPlan(
        pattern=query,
        finisher=finisher,
        groups=groups,
        cardinalities=cardinalities,
        order=order,
        reordered=order != natural,
        negated=negated,
    )


class _ScopedKeys:
    """The cache keys ``(kind, scope, key)`` of one kind, every scope and
    every key, as a set view (``len``, ``in``, iteration) rather than a
    built set: dropping a large write's keys from a small cache then walks
    the cache only."""

    __slots__ = ("kind", "scopes", "keys")

    def __init__(self, kind: str, scopes: tuple, keys: Collection) -> None:
        self.kind = kind
        self.scopes = scopes
        self.keys = keys

    def __len__(self) -> int:
        return len(self.scopes) * len(self.keys)

    def __contains__(self, key: tuple) -> bool:
        return key[0] == self.kind and key[1] in self.scopes and key[2] in self.keys

    def __iter__(self) -> Iterator[tuple]:
        kind = self.kind
        return ((kind, scope, key) for scope in self.scopes for key in self.keys)


class QueryProcessor:
    """Executes pattern queries against the index tables.

    One optional **row cache** sits in front of the store: a byte-weighted
    :class:`~repro.kvstore.cache.LRUCache` holding every kind of decoded
    row, keyed by the row alone (``(kind, scope, key)``, see :data:`KINDS`):
    fetched :class:`~repro.core.postings.Postings`; decoded Seq rows
    (``(activities, timestamps)`` columns) -- verification re-reads the same
    candidate traces across queries; and the decoded Count / ReverseCount
    rows of the continuation explorer.  Each row is charged its estimated
    resident size (:data:`_CHARGE`), not its stored bytes: a decoded row is
    several times larger.  The cache stays coherent by one rule, under one
    lock:

    * every write calls :meth:`forget`, which bumps :attr:`generation` and
      drops exactly the rows the write touched (everything, for a write that
      failed part-way) -- except the Seq rows it extended, which it puts
      back extended: the next write to those traces reads them from here
      (:meth:`stored_sequences`);
    * a read notes :attr:`generation` before it fetches, and keeps what it
      fetched only if no write has completed since -- a fetch that
      overlapped a write may hold a half-old row and does not fill a cache.

    :attr:`generation` is also the owning engine's write generation
    (``SequenceIndex.write_generation``).
    """

    def __init__(self, tables: IndexTables, row_cache: LRUCache | None = None) -> None:
        self.tables = tables
        self.row_cache = row_cache
        #: writes completed so far (see :meth:`forget`)
        self.generation = 0
        self._lock = threading.Lock()
        # per kind, [hits, misses] of the row cache's lookups
        self._lookups = {kind: [0, 0] for kind in KINDS}

    def _bump(self, name: str, amount: int = 1) -> None:
        metrics = getattr(self.tables.store, "metrics", None)
        if metrics is not None:
            metrics.bump(name, amount)

    # -- the row cache -----------------------------------------------------------

    def forget(self, written: WrittenKeys | None) -> None:
        """Record one completed write: bump :attr:`generation` and drop the
        cached rows it touched -- every cached row when ``written`` is
        ``None`` (a write that failed may have applied any part of itself).

        An Index row is dropped from its partition's scope and from the
        ``None`` union scope.  Each drop costs O(min(cache entries, rows
        written)).  The Seq row of a trace that had one before the write is
        not dropped but refreshed: ``written.extended`` holds it as it reads
        back now, and it replaces the cached row (a replacement is not an
        invalidation).
        """
        with self._lock:
            self.generation += 1
            cache = self.row_cache
            if cache is None:
                return
            if written is None:
                cache.clear()
                return
            self._bump(
                "postings_cache_invalidations",
                cache.discard(
                    _ScopedKeys(POSTINGS, (written.partition, None), written.pairs)
                ),
            )
            extended = written.extended
            self._bump(
                "sequence_cache_invalidations",
                cache.discard(
                    _ScopedKeys(
                        SEQUENCE,
                        (None,),
                        [trace for trace in written.traces if trace not in extended],
                    )
                ),
            )
            charge = _CHARGE[SEQUENCE]
            for trace_id, row in extended.items():
                cache.put((SEQUENCE, None, trace_id), row, charge(row))
            cache.discard(_ScopedKeys(COUNT, (False,), written.firsts))
            cache.discard(_ScopedKeys(COUNT, (True,), written.seconds))

    def stored_sequences(self, trace_ids: list[str]) -> tuple[list[SeqRow], int]:
        """The writer's read (Algorithm 1 line 2): the stored Seq row of each
        of ``trace_ids``, and how many came from the row cache.

        A writer's lookup is not a reader's: it peeks, counting no hit or
        miss anywhere and leaving the LRU order alone, and a miss does not
        fill the cache -- :meth:`forget` puts the extended row in once the
        write has landed.  Misses come from one batched read, none when
        every row hits.  The rows are shared with the cache: do not mutate.
        """
        cache = self.row_cache
        if cache is None:
            return self.tables.get_sequences(trace_ids), 0
        rows = [cache.peek((SEQUENCE, None, trace_id), _MISS) for trace_id in trace_ids]
        missing = [trace_id for trace_id, row in zip(trace_ids, rows) if row is _MISS]
        if missing:
            fetched = iter(self.tables.get_sequences(missing))
            rows = [next(fetched) if row is _MISS else row for row in rows]
        return rows, len(trace_ids) - len(missing)

    def kind_stats(self, kind: str) -> dict[str, int]:
        """Hits, misses and entries of one kind of row in the row cache
        (empty when there is none)."""
        cache = self.row_cache
        if cache is None:
            return {}
        hits, misses = self._lookups[kind]
        entries = sum(key[0] == kind for key in cache.keys())
        return {"hits": hits, "misses": misses, "entries": entries}

    def _through_cache(self, kind: str, scope, keys: list, fetch):
        """``({key: value}, missing keys)``: the row cache's entries, plus one
        ``fetch(missing) -> {key: value}`` for the rest, which the cache
        keeps under ``(kind, scope, key)`` unless a write overlapped the
        fetch.  Without a row cache everything is fetched."""
        cache = self.row_cache
        if cache is None:
            return fetch(keys), keys
        generation = self.generation
        found: dict = {}
        for key in keys:
            hit = cache.get((kind, scope, key), _MISS)
            if hit is not _MISS:
                found[key] = hit
        missing = [key for key in keys if key not in found]
        with self._lock:
            tally = self._lookups[kind]
            tally[0] += len(found)
            tally[1] += len(missing)
        counter = _STORE_COUNTERS.get(kind)
        if counter is not None:
            self._bump(f"{counter}_hits", len(found))
            self._bump(f"{counter}_misses", len(missing))
        if missing:
            fetched = fetch(missing)
            found.update(fetched)
            charge = _CHARGE[kind]
            with self._lock:
                if self.generation == generation:  # no write overlapped
                    for key, value in fetched.items():
                        cache.put((kind, scope, key), value, charge(value))
        return found, missing

    def _fetch_postings(
        self, pairs: Sequence[tuple[str, str]], partition: str | None
    ) -> dict[tuple[str, str], Postings]:
        """The postings of ``pairs``: cache hits plus one batched read."""
        span = current_tracer().span("fetch_postings")
        with span:
            found, missing = self._through_cache(
                POSTINGS,
                partition,
                list(dict.fromkeys(pairs)),
                lambda pairs: self.tables.get_index_many(pairs, partition),
            )
            if span.enabled:
                span.add("pairs", len(found))
                span.add("cache_hits", len(found) - len(missing))
                span.add("fetched", len(missing))
                span.add("entries", sum(found[pair].entries for pair in missing))
            return found

    # -- statistics (§3.2.1 "Statistics") ---------------------------------------

    def statistics(self, pattern: Sequence[str], all_pairs: bool = False) -> PatternStats:
        """Pairwise statistics for ``pattern`` plus derived aggregates.

        Returns one :class:`PairStats` per consecutive pair; the
        :class:`PatternStats` wrapper exposes the paper's upper bound on
        whole-pattern completions and the summed average duration estimate.

        With ``all_pairs=True``, statistics of every non-adjacent pattern
        pair are also fetched, tightening the completions bound (§3.2.1's
        accuracy/time trade-off).  All O(p^2) ``Count`` and ``LastChecked``
        rows come from two batched reads instead of a point read per pair.
        """
        if len(pattern) < 2:
            raise EmptyPatternError("statistics need a pattern of length >= 2")
        adjacent = list(zip(pattern, pattern[1:]))
        extras: list[tuple[str, str]] = []
        if all_pairs:
            for i in range(len(pattern)):
                for j in range(i + 2, len(pattern)):
                    extras.append((pattern[i], pattern[j]))
        counts = self.tables.get_pair_counts(adjacent + extras)
        latest = self.tables.get_last_completions(adjacent + extras)

        def row(pair: tuple[str, str]) -> PairStats:
            total_duration, completions = counts[pair]
            return PairStats(
                pair=pair,
                completions=completions,
                total_duration=total_duration,
                last_completion=latest[pair],
            )

        return PatternStats(
            pattern=tuple(pattern),
            pairs=tuple(row(pair) for pair in adjacent),
            extra_pairs=tuple(row(pair) for pair in extras),
        )

    # -- Count rows (the continuation explorer) ---------------------------------

    def count_row(self, first: str) -> CountRow:
        """``{follower: (sum_duration, completions)}`` of the pairs starting
        at ``first`` (shared with the cache: do not mutate)."""
        return self._count_row(first, False)

    def reverse_count_row(self, second: str) -> CountRow:
        """``{predecessor: (sum_duration, completions)}`` of the pairs ending
        at ``second`` (shared with the cache: do not mutate)."""
        return self._count_row(second, True)

    def _count_row(self, key: str, reverse: bool) -> CountRow:
        """The decoded ``Count`` (``ReverseCount`` with ``reverse``) row of
        ``key``, kept in the row cache until a write touches it: decoding one
        is O(|alphabet|), too much to repeat per continuation probe.
        Detection reads no Count row at all."""
        found, _ = self._through_cache(
            COUNT,
            reverse,
            [key],
            lambda keys: self.tables.get_count_rows(keys, reverse),
        )
        return found[key]

    # -- pattern detection: fetch_postings -> plan -> intersect -> finisher ----

    def detect(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        policy: Policy | None = None,
        max_matches: int | None = None,
        within: float | None = None,
        deadline: float | None = None,
    ) -> list[PatternMatch]:
        """All completions of ``pattern``, one match per completion.

        ``partition=""`` queries the default index partition, a name queries
        that period's partition, and ``None`` unions all partitions.  With
        ``policy=Policy.STAM`` the relaxed overlapping semantics are used
        (see the module docstring).  ``max_matches`` caps the result (and
        bounds STAM explosion and verification work).  ``within`` keeps
        only matches whose end-to-end span is at most that long (a
        CEP-style WITHIN window); the chain join applies it at every probe,
        dropping a chain as soon as it outgrows the window.
        """
        limits = {"max_matches": max_matches, "within": within}
        return self.execute("detect", pattern, partition, policy, deadline, **limits)[0]

    def count(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        within: float | None = None,
        deadline: float | None = None,
    ) -> int:
        """Number of completions of ``pattern``.

        Counts the chains (or the verifier's matches) directly -- no
        :class:`PatternMatch` object is materialized per completion.
        """
        return self.execute("count", pattern, partition, None, deadline, within=within)[0]

    def contains(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        deadline: float | None = None,
    ) -> list[str]:
        """Ids of traces containing ``pattern`` at least once.

        Candidate traces are intersected from the pair index first; a list
        then reports the traces of its joined chains, anything else stops
        each candidate at its first verified match.
        """
        return self.execute("contains", pattern, partition, None, deadline)[0]

    def execute(
        self,
        op: str,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        policy: Policy | None = None,
        deadline: float | None = None,
        max_matches: int | None = None,
        within: float | None = None,
    ) -> tuple[Any, QueryPlan]:
        """One query through every stage: ``(answer, plan)``.

        ``op`` is ``"detect"``, ``"count"`` or ``"contains"`` (the answers
        of the methods of those names), or ``"explain"``, which stops once
        the plan is built and answers ``None``.  The plan comes from the
        posting lists the query fetches anyway, so planning reads nothing of
        its own.
        """
        check_limits(max_matches, within)
        plan, postings = self._plan(as_query(pattern), partition, policy, deadline)
        if op == "explain":
            return None, plan
        survivors = self._prune(plan, postings, deadline, max_matches)
        if survivors is not None and not survivors:
            return (0 if op == "count" else []), plan
        if plan.finisher == "join":
            chains = self._join(plan.pairs, plan.order, postings, survivors, within)
            check_deadline(deadline)
            if op == "count":
                return len(chains), plan
            if op == "contains":
                return sorted({trace_id for trace_id, _ in chains}), plan
            span = current_tracer().span("materialize")
            with span:
                matches = [
                    PatternMatch(trace_id, chain) for trace_id, chain in chains
                ]
                if span.enabled:
                    span.add("matches", len(matches))
        elif op == "detect":
            matches = self._verify(plan, survivors, max_matches)
            if within is not None:
                matches = [m for m in matches if m.duration <= within]
        else:
            matcher = _MATCHERS[plan.finisher]
            rows = self._candidate_sequences(survivors)
            if op == "count":
                found = sum(
                    len(matcher(activities, stamps, plan.pattern, None))
                    for _, (activities, stamps) in rows
                )
            else:
                found = [
                    trace_id
                    for trace_id, (activities, stamps) in rows
                    if matcher(activities, stamps, plan.pattern, 1)
                ]
            return found, plan
        if max_matches is not None:
            matches = matches[:max_matches]
        return matches, plan

    def detect_with_prefixes(
        self, pattern: Sequence[str], partition: str | None = ""
    ) -> dict[int, list[PatternMatch]]:
        """Matches for every prefix of ``pattern`` of length >= 2.

        The paper notes these come for free: Algorithm 2 materialises each
        prefix's chains on the way to the full pattern.  Prefix snapshots
        only exist under left-to-right evaluation, so this path joins in
        the natural order over every trace -- which also makes it the
        reference the planner property tests compare against.
        """
        if len(pattern) < 2:
            raise EmptyPatternError("prefix detection needs a pattern of length >= 2")
        pairs = tuple(zip(pattern, pattern[1:]))
        postings = self._fetch_postings(pairs, partition)
        # a prefix is reported up to the first one without a match (the join
        # stops there), the shortest one always
        result: dict[int, list[PatternMatch]] = {2: []}
        chains = self._join(pairs, range(len(pairs)), postings, None, prefixes=result)
        result[len(pattern)] = [
            PatternMatch(trace_id, chain) for trace_id, chain in chains
        ]
        return result

    # -- stages -------------------------------------------------------------------

    def _plan(
        self,
        query: tuple[str, ...] | Pattern,
        partition: str | None,
        policy: Policy | None,
        deadline: float | None,
    ) -> tuple[QueryPlan, dict[tuple[str, str], Postings]]:
        """``fetch_postings -> plan``: the postings of every group pair, and
        the plan built from their entry counts.

        ``Postings.entries`` is a pair's completion count in the partition
        read: the builder adds one ``Count`` increment per Index entry, so
        over every partition it is exactly ``Count[pair]`` (DESIGN.md §6).
        """
        check_deadline(deadline)
        groups = pruning_groups(query)
        pairs = [pair for group in groups for pair in group]
        postings = self._fetch_postings(pairs, partition) if pairs else {}
        check_deadline(deadline)
        span = current_tracer().span("plan")
        with span:
            cardinalities = tuple(
                sum(postings[pair].entries for pair in group) for group in groups
            )
            plan = build_plan(query, cardinalities, policy)
            if span.enabled:
                span.add("groups", len(groups))
                span.add("pairs", len(pairs))
                span.add("min_cardinality", plan.estimated_cost)
        return plan, postings

    def _prune(
        self,
        plan: QueryPlan,
        postings: dict[tuple[str, str], Postings],
        deadline: float | None,
        max_matches: int | None,
    ) -> set[str] | None:
        """``intersect``: the traces holding every group.  Empty when the
        plan proves the answer empty or ``max_matches`` is 0; ``None`` when
        there is nothing to prune with (no positive adjacency), so every
        stored trace is a candidate.
        """
        if plan.proves_empty or max_matches == 0:
            return set()
        if plan.reordered:
            self._bump("planner_reorders")
        if not plan.groups:
            return None
        survivors = self._intersect(plan, postings)
        check_deadline(deadline)
        return survivors

    def _intersect(
        self, plan: QueryPlan, postings: dict[tuple[str, str], Postings]
    ) -> set[str]:
        """Traces holding every group, intersected cheapest set first.

        A group's trace set is the union of its branch pairs' chunk
        dictionaries.  Starting from the rarest group keeps every
        intermediate intersection no larger than the smallest one seen so
        far, and an empty result aborts before any posting column is
        decoded.
        """
        span = current_tracer().span("intersect")
        with span:
            survivors: set[str] | None = None
            for i in sorted(
                range(len(plan.groups)), key=lambda i: (plan.cardinalities[i], i)
            ):
                first, *others = plan.groups[i]
                traces = postings[first].trace_ids()  # a fresh set per call
                for pair in others:
                    traces |= postings[pair].trace_ids()
                survivors = traces if survivors is None else survivors & traces
                if not survivors:
                    survivors = set()
                    break
            if span.enabled:
                span.add("sets", len(plan.groups))
                span.add("survivors", len(survivors))
            return survivors

    def _join(
        self,
        pairs: Sequence[tuple[str, str]],
        order: Sequence[int],
        postings: dict[tuple[str, str], Postings],
        survivors: set[str] | None,
        within: float | None = None,
        prefixes: dict[int, list[PatternMatch]] | None = None,
    ) -> list[tuple[str, Chain]]:
        """Algorithm 2 as a flat hash join: the sorted ``(trace_id, chain)``
        completions of consecutive ``pairs``, joined on shared timestamps in
        ``order`` (a plan's: rarest pair first, extending bidirectionally).

        Each step hashes one pair's completions into a table keyed
        ``(trace_id, ts)`` -- by ``ts_a`` to extend rightwards, by ``ts_b``
        leftwards -- straight from the posting columns, then probes it once
        per live chain.  The flat key is sound because greedy
        non-overlapping pairs make both endpoints of a completion unique
        within a trace, which is also why every order produces exactly the
        left-to-right result; should a stored row repeat a key (a replayed
        batch), the completion later in :meth:`Postings.columns`
        order wins, in the start pair too.  ``within`` drops a chain the
        moment its span exceeds the window -- a chain only grows outwards,
        so no kept match is lost.
        ``survivors=None`` joins every trace; ``prefixes`` receives the
        matches of each proper prefix (natural order only).
        """
        span = current_tracer().span("join")
        with span:
            chains: list[tuple[str, Chain]] = []
            hashed = 0
            high = order[0]
            for step, idx in enumerate(order):
                rightward = idx >= high
                high = max(high, idx)
                if step and prefixes is not None:
                    prefixes[step + 1] = [
                        PatternMatch(trace_id, chain)
                        for trace_id, chain in sorted(chains)
                    ]
                table: dict[tuple[str, float], float] = {}
                for ids, ts_a, ts_b in postings[pairs[idx]].columns(survivors):
                    if rightward:
                        table.update(zip(zip(ids, ts_a), ts_b))
                    else:
                        table.update(zip(zip(ids, ts_b), ts_a))
                hashed += len(table)
                if not step:
                    chains = [
                        (trace_id, (ts_a, ts_b))
                        for (trace_id, ts_a), ts_b in table.items()
                        if (survivors is None or trace_id in survivors)
                        and (within is None or ts_b - ts_a <= within)
                    ]
                elif rightward:
                    chains = [
                        (trace_id, chain + (ts,))
                        for trace_id, chain in chains
                        if (ts := table.get((trace_id, chain[-1]))) is not None
                        and (within is None or ts - chain[0] <= within)
                    ]
                else:
                    chains = [
                        (trace_id, (ts,) + chain)
                        for trace_id, chain in chains
                        if (ts := table.get((trace_id, chain[0]))) is not None
                        and (within is None or chain[-1] - ts <= within)
                    ]
                if not chains:
                    break
            chains.sort()
            if span.enabled:
                span.add("steps", len(order))
                span.add("hashed", hashed)
                span.add("traces", len({trace_id for trace_id, _ in chains}))
                span.add("chains", len(chains))
            return chains

    def _verify(
        self, plan: QueryPlan, candidates: set[str] | None, max_matches: int | None
    ) -> list[PatternMatch]:
        """Run the plan's per-trace matcher over every candidate's stored
        sequence, id-ordered, stopping once ``max_matches`` are found."""
        matcher = _MATCHERS[plan.finisher]
        span = current_tracer().span("verify")
        with span:
            matches: list[PatternMatch] = []
            scanned = 0
            for trace_id, (activities, stamps) in self._candidate_sequences(candidates):
                budget = None if max_matches is None else max_matches - len(matches)
                if budget is not None and budget <= 0:
                    break
                for chain in matcher(activities, stamps, plan.pattern, budget):
                    matches.append(PatternMatch(trace_id, chain))
                scanned += 1
            if span.enabled:
                span.add("traces", scanned)
                span.add("matches", len(matches))
            return matches

    def _candidate_sequences(self, candidates: set[str] | None):
        """``(trace_id, (activities, timestamps))`` rows to verify, id-ordered.

        Rows missing from the row cache are read with one batched
        ``multi_get``, not a point read per candidate.
        """
        if candidates is None:
            return self.tables.iter_sequences()
        ordered = sorted(candidates)
        found, _ = self._through_cache(
            SEQUENCE,
            None,
            ordered,
            lambda ids: dict(zip(ids, self.tables.get_sequences(ids))),
        )
        return ((trace_id, found[trace_id]) for trace_id in ordered)


def _rarest_first_order(cardinalities: tuple[int, ...]) -> tuple[int, ...]:
    """Join order: start at the rarest pair, extend towards cheaper sides.

    The covered pair window stays contiguous (only contiguous windows can
    join on shared timestamps), so at each step the choice is between the
    pair just left and just right of the window; the cheaper one goes next,
    ties preferring the right side (closer to natural order).
    """
    n = len(cardinalities)
    start = min(range(n), key=lambda i: (cardinalities[i], i))
    order = [start]
    left, right = start, start
    while len(order) < n:
        take_left = left > 0
        take_right = right < n - 1
        if take_left and take_right:
            take_left = cardinalities[left - 1] < cardinalities[right + 1]
        if take_left:
            left -= 1
            order.append(left)
        else:
            right += 1
            order.append(right)
    return tuple(order)


def _enumerate_stam(
    activities: list[str],
    timestamps: list[float],
    pattern: Sequence[str],
    max_matches: int | None,
) -> list[Chain]:
    """All (possibly overlapping) embeddings of ``pattern`` in one trace.

    Depth-first over per-activity occurrence positions; ``max_matches``
    bounds the output because the embedding count can be combinatorial.
    """
    alphabet = set(pattern)
    positions = occurrence_positions(activities, alphabet)
    if len(positions) != len(alphabet):
        return []
    results: list[Chain] = []

    def extend(step: int, last_index: int, chain: tuple[float, ...]) -> bool:
        if step == len(pattern):
            results.append(chain)
            return max_matches is not None and len(results) >= max_matches
        for idx in positions[pattern[step]]:
            if idx <= last_index:
                continue
            if extend(step + 1, idx, chain + (timestamps[idx],)):
                return True
        return False

    extend(0, -1, ())
    return results


#: per-trace matcher of the two finishers that read Seq rows; both take
#: ``(activities, timestamps, pattern, max_matches)``
_MATCHERS = {"verify": find_matches, "enumerate": _enumerate_stam}
