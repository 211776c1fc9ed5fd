"""The query processor component (§3.2): statistics and pattern detection.

*Statistics* queries read only the ``Count`` and ``LastChecked`` tables --
constant work per pattern pair, fetched as one batched read.

*Pattern detection* is one procedure for every kind of query -- a list of
activities (Algorithm 2), a list under skip-till-any-match, a composite
:class:`~repro.core.pattern.Pattern` (alternation, Kleene, negation,
WITHIN) -- because they all prune the same way and differ only in how a
surviving trace is finished:

1. **plan** -- one :class:`~repro.core.matches.QueryPlan` from the exact
   per-pair cardinalities the ``Count`` table stores anyway (one batched
   read, or handed in by a coordinator that summed them over shards).  Each
   adjacency of positive elements is a pruning *group* of index pairs (one
   pair for a plain sequence, one per branch combination under
   alternation); a zero-cardinality group proves the result empty before
   any posting list is read.
2. **fetch_postings** -- the posting lists of every group pair in one
   batched ``multi_get`` per Index table, as
   :class:`~repro.core.postings.Postings`, through the optional
   decoded-postings LRU (see :class:`repro.core.engine.SequenceIndex`).
3. **intersect** -- per-group trace sets come from the chunk dictionaries
   alone and are intersected cheapest group first *before* any column is
   decoded, with an empty-set early exit.
4. the plan's **finisher** on the survivors:

   * ``join`` (+ ``materialize``) for a list: consecutive pair entries are
     chained per trace by joining on the shared event's timestamp, starting
     at the *rarest* pair and extending bidirectionally, cheapest adjacent
     pair next, so the intermediate chain set is bounded by the smallest
     posting list.  Because the index's pairs are greedy and
     non-overlapping, a chain extends in at most one way, so the join is a
     hash lookup per partial chain and the join order never changes the
     result (property-tested against left-to-right evaluation and a
     brute-force oracle).  Grouping is lazy -- restricted to surviving
     traces (chunks mentioning none of them are never unpacked) and skipped
     for pairs after the chain set empties.  The join needs no Seq row.
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

The detection by-product the paper mentions -- matches of every pattern
*prefix* -- is available through :meth:`QueryProcessor.detect_with_prefixes`,
which keeps the left-to-right order as an explicit plan (prefix snapshots
only exist in that order); it is also the reference the planner property
tests compare against.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from repro.core.errors import DeadlineExceeded, EmptyPatternError
from repro.core.matches import PairStats, PatternMatch, PatternStats, QueryPlan
from repro.core.pattern import Pattern, find_matches, parse_pattern
from repro.core.policies import Policy
from repro.core.postings import Completions, Postings
from repro.core.tables import IndexTables
from repro.obs.trace import current_tracer

Chain = tuple[float, ...]
Groups = tuple[tuple[tuple[str, str], ...], ...]

_MISS = object()


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


class _PlannedPostings:
    """Posting-list access for one planned query: batch-fetch, lazy group.

    The :class:`~repro.core.postings.Postings` of all pairs come from one
    batched read (through the postings cache where attached); grouping into
    per-trace sorted completion lists happens only on demand and only for
    the traces still alive when a pair is first needed.

    ``within`` pushes a WITHIN window into pruning: completions whose own
    span exceeds the window are dropped from every grouping and trace set
    this query sees.  That is exact for the plain chain join -- a chain's
    timestamps are monotonic, so every pair completion inside a chain of
    duration <= tau itself spans <= tau, and dropping entries can never
    *create* a chain -- but unsound for the other finishers, where the
    matcher may use a later occurrence than the greedy pair recorded (see
    DESIGN.md), so only the join passes one.  A window needs the
    timestamps, so with one the trace sets come from a full filtered
    grouping instead of the chunk dictionaries.
    """

    def __init__(
        self,
        query: "QueryProcessor",
        plan: QueryPlan,
        within: float | None = None,
    ) -> None:
        self._within = within
        self._groups = plan.groups
        self._postings = query._fetch_postings(plan.pairs, plan.partition)
        self._grouped: dict[int, dict[str, Completions]] = {}

    def trace_set(self, i: int) -> set[str]:
        """Trace ids holding an in-window completion of any pair of group ``i``.

        Alternation makes a group's set the union of its branch pairs'.
        """
        if self._within is not None:
            return set(self.group(i, None))
        first, *others = self._groups[i]
        traces = self._postings[first].trace_ids()  # a fresh set per call
        for pair in others:
            traces |= self._postings[pair].trace_ids()
        return traces

    def group(self, i: int, restrict: set[str] | None) -> dict[str, Completions]:
        """Per-trace sorted (window-surviving) completions of the one pair
        of group ``i`` (the join's groups are single pairs).

        Grouped once per query: ``restrict`` is the set of traces alive at
        the first request, and later requests only ever ask for a subset.
        """
        grouped = self._grouped.get(i)
        if grouped is None:
            (pair,) = self._groups[i]
            grouped = self._postings[pair].grouped(restrict)
            within = self._within
            if within is not None:
                grouped = {
                    trace_id: kept
                    for trace_id, completions in grouped.items()
                    if (kept := [c for c in completions if c[1] - c[0] <= within])
                }
            self._grouped[i] = grouped
        return grouped


class QueryProcessor:
    """Executes pattern queries against the index tables.

    ``postings_cache`` is an optional LRU of fetched
    :class:`~repro.core.postings.Postings` keyed by ``(generation, partition,
    pair)``; ``generation`` supplies the owning index's write generation so
    a batch update invalidates by construction.  ``sequence_cache`` is the
    same idea for decoded Seq-table rows (``(activities, timestamps)``
    columns), keyed ``(generation, trace_id)`` -- verification re-reads the
    same candidate traces across queries.
    """

    def __init__(
        self,
        tables: IndexTables,
        postings_cache=None,
        sequence_cache=None,
        generation: Callable[[], int] | None = None,
    ) -> None:
        self.tables = tables
        self.postings_cache = postings_cache
        self.sequence_cache = sequence_cache
        self._generation = generation if generation is not None else lambda: 0
        # Decoded Count rows of one write generation: (generation, {first
        # event: row}).  Decoding a Count document is O(|alphabet|) -- too
        # expensive to repeat per plan() -- while the rows themselves are
        # bounded by the alphabet.  A row of an older generation can never be
        # read again, so the rows are dropped as soon as the generation moves.
        self._count_rows: tuple[int, dict[str, dict]] = (0, {})

    def _bump(self, name: str, amount: int = 1) -> None:
        metrics = getattr(self.tables.store, "metrics", None)
        if metrics is not None:
            metrics.bump(name, amount)

    # -- generation-keyed LRUs ---------------------------------------------------

    def _through_cache(self, cache, counter: str, scope: tuple, keys: list, fetch):
        """``({key: value}, missing keys)``: the LRU's entries of this write
        generation, plus one ``fetch(missing) -> {key: value}`` for the rest
        (which the LRU then keeps).  ``cache=None`` fetches everything."""
        prefix = (self._generation(), *scope)
        found: dict = {}
        missing = keys
        if cache is not None:
            for key in keys:
                hit = cache.get(prefix + (key,), _MISS)
                if hit is not _MISS:
                    found[key] = hit
            missing = [key for key in keys if key not in found]
            self._bump(f"{counter}_hits", len(found))
            self._bump(f"{counter}_misses", len(missing))
        if missing:
            fetched = fetch(missing)
            found.update(fetched)
            if cache is not None:
                for key, value in fetched.items():
                    cache.put(prefix + (key,), value)
        return found, missing

    def _fetch_postings(
        self, pairs: Sequence[tuple[str, str]], partition: str | None
    ) -> dict[tuple[str, str], Postings]:
        """The postings of ``pairs``: cache hits plus one batched read."""
        span = current_tracer().span("fetch_postings")
        with span:
            found, missing = self._through_cache(
                self.postings_cache,
                "postings_cache",
                (partition,),
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
        checked = self.tables.get_last_checked_many(adjacent + extras)

        def row(pair: tuple[str, str]) -> PairStats:
            total_duration, completions = counts[pair]
            stamps = checked[pair]
            return PairStats(
                pair=pair,
                completions=completions,
                total_duration=total_duration,
                last_completion=max(stamps.values()) if stamps else None,
            )

        return PatternStats(
            pattern=tuple(pattern),
            pairs=tuple(row(pair) for pair in adjacent),
            extra_pairs=tuple(row(pair) for pair in extras),
        )

    # -- planning ----------------------------------------------------------------

    def plan(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        cardinalities: Sequence[int] | None = None,
        policy: Policy | None = None,
    ) -> QueryPlan:
        """Build the execution plan for a query on ``pattern``.

        One batched ``Count`` read yields every pruning pair's exact global
        completion count (exact even per partition as an upper bound:
        statistics tables are global, so zero means zero everywhere); a
        group's cardinality is the sum over its branch pairs (alternation
        cardinality is additive).  ``cardinalities`` supplies the per-pair
        counts instead -- one per pair of :func:`pruning_groups`, flattened
        -- for the scatter-gather coordinator, which sums every shard's
        :meth:`cardinalities` and hands all shards the same plan.  The
        join order starts at the rarest pair and grows the covered window
        towards whichever adjacent pair is cheaper; the other finishers
        only prune, cheapest group first.
        """
        query = as_query(pattern)
        groups = pruning_groups(query)
        negated: tuple[str, ...] = ()
        if isinstance(query, Pattern):
            finisher = "verify"
            negated = tuple(str(e) for e in query.elements if e.negated)
        elif policy is Policy.STAM or len(query) == 1:
            finisher = "enumerate"
        else:
            finisher = "join"
        span = current_tracer().span("plan")
        with span:
            pairs = tuple(pair for group in groups for pair in group)
            if cardinalities is None:
                per_pair = self.cardinalities(pairs)
            else:
                per_pair = tuple(int(c) for c in cardinalities)
                if len(per_pair) != len(pairs):
                    raise ValueError("need one cardinality per pruning pair")
            folded, offset = [], 0
            for group in groups:
                folded.append(sum(per_pair[offset : offset + len(group)]))
                offset += len(group)
            cards = tuple(folded)
            natural = tuple(range(len(groups)))
            if finisher == "join":
                order = _rarest_first_order(cards)
            else:
                order = tuple(sorted(natural, key=lambda i: (cards[i], i)))
            if span.enabled:
                span.add("groups", len(groups))
                span.add("pairs", len(pairs))
                span.add("min_cardinality", min(cards, default=0))
            return QueryPlan(
                pattern=query,
                finisher=finisher,
                groups=groups,
                cardinalities=cards,
                order=order,
                reordered=order != natural,
                negated=negated,
                partition=partition,
            )

    def cardinalities(self, pairs: Sequence[tuple[str, str]]) -> tuple[int, ...]:
        """Exact ``Count``-table completion counts per pair, through the
        Count-row cache.

        Public for the scatter-gather coordinator, which sums each shard's
        cardinalities into the merged counts a global plan is built from.
        """
        generation = self._generation()
        cached_generation, cache = self._count_rows
        if cached_generation != generation:
            cache = {}
            self._count_rows = (generation, cache)
        rows = {
            first: cache.get(first)
            for first in dict.fromkeys(first for first, _ in pairs)
        }
        missing = [first for first, row in rows.items() if row is None]
        if missing:
            for first, row in self.tables.get_count_rows(missing).items():
                rows[first] = cache[first] = row
        out = []
        for first, second in pairs:
            stats = rows[first].get(second)
            out.append(int(stats[1]) if stats is not None else 0)
        return tuple(out)

    # -- pattern detection: plan -> fetch_postings -> intersect -> finisher ----

    def detect(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        policy: Policy | None = None,
        max_matches: int | None = None,
        within: float | None = None,
        plan: QueryPlan | None = None,
        deadline: float | None = None,
    ) -> list[PatternMatch]:
        """All completions of ``pattern``, one match per completion.

        ``partition=""`` queries the default index partition, a name queries
        that period's partition, and ``None`` unions all partitions.  With
        ``policy=Policy.STAM`` the relaxed overlapping semantics are used
        (see the module docstring).  ``max_matches`` caps the result (and
        bounds STAM explosion and verification work).  ``within`` keeps
        only matches whose end-to-end span is at most that long (a
        CEP-style WITHIN window); the window is also pushed into the chain
        join, where per-completion span filtering is exact.  ``plan``
        overrides planning with a precomputed
        :class:`~repro.core.matches.QueryPlan` (the scatter-gather
        coordinator plans once from merged cardinalities and hands every
        shard the same plan); the plan never changes the result, only the
        order of work.
        """
        check_limits(max_matches, within)
        if plan is None:
            plan = self.plan(pattern, partition, policy=policy)
        if plan.proves_empty or max_matches == 0:
            # Count is global and exact: a zero-cardinality group has no
            # postings in any partition, so the query is dead on arrival.
            return []
        postings, survivors = self._prune(plan, within, deadline)
        if survivors is not None and not survivors:
            return []
        if plan.finisher == "join":
            chains = self._join(plan, postings, survivors)
            check_deadline(deadline)
            span = current_tracer().span("materialize")
            with span:
                matches = [
                    PatternMatch(trace_id, chain)
                    for trace_id, trace_chains in sorted(chains.items())
                    for chain in trace_chains
                ]
                if span.enabled:
                    span.add("matches", len(matches))
        else:
            matches = self._verify(plan, survivors, max_matches)
        if within is not None:
            matches = [m for m in matches if m.duration <= within]
        if max_matches is not None:
            matches = matches[:max_matches]
        return matches

    def count(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        within: float | None = None,
        plan: QueryPlan | None = None,
        deadline: float | None = None,
    ) -> int:
        """Number of completions of ``pattern``.

        Counts the chains (or the verifier's matches) directly -- no
        :class:`PatternMatch` object is materialized per completion.
        """
        check_limits(None, within)
        if plan is None:
            plan = self.plan(pattern, partition)
        if plan.proves_empty:
            return 0
        postings, survivors = self._prune(plan, within, deadline)
        if survivors is not None and not survivors:
            return 0
        if plan.finisher == "join":
            chains = self._join(plan, postings, survivors)
            if within is None:
                return sum(len(trace_chains) for trace_chains in chains.values())
            return sum(
                1
                for trace_chains in chains.values()
                for chain in trace_chains
                if chain[-1] - chain[0] <= within
            )
        matcher = _MATCHERS[plan.finisher]
        return sum(
            len(matcher(activities, stamps, plan.pattern, None))
            for _, (activities, stamps) in self._candidate_sequences(survivors)
        )

    def detect_with_prefixes(
        self, pattern: Sequence[str], partition: str | None = ""
    ) -> dict[int, list[PatternMatch]]:
        """Matches for every prefix of ``pattern`` of length >= 2.

        The paper notes these come for free: Algorithm 2 materialises each
        prefix's chains on the way to the full pattern.  Prefix snapshots
        only exist under left-to-right evaluation, so this path keeps the
        naive order as an explicit plan regardless of the planner setting.
        """
        if len(pattern) < 2:
            raise EmptyPatternError("prefix detection needs a pattern of length >= 2")
        result: dict[int, list[PatternMatch]] = {}
        chains = self._chain_left_to_right(pattern, partition, snapshots=result)
        result[len(pattern)] = [
            PatternMatch(trace_id, chain)
            for trace_id, trace_chains in sorted(chains.items())
            for chain in trace_chains
        ]
        return result

    def contains(
        self,
        pattern: Sequence[str] | Pattern | str,
        partition: str | None = "",
        plan: QueryPlan | None = None,
        deadline: float | None = None,
    ) -> list[str]:
        """Ids of traces containing ``pattern`` at least once.

        Short-circuits per trace: candidate traces are intersected from the
        pair index first, then each candidate stops at its first chain that
        survives every join step (or its first verified match) -- no match
        set is materialized.
        """
        if plan is None:
            plan = self.plan(pattern, partition)
        if plan.proves_empty:
            return []
        postings, survivors = self._prune(plan, None, deadline)
        if survivors is not None and not survivors:
            return []
        if plan.finisher != "join":
            matcher = _MATCHERS[plan.finisher]
            return [
                trace_id
                for trace_id, (activities, stamps) in self._candidate_sequences(
                    survivors
                )
                if matcher(activities, stamps, plan.pattern, 1)
            ]
        order = plan.order
        start = order[0]
        start_grouped = postings.group(start, survivors)
        found: list[str] = []
        for trace_id in sorted(survivors):
            entries = start_grouped.get(trace_id)
            if not entries:
                continue
            by_first: dict[int, dict[float, float]] = {}
            by_second: dict[int, dict[float, float]] = {}
            for ts_a, ts_b in entries:
                low, high = ts_a, ts_b
                left = right = start
                alive = True
                for idx in order[1:]:
                    completions = postings.group(idx, survivors).get(trace_id)
                    if not completions:
                        alive = False
                        break
                    if idx > right:
                        step = by_first.get(idx)
                        if step is None:
                            step = by_first[idx] = dict(completions)
                        high = step.get(high)
                        if high is None:
                            alive = False
                            break
                        right = idx
                    else:
                        step = by_second.get(idx)
                        if step is None:
                            step = by_second[idx] = {
                                b: a for a, b in completions
                            }
                        low = step.get(low)
                        if low is None:
                            alive = False
                            break
                        left = idx
                if alive:
                    found.append(trace_id)
                    break
        return found

    # -- stages -------------------------------------------------------------------

    def _prune(
        self, plan: QueryPlan, within: float | None, deadline: float | None
    ) -> tuple[_PlannedPostings | None, set[str] | None]:
        """``fetch_postings -> intersect``: the fetched postings and the
        traces holding every group.  ``(None, None)`` = nothing to prune
        with (no positive adjacency), so every stored trace is a candidate.
        """
        if plan.reordered:
            self._bump("planner_reorders")
        check_deadline(deadline)
        if not plan.groups:
            return None, None
        postings = _PlannedPostings(
            self, plan, within if plan.finisher == "join" else None
        )
        check_deadline(deadline)
        survivors = self._intersect(plan, postings)
        check_deadline(deadline)
        return postings, survivors

    def _intersect(self, plan: QueryPlan, postings: _PlannedPostings) -> set[str]:
        """Traces holding every group, intersected cheapest set first.

        Starting from the rarest group's trace set keeps every intermediate
        intersection no larger than the smallest one seen so far, and an
        empty result aborts before any posting column is decoded.
        """
        span = current_tracer().span("intersect")
        with span:
            survivors: set[str] | None = None
            for i in sorted(
                range(len(plan.groups)), key=lambda i: (plan.cardinalities[i], i)
            ):
                traces = postings.trace_set(i)
                survivors = traces if survivors is None else survivors & traces
                if not survivors:
                    survivors = set()
                    break
            if span.enabled:
                span.add("sets", len(plan.groups))
                span.add("survivors", len(survivors))
            return survivors

    def _join(
        self, plan: QueryPlan, postings: _PlannedPostings, survivors: set[str]
    ) -> dict[str, list[Chain]]:
        """Algorithm 2: join consecutive pair entries on shared timestamps,
        rarest pair first, extending bidirectionally.

        Produces exactly the left-to-right result (greedy non-overlapping
        pairs make both endpoints of a completion unique within a trace, so
        chains extend uniquely in either direction); each trace's chains are
        sorted, which is the order left-to-right evaluation emits.
        """
        span = current_tracer().span("join")
        with span:
            order = plan.order
            start = order[0]
            grouped = postings.group(start, survivors)
            chains: dict[str, list[Chain]] = {}
            for trace_id in survivors:
                entries = grouped.get(trace_id)
                if entries:
                    chains[trace_id] = entries  # this query's own lists
            left = right = start
            for idx in order[1:]:
                if not chains:
                    break
                frontier = set(chains)
                step_grouped = postings.group(idx, frontier)
                extended: dict[str, list[Chain]] = {}
                if idx > right:
                    for trace_id, trace_chains in chains.items():
                        completions = step_grouped.get(trace_id)
                        if not completions:
                            continue
                        by_first = dict(completions)
                        new_chains = []
                        for chain in trace_chains:
                            ts_b = by_first.get(chain[-1])
                            if ts_b is not None:
                                new_chains.append(chain + (ts_b,))
                        if new_chains:
                            extended[trace_id] = new_chains
                    right = idx
                else:
                    for trace_id, trace_chains in chains.items():
                        completions = step_grouped.get(trace_id)
                        if not completions:
                            continue
                        by_second = {ts_b: ts_a for ts_a, ts_b in completions}
                        new_chains = []
                        for chain in trace_chains:
                            ts_a = by_second.get(chain[0])
                            if ts_a is not None:
                                new_chains.append((ts_a,) + chain)
                        if new_chains:
                            extended[trace_id] = new_chains
                    left = idx
                chains = extended
            for trace_chains in chains.values():
                trace_chains.sort()
            if span.enabled:
                span.add("steps", len(order))
                span.add("traces", len(chains))
                span.add(
                    "chains", sum(len(trace_chains) for trace_chains in chains.values())
                )
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

        Rows missing from the sequence cache are read with one batched
        ``multi_get``, not a point read per candidate.
        """
        if candidates is None:
            return self.tables.iter_sequences()
        ordered = sorted(candidates)
        found, _ = self._through_cache(
            self.sequence_cache,
            "sequence_cache",
            (),
            ordered,
            lambda ids: dict(zip(ids, self.tables.get_sequences(ids))),
        )
        return ((trace_id, found[trace_id]) for trace_id in ordered)

    def _chain_left_to_right(
        self,
        pattern: Sequence[str],
        partition: str | None,
        snapshots: dict[int, list[PatternMatch]] | None = None,
    ) -> dict[str, list[Chain]]:
        """Naive left-to-right join (the explicit plan behind prefixes)."""
        span = current_tracer().span("join")
        if span.enabled:
            span.tag(order="left_to_right")
        with span:
            pairs = list(zip(pattern, pattern[1:]))
            postings = self._fetch_postings(pairs, partition)
            grouped = postings[pairs[0]].grouped()
            previous: dict[str, list[Chain]] = {
                trace_id: [(ts_a, ts_b) for ts_a, ts_b in entries]
                for trace_id, entries in grouped.items()
            }
            for i in range(1, len(pattern) - 1):
                if snapshots is not None:
                    snapshots[i + 1] = [
                        PatternMatch(trace_id, chain)
                        for trace_id, trace_chains in sorted(previous.items())
                        for chain in trace_chains
                    ]
                grouped = postings[pairs[i]].grouped(set(previous))
                extended: dict[str, list[Chain]] = {}
                for trace_id, chains in previous.items():
                    completions = grouped.get(trace_id)
                    if not completions:
                        continue
                    # Non-overlapping pairs make ts_a unique within a trace.
                    by_first = {ts_a: ts_b for ts_a, ts_b in completions}
                    new_chains = []
                    for chain in chains:
                        ts_b = by_first.get(chain[-1])
                        if ts_b is not None:
                            new_chains.append(chain + (ts_b,))
                    if new_chains:
                        extended[trace_id] = new_chains
                previous = extended
                if not previous:
                    break
            return previous


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
    positions: dict[str, list[int]] = {}
    for idx, activity in enumerate(activities):
        positions.setdefault(activity, []).append(idx)
    for activity in pattern:
        if activity not in positions:
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
