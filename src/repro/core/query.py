"""The query processor component (§3.2): statistics and pattern detection.

*Statistics* queries read only the ``Count`` and ``LastChecked`` tables --
constant work per pattern pair, fetched as one batched read.  *Pattern
detection* (Algorithm 2) fetches the inverted-index entries of every
consecutive pattern pair and chains them per trace by joining on the shared
event's timestamp.  Because the index's pairs are greedy and
non-overlapping, a chain extends in at most one way, so the join is a hash
lookup per partial chain.

Since the selectivity-driven planner rework, detection no longer evaluates
pairs left-to-right unconditionally.  A :class:`~repro.core.matches.QueryPlan`
is built first from the exact per-pair cardinalities the ``Count`` table
stores anyway (one batched read): the join starts at the *rarest* pair and
extends bidirectionally, cheapest adjacent pair next, so the intermediate
chain set is bounded by the smallest posting list instead of the first one.
Posting lists are fetched with one batched ``multi_get`` per Index table as
:class:`~repro.core.postings.Postings`; per-trace candidate sets come from
the chunk dictionaries alone and are intersected *before* any column is
decoded, and grouping is lazy -- restricted to surviving traces (chunks
mentioning none of them are never unpacked) and skipped entirely for pairs
after the chain set empties.  An optional decoded-postings LRU (see
:class:`repro.core.engine.SequenceIndex`) keeps the fetched ``Postings``.
The join order never changes the result: extension is unique per chain, so
the planner's output is byte-identical to left-to-right evaluation
(property-tested against it and against a brute-force oracle).

The detection by-product the paper mentions -- matches of every pattern
*prefix* -- is available through :meth:`QueryProcessor.detect_with_prefixes`,
which keeps the old left-to-right order as an explicit plan (prefix
snapshots only exist in that order).

Skip-till-any-match (STAM, §7 future work) is supported as an extension:
the pair index prunes to candidate traces (any STAM match implies the
corresponding STNM pairs exist), then the stored sequence is enumerated
exhaustively per candidate.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.errors import EmptyPatternError
from repro.core.matches import (
    PairStats,
    PatternMatch,
    PatternPlan,
    PatternStats,
    QueryPlan,
)
from repro.core.pattern import Pattern, find_matches
from repro.core.policies import Policy
from repro.core.postings import Completions, Postings
from repro.core.tables import IndexTables
from repro.obs.trace import current_tracer

Chain = tuple[float, ...]

_MISS = object()


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
    *create* a chain -- but unsound for composite verification, where the
    STNM matcher may retry from a later occurrence than the greedy pair
    recorded (see DESIGN.md).  A window needs the timestamps, so with one
    the trace sets come from a full filtered grouping instead of the chunk
    dictionaries.
    """

    def __init__(
        self,
        query: "QueryProcessor",
        plan: QueryPlan,
        within: float | None = None,
    ) -> None:
        self._within = within
        fetched = query._fetch_postings(plan.pairs, plan.partition)
        self._postings = [fetched[pair] for pair in plan.pairs]
        self._grouped: dict[int, dict[str, Completions]] = {}

    def trace_set(self, i: int) -> set[str]:
        """Trace ids holding at least one in-window completion of pair ``i``."""
        if self._within is None:
            return self._postings[i].trace_ids()
        return set(self.group(i, None))

    def group(self, i: int, restrict: set[str] | None) -> dict[str, Completions]:
        """Per-trace sorted (window-surviving) completions of pair ``i``.

        Grouped once per query: ``restrict`` is the set of traces alive at
        the first request, and later requests only ever ask for a subset.
        """
        grouped = self._grouped.get(i)
        if grouped is None:
            grouped = self._postings[i].grouped(restrict)
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
    columns), keyed ``(generation, trace_id)`` -- composite-pattern
    verification re-reads the same candidate traces across queries.
    ``planner_enabled=False`` pins every detection to naive left-to-right
    evaluation (the ablation baseline and the prefix path).
    """

    def __init__(
        self,
        tables: IndexTables,
        postings_cache=None,
        sequence_cache=None,
        generation: Callable[[], int] | None = None,
        planner_enabled: bool = True,
    ) -> None:
        self.tables = tables
        self.postings_cache = postings_cache
        self.sequence_cache = sequence_cache
        self._generation = generation if generation is not None else lambda: 0
        self.planner_enabled = planner_enabled
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

    def _pair_stats(self, first: str, second: str) -> PairStats:
        total_duration, completions = self.tables.get_pair_count((first, second))
        last = self.tables.get_last_completion((first, second))
        return PairStats(
            pair=(first, second),
            completions=completions,
            total_duration=total_duration,
            last_completion=last,
        )

    # -- planning ----------------------------------------------------------------

    def plan(
        self, pattern: Sequence[str], partition: str | None = ""
    ) -> QueryPlan:
        """Build the execution plan for a detection of ``pattern``.

        One batched ``Count`` read yields every consecutive pair's exact
        global completion count (exact even per partition as an upper
        bound: statistics tables are global, so zero means zero
        everywhere).  The join order starts at the rarest pair and grows
        the covered window towards whichever adjacent pair is cheaper.
        """
        if len(pattern) < 2:
            raise EmptyPatternError("planning needs a pattern of length >= 2")
        span = current_tracer().span("plan")
        with span:
            pairs = tuple(zip(pattern, pattern[1:]))
            cardinalities = self._cardinalities(pairs)
            natural = tuple(range(len(pairs)))
            order = (
                _rarest_first_order(cardinalities) if self.planner_enabled else natural
            )
            if span.enabled:
                span.add("pairs", len(pairs))
                span.add("min_cardinality", min(cardinalities, default=0))
            return QueryPlan(
                pattern=tuple(pattern),
                pairs=pairs,
                cardinalities=cardinalities,
                order=order,
                reordered=order != natural,
                partition=partition,
            )

    def cardinalities(
        self, pairs: Sequence[tuple[str, str]]
    ) -> tuple[int, ...]:
        """Exact ``Count``-table completion counts for arbitrary pairs.

        Public for the scatter-gather coordinator, which sums each shard's
        cardinalities into the merged counts a global plan is built from.
        """
        return self._cardinalities(tuple(pairs))

    def plan_from_cardinalities(
        self,
        pattern: Sequence[str],
        cardinalities: Sequence[int],
        partition: str | None = "",
    ) -> QueryPlan:
        """Build a plan from externally supplied (e.g. cluster-wide merged)
        cardinalities instead of this store's own ``Count`` rows."""
        if len(pattern) < 2:
            raise EmptyPatternError("planning needs a pattern of length >= 2")
        pairs = tuple(zip(pattern, pattern[1:]))
        if len(cardinalities) != len(pairs):
            raise ValueError("need one cardinality per consecutive pair")
        cards = tuple(int(c) for c in cardinalities)
        natural = tuple(range(len(pairs)))
        order = _rarest_first_order(cards) if self.planner_enabled else natural
        return QueryPlan(
            pattern=tuple(pattern),
            pairs=pairs,
            cardinalities=cards,
            order=order,
            reordered=order != natural,
            partition=partition,
        )

    def _cardinalities(self, pairs: tuple[tuple[str, str], ...]) -> tuple[int, ...]:
        """Exact completion counts per pair, through the Count-row cache."""
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

    # -- pattern detection (Algorithm 2) ------------------------------------------

    def detect(
        self,
        pattern: Sequence[str],
        partition: str | None = "",
        policy: Policy | None = None,
        max_matches: int | None = None,
        within: float | None = None,
        plan: QueryPlan | None = None,
    ) -> list[PatternMatch]:
        """All completions of ``pattern``, one match per completion.

        ``partition=""`` queries the default index partition, a name queries
        that period's partition, and ``None`` unions all partitions.  With
        ``policy=Policy.STAM`` the relaxed overlapping semantics are used
        (see the module docstring); ``max_matches`` caps STAM explosion.
        ``within`` keeps only matches whose end-to-end span is at most that
        long (a CEP-style WITHIN window); the window is also pushed into the
        planned chain join, where per-completion span filtering is exact.
        ``plan`` overrides planning with a precomputed
        :class:`~repro.core.matches.QueryPlan` (the scatter-gather
        coordinator plans once from merged cardinalities and hands every
        shard the same plan); the plan never changes the result, only the
        join order.
        """
        if len(pattern) == 0:
            raise EmptyPatternError("cannot detect an empty pattern")
        if within is not None and within < 0:
            raise ValueError("within must be non-negative")
        if policy is Policy.STAM:
            matches = self._detect_stam(pattern, partition, max_matches)
        elif len(pattern) == 1:
            matches = self._detect_single(pattern[0])
        else:
            chains = self._chain(pattern, partition, within=within, plan=plan)
            span = current_tracer().span("materialize")
            with span:
                matches = [
                    PatternMatch(trace_id, chain)
                    for trace_id, trace_chains in sorted(chains.items())
                    for chain in trace_chains
                ]
                if span.enabled:
                    span.add("matches", len(matches))
        if within is not None:
            matches = [m for m in matches if m.duration <= within]
        if max_matches is not None and policy is not Policy.STAM:
            matches = matches[:max_matches]
        return matches

    def count(
        self,
        pattern: Sequence[str],
        partition: str | None = "",
        within: float | None = None,
        plan: QueryPlan | None = None,
    ) -> int:
        """Number of completions of ``pattern``.

        Counts the chains directly -- no :class:`PatternMatch` object is
        materialized per completion.
        """
        if len(pattern) == 0:
            raise EmptyPatternError("cannot detect an empty pattern")
        if within is not None and within < 0:
            raise ValueError("within must be non-negative")
        if len(pattern) == 1:
            # Single events span zero time, so any non-negative window keeps
            # them all; count occurrences straight off the Seq table.
            return sum(
                activities.count(pattern[0])
                for _, (activities, _) in self.tables.iter_sequences()
            )
        chains = self._chain(pattern, partition, within=within, plan=plan)
        if within is None:
            return sum(len(trace_chains) for trace_chains in chains.values())
        return sum(
            1
            for trace_chains in chains.values()
            for chain in trace_chains
            if chain[-1] - chain[0] <= within
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
        pattern: Sequence[str],
        partition: str | None = "",
        plan: QueryPlan | None = None,
    ) -> list[str]:
        """Ids of traces containing ``pattern`` at least once.

        Short-circuits per trace: candidate traces are intersected from the
        pair index first, then each candidate stops at its first chain that
        survives every join step -- no match set is materialized.
        """
        if len(pattern) == 0:
            raise EmptyPatternError("cannot detect an empty pattern")
        if len(pattern) == 1:
            return sorted(
                trace_id
                for trace_id, (activities, _) in self.tables.iter_sequences()
                if pattern[0] in activities
            )
        if plan is None:
            plan = self.plan(pattern, partition)
            if 0 in plan.cardinalities:
                return []
        self._note_executed(plan)
        postings = _PlannedPostings(self, plan)
        survivors = self._intersect_candidates(plan, postings)
        if not survivors:
            return []
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

    # -- composite patterns (prune-then-verify) ----------------------------------

    def plan_pattern(
        self, pattern: Pattern, partition: str | None = ""
    ) -> PatternPlan:
        """Build the pruning plan for a composite-pattern query.

        Each adjacency of *positive* elements becomes one pruning group
        holding every branch pair of the two elements' alternation sets;
        the group's cardinality is the sum of its branch-pair ``Count``
        entries (alternation cardinality is additive).  Negated elements
        are skipped entirely -- a forbidden pair with zero count must not
        prune the query -- and Kleene elements prune like their plain
        selves (a single occurrence satisfies ``+``, so only the base
        pair is required).  Groups intersect cheapest-first under the
        planner, exactly like pair posting lists in :meth:`plan`.
        """
        span = current_tracer().span("plan")
        with span:
            groups = self.pattern_groups(pattern)
            flat = tuple(pair for group in groups for pair in group)
            flat_cards = self._cardinalities(flat) if flat else ()
            cardinalities: list[int] = []
            offset = 0
            for group in groups:
                cardinalities.append(sum(flat_cards[offset : offset + len(group)]))
                offset += len(group)
            natural = tuple(range(len(groups)))
            if self.planner_enabled:
                order = tuple(
                    sorted(natural, key=lambda i: (cardinalities[i], i))
                )
            else:
                order = natural
            if span.enabled:
                span.add("groups", len(groups))
                span.add("min_cardinality", min(cardinalities, default=0))
            return PatternPlan(
                pattern=pattern,
                groups=tuple(groups),
                cardinalities=tuple(cardinalities),
                order=order,
                reordered=order != natural,
                negated=tuple(str(e) for e in pattern.elements if e.negated),
                partition=partition,
            )

    def pattern_groups(
        self, pattern: Pattern
    ) -> tuple[tuple[tuple[str, str], ...], ...]:
        """The pruning groups of ``pattern`` (deterministic, plan-free)."""
        elements = pattern.elements
        positives = pattern.positive_indices
        return tuple(
            tuple(
                (a, b)
                for a in elements[left].types
                for b in elements[right].types
            )
            for left, right in zip(positives, positives[1:])
        )

    def plan_pattern_from_cardinalities(
        self,
        pattern: Pattern,
        cardinalities: Sequence[int],
        partition: str | None = "",
    ) -> PatternPlan:
        """Build a composite plan from externally merged group cardinalities."""
        groups = self.pattern_groups(pattern)
        if len(cardinalities) != len(groups):
            raise ValueError("need one cardinality per pruning group")
        cards = tuple(int(c) for c in cardinalities)
        natural = tuple(range(len(groups)))
        if self.planner_enabled:
            order = tuple(sorted(natural, key=lambda i: (cards[i], i)))
        else:
            order = natural
        return PatternPlan(
            pattern=pattern,
            groups=groups,
            cardinalities=cards,
            order=order,
            reordered=order != natural,
            negated=tuple(str(e) for e in pattern.elements if e.negated),
            partition=partition,
        )

    def detect_pattern(
        self,
        pattern: Pattern,
        partition: str | None = "",
        max_matches: int | None = None,
        plan: PatternPlan | None = None,
    ) -> list[PatternMatch]:
        """All matches of a composite ``pattern`` (STNM-greedy semantics).

        The pair index prunes: a zero-cardinality *positive* adjacency
        proves the result empty before any posting list is read, and the
        surviving groups' trace sets are intersected cheapest-first.
        Candidates are then verified against their stored sequences with
        :func:`repro.core.pattern.find_matches`, enforcing windows and
        negations from the indexed timestamps.  Semantics match the SASE
        oracle (:class:`repro.baselines.sase.nfa.PatternNfa`) exactly --
        the differential suite holds the two paths byte-identical.
        """
        if plan is None:
            plan = self.plan_pattern(pattern, partition)
            if plan.groups and 0 in plan.cardinalities:
                return []
        self._note_executed(plan)
        candidates = self._pattern_candidates(plan)
        if candidates is not None and not candidates:
            return []
        span = current_tracer().span("verify")
        with span:
            matches: list[PatternMatch] = []
            scanned = 0
            for trace_id, (activities, stamps) in self._candidate_sequences(candidates):
                budget = None if max_matches is None else max_matches - len(matches)
                if budget is not None and budget <= 0:
                    break
                for span_ts in find_matches(activities, stamps, pattern, budget):
                    matches.append(PatternMatch(trace_id, span_ts))
                scanned += 1
            if span.enabled:
                span.add("traces", scanned)
                span.add("matches", len(matches))
            return matches

    def count_pattern(
        self,
        pattern: Pattern,
        partition: str | None = "",
        plan: PatternPlan | None = None,
    ) -> int:
        """Number of matches of a composite ``pattern``.

        Same pruning as :meth:`detect_pattern`; no
        :class:`PatternMatch` is materialized per completion, and a
        zero-cardinality positive group short-circuits before any trace
        sequence is fetched.
        """
        if plan is None:
            plan = self.plan_pattern(pattern, partition)
            if plan.groups and 0 in plan.cardinalities:
                return 0
        self._note_executed(plan)
        candidates = self._pattern_candidates(plan)
        if candidates is not None and not candidates:
            return 0
        total = 0
        for _, (activities, stamps) in self._candidate_sequences(candidates):
            total += len(find_matches(activities, stamps, pattern))
        return total

    def contains_pattern(
        self,
        pattern: Pattern,
        partition: str | None = "",
        plan: PatternPlan | None = None,
    ) -> list[str]:
        """Ids of traces with at least one match of a composite ``pattern``.

        Short-circuits per trace at the first match that survives every
        window and negation check.
        """
        if plan is None:
            plan = self.plan_pattern(pattern, partition)
            if plan.groups and 0 in plan.cardinalities:
                return []
        self._note_executed(plan)
        candidates = self._pattern_candidates(plan)
        if candidates is not None and not candidates:
            return []
        found: list[str] = []
        for trace_id, (activities, stamps) in self._candidate_sequences(candidates):
            if find_matches(activities, stamps, pattern, max_matches=1):
                found.append(trace_id)
        return found

    def _pattern_candidates(self, plan: PatternPlan) -> set[str] | None:
        """Traces surviving pair-index pruning; ``None`` = nothing to prune.

        Posting lists of every group pair are fetched in one batched read
        (through the decoded-postings cache where attached), each group's
        trace set is the union of its branch pairs' chunk dictionaries
        (alternation) -- no column is decoded -- and groups intersect in
        plan order, cheapest first, with an empty-set early exit.
        """
        if not plan.groups:
            return None
        postings = self._fetch_postings(
            [pair for group in plan.groups for pair in group], plan.partition
        )
        span = current_tracer().span("intersect")
        with span:
            survivors: set[str] | None = None
            for idx in plan.order:
                traces: set[str] = set()
                for pair in plan.groups[idx]:
                    traces |= postings[pair].trace_ids()
                survivors = traces if survivors is None else survivors & traces
                if not survivors:
                    survivors = set()
                    break
            result = survivors if survivors is not None else set()
            if span.enabled:
                span.add("sets", len(plan.groups))
                span.add("survivors", len(result))
            return result

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

    # -- internals ---------------------------------------------------------------------

    def _detect_single(self, activity: str) -> list[PatternMatch]:
        """Length-1 patterns: scan the Seq table (no pair exists to look up)."""
        matches: list[PatternMatch] = []
        for trace_id, (activities, stamps) in self.tables.iter_sequences():
            for act, ts in zip(activities, stamps):
                if act == activity:
                    matches.append(PatternMatch(trace_id, (ts,)))
        return matches

    def _chain(
        self,
        pattern: Sequence[str],
        partition: str | None,
        within: float | None = None,
        plan: QueryPlan | None = None,
    ) -> dict[str, list[Chain]]:
        """Algorithm 2: join consecutive pair entries on shared timestamps."""
        if not self.planner_enabled and plan is None:
            return self._chain_left_to_right(pattern, partition)
        return self._chain_planned(pattern, partition, within=within, plan=plan)

    def _note_executed(self, plan: QueryPlan) -> None:
        if plan.reordered:
            self._bump("planner_reorders")

    def _intersect_candidates(
        self, plan: QueryPlan, postings: _PlannedPostings
    ) -> set[str]:
        """Traces holding every pair, intersected cheapest set first.

        Starting from the rarest pair's trace set keeps every intermediate
        intersection no larger than the smallest one seen so far, and an
        empty result aborts before any posting column is decoded.
        """
        span = current_tracer().span("intersect")
        with span:
            survivors: set[str] | None = None
            for i in sorted(
                range(len(plan.pairs)), key=lambda i: (plan.cardinalities[i], i)
            ):
                traces = postings.trace_set(i)
                survivors = traces if survivors is None else survivors & traces
                if not survivors:
                    survivors = set()
                    break
            result = survivors or set()
            if span.enabled:
                span.add("sets", len(plan.pairs))
                span.add("survivors", len(result))
            return result

    def _chain_planned(
        self,
        pattern: Sequence[str],
        partition: str | None,
        within: float | None = None,
        plan: QueryPlan | None = None,
    ) -> dict[str, list[Chain]]:
        """Planner execution: rarest pair first, bidirectional extension.

        Produces exactly the left-to-right result (greedy non-overlapping
        pairs make both endpoints of a completion unique within a trace, so
        chains extend uniquely in either direction); each trace's chains are
        sorted, which is the order left-to-right evaluation emits.
        """
        if plan is None:
            plan = self.plan(pattern, partition)
            if 0 in plan.cardinalities:
                # Count is global and exact: a zero-cardinality pair has no
                # postings in any partition, so the chain is dead on arrival.
                return {}
        self._note_executed(plan)
        postings = _PlannedPostings(self, plan, within=within)
        survivors = self._intersect_candidates(plan, postings)
        if not survivors:
            return {}
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
            return self._chain_left_to_right_inner(pattern, partition, snapshots)

    def _chain_left_to_right_inner(
        self,
        pattern: Sequence[str],
        partition: str | None,
        snapshots: dict[int, list[PatternMatch]] | None = None,
    ) -> dict[str, list[Chain]]:
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

    def _detect_stam(
        self,
        pattern: Sequence[str],
        partition: str | None,
        max_matches: int | None,
    ) -> list[PatternMatch]:
        """Skip-till-any-match via index pruning + per-trace enumeration."""
        candidates = self._candidate_traces(pattern, partition)
        matches: list[PatternMatch] = []
        for trace_id, (activities, stamps) in self._candidate_sequences(candidates):
            budget = None if max_matches is None else max_matches - len(matches)
            for chain in _enumerate_stam(activities, stamps, pattern, budget):
                matches.append(PatternMatch(trace_id, chain))
            if max_matches is not None and len(matches) >= max_matches:
                break
        return matches

    def _candidate_traces(
        self, pattern: Sequence[str], partition: str | None
    ) -> list[str]:
        """Traces containing every consecutive pair of the pattern.

        Sound for STAM pruning: if a trace holds a STAM match then each
        consecutive pair occurs in order, so the greedy STNM index has an
        entry for it.  Posting lists are fetched in one batch and the
        intersection runs cheapest set first with early exit.
        """
        if len(pattern) == 1:
            return sorted({m.trace_id for m in self._detect_single(pattern[0])})
        plan = self.plan(pattern, partition)
        if 0 in plan.cardinalities:
            return []
        postings = _PlannedPostings(self, plan)
        return sorted(self._intersect_candidates(plan, postings))


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
