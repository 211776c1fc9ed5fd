"""Result types returned by the query processor."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.pattern import Pattern


@dataclass(frozen=True)
class PatternMatch:
    """One completion of a query pattern inside one trace.

    ``timestamps[i]`` is when the pattern's ``i``-th event occurred; the
    by-product sub-pattern detections of Algorithm 2 are matches whose
    ``timestamps`` tuple is shorter than the query.
    """

    trace_id: str
    timestamps: tuple[float, ...]

    @property
    def start(self) -> float:
        return self.timestamps[0]

    @property
    def end(self) -> float:
        return self.timestamps[-1]

    @property
    def duration(self) -> float:
        """End-to-end time spanned by the match."""
        return self.timestamps[-1] - self.timestamps[0]

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class PairStats:
    """Statistics-query row for one consecutive pattern pair (§3.2.1).

    Mirrors the ``Count`` table entry plus the ``LastChecked`` lookup: how
    often the pair completed, the summed and average gap between its two
    events, and the most recent completion timestamp.
    """

    pair: tuple[str, str]
    completions: int
    total_duration: float
    last_completion: float | None

    @property
    def average_duration(self) -> float:
        """Mean gap between the pair's events; 0.0 when never completed."""
        if self.completions == 0:
            return 0.0
        return self.total_duration / self.completions


@dataclass(frozen=True)
class PatternStats:
    """Aggregate statistics for a whole pattern, derived from pair rows.

    ``pairs`` holds the consecutive-pair rows; ``extra_pairs`` optionally
    holds the non-adjacent pattern pairs (the paper's §3.2.1 note that the
    completions bound tightens "if all pairs in the pattern are considered
    instead of the consecutive ones only", trading query time for
    accuracy).  ``max_completions`` is the minimum count over every
    available row; ``estimated_duration`` sums the *consecutive* average
    durations only, since non-adjacent gaps overlap them.

    A faithfulness caveat: with only consecutive pairs the bound is a
    *sound* upper bound of Algorithm 2's completion count (each chained
    completion consumes a distinct consecutive-pair entry).  Including
    non-adjacent pairs -- as the paper proposes -- tightens it
    heuristically, but greedy non-overlapping matching can give a
    non-adjacent pair *fewer* entries than there are chains (trace
    ``B A B C A C``: two B,A,C chains, one greedy (B,C) pair), so the
    tightened figure is an estimate, not a guarantee.
    """

    pattern: tuple[str, ...]
    pairs: tuple[PairStats, ...]
    extra_pairs: tuple[PairStats, ...] = ()

    @property
    def max_completions(self) -> int:
        rows = self.pairs + self.extra_pairs
        if not rows:
            return 0
        return min(stat.completions for stat in rows)

    @property
    def estimated_duration(self) -> float:
        return sum(stat.average_duration for stat in self.pairs)

    @property
    def last_completion(self) -> float | None:
        stamps = [s.last_completion for s in self.pairs if s.last_completion is not None]
        return max(stamps) if stamps else None


@dataclass(frozen=True)
class ContinuationProposal:
    """One candidate next event for a pattern, with its ranking inputs.

    ``exact`` records whether ``completions``/``average_duration`` came from
    full pattern detection (Accurate) or from the pairwise upper bound
    (Fast).  ``score`` implements Equation (1):
    ``total_completions / average_duration``; a zero average duration (all
    completions instantaneous) scores ``+inf`` so it sorts first, and zero
    completions score 0.
    """

    event: str
    completions: int
    average_duration: float
    exact: bool
    matches: tuple[PatternMatch, ...] = field(default=(), repr=False)

    @property
    def score(self) -> float:
        if self.completions == 0:
            return 0.0
        if self.average_duration == 0:
            return math.inf
        return self.completions / self.average_duration


@dataclass(frozen=True)
class QueryPlan:
    """How the query processor decided to execute one query.

    Every query runs the same stages -- ``fetch_postings -> plan ->
    intersect`` and then one *finisher* -- so there is one plan type.
    ``groups[i]`` holds the index pairs of the ``i``-th adjacency of
    *positive* pattern elements: one pair per combination of the two
    elements' alternation branches, so a plain sequence is the case where
    every group holds exactly one pair.  ``cardinalities[i]`` is the **sum
    of the group's branch-pair entry counts** in the fetched posting lists
    of the partition queried (summed over shards on a sharded engine):
    exact, and equal to the ``Count`` table's figure over the whole store,
    because greedy non-overlapping matching inserts one Count increment per
    indexed pair entry; an upper bound on the traces holding the
    adjacency.  Every group is a positive requirement, so a group with
    cardinality zero proves the whole query empty.  Negated elements never
    prune (a zero-count forbidden pair would otherwise wrongly empty the
    query); they appear only in ``negated``, for display.

    ``finisher`` is what runs on the traces that survive the intersection,
    selected by the input:

    * ``"join"`` -- a list of activities: the Algorithm 2 chain join over
      the fetched postings.  ``order`` is the join order: it starts at the
      rarest pair and extends to adjacent pairs, cheapest side first, so the
      intermediate chain set is never larger than the rarest posting list.
    * ``"verify"`` -- a :class:`~repro.core.pattern.Pattern`:
      :func:`~repro.core.pattern.find_matches` over each survivor's stored
      sequence.  ``order`` is the pruning order, cheapest group first.
    * ``"enumerate"`` -- a list under ``Policy.STAM``, or a single activity
      (one event has no pair, and every policy agrees on it): exhaustive
      per-trace enumeration, pruned like ``"verify"``.

    ``reordered`` is ``False`` when ``order`` coincides with left-to-right
    evaluation.
    """

    pattern: tuple[str, ...] | Pattern
    finisher: str
    groups: tuple[tuple[tuple[str, str], ...], ...]
    cardinalities: tuple[int, ...]
    order: tuple[int, ...]
    reordered: bool
    negated: tuple[str, ...] = ()

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        """Every index pair the plan reads (a plain sequence's consecutive pairs)."""
        return tuple(pair for group in self.groups for pair in group)

    @property
    def estimated_cost(self) -> int:
        """Planner cost proxy: the rarest group bounds the candidate set."""
        return min(self.cardinalities, default=0)

    @property
    def proves_empty(self) -> bool:
        """True when some positive adjacency never completed in the
        partition queried."""
        return 0 in self.cardinalities

    def describe(self) -> str:
        """One line per step, for ``detect --explain`` output."""
        text = (
            str(self.pattern)
            if isinstance(self.pattern, Pattern)
            else ", ".join(self.pattern)
        )
        lines = [f"pattern {text}"]
        for step, idx in enumerate(self.order):
            branches = " | ".join(f"{a} -> {b}" for a, b in self.groups[idx])
            lines.append(
                f"step {step}: group {idx} ({branches}) "
                f"cardinality={self.cardinalities[idx]}"
            )
        if not self.groups:
            lines.append("no pair to prune with: full sequence scan")
        for name in self.negated:
            lines.append(f"negated element {name}: verification only, no pruning")
        lines.append(
            f"finisher={self.finisher} "
            f"order={'reordered' if self.reordered else 'left-to-right'} "
            f"bound={self.estimated_cost} completions"
        )
        return "\n".join(lines)


#: alias kept for symmetry with the paper's wording ("completions")
Completion = PatternMatch
