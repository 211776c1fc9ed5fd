"""Pattern-continuation exploration (§3.2.2, Algorithms 3-5).

Given a pattern, propose the events most likely to extend it, ranked by the
paper's Equation (1): ``score = total_completions / average_duration``.

* :meth:`ContinuationExplorer.accurate` (Algorithm 3) runs a full pattern
  detection for every candidate continuation -- exact counts and durations,
  cost grows with log size and alphabet.
* :meth:`ContinuationExplorer.fast` (Algorithm 4) uses only the pre-computed
  ``Count`` statistics -- approximate upper-bound counts, near-constant time.
* :meth:`ContinuationExplorer.hybrid` (Algorithm 5) ranks with Fast, then
  verifies only the top-K candidates with Accurate; ``top_k`` trades
  accuracy for response time (0 = Fast, alphabet size = Accurate).

Extension (§7): :meth:`ContinuationExplorer.explore_at` proposes an event to
*insert* at any position of the pattern, not only to append at the end.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.errors import EmptyPatternError
from repro.core.matches import ContinuationProposal, PatternMatch

#: ``{other event: (sum_duration, completions)}`` of one Count/ReverseCount key
#: (rows may be shared with a cache: the explorer only reads them)
CountRow = dict[str, tuple[float, int]]


def _sorted_proposals(
    proposals: list[ContinuationProposal],
) -> list[ContinuationProposal]:
    """Equation (1) ranking; ties broken by event name for determinism."""
    return sorted(proposals, key=lambda p: (-p.score, p.event))


class ContinuationExplorer:
    """Implements the three continuation-exploration alternatives.

    The explorer needs three things of an engine, and nothing else:
    ``detect(pattern, partition)`` for exact completions, and the ``Count``
    / ``ReverseCount`` rows of one event (``count_row(first)`` maps every
    follower of ``first`` to ``(sum_duration, completions)``,
    ``reverse_count_row(second)`` every predecessor of ``second``).  An
    engine hands in its detect and the rows summed across its shards.
    """

    def __init__(
        self,
        detect: Callable[[Sequence[str], "str | None"], list[PatternMatch]],
        count_row: Callable[[str], CountRow],
        reverse_count_row: Callable[[str], CountRow],
    ) -> None:
        self._detect = detect
        self._count_row = count_row
        self._reverse_count_row = reverse_count_row

    # -- Algorithm 3 ------------------------------------------------------------

    def accurate(
        self,
        pattern: Sequence[str],
        within: float | None = None,
        partition: str | None = "",
        keep_matches: bool = False,
        candidates: set[str] | None = None,
    ) -> list[ContinuationProposal]:
        """Exact continuation ranking: one detection per candidate event.

        ``within`` applies the paper's optional time constraint (line 7):
        completions whose gap between the pattern's last event and the
        appended event exceeds ``within`` are discarded.  ``candidates``
        restricts the evaluated events (Hybrid's shortlist); by default all
        events that ever follow the pattern's last event are checked.
        """
        if not pattern:
            raise EmptyPatternError("continuation needs a non-empty pattern")
        followers = self._count_row(pattern[-1])
        if candidates is None:
            evaluated = sorted(followers)
        else:
            evaluated = sorted(candidates & set(followers))
        proposals: list[ContinuationProposal] = []
        for event in evaluated:
            extended = list(pattern) + [event]
            matches = self._detect(extended, partition)
            if within is not None:
                matches = [
                    match
                    for match in matches
                    if match.timestamps[-1] - match.timestamps[-2] <= within
                ]
            completions = len(matches)
            if completions:
                total_gap = sum(
                    match.timestamps[-1] - match.timestamps[-2] for match in matches
                )
                average = total_gap / completions
            else:
                average = 0.0
            proposals.append(
                ContinuationProposal(
                    event=event,
                    completions=completions,
                    average_duration=average,
                    exact=True,
                    matches=tuple(matches) if keep_matches else (),
                )
            )
        return _sorted_proposals(proposals)

    # -- Algorithm 4 ---------------------------------------------------------------

    def fast(self, pattern: Sequence[str]) -> list[ContinuationProposal]:
        """Heuristic ranking from pre-computed pair statistics only."""
        if not pattern:
            raise EmptyPatternError("continuation needs a non-empty pattern")
        max_completions = None
        for first, second in zip(pattern, pattern[1:]):
            _, completions = self._count_row(first).get(second, (0.0, 0))
            if max_completions is None or completions < max_completions:
                max_completions = completions
        proposals: list[ContinuationProposal] = []
        for event, (total_duration, completions) in sorted(
            self._count_row(pattern[-1]).items()
        ):
            bounded = (
                completions
                if max_completions is None
                else min(max_completions, completions)
            )
            average = total_duration / completions if completions else 0.0
            proposals.append(
                ContinuationProposal(
                    event=event,
                    completions=bounded,
                    average_duration=average,
                    exact=False,
                )
            )
        return _sorted_proposals(proposals)

    # -- Algorithm 5 -----------------------------------------------------------------

    def hybrid(
        self,
        pattern: Sequence[str],
        top_k: int,
        within: float | None = None,
        partition: str | None = "",
    ) -> list[ContinuationProposal]:
        """Fast pre-ranking, Accurate verification of the top ``top_k``."""
        if top_k < 0:
            raise ValueError("top_k must be >= 0")
        fast_proposals = self.fast(pattern)
        if top_k == 0:
            return fast_proposals
        shortlist = {p.event for p in fast_proposals[:top_k]}
        verified = self.accurate(pattern, within, partition, candidates=shortlist)
        return _sorted_proposals(verified)

    # -- §7 extension: insertion at arbitrary positions ----------------------------------

    def explore_at(
        self,
        pattern: Sequence[str],
        position: int,
        partition: str | None = "",
    ) -> list[ContinuationProposal]:
        """Propose events to insert so they become ``pattern[position]``.

        ``position == len(pattern)`` appends (identical to Accurate);
        ``position == 0`` prepends.  Candidates must form an indexed pair
        with both neighbours, then each candidate is verified exactly.
        The reported duration is the average gap to the preceding event
        (or to the following event when prepending).
        """
        if not pattern:
            raise EmptyPatternError("continuation needs a non-empty pattern")
        if not 0 <= position <= len(pattern):
            raise ValueError(f"position must be within [0, {len(pattern)}]")
        if position == len(pattern):
            return self.accurate(pattern, partition=partition)
        if position == 0:
            candidates = set(self._reverse_count_row(pattern[0]))
        else:
            followers = set(self._count_row(pattern[position - 1]))
            predecessors = set(self._reverse_count_row(pattern[position]))
            candidates = followers & predecessors
        proposals: list[ContinuationProposal] = []
        gap_index = position if position > 0 else 1
        for event in sorted(candidates):
            extended = list(pattern)
            extended.insert(position, event)
            matches = self._detect(extended, partition)
            completions = len(matches)
            if completions:
                total_gap = sum(
                    match.timestamps[gap_index] - match.timestamps[gap_index - 1]
                    for match in matches
                )
                average = total_gap / completions
            else:
                average = 0.0
            proposals.append(
                ContinuationProposal(
                    event=event,
                    completions=completions,
                    average_duration=average,
                    exact=True,
                )
            )
        return _sorted_proposals(proposals)

    # -- accuracy metric used by the paper's Figure 7 -----------------------------------

    @staticmethod
    def ranking_accuracy(
        reference: list[ContinuationProposal],
        candidate: list[ContinuationProposal],
    ) -> float:
        """Fraction of reference events present in the candidate ranking.

        Matches §5.4.3: with ``k`` = number of propositions the Accurate
        method returns with a positive score, accuracy is the overlap of the
        candidate's top-``k`` events with those reference events.
        """
        reference_events = [p.event for p in reference if p.score > 0]
        if not reference_events:
            return 1.0
        top = {p.event for p in candidate[: len(reference_events)]}
        hits = sum(1 for event in reference_events if event in top)
        return hits / len(reference_events)
