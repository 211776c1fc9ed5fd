"""Pattern continuation (§3.2.2): Accurate / Fast / Hybrid and Equation 1."""

from __future__ import annotations

import math

import pytest

from repro.core.engine import SequenceIndex
from repro.core.errors import EmptyPatternError
from repro.core.matches import ContinuationProposal
from repro.core.model import Event, EventLog
from repro.core.policies import Policy
from tests.temp_store import TempStore


@pytest.fixture
def index(paper_log):
    idx = SequenceIndex(policy=Policy.STNM)
    idx.update(paper_log)
    return idx


class TestScoring:
    def test_equation_one(self):
        proposal = ContinuationProposal("X", completions=10, average_duration=2.0, exact=True)
        assert proposal.score == 5.0

    def test_zero_duration_scores_infinite(self):
        proposal = ContinuationProposal("X", 3, 0.0, True)
        assert math.isinf(proposal.score)

    def test_zero_completions_scores_zero(self):
        proposal = ContinuationProposal("X", 0, 0.0, True)
        assert proposal.score == 0.0


class TestAccurate:
    def test_counts_are_exact_detections(self, index):
        proposals = index.continuations(["A", "B"], mode="accurate")
        by_event = {p.event: p for p in proposals}
        # A,B -> C completes in t1 via (0,3,6)? (B,C)=(3,6) chains, and in
        # t2 via (0,1,2): check against detect().
        assert by_event["C"].completions == len(index.detect(["A", "B", "C"]))
        for proposal in proposals:
            assert proposal.exact
            assert proposal.completions == len(index.detect(["A", "B", proposal.event]))

    def test_sorted_by_score(self, index):
        proposals = index.continuations(["A", "B"], mode="accurate")
        scores = [p.score for p in proposals]
        assert scores == sorted(scores, reverse=True)

    def test_within_constraint_filters(self, paper_log):
        idx = SequenceIndex(policy=Policy.STNM)
        idx.update(paper_log)
        loose = idx.explorer.accurate(["A"], within=None)
        tight = idx.explorer.accurate(["A"], within=0.5)
        loose_total = sum(p.completions for p in loose)
        tight_total = sum(p.completions for p in tight)
        assert tight_total <= loose_total

    def test_within_keeps_only_quick_followups(self):
        log = EventLog.from_dict({"t": ["A", "B"]})  # gap 1
        idx = SequenceIndex(policy=Policy.STNM)
        idx.update(log)
        assert idx.explorer.accurate(["A"], within=1.0)[0].completions == 1
        assert idx.explorer.accurate(["A"], within=0.5)[0].completions == 0

    def test_empty_pattern_rejected(self, index):
        with pytest.raises(EmptyPatternError):
            index.continuations([], mode="accurate")

    def test_unknown_last_event_no_candidates(self, index):
        assert index.continuations(["ZZZ"], mode="accurate") == []


class TestFast:
    def test_uses_pair_statistics(self, index):
        proposals = index.continuations(["A"], mode="fast")
        by_event = {p.event: p for p in proposals}
        # Count[A] rows: completions of (A, x) pairs across traces.
        assert by_event["B"].completions == 3
        assert not by_event["B"].exact

    def test_upper_bound_capped_by_pattern_pairs(self, index):
        # For pattern A->B, (A,B) completes 3 times; candidate completions
        # are capped at 3 even if the candidate pair is more frequent.
        proposals = index.continuations(["A", "B"], mode="fast")
        assert all(p.completions <= 3 for p in proposals)

    def test_fast_bounds_accurate(self, index):
        """Fast's counts are upper bounds of Accurate's exact counts."""
        fast = {p.event: p for p in index.continuations(["A", "B"], mode="fast")}
        accurate = index.continuations(["A", "B"], mode="accurate")
        for proposal in accurate:
            assert proposal.completions <= fast[proposal.event].completions

    def test_single_event_pattern_no_cap(self, index):
        proposals = index.continuations(["A"], mode="fast")
        assert proposals  # no pairs to cap by; candidates returned as-is


class TestHybrid:
    def test_topk_zero_equals_fast(self, index):
        assert index.continuations(["A", "B"], mode="hybrid", top_k=0) == \
            index.continuations(["A", "B"], mode="fast")

    def test_full_topk_equals_accurate(self, index):
        fast = index.continuations(["A", "B"], mode="fast")
        hybrid = index.continuations(["A", "B"], mode="hybrid", top_k=len(fast))
        accurate = index.continuations(["A", "B"], mode="accurate")
        assert hybrid == accurate

    def test_returns_at_most_topk(self, index):
        hybrid = index.continuations(["A", "B"], mode="hybrid", top_k=1)
        assert len(hybrid) == 1
        assert hybrid[0].exact

    def test_negative_topk_rejected(self, index):
        with pytest.raises(ValueError):
            index.continuations(["A"], mode="hybrid", top_k=-1)

    def test_unknown_mode_rejected(self, index):
        with pytest.raises(ValueError):
            index.continuations(["A"], mode="psychic")


class TestRankingAccuracy:
    def test_identical_rankings_scoreone(self, index):
        reference = index.continuations(["A", "B"], mode="accurate")
        assert index.explorer.ranking_accuracy(reference, reference) == 1.0

    def test_empty_reference_is_perfect(self, index):
        assert index.explorer.ranking_accuracy([], []) == 1.0

    def test_partial_overlap(self):
        ref = [
            ContinuationProposal("a", 2, 1.0, True),
            ContinuationProposal("b", 1, 1.0, True),
        ]
        cand = [
            ContinuationProposal("a", 5, 1.0, False),
            ContinuationProposal("z", 4, 1.0, False),
        ]
        from repro.core.continuation import ContinuationExplorer

        assert ContinuationExplorer.ranking_accuracy(ref, cand) == 0.5

    def test_hybrid_accuracy_monotone_to_one(self, index):
        reference = index.continuations(["A", "B"], mode="accurate")
        alphabet = len(index.continuations(["A", "B"], mode="fast"))
        accuracies = [
            index.explorer.ranking_accuracy(
                reference, index.continuations(["A", "B"], mode="hybrid", top_k=k)
            )
            for k in range(alphabet + 1)
        ]
        assert accuracies[-1] == 1.0


class TestExploreAt:
    def test_append_position_equals_accurate(self, index):
        pattern = ["A", "B"]
        assert index.explore_at(pattern, len(pattern)) == index.continuations(
            pattern, mode="accurate"
        )

    def test_prepend_position(self, index):
        proposals = index.explore_at(["B", "C"], 0)
        by_event = {p.event: p for p in proposals}
        # A precedes B somewhere and A->B->C completes (t2 at least).
        assert by_event["A"].completions == len(index.detect(["A", "B", "C"]))

    def test_middle_insertion(self, index):
        proposals = index.explore_at(["A", "C"], 1)
        by_event = {p.event: p for p in proposals}
        assert "B" in by_event
        assert by_event["B"].completions == len(index.detect(["A", "B", "C"]))

    def test_candidates_require_both_neighbours(self, index):
        events = {p.event for p in index.explore_at(["A", "C"], 1)}
        # Candidate must follow A and precede C somewhere in the logs.
        followers = set(index.tables.get_counts("A"))
        predecessors = set(index.tables.get_reverse_counts("C"))
        assert events <= (followers & predecessors)

    def test_position_bounds(self, index):
        with pytest.raises(ValueError):
            index.explore_at(["A"], 5)
        with pytest.raises(EmptyPatternError):
            index.explore_at([], 0)


class TestCountRowReads:
    """The explorer reads Count / ReverseCount rows through the processor's
    per-generation cache: a row is fetched and decoded once per write
    generation, whoever asks (planner, Fast ranking, insertion candidates)."""

    class _RowReads(TempStore):
        def __init__(self):
            super().__init__()
            self.rows_read: list[tuple[str, str]] = []

        def get(self, table, key, default=None):
            if table in ("count", "reverse_count"):
                self.rows_read.append((table, key))
            return super().get(table, key, default)

        def multi_get(self, table, keys, default=None):
            keys = list(keys)
            if table in ("count", "reverse_count"):
                self.rows_read.extend((table, key) for key in keys)
            return super().multi_get(table, keys, default)

    def test_each_row_is_read_once_per_generation(self, paper_log):
        store = self._RowReads()
        index = SequenceIndex(store)
        index.update(paper_log)
        fresh = SequenceIndex(policy=Policy.STNM)
        fresh.update(paper_log)

        def explore(engine):
            return (
                engine.continuations(["A", "B"], mode="hybrid", top_k=2),
                engine.continuations(["B", "A"], mode="fast"),
                engine.continuations(["A", "B"], mode="accurate"),
                engine.explore_at(["A", "C"], 1),
                engine.explore_at(["B"], 0),
            )

        first = explore(index)
        assert first == explore(fresh)
        assert len(store.rows_read) == len(set(store.rows_read))  # no row twice
        assert {table for table, _ in store.rows_read} == {"count", "reverse_count"}
        read = len(store.rows_read)
        assert explore(index) == first
        assert len(store.rows_read) == read  # all from the cache now

        index.update([Event("t9", "A", 1000), Event("t9", "D", 1001)])
        after = index.continuations(["A"], mode="fast")
        assert "D" in {p.event for p in after}  # the new generation's row
        assert store.rows_read[read:] == [("count", "A")]
