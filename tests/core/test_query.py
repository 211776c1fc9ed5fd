"""Query processor (§3.2.1): statistics, detection, STAM extension."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SequenceIndex
from repro.core.errors import DeadlineExceeded, EmptyPatternError
from repro.core.model import EventLog
from repro.core.pairs import reference_stnm_pairs
from repro.core.policies import Policy


def _index(log, policy=Policy.STNM):
    index = SequenceIndex(policy=policy)
    index.update(log)
    return index


def _oracle_chains(activities, timestamps, pattern):
    """Reference for Algorithm 2: chain greedy pairs on shared timestamps."""
    pairs = reference_stnm_pairs(activities, timestamps)
    chains = [list(p) for p in pairs.get((pattern[0], pattern[1]), [])]
    for i in range(1, len(pattern) - 1):
        step = {ta: tb for ta, tb in pairs.get((pattern[i], pattern[i + 1]), [])}
        chains = [
            chain + [step[chain[-1]]] for chain in chains if chain[-1] in step
        ]
    return sorted(tuple(chain) for chain in chains)


class TestDetection:
    def test_paper_example_stnm(self):
        index = _index(EventLog.from_dict({"t1": list("AAABAACB")}))
        matches = index.detect(["A", "A", "B"])
        assert [m.timestamps for m in matches] == [(2, 4, 7)]

    def test_paper_example_sc(self):
        index = _index(EventLog.from_dict({"t1": list("AAABAACB")}), Policy.SC)
        matches = index.detect(["A", "A", "B"])
        assert [m.timestamps for m in matches] == [(1, 2, 3)]

    def test_length_two_pattern(self, paper_log):
        index = _index(paper_log)
        matches = index.detect(["A", "B"])
        by_trace = {}
        for match in matches:
            by_trace.setdefault(match.trace_id, []).append(match.timestamps)
        assert by_trace["t1"] == [(0, 3), (4, 7)]
        assert by_trace["t2"] == [(0, 1)]
        assert "t3" not in by_trace  # B before A only

    def test_single_event_pattern(self, paper_log):
        index = _index(paper_log)
        matches = index.detect(["C"])
        assert sorted((m.trace_id, m.timestamps) for m in matches) == [
            ("t1", (6,)),
            ("t2", (2,)),
            ("t3", (0,)),
        ]

    def test_no_match(self, paper_log):
        index = _index(paper_log)
        assert index.detect(["C", "A", "C"]) == []
        assert index.detect(["Z", "Q"]) == []

    def test_empty_pattern_rejected(self, paper_log):
        index = _index(paper_log)
        with pytest.raises(EmptyPatternError):
            index.detect([])

    def test_contains(self, paper_log):
        index = _index(paper_log)
        assert index.contains(["A", "B"]) == ["t1", "t2"]
        assert index.contains(["B", "A"]) == ["t1", "t3"]

    def test_match_properties(self, paper_log):
        index = _index(paper_log)
        (match,) = [m for m in index.detect(["A", "B"]) if m.trace_id == "t2"]
        assert match.start == 0 and match.end == 1
        assert match.duration == 1
        assert len(match) == 2

    @given(
        st.lists(st.sampled_from("ABC"), min_size=2, max_size=40),
        st.lists(st.sampled_from("ABC"), min_size=2, max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_on_random_traces(self, activities, pattern):
        index = _index(EventLog.from_dict({"t": activities}))
        got = sorted(m.timestamps for m in index.detect(pattern))
        stamps = list(range(len(activities)))
        assert got == _oracle_chains(activities, stamps, pattern)

    def test_prefix_byproduct(self, paper_log):
        index = _index(paper_log)
        prefixes = index.detect_with_prefixes(["A", "B", "C"])
        assert set(prefixes) == {2, 3}
        assert {m.timestamps for m in prefixes[2]} == {(0, 3), (4, 7), (0, 1)}
        # t1: (A,B)=(0,3) chains with (B,C)=(3,6); t2: (0,1)+(1,2).
        assert {m.timestamps for m in prefixes[3]} == {(0, 3, 6), (0, 1, 2)}

    def test_prefix_requires_length_two(self, paper_log):
        index = _index(paper_log)
        with pytest.raises(EmptyPatternError):
            index.detect_with_prefixes(["A"])


class TestDeadline:
    def test_deadline_is_checked_between_stages(self, paper_log, monkeypatch):
        # The deadline passes while the postings are fetched: the query
        # stops at the next stage boundary, before the join starts.
        index = _index(paper_log)
        query = index.query
        fetch = query._fetch_postings

        def slow_fetch(pairs, partition):
            time.sleep(0.05)
            return fetch(pairs, partition)

        joined = []
        monkeypatch.setattr(query, "_fetch_postings", slow_fetch)
        monkeypatch.setattr(query, "_join", lambda *args: joined.append(args))
        with pytest.raises(DeadlineExceeded):
            query.detect(["A", "B"], deadline=time.monotonic() + 0.02)
        with pytest.raises(DeadlineExceeded):
            index.count(["A", "B"], deadline=time.monotonic() + 0.02)
        assert joined == []

    def test_a_deadline_in_the_future_changes_nothing(self, paper_log):
        index = _index(paper_log)
        late = time.monotonic() + 60.0
        assert index.detect(["A", "B"], deadline=late) == index.detect(["A", "B"])
        assert index.contains("SEQ(A, B)", deadline=late) == index.contains(["A", "B"])


class TestWithinAndCount:
    def test_within_filters_wide_matches(self, paper_log):
        index = _index(paper_log)
        all_matches = index.detect(["A", "B"])
        tight = index.detect(["A", "B"], within=1.0)
        assert {m.timestamps for m in tight} == {(0, 1)}
        assert len(tight) < len(all_matches)

    def test_within_zero_keeps_nothing_with_gaps(self, paper_log):
        index = _index(paper_log)
        assert index.detect(["A", "B"], within=0.0) == []

    def test_within_applies_to_stam(self, paper_log):
        index = _index(paper_log)
        stam = index.detect(["A", "B"], policy=Policy.STAM, within=2.0)
        assert all(m.duration <= 2.0 for m in stam)
        assert stam  # (1,3),(2,3) style embeddings survive

    def test_negative_within_rejected(self, paper_log):
        index = _index(paper_log)
        with pytest.raises(ValueError):
            index.detect(["A", "B"], within=-1.0)

    def test_count_matches_detect(self, paper_log):
        index = _index(paper_log)
        assert index.count(["A", "B"]) == len(index.detect(["A", "B"]))
        assert index.count(["A", "B"], within=1.0) == 1
        assert index.count(["Z", "Z"]) == 0


class TestStatistics:
    def test_pairwise_rows(self, paper_log):
        index = _index(paper_log)
        stats = index.statistics(["A", "B", "C"])
        assert [row.pair for row in stats.pairs] == [("A", "B"), ("B", "C")]
        ab = stats.pairs[0]
        assert ab.completions == 3  # (0,3),(4,7) in t1 and (0,1) in t2
        assert ab.total_duration == 3 + 3 + 1
        assert ab.average_duration == pytest.approx(7 / 3)
        assert ab.last_completion == 7

    def test_aggregates(self, paper_log):
        index = _index(paper_log)
        stats = index.statistics(["A", "B", "C"])
        # (B,C): (3,6) in t1 and (1,2) in t2 -> 2 completions, avg 2.0.
        assert stats.pairs[1].completions == 2
        assert stats.max_completions == 2
        assert stats.estimated_duration == pytest.approx(7 / 3 + 2.0)
        assert stats.last_completion == 7

    def test_unknown_pair_zeroes(self, paper_log):
        index = _index(paper_log)
        stats = index.statistics(["Z", "Q"])
        assert stats.pairs[0].completions == 0
        assert stats.pairs[0].average_duration == 0.0
        assert stats.max_completions == 0

    def test_requires_two_events(self, paper_log):
        index = _index(paper_log)
        with pytest.raises(EmptyPatternError):
            index.statistics(["A"])

    def test_all_pairs_tightens_bound(self, paper_log):
        index = _index(paper_log)
        # Pattern B -> A -> C: consecutive pairs both complete, but the
        # non-adjacent pair (B, C) only completes where B precedes C.
        loose = index.statistics(["B", "A", "C"])
        tight = index.statistics(["B", "A", "C"], all_pairs=True)
        assert tight.extra_pairs and tight.extra_pairs[0].pair == ("B", "C")
        assert tight.max_completions <= loose.max_completions

    def test_consecutive_bound_is_sound(self, paper_log):
        """The consecutive-pair minimum always dominates true completions."""
        index = _index(paper_log)
        for pattern in (["A", "B"], ["A", "B", "C"], ["B", "A", "C"]):
            bound = index.statistics(pattern).max_completions
            assert len(index.detect(pattern)) <= bound, pattern

    def test_all_pairs_bound_is_heuristic(self):
        """The §3.2.1 all-pairs tightening can undercut true completions.

        Documents the caveat on PatternStats: trace B A B C A C has two
        chained B,A,C completions but a single greedy (B,C) pair.
        """
        index = _index(EventLog.from_dict({"t": list("BABCAC")}))
        completions = len(index.detect(["B", "A", "C"]))
        assert completions == 2
        tight = index.statistics(["B", "A", "C"], all_pairs=True)
        assert tight.max_completions == 1  # heuristic bound undercounts
        loose = index.statistics(["B", "A", "C"])
        assert loose.max_completions >= completions  # sound bound holds

    def test_all_pairs_duration_estimate_unchanged(self, paper_log):
        index = _index(paper_log)
        loose = index.statistics(["A", "B", "C"])
        tight = index.statistics(["A", "B", "C"], all_pairs=True)
        assert loose.estimated_duration == tight.estimated_duration


class TestStam:
    def test_counts_all_embeddings(self):
        index = _index(EventLog.from_dict({"t": list("AAB")}))
        matches = index.detect(["A", "B"], policy=Policy.STAM)
        assert sorted(m.timestamps for m in matches) == [(0, 2), (1, 2)]

    def test_detects_patterns_the_pair_join_misses(self):
        # AAB in trace AAB: the printed Algorithm 2 finds nothing (the
        # (A,B) greedy pair anchors at the first A), STAM finds it.
        index = _index(EventLog.from_dict({"t": list("AAB")}))
        assert index.detect(["A", "A", "B"]) == []
        stam = index.detect(["A", "A", "B"], policy=Policy.STAM)
        assert [m.timestamps for m in stam] == [(0, 1, 2)]

    def test_max_matches_cap(self):
        index = _index(EventLog.from_dict({"t": list("AAAABBBB")}))
        capped = index.detect(["A", "B"], policy=Policy.STAM, max_matches=5)
        assert len(capped) == 5
        full = index.detect(["A", "B"], policy=Policy.STAM)
        assert len(full) == 16

    def test_stam_single_event(self, paper_log):
        index = _index(paper_log)
        stam = index.detect(["C"], policy=Policy.STAM)
        assert len(stam) == 3

    def test_stam_agrees_with_sase(self, paper_log):
        from repro.baselines.sase import SaseEngine

        index = _index(paper_log)
        sase = SaseEngine(paper_log)
        for pattern in (["A", "B"], ["A", "A", "B"], ["B", "C"], ["A", "B", "C"]):
            ours = sorted(
                (m.trace_id, m.timestamps)
                for m in index.detect(pattern, policy=Policy.STAM)
            )
            theirs = sorted(
                (m.trace_id, m.timestamps)
                for m in sase.query(pattern, strategy=Policy.STAM)
            )
            assert ours == theirs, pattern
