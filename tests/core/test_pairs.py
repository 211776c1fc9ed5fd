"""Pair-creation semantics (§4): the Table 3 example, flavor equivalence,
and the incremental-matching primitive."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pairs import (
    create_pairs,
    greedy_pair_match,
    indexing_pairs,
    occurrence_lists,
    pairs_completed_after,
    parsing_pairs,
    reference_stnm_pairs,
    state_pairs,
    strict_pairs,
)
from repro.core.policies import PairMethod

STNM_FLAVORS = (indexing_pairs, parsing_pairs, state_pairs)

traces = st.lists(
    st.sampled_from("ABCDEFGH"), max_size=60
).map(lambda acts: (acts, list(range(len(acts)))))


class TestTable3Example:
    """The paper's exact example: trace <(A,1),(A,2),(B,3),(A,4),(B,5),(A,6)>."""

    STNM_EXPECTED = {
        ("A", "A"): [(1, 2), (4, 6)],
        ("B", "A"): [(3, 4), (5, 6)],
        ("B", "B"): [(3, 5)],
        ("A", "B"): [(1, 3), (4, 5)],
    }

    def test_sc_pairs(self, table3_trace):
        acts, stamps = table3_trace
        pairs = strict_pairs(acts, stamps)
        assert pairs[("A", "A")] == [(1, 2)]
        assert pairs[("A", "B")] == [(2, 3), (4, 5)]
        # Table 3 prints (3,4),(4,5) for SC (B,A); consecutive scanning of
        # the trace gives (3,4),(5,6) -- we implement the definition.
        assert pairs[("B", "A")] == [(3, 4), (5, 6)]
        assert ("B", "B") not in pairs

    @pytest.mark.parametrize("flavor", STNM_FLAVORS, ids=lambda f: f.__name__)
    def test_stnm_pairs(self, flavor, table3_trace):
        acts, stamps = table3_trace
        assert flavor(acts, stamps) == self.STNM_EXPECTED

    def test_stnm_skips_overlapping_anchor(self, table3_trace):
        """The paper: '(A,B) ... only the (1,3) pair ... and not (2,3)'."""
        acts, stamps = table3_trace
        assert (2, 3) not in indexing_pairs(acts, stamps)[("A", "B")]


class TestFlavorEquivalence:
    @given(traces)
    @settings(max_examples=300, deadline=None)
    def test_all_flavors_match_reference(self, trace):
        acts, stamps = trace
        expected = reference_stnm_pairs(acts, stamps)
        for flavor in STNM_FLAVORS:
            assert flavor(acts, stamps) == expected

    @given(traces)
    @settings(max_examples=100, deadline=None)
    def test_pairs_are_non_overlapping_per_type_pair(self, trace):
        acts, stamps = trace
        for (a, b), ts_pairs in indexing_pairs(acts, stamps).items():
            previous_end = None
            for ts_a, ts_b in ts_pairs:
                assert ts_a < ts_b
                if previous_end is not None:
                    assert ts_a > previous_end
                previous_end = ts_b

    @given(traces)
    @settings(max_examples=100, deadline=None)
    def test_sc_pairs_equal_zip(self, trace):
        acts, stamps = trace
        pairs = strict_pairs(acts, stamps)
        rebuilt = []
        for (a, b), ts_pairs in pairs.items():
            rebuilt.extend((ta, a, tb, b) for ta, tb in ts_pairs)
        rebuilt.sort()
        expected = [
            (stamps[i], acts[i], stamps[i + 1], acts[i + 1])
            for i in range(len(acts) - 1)
        ]
        assert rebuilt == sorted(expected)

    @given(traces)
    @settings(max_examples=50, deadline=None)
    def test_sc_pairs_subset_of_stnm_trace_presence(self, trace):
        """Any SC pair type occurring implies the STNM index has that type."""
        acts, stamps = trace
        sc = strict_pairs(acts, stamps)
        stnm = indexing_pairs(acts, stamps)
        assert set(sc) <= set(stnm)


class TestCreatePairsDispatch:
    def test_dispatch(self, table3_trace):
        acts, stamps = table3_trace
        assert create_pairs(acts, stamps, PairMethod.STRICT) == strict_pairs(acts, stamps)
        assert create_pairs(acts, stamps, PairMethod.INDEXING) == indexing_pairs(acts, stamps)
        assert create_pairs(acts, stamps, PairMethod.PARSING) == parsing_pairs(acts, stamps)
        assert create_pairs(acts, stamps, PairMethod.STATE) == state_pairs(acts, stamps)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            create_pairs(["A"], [1, 2])

    def test_empty_trace(self):
        for method in PairMethod:
            assert create_pairs([], [], method) == {}

    def test_single_event(self):
        for method in PairMethod:
            assert create_pairs(["A"], [1], method) == {}


class TestGreedyMatch:
    def test_same_type_pairs_consecutive(self):
        assert greedy_pair_match([1, 2, 3, 4, 5], [], True) == [(1, 2), (3, 4)]

    def test_cross_type(self):
        assert greedy_pair_match([1, 4], [2, 3, 5], False) == [(1, 2), (4, 5)]

    def test_no_match_after_anchor(self):
        assert greedy_pair_match([5], [1, 2], False) == []

    def test_empty_lists(self):
        assert greedy_pair_match([], [1], False) == []
        assert greedy_pair_match([1], [], False) == []


class TestPairsAfter:
    """``pairs_completed_after``: the matches of ``old + new`` past the old tail."""

    def test_matches_full_when_unbounded(self):
        occ = occurrence_lists(list("ABAB"), [1, 2, 3, 4])
        assert pairs_completed_after(occ, 0) == indexing_pairs(list("ABAB"), [1, 2, 3, 4])

    def test_filters_by_timestamp(self):
        occ = occurrence_lists(list("ABAB"), [1, 2, 3, 4])
        assert pairs_completed_after(occ, 2)[("A", "B")] == [(3, 4)]
        assert pairs_completed_after(occ, 4) == {}

    def test_same_type_after(self):
        occ = occurrence_lists(list("AAAA"), [1, 2, 3, 4])
        assert pairs_completed_after(occ, 0) == {("A", "A"): [(1, 2), (3, 4)]}
        assert pairs_completed_after(occ, 2) == {("A", "A"): [(3, 4)]}
        # An odd old prefix leaves an open A that the first new A closes.
        assert pairs_completed_after(occ, 3) == {("A", "A"): [(3, 4)]}

    def test_missing_types(self):
        # A type with no occurrence after the tail is never a second type,
        # and a first type with no occurrence before the completion no match.
        occ = occurrence_lists(list("ABC"), [1, 2, 3])
        assert pairs_completed_after(occ, 2) == {("A", "C"): [(1, 3)], ("B", "C"): [(2, 3)]}
        assert pairs_completed_after(occurrence_lists(list("A"), [1]), 0) == {}

    @given(traces, st.integers(0, 60))
    @settings(max_examples=150, deadline=None)
    def test_incremental_equals_suffix_rerun(self, trace, cut):
        """Pairs completed after a cut == what a full re-run adds to the prefix's.

        This is the property Algorithm 1's correctness rests on: greedy
        matching is prefix-stable, so the pairs of the whole trace split at
        any cut into the pairs of the prefix and the ones completing after it.
        """
        acts, stamps = trace
        cut = min(cut, len(acts))
        if cut == 0:
            return
        before = reference_stnm_pairs(acts[:cut], stamps[:cut])
        gained = pairs_completed_after(occurrence_lists(acts, stamps), stamps[cut - 1])
        assert all(gained.values())
        merged = {pair: list(matches) for pair, matches in before.items()}
        for pair, matches in gained.items():
            merged.setdefault(pair, []).extend(matches)
        assert merged == reference_stnm_pairs(acts, stamps)
