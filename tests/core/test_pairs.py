"""Pair-creation semantics (§4): the Table 3 example, flavor equivalence,
the incremental matching of a known trace -- all on the column form the
flavors return -- and the folds' rows, which share no list with the trace."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pairs import (
    PAIR_FOLDS,
    create_pairs,
    fold_indexing_pairs,
    fold_strict_pairs,
    greedy_pair_match,
    indexing_pairs,
    parsing_pairs,
    reference_stnm_pairs,
    state_pairs,
    strict_pairs,
)
from repro.core.policies import Policy

STNM_FLAVORS = (indexing_pairs, parsing_pairs, state_pairs)
FLAVORS = (strict_pairs, *STNM_FLAVORS)


def columns_of(rows: dict) -> dict:
    """``{pair: [(ts_a, ts_b), ...]}`` as ``{pair: ([ts_a, ...], [ts_b, ...])}``."""
    return {pair: ([a for a, _ in matches], [b for _, b in matches]) for pair, matches in rows.items()}


def completed_after(acts, stamps, tail) -> dict:
    """The STNM completions of a known trace, indexed up to ``tail``, that
    the fold appends: as one-trace columns."""
    rows: dict = {}
    fold_indexing_pairs(acts, stamps, tail, 0, rows)
    return {pair: (row[1::3], row[2::3]) for pair, row in rows.items()}


def assert_well_formed(columns: dict) -> None:
    """Parallel, non-empty, each completion forward in time and after the
    previous one of its pair."""
    for ts_a, ts_b in columns.values():
        assert isinstance(ts_a, list) and isinstance(ts_b, list)
        assert len(ts_a) == len(ts_b) > 0
        assert all(a < b for a, b in zip(ts_a, ts_b))
        assert all(end < start for end, start in zip(ts_b, ts_a[1:]))

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
        assert pairs[("A", "A")] == ([1], [2])
        assert pairs[("A", "B")] == ([2, 4], [3, 5])
        # Table 3 prints (3,4),(4,5) for SC (B,A); consecutive scanning of
        # the trace gives (3,4),(5,6) -- we implement the definition.
        assert pairs[("B", "A")] == ([3, 5], [4, 6])
        assert ("B", "B") not in pairs

    @pytest.mark.parametrize("flavor", STNM_FLAVORS, ids=lambda f: f.__name__)
    def test_stnm_pairs(self, flavor, table3_trace):
        acts, stamps = table3_trace
        assert flavor(acts, stamps) == columns_of(self.STNM_EXPECTED)

    def test_stnm_skips_overlapping_anchor(self, table3_trace):
        """The paper: '(A,B) ... only the (1,3) pair ... and not (2,3)'."""
        acts, stamps = table3_trace
        assert indexing_pairs(acts, stamps)[("A", "B")] == ([1, 4], [3, 5])


class TestFlavorEquivalence:
    @given(traces)
    @settings(max_examples=300, deadline=None)
    def test_all_flavors_match_reference(self, trace):
        acts, stamps = trace
        expected = columns_of(reference_stnm_pairs(acts, stamps))
        for flavor in STNM_FLAVORS:
            columns = flavor(acts, stamps)
            assert_well_formed(columns)
            assert columns == expected

    @given(traces)
    @settings(max_examples=100, deadline=None)
    def test_pairs_are_non_overlapping_per_type_pair(self, trace):
        acts, stamps = trace
        for flavor in STNM_FLAVORS:
            assert_well_formed(flavor(acts, stamps))
        # SC completions of one pair may touch ((A, A) in AAA), never cross
        for ts_a, ts_b in strict_pairs(acts, stamps).values():
            assert len(ts_a) == len(ts_b) > 0
            assert all(a < b for a, b in zip(ts_a, ts_b))
            assert all(end <= start for end, start in zip(ts_b, ts_a[1:]))

    @given(traces, st.sampled_from(FLAVORS))
    @settings(max_examples=100, deadline=None)
    def test_row_view_is_the_zipped_columns(self, trace, flavor):
        acts, stamps = trace
        policy = Policy.SC if flavor is strict_pairs else Policy.STNM
        columns = flavor(acts, stamps)
        rows = create_pairs(acts, stamps, policy)
        assert rows == {pair: list(zip(ts_a, ts_b)) for pair, (ts_a, ts_b) in columns.items()}
        if flavor in (strict_pairs, indexing_pairs):  # views of the folds
            assert list(rows) == list(columns)  # same emission order

    @given(traces)
    @settings(max_examples=100, deadline=None)
    def test_sc_pairs_equal_zip(self, trace):
        acts, stamps = trace
        pairs = strict_pairs(acts, stamps)
        rebuilt = []
        for (a, b), (ts_a, ts_b) in pairs.items():
            assert len(ts_a) == len(ts_b) > 0
            rebuilt.extend((ta, a, tb, b) for ta, tb in zip(ts_a, ts_b))
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
        assert PAIR_FOLDS == {Policy.SC: fold_strict_pairs, Policy.STNM: fold_indexing_pairs}
        assert create_pairs(acts, stamps, Policy.SC)[("A", "B")] == [(2, 3), (4, 5)]
        assert create_pairs(acts, stamps) == TestTable3Example.STNM_EXPECTED
        with pytest.raises(ValueError):
            create_pairs(acts, stamps, Policy.STAM)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            create_pairs(["A"], [1, 2])

    def test_empty_trace(self):
        for flavor in FLAVORS:
            assert flavor([], []) == {}

    def test_single_event(self):
        for flavor in FLAVORS:
            assert flavor(["A"], [1]) == {}


class TestGreedyMatch:
    def test_same_type_pairs_consecutive(self):
        assert greedy_pair_match([1, 2, 3, 4, 5], [], True) == ([1, 3], [2, 4])
        assert greedy_pair_match([1, 2, 3, 4], [], True) == ([1, 3], [2, 4])
        assert greedy_pair_match([1], [], True) == ([], [])

    def test_cross_type(self):
        assert greedy_pair_match([1, 4], [2, 3, 5], False) == ([1, 4], [2, 5])

    def test_no_match_after_anchor(self):
        assert greedy_pair_match([5], [1, 2], False) == ([], [])

    def test_empty_lists(self):
        assert greedy_pair_match([], [1], False) == ([], [])
        assert greedy_pair_match([1], [], False) == ([], [])

    def test_result_is_fresh(self):
        occ = [1, 2, 3, 4]
        ts_a, ts_b = greedy_pair_match(occ, occ, True)
        ts_a.append(9)
        ts_b.append(9)
        assert occ == [1, 2, 3, 4]


class TestPairsAfter:
    """A known trace: the matches of ``old + new`` past the old tail."""

    def test_matches_full_when_unbounded(self):
        assert completed_after(list("ABAB"), [1, 2, 3, 4], 0) == indexing_pairs(
            list("ABAB"), [1, 2, 3, 4]
        )

    def test_filters_by_timestamp(self):
        assert completed_after(list("ABAB"), [1, 2, 3, 4], 2)[("A", "B")] == ([3], [4])
        assert completed_after(list("ABAB"), [1, 2, 3, 4], 4) == {}

    def test_same_type_after(self):
        acts, stamps = list("AAAA"), [1, 2, 3, 4]
        assert completed_after(acts, stamps, 0) == {("A", "A"): ([1, 3], [2, 4])}
        assert completed_after(acts, stamps, 2) == {("A", "A"): ([3], [4])}
        # An odd old prefix leaves an open A that the first new A closes.
        assert completed_after(acts, stamps, 3) == {("A", "A"): ([3], [4])}

    def test_missing_types(self):
        # A type with no occurrence after the tail is never a second type,
        # and a first type with no occurrence before the completion no match.
        assert completed_after(list("ABC"), [1, 2, 3], 2) == {
            ("A", "C"): ([1], [3]),
            ("B", "C"): ([2], [3]),
        }
        assert completed_after(list("A"), [1], 0) == {}
        assert completed_after(list("ABBCB"), [1, 2, 3, 4, 5], 2) == {
            ("A", "C"): ([1], [4]),
            ("B", "B"): ([2], [3]),
            ("B", "C"): ([2], [4]),
            ("C", "B"): ([4], [5]),
        }

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
        gained = completed_after(acts, stamps, stamps[cut - 1])
        assert_well_formed(gained)
        merged = {pair: list(matches) for pair, matches in before.items()}
        for pair, (ts_a, ts_b) in gained.items():
            merged.setdefault(pair, []).extend(zip(ts_a, ts_b))
        assert merged == reference_stnm_pairs(acts, stamps)


class TestColumnSharing:
    """A fold copies every stamp into the update's own rows, so no result
    shares a list with another or with the trace it was computed from."""

    def test_no_column_is_shared(self):
        acts, stamps = list("ABCBD"), [1, 2, 3, 4, 5]
        columns = indexing_pairs(acts, stamps)
        lists = [column for pair in columns.values() for column in pair]
        assert len({id(column) for column in lists}) == len(lists)
        assert not any(column is stamps for column in lists)

    def test_row_view_builds_fresh_lists(self):
        rows = create_pairs(list("ABC"), [1, 2, 3])
        rows[("A", "B")].append((9, 9))
        assert rows[("A", "C")] == [(1, 3)]

    @given(traces, st.sampled_from(FLAVORS))
    @settings(max_examples=150, deadline=None)
    def test_aggregation_copies_out_of_the_columns(self, trace, flavor):
        """Folding one trace as three traces of an update: per pair, its
        completions once per position, and the trace's lists unmoved."""
        acts, stamps = trace
        pristine_acts, pristine_stamps = list(acts), list(stamps)
        columns = flavor(acts, stamps)
        policy = Policy.SC if flavor is strict_pairs else Policy.STNM

        rows: dict = {}
        for position in range(3):
            PAIR_FOLDS[policy](acts, stamps, None, position, rows)
        assert list(rows) == list(create_pairs(acts, stamps, policy))  # first-appearance order
        assert rows.keys() == columns.keys()
        for pair, (ts_a, ts_b) in columns.items():
            assert rows[pair] == [
                value
                for position in range(3)
                for triple in zip([position] * len(ts_a), ts_a, ts_b)
                for value in triple
            ]
        assert acts == pristine_acts
        assert stamps == pristine_stamps
