"""Composite-pattern queries through the engine: corpus + planner contracts.

The golden corpus (``tests/data/pattern_corpus.json``) holds hand-verified
match sets over a small checked-in log; both the indexed prune-then-verify
path and the SASE oracle must reproduce every case exactly.  The planner
tests pin the contracts the pattern path adds on top of it: alternation
cardinality is the sum of branch-pair counts, a zero-cardinality positive
group short-circuits before any sequence read, and negation never prunes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines.sase.engine import SaseEngine
from repro.core.engine import SequenceIndex
from repro.core.errors import PolicyMismatchError
from repro.core.matches import QueryPlan
from repro.core.model import EventLog
from repro.core.pattern import find_matches, parse_pattern
from repro.core.policies import Policy
from repro.logs.csv_log import read_csv_log

DATA = Path(__file__).resolve().parents[1] / "data"
CORPUS = json.loads((DATA / "pattern_corpus.json").read_text())


@pytest.fixture(scope="module")
def golden_log() -> EventLog:
    return read_csv_log(str(DATA / "golden_log.csv"))


@pytest.fixture(scope="module")
def golden_index(golden_log):
    index = SequenceIndex(policy=Policy.STNM)
    index.update(golden_log)
    yield index
    index.close()


def _expected(case) -> set[tuple[str, tuple[float, ...]]]:
    return {
        (trace_id, tuple(stamps))
        for trace_id, spans in case["expected"].items()
        for stamps in spans
    }


@pytest.mark.parametrize("case", CORPUS["cases"], ids=lambda c: c["pattern"])
class TestGoldenCorpus:
    def test_indexed_path_matches_corpus(self, golden_index, case):
        matches = golden_index.detect(parse_pattern(case["pattern"]))
        assert {(m.trace_id, m.timestamps) for m in matches} == _expected(case)

    def test_sase_oracle_matches_corpus(self, golden_log, case):
        matches = SaseEngine(golden_log).query(parse_pattern(case["pattern"]))
        assert {(m.trace_id, m.timestamps) for m in matches} == _expected(case)

    def test_count_and_contains_agree_with_corpus(self, golden_index, case):
        expected = _expected(case)
        pattern = parse_pattern(case["pattern"])
        assert golden_index.count(pattern) == len(expected)
        assert set(golden_index.contains(pattern)) == {t for t, _ in expected}


def test_corpus_tags_cover_every_operator():
    tagged = {op for case in CORPUS["cases"] for op in case["operators"]}
    assert {"sequence", "alternation", "kleene", "negation", "within"} <= tagged


class TestPatternPlanner:
    def test_alternation_cardinality_is_sum_of_branch_counts(self):
        log = EventLog.from_dict({"t1": ["A", "B"], "t2": ["A", "C"], "t3": ["A", "B"]})
        with SequenceIndex(policy=Policy.STNM) as index:
            index.update(log)
            plan = index.explain("SEQ(A, (B|C))")
            assert isinstance(plan, QueryPlan) and plan.finisher == "verify"
            assert plan.groups == ((("A", "B"), ("A", "C")),)
            assert plan.cardinalities == (3,)  # 2x (A,B) + 1x (A,C)

    def test_zero_cardinality_positive_group_skips_sequence_reads(self):
        log = EventLog.from_dict({"t1": ["A", "B"], "t2": ["A", "B", "A"]})
        with SequenceIndex(policy=Policy.STNM) as index:
            index.update(log)
            reads = []
            original = index.tables.get_sequences
            index.tables.get_sequences = lambda tids: (
                reads.append(tids) or original(tids)
            )
            assert index.detect("SEQ(A, Z)") == []
            assert index.count("SEQ(A, Z)") == 0
            assert index.contains("SEQ(A, Z)") == []
            assert reads == []
            # A live pattern does read sequences -- the probe works.
            assert index.count("SEQ(A, B)") == 2
            assert reads != []

    def test_negated_zero_count_element_must_not_prune(self):
        """The central soundness case: "Z never happens" makes !Z vacuously
        true everywhere, so SEQ(A, !Z, B) must equal SEQ(A, B) -- a planner
        that fed the negated pair's zero Count into the early exit would
        return nothing instead."""
        log = EventLog.from_dict({"t1": ["A", "B"], "t2": ["B", "A", "B"]})
        with SequenceIndex(policy=Policy.STNM) as index:
            index.update(log)
            plain = index.detect("SEQ(A, B)")
            negated = index.detect("SEQ(A, !Z, B)")
            assert {(m.trace_id, m.timestamps) for m in negated} == {
                (m.trace_id, m.timestamps) for m in plain
            }
            plan = index.explain("SEQ(A, !Z, B)")
            assert plan.groups == ((("A", "B"),),)  # Z appears in no group
            assert plan.negated == ("!Z",)
            assert "no pruning" in plan.describe()

    def test_reordered_groups_do_not_change_the_result(self):
        # (A,B) completes 3x, (B,C) once: the planner prunes with (B,C) first.
        log = EventLog.from_dict(
            {"t1": ["A", "B", "A", "B", "A", "B", "C"], "t2": ["A", "B"]}
        )
        pattern = parse_pattern("SEQ(A, B, C)")
        with SequenceIndex(policy=Policy.STNM) as index:
            index.update(log)
            plan = index.explain(pattern)
            assert plan.order == (1, 0)
            assert plan.reordered
            unpruned = {
                (trace.trace_id, span)
                for trace in log
                for span in find_matches(trace.activities, trace.timestamps, pattern)
            }
            assert {
                (m.trace_id, m.timestamps) for m in index.detect(pattern)
            } == unpruned

    def test_planner_orders_groups_cheapest_first(self):
        # (A,B) completes 3x, (B,C) once: pruning must start at (B,C).
        log = EventLog.from_dict(
            {
                "t1": ["A", "B", "A", "B", "A", "B", "C"],
            }
        )
        with SequenceIndex(policy=Policy.STNM) as index:
            index.update(log)
            plan = index.explain("SEQ(A, B, C)")
            assert plan.cardinalities == (3, 1)
            assert plan.order == (1, 0)
            assert plan.reordered

    def test_explain_profile_reports_verify_stage(self):
        log = EventLog.from_dict({"t1": ["A", "B"]})
        with SequenceIndex(policy=Policy.STNM) as index:
            index.update(log)
            matches, plan, profile = index.detect(
                "SEQ(A, B+)", explain_profile=True
            )
            assert [m.timestamps for m in matches] == [(0.0, 1.0)]
            stages = [stage.name for stage in profile.stages]
            assert "verify" in stages
            assert "plan" in stages


class TestEngineContracts:
    def test_string_and_pattern_route_identically(self):
        log = EventLog.from_dict({"t1": ["A", "C", "B"]})
        with SequenceIndex(policy=Policy.STNM) as index:
            index.update(log)
            via_str = index.detect("SEQ(A, (B|C))")
            via_ast = index.detect(parse_pattern("SEQ(A, (B|C))"))
            assert via_str == via_ast

    def test_pattern_results_are_cached_per_generation(self):
        log = EventLog.from_dict({"t1": ["A", "B"]})
        with SequenceIndex(policy=Policy.STNM) as index:
            index.update(log)
            pattern = parse_pattern("SEQ(A, B+)")
            first = index.detect(pattern)
            second = index.detect(pattern)
            assert second == first
            # an update drops the rows it wrote
            index.update(EventLog.from_dict({"t2": ["A", "B"]}))
            third = index.detect(pattern)
            assert len(third) == 2

    def test_sequence_cache_serves_repeat_verifications(self):
        log = EventLog.from_dict({"t1": ["A", "B"], "t2": ["A", "B"]})
        with SequenceIndex(policy=Policy.STNM) as index:
            index.update(log)
            index.detect("SEQ(A, B+)")
            misses = index.sequence_cache_stats()["misses"]
            assert misses == 2  # both candidate traces decoded once
            index.detect("SEQ(A, B+)")
            stats = index.sequence_cache_stats()
            assert stats["misses"] == misses
            assert stats["hits"] >= 2
            # an update rolls the write generation: cached rows go stale
            index.update(EventLog.from_dict({"t3": ["A", "B"]}))
            index.detect("SEQ(A, B+)")
            assert index.sequence_cache_stats()["misses"] > misses

    def test_non_stnm_index_refuses_composite_patterns(self):
        log = EventLog.from_dict({"t1": ["A", "B"]})
        with SequenceIndex(policy=Policy.SC) as index:
            index.update(log)
            with pytest.raises(PolicyMismatchError):
                index.detect("SEQ(A, B+)")
            with pytest.raises(PolicyMismatchError):
                index.count("SEQ(A, B)")
            with pytest.raises(PolicyMismatchError):
                index.explain("SEQ(A, B)")

    def test_composite_rejects_policy_and_within_kwargs(self):
        log = EventLog.from_dict({"t1": ["A", "B"]})
        with SequenceIndex(policy=Policy.STNM) as index:
            index.update(log)
            pattern = parse_pattern("SEQ(A, B)")
            with pytest.raises(ValueError, match="policy"):
                index.detect(pattern, policy=Policy.STAM)
            with pytest.raises(ValueError, match="within"):
                index.detect(pattern, within=5.0)
            with pytest.raises(ValueError, match="within"):
                index.count(pattern, within=5.0)

    def test_max_matches_limits_composite_detection(self):
        log = EventLog.from_dict({f"t{i}": ["A", "B"] for i in range(5)})
        with SequenceIndex(policy=Policy.STNM) as index:
            index.update(log)
            assert len(index.detect("SEQ(A, B)", max_matches=3)) == 3

    def test_single_positive_element_full_scan(self):
        # No positive adjacency -> no pruning groups -> full sequence scan.
        log = EventLog.from_dict({"t1": ["A", "X", "A"], "t2": ["B"]})
        with SequenceIndex(policy=Policy.STNM) as index:
            index.update(log)
            plan = index.explain("SEQ(A+)")
            assert plan.groups == ()
            assert "full sequence scan" in plan.describe()
            matches = index.detect("SEQ(A+)")
            assert {(m.trace_id, m.timestamps) for m in matches} == {
                ("t1", (0.0, 2.0))
            }

    def test_sase_pattern_bridge_agrees_with_legacy_nfa(self):
        from repro.baselines.sase.pattern import SasePattern

        log = EventLog.from_dict(
            {"t1": ["A", "B", "B", "C", "B"], "t2": ["B", "A", "C"]}
        )
        engine = SaseEngine(log)
        legacy = SasePattern.seq("A", "B+", "C", within=10)
        bridged = legacy.to_pattern()
        assert str(bridged) == "SEQ(A, B+, C) WITHIN 10"
        assert engine.query(legacy) == engine.query(bridged)

    def test_sase_bridge_rejects_non_stnm(self):
        from repro.baselines.sase.pattern import SasePattern

        with pytest.raises(ValueError, match="STNM"):
            SasePattern.seq("A", "B", strategy=Policy.SC).to_pattern()
