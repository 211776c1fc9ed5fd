"""Planner equivalence and plan introspection.

The selectivity-driven planner must be *unobservable* through results: for
any log, pattern, policy, partition layout and cache configuration,
planner-ordered detection returns byte-identical matches to naive
left-to-right evaluation (the explicit plan behind ``detect_with_prefixes``)
and to a brute-force per-trace oracle.  These
properties pin that down, alongside sanity checks of the plan object and
its metrics/CLI surface.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SequenceIndex
from repro.core.errors import EmptyPatternError
from repro.core.model import Event, EventLog
from repro.core.pairs import create_pairs, reference_stnm_pairs
from repro.core.pattern import Pattern
from repro.core.policies import Policy
from repro.kvstore import InMemoryStore

ACTIVITIES = "ABCD"

LOGS = st.dictionaries(
    st.sampled_from(["t1", "t2", "t3", "t4"]),
    st.lists(st.sampled_from(ACTIVITIES), min_size=2, max_size=25),
    min_size=1,
    max_size=4,
)
PATTERNS = st.lists(st.sampled_from(ACTIVITIES), min_size=2, max_size=5)


def _oracle_matches(log_dict, pattern, policy):
    """Brute-force Algorithm 2 per trace, from the reference pair builders."""
    out = []
    for trace_id in sorted(log_dict):
        activities = log_dict[trace_id]
        stamps = list(range(len(activities)))
        if policy is Policy.SC:
            pairs = create_pairs(activities, stamps, Policy.SC)
        else:
            pairs = reference_stnm_pairs(activities, stamps)
        chains = [list(p) for p in pairs.get((pattern[0], pattern[1]), [])]
        for i in range(1, len(pattern) - 1):
            step = {ta: tb for ta, tb in pairs.get((pattern[i], pattern[i + 1]), [])}
            chains = [c + [step[c[-1]]] for c in chains if c[-1] in step]
        out.extend((trace_id, tuple(chain)) for chain in sorted(map(tuple, chains)))
    return out


def _build(log_dict, policy=Policy.STNM, **knobs):
    index = SequenceIndex(policy=policy, **knobs)
    index.update(EventLog.from_dict(log_dict))
    return index


class TestPlannerEquivalence:
    @given(log=LOGS, pattern=PATTERNS, policy=st.sampled_from([Policy.STNM, Policy.SC]))
    @settings(max_examples=120, deadline=None)
    def test_planner_equals_naive_equals_oracle(self, log, pattern, policy):
        planned = _build(log, policy, query_cache_size=0)
        naive = _build(log, policy, query_cache_size=0, cache_bytes=0)
        got_planned = planned.detect(pattern)
        got_naive = naive.detect_with_prefixes(pattern)[len(pattern)]
        assert got_planned == got_naive
        assert [(m.trace_id, m.timestamps) for m in got_planned] == _oracle_matches(
            log, pattern, policy
        )

    @given(log=LOGS, pattern=PATTERNS)
    @settings(max_examples=60, deadline=None)
    def test_postings_cache_is_invisible(self, log, pattern):
        cached = _build(log, query_cache_size=0)
        uncached = _build(log, query_cache_size=0, cache_bytes=0)
        # Run twice on the cached index: the second detection is served
        # (partially) from decoded postings and must not drift.
        first = cached.detect(pattern)
        second = cached.detect(pattern)
        assert first == second == uncached.detect(pattern)

    @given(log=LOGS, pattern=PATTERNS)
    @settings(max_examples=60, deadline=None)
    def test_count_and_contains_match_detect(self, log, pattern):
        index = _build(log, query_cache_size=0)
        matches = index.detect(pattern)
        assert index.count(pattern) == len(matches)
        assert index.contains(pattern) == sorted({m.trace_id for m in matches})

    @given(log=LOGS, pattern=PATTERNS, within=st.floats(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_count_within_matches_detect(self, log, pattern, within):
        index = _build(log, query_cache_size=0)
        assert index.count(pattern, within=within) == len(
            index.detect(pattern, within=within)
        )

    @given(log=LOGS, pattern=PATTERNS)
    @settings(max_examples=40, deadline=None)
    def test_partition_union_planned_equals_naive(self, log, pattern):
        # Spread traces round-robin over two named partitions plus default,
        # then query the union: planner and naive must still agree.
        def spread(index):
            parts = ["", "p1", "p2"]
            for i, trace_id in enumerate(sorted(log)):
                index.update(
                    EventLog.from_dict({trace_id: log[trace_id]}),
                    partition=parts[i % 3],
                )

        planned = SequenceIndex(query_cache_size=0)
        naive = SequenceIndex(query_cache_size=0, cache_bytes=0)
        spread(planned)
        spread(naive)
        n = len(pattern)
        assert (
            planned.detect(pattern, partition=None)
            == naive.detect_with_prefixes(pattern, partition=None)[n]
        )
        if len(log) >= 2:  # "p1" only exists once a second trace was spread
            assert (
                planned.detect(pattern, partition="p1")
                == naive.detect_with_prefixes(pattern, partition="p1")[n]
            )


class TestPlanObject:
    def _index(self):
        return _build(
            {"t1": list("ABCABC"), "t2": list("AABBC"), "t3": list("CBA")}
        )

    def test_order_is_contiguous_permutation(self):
        index = self._index()
        plan = index.explain(["A", "B", "C", "A"])
        n = len(plan.pairs)
        assert sorted(plan.order) == list(range(n))
        # The covered window stays contiguous at every step.
        seen = {plan.order[0]}
        for idx in plan.order[1:]:
            assert idx - 1 in seen or idx + 1 in seen
            seen.add(idx)

    @given(log=LOGS, pattern=PATTERNS, policy=st.sampled_from([Policy.STNM, Policy.SC]))
    @settings(max_examples=60, deadline=None)
    def test_cardinalities_match_statistics(self, log, pattern, policy):
        """A group's cardinality is its pair's entry count in the partition
        read: ``Count[pair]`` over the whole store, at most that in one
        named partition."""
        index = _build(log, policy)
        stats = index.statistics(pattern)
        completions = tuple(row.completions for row in stats.pairs)
        plan = index.explain(pattern)
        assert plan.pairs == tuple(zip(pattern, pattern[1:]))
        assert plan.cardinalities == completions
        assert plan.estimated_cost == min(completions)

        spread = SequenceIndex(policy=policy)
        for i, trace_id in enumerate(sorted(log)):
            spread.update(
                EventLog.from_dict({trace_id: log[trace_id]}), partition=["", "p1"][i % 2]
            )
        assert spread.statistics(pattern) == stats  # Count is partition-blind
        assert spread.explain(pattern, partition=None).cardinalities == completions
        for partition in ("", "p1")[: len(log)]:  # "p1" needs a second trace
            cardinalities = spread.explain(pattern, partition=partition).cardinalities
            assert all(c <= total for c, total in zip(cardinalities, completions))

    def test_count_row_cache_survives_many_generations(self):
        # Regression: rows of dead write generations used to pile up until a
        # 4 096-row limit cleared the cache -- after a reader had worked out
        # which rows it was missing, so a read that found part of its rows
        # cached then failed with KeyError.  Enough generations to pass that
        # limit, each with a partly cached continuation query.
        index = self._index()
        for generation in range(2100):
            index.update([Event("t9", "ABC"[generation % 3], 100 + generation)])
            index.query.count_row("A")  # caches the row of "A" only
            # reads the rows of "A" (cached) and "B" (missing)
            proposals = index.continuations(["A", "B"], mode="fast")
        assert {p.event for p in proposals} == set(index.query.count_row("B"))
        bound = index.statistics(["A", "B"]).max_completions
        assert max(p.completions for p in proposals) <= bound
        # the Count rows read since the last write, nothing older or unread
        cached = index.query.row_cache.keys()
        assert {key[1:] for key in cached if key[0] == "count"} == {
            (False, "A"),
            (False, "B"),
        }

    def test_starts_at_rarest_pair(self):
        index = self._index()
        plan = index.explain(["A", "B", "C"])
        rarest = min(
            range(len(plan.cardinalities)), key=lambda i: plan.cardinalities[i]
        )
        assert plan.order[0] == rarest

    def test_reordered_flag(self):
        index = self._index()
        for pattern in (["A", "B", "C"], ["B", "C", "A"], ["A", "B", "C", "A"]):
            plan = index.explain(pattern)
            assert plan.reordered == (plan.order != tuple(range(len(plan.pairs))))

    def test_finisher_follows_the_input(self):
        index = self._index()
        assert index.explain(["A", "B", "C"]).finisher == "join"
        assert index.explain("SEQ(A, B, C)").finisher == "verify"
        assert index.explain(["A", "B"], policy=Policy.STAM).finisher == "enumerate"

    def test_trivial_plan_for_short_patterns(self):
        index = self._index()
        plan = index.explain(["A"])
        assert plan.pairs == () and plan.order == ()
        assert plan.finisher == "enumerate"
        assert "left-to-right" in plan.describe()
        assert "full sequence scan" in plan.describe()

    def test_describe_lists_every_step(self):
        index = self._index()
        plan = index.explain(["A", "B", "C"])
        lines = plan.describe().splitlines()
        assert lines[0] == "pattern A, B, C"
        assert len(lines) == len(plan.pairs) + 2
        assert all("cardinality=" in line for line in lines[1:-1])
        assert lines[-1].startswith("finisher=join ")

    def test_plan_requires_a_pattern(self):
        index = self._index()
        with pytest.raises(EmptyPatternError):
            index.query.execute("explain", [])
        with pytest.raises(EmptyPatternError):
            index.explain([])


class TestExplainSurface:
    def test_detect_explain_returns_matches_and_plan(self):
        index = _build({"t1": list("ABCABC")}, query_cache_size=0)
        matches, plan = index.detect(["A", "B", "C"], explain=True)
        assert matches == index.detect(["A", "B", "C"])
        assert plan.pattern == ("A", "B", "C")

    def test_explain_bypasses_query_cache(self):
        index = _build({"t1": list("ABCABC")})
        index.detect(["A", "B", "C"])  # warm the result cache
        matches, plan = index.detect(["A", "B", "C"], explain=True)
        assert matches == index.detect(["A", "B", "C"])

    def test_zero_cardinality_short_circuits(self):
        index = _build({"t1": list("ABC")}, query_cache_size=0)
        store_metrics = index.store.metrics
        before = store_metrics.snapshot()
        assert index.detect(["A", "Z"]) == []
        assert index.contains(["A", "Z"]) == []
        after = store_metrics.snapshot()
        # The dead pair is detected from its empty posting list: the first
        # call issues the one batched Index read, the second hits the
        # postings cache -- and no Count row is read for either.
        assert after["multi_get_batches"] - before["multi_get_batches"] == 1

    def test_detection_reads_no_count_row(self):
        """The plan comes from the posting lists the query fetches anyway:
        no query of the detection family reads ``Count`` or ``ReverseCount``."""

        class TableReads(InMemoryStore):
            def __init__(self):
                super().__init__()
                self.tables: list[str] = []

            def get(self, table, key, default=None):
                self.tables.append(table)
                return super().get(table, key, default)

            def multi_get(self, table, keys, default=None):
                self.tables.append(table)
                return super().multi_get(table, keys, default)

        store = TableReads()
        index = SequenceIndex(store, query_cache_size=0, cache_bytes=0)
        index.update(EventLog.from_dict({"t1": list("ABXCABC"), "t2": list("ACBDC")}))
        store.tables.clear()
        index.detect(["A", "B", "C"])
        index.detect(["A", "B", "C"], policy=Policy.STAM)
        index.detect(Pattern.of("A", "!X", "(B|C)+"))
        index.detect("SEQ(A, (B|D), C) WITHIN 5")
        index.detect(["A", "Z"])  # a zero group
        index.count(["A", "B"])
        index.contains("SEQ(B, C)")
        index.explain(["B", "C", "A"])
        assert "index" in store.tables and "seq" in store.tables
        assert not {"count", "reverse_count"} & set(store.tables)

    def test_planner_reorders_metric(self):
        index = _build(
            {"t1": list("ABCABC"), "t2": list("ABAB")}, query_cache_size=0
        )
        plan = index.explain(["A", "B", "C"])
        before = index.store.metrics.snapshot().get("planner_reorders", 0)
        index.detect(["A", "B", "C"])
        after = index.store.metrics.snapshot().get("planner_reorders", 0)
        assert after - before == (1 if plan.reordered else 0)

    def test_postings_cache_metrics_accumulate(self):
        index = _build({"t1": list("ABCABC")}, query_cache_size=0)
        index.detect(["A", "B", "C"])
        index.detect(["A", "B", "C"])
        snap = index.store.metrics.snapshot()
        assert snap["postings_cache_hits"] > 0
        assert snap["postings_cache_misses"] > 0
        assert index.postings_cache_stats()["hits"] > 0

    def test_postings_cache_invalidated_by_update(self):
        index = _build({"t1": list("ABC")}, query_cache_size=0)
        assert len(index.detect(["A", "B", "C"])) == 1
        index.update(EventLog.from_dict({"t9": list("ABC")}))
        matches = index.detect(["A", "B", "C"])
        assert sorted(m.trace_id for m in matches) == ["t1", "t9"]

    def test_prefixes_agree_with_planned_detection(self):
        log = {"t1": list("ABCABC"), "t2": list("ACBCA")}
        prefixes = _build(log).detect_with_prefixes(["A", "B", "C"])
        assert prefixes[3] == _build(log).detect(["A", "B", "C"])
        assert prefixes[2] == _build(log).detect(["A", "B"])
