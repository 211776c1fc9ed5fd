"""Workload preparation helpers used by every benchmark."""

from __future__ import annotations

import weakref

from repro.bench import workloads
from repro.bench.workloads import (
    ROUNDS,
    best_of_rounds,
    build_index,
    contiguous_patterns,
    prepared_dataset,
    prepared_index,
    stnm_patterns,
)
from repro.core.policies import Policy
from repro.obs.trace import NULL_TRACER, Tracer, activate, current_tracer


class _Result:
    """Something a weak reference can point at."""


class TestBestOfRounds:
    def test_one_warm_up_call_each_then_interleaved_rounds(self):
        calls = []
        columns = [lambda name=name: calls.append(name) for name in "abc"]
        times, warm = best_of_rounds(columns)
        assert calls == list("abc") * (1 + ROUNDS)
        assert len(times) == 3 and all(t >= 0.0 for t in times)
        assert warm == [None, None, None]

    def test_each_column_gets_its_fastest_round(self, monkeypatch):
        clock = [0.0]
        monkeypatch.setattr(workloads, "perf_counter", lambda: clock[0])
        costs = {"a": iter([9, 5, 7, 3, 8, 6]), "b": iter([1, 4, 2, 6, 9, 5])}

        def column(name):
            clock[0] += next(costs[name])
            return name.upper()

        times, warm = best_of_rounds([lambda: column("a"), lambda: column("b")])
        # the warm-up calls (9 and 1) are not timed
        assert times == [3, 2]
        assert warm == ["A", "B"]

    def test_a_timed_result_is_freed_before_the_next_call_starts(self):
        refs, alive = [], []

        def column():
            alive.append([ref() is not None for ref in refs])
            result = _Result()
            refs.append(weakref.ref(result))
            return result

        _, (kept,) = best_of_rounds([column])
        assert refs[0]() is kept  # the warm-up call's value is returned
        # before each timed call, only the warm-up call's result is alive
        assert alive == [[]] + [[True] + [False] * n for n in range(ROUNDS)]

    def test_no_timed_round_runs_under_an_active_tracer(self):
        seen = []
        tracer = Tracer()
        with activate(tracer):
            best_of_rounds([lambda: seen.append(current_tracer())] * 2)
            assert current_tracer() is tracer
        assert seen[:2] == [tracer, tracer]
        assert seen[2:] == [NULL_TRACER] * (2 * ROUNDS)


class TestCaches:
    def test_dataset_cache_returns_same_object(self):
        a = prepared_dataset("bpi_2013", 0.01)
        b = prepared_dataset("bpi_2013", 0.01)
        assert a is b

    def test_index_cache_keyed_by_policy(self):
        stnm = prepared_index("bpi_2013", 0.01, Policy.STNM)
        sc = prepared_index("bpi_2013", 0.01, Policy.SC)
        assert stnm is not sc
        assert stnm is prepared_index("bpi_2013", 0.01, Policy.STNM)


class TestPatternSampling:
    def test_stnm_patterns_are_gapped_subsequences(self):
        log = prepared_dataset("max_100", 0.1)
        for pattern in stnm_patterns(log, 4, 10, seed=1):
            assert len(pattern) == 4
            assert any(_is_subsequence(pattern, t.activities) for t in log)

    def test_contiguous_patterns_are_substrings(self):
        log = prepared_dataset("max_100", 0.1)
        for pattern in contiguous_patterns(log, 3, 10, seed=2):
            assert any(
                trace.activities[i : i + 3] == pattern
                for trace in log
                for i in range(len(trace) - 2)
            )

    def test_patterns_deterministic_per_seed(self):
        log = prepared_dataset("max_100", 0.1)
        assert stnm_patterns(log, 3, 5, seed=9) == stnm_patterns(log, 3, 5, seed=9)
        assert stnm_patterns(log, 3, 5, seed=9) != stnm_patterns(log, 3, 5, seed=10)

    def test_short_trace_fallback(self):
        from repro.core.model import EventLog

        log = EventLog.from_dict({"t": ["a"]})
        patterns = stnm_patterns(log, 5, 3, seed=0)
        assert len(patterns) == 3  # falls back to alphabet sampling


class TestBuildIndex:
    def test_build_index_queries_work(self):
        log = prepared_dataset("bpi_2013", 0.01)
        stats = build_index(log, Policy.STNM)  # built, flushed and closed
        assert stats.events_indexed == log.num_events
        index = prepared_index("bpi_2013", 0.01, Policy.STNM)
        assert index.store.sstable_count > 0  # queries read what was flushed
        patterns = stnm_patterns(log, 2, 3, seed=4)
        assert any(index.detect(p) for p in patterns)


def _is_subsequence(pattern, activities):
    it = iter(activities)
    return all(any(a == p for a in it) for p in pattern)
