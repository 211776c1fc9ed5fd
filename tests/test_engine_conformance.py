"""One engine surface: the sharded engine answers what the single-store one does.

Every public query method is run on three engines over the same log -- a
:class:`SequenceIndex`, a 1-shard and a 3-shard :class:`ShardedSequenceIndex`
-- for the four kinds of input (a list of activities, a list under
``Policy.STAM``, a :class:`Pattern`, an expression string).  The answers, the
text of the plan and the exception types must be equal: the front half of a
query is written once (:class:`repro.core.engine.QueryEngine`), and this
module is what keeps a second copy from growing back.
"""

from __future__ import annotations

import time

import pytest

from repro.core.engine import SequenceIndex
from repro.core.errors import (
    DeadlineExceeded,
    EmptyPatternError,
    PolicyMismatchError,
)
from repro.core.model import EventLog
from repro.core.pattern import Pattern
from repro.core.policies import Policy
from repro.obs.profile import QueryProfile
from repro.shard import ShardedSequenceIndex

# Integer timestamps (positions), so duration sums are exact in any order.
LOG = {
    "t01": list("ABCABCD"),
    "t02": list("AABBCCD"),
    "t03": list("ACBDXBC"),
    "t04": list("ABXCD"),
    "t05": list("DCBA"),
    "t06": list("ABCDABCD"),
    "t07": list("BACBDAC"),
    "t08": list("AXBC"),
    "t09": list("ABABCBCD"),
    "t10": list("CABD"),
    "t11": list("ABC"),
    "t12": list("AD"),
}

ENGINES = ("single", "one_shard", "three_shards")

#: kind -> (pattern, the keywords that select the kind)
QUERIES = {
    "list": (["A", "B", "C"], {}),
    "stam": (["A", "B", "C"], {"policy": Policy.STAM}),
    "pattern": (Pattern.of("A", "!X", "(B|C)+", "D"), {}),
    "expression": ("SEQ(A, (B|C), D) WITHIN 4", {}),
}
#: ``count``/``contains`` take no policy, so STAM has no form of them
COUNTABLE = ("list", "pattern", "expression")


def _build(name: str, policy: Policy = Policy.STNM):
    if name == "single":
        engine = SequenceIndex(policy=policy)
    else:
        shards = 1 if name == "one_shard" else 3
        engine = ShardedSequenceIndex(
            [SequenceIndex(policy=policy) for _ in range(shards)]
        )
    engine.update(EventLog.from_dict(LOG))
    return engine


@pytest.fixture(scope="module")
def engines():
    built = {name: _build(name) for name in ENGINES}
    yield built
    for engine in built.values():
        engine.close()


@pytest.fixture(scope="module")
def sc_engines():
    built = {name: _build(name, Policy.SC) for name in ENGINES}
    yield built
    for engine in built.values():
        engine.close()


def _agree(engines, call):
    """``call(engine)`` on every engine; all equal the single-store answer."""
    expected = call(engines["single"])
    for name in ENGINES[1:]:
        assert call(engines[name]) == expected, name
    return expected


def test_the_log_spreads_over_every_shard(engines):
    sharded = engines["three_shards"]
    assert {sharded.shard_of(trace_id) for trace_id in LOG} == {0, 1, 2}
    assert [e.num_shards for e in engines.values()] == [1, 1, 3]


@pytest.mark.parametrize("kind", QUERIES)
class TestEveryKindOfInput:
    def test_detect(self, engines, kind):
        pattern, keywords = QUERIES[kind]
        matches = _agree(engines, lambda e: e.detect(pattern, **keywords))
        assert matches, "the fixture should exercise a non-empty answer"

    def test_detect_max_matches_is_a_prefix(self, engines, kind):
        pattern, keywords = QUERIES[kind]
        full = engines["single"].detect(pattern, **keywords)
        assert len(full) >= 3
        for limit in (0, 1, 2, len(full), len(full) + 5):
            got = _agree(
                engines, lambda e: e.detect(pattern, max_matches=limit, **keywords)
            )
            assert got == full[:limit]

    def test_detect_explain(self, engines, kind):
        pattern, keywords = QUERIES[kind]

        def explained(engine):
            matches, plan = engine.detect(pattern, explain=True, **keywords)
            return matches, plan.describe()

        matches, _ = _agree(engines, explained)
        assert matches == engines["single"].detect(pattern, **keywords)

    def test_detect_explain_profile(self, engines, kind):
        pattern, keywords = QUERIES[kind]

        def profiled(engine):
            matches, plan, profile = engine.detect(
                pattern, explain_profile=True, **keywords
            )
            assert isinstance(profile, QueryProfile) and profile.stages
            return matches, plan.describe()

        _agree(engines, profiled)

    def test_explain(self, engines, kind):
        pattern, keywords = QUERIES[kind]
        text = _agree(engines, lambda e: e.explain(pattern, **keywords).describe())
        finisher = {"list": "join", "stam": "enumerate"}.get(kind, "verify")
        assert f"finisher={finisher} " in text

    def test_negative_max_matches(self, engines, kind):
        pattern, keywords = QUERIES[kind]
        for engine in engines.values():
            with pytest.raises(ValueError, match="max_matches"):
                engine.detect(pattern, max_matches=-1, **keywords)

    def test_expired_deadline(self, engines, kind):
        pattern, keywords = QUERIES[kind]
        expired = time.monotonic() - 1.0
        for engine in engines.values():
            with pytest.raises(DeadlineExceeded):
                engine.detect(pattern, deadline=expired, **keywords)


@pytest.mark.parametrize("kind", COUNTABLE)
class TestCountAndContains:
    def test_count(self, engines, kind):
        pattern, _ = QUERIES[kind]
        count = _agree(engines, lambda e: e.count(pattern))
        assert count == len(engines["single"].detect(pattern))

    def test_contains(self, engines, kind):
        pattern, _ = QUERIES[kind]
        traces = _agree(engines, lambda e: e.contains(pattern))
        assert traces == sorted(
            {m.trace_id for m in engines["single"].detect(pattern)}
        )

    def test_expired_deadline(self, engines, kind):
        pattern, _ = QUERIES[kind]
        expired = time.monotonic() - 1.0
        for engine in engines.values():
            with pytest.raises(DeadlineExceeded):
                engine.count(pattern, deadline=expired)
            with pytest.raises(DeadlineExceeded):
                engine.contains(pattern, deadline=expired)


class TestListOnlyMethods:
    PATTERN = ["A", "B", "C"]

    def test_within(self, engines):
        for within in (0.0, 2.0, 5.0):
            matches = _agree(
                engines, lambda e: e.detect(self.PATTERN, within=within)
            )
            assert _agree(
                engines, lambda e: e.count(self.PATTERN, within=within)
            ) == len(matches)

    def test_single_activity(self, engines):
        _agree(engines, lambda e: e.detect(["A"]))
        _agree(engines, lambda e: e.count(["A"]))
        _agree(engines, lambda e: e.contains(["A"]))
        assert "full sequence scan" in _agree(
            engines, lambda e: e.explain(["A"]).describe()
        )

    @pytest.mark.parametrize("all_pairs", [False, True])
    def test_statistics(self, engines, all_pairs):
        stats = _agree(engines, lambda e: e.statistics(self.PATTERN, all_pairs))
        assert stats.max_completions > 0

    @pytest.mark.parametrize("mode", ["accurate", "fast", "hybrid"])
    def test_continuations(self, engines, mode):
        for pattern in (["A"], ["A", "B"], self.PATTERN):
            proposals = _agree(
                engines, lambda e: e.continuations(pattern, mode=mode, top_k=2)
            )
            assert proposals
        _agree(
            engines,
            lambda e: e.continuations(["A", "B"], mode=mode, top_k=2, within=1.0),
        )

    def test_explore_at(self, engines):
        for position in range(len(self.PATTERN) + 1):
            _agree(engines, lambda e: e.explore_at(self.PATTERN, position))

    def test_detect_with_prefixes(self, engines):
        for pattern in (self.PATTERN, ["A", "B", "C", "D", "A"], ["A", "Z", "B", "C"]):
            prefixes = _agree(engines, lambda e: e.detect_with_prefixes(pattern))
            n = len(pattern)
            assert list(prefixes) == sorted(prefixes) and n in prefixes
            assert prefixes[n] == engines["single"].detect(pattern)

    def test_statistics_expired_deadline(self, engines):
        expired = time.monotonic() - 1.0
        for engine in engines.values():
            with pytest.raises(DeadlineExceeded):
                engine.statistics(["A", "D", "A"], deadline=expired)


class TestExceptionTypes:
    def test_empty_pattern(self, engines):
        for engine in engines.values():
            for method in (engine.detect, engine.count, engine.contains, engine.explain):
                with pytest.raises(EmptyPatternError):
                    method([])
            with pytest.raises(EmptyPatternError):
                engine.statistics(["A"])
            with pytest.raises(EmptyPatternError):
                engine.continuations([])
            with pytest.raises(EmptyPatternError):
                engine.detect_with_prefixes(["A"])

    @pytest.mark.parametrize("kind", ["pattern", "expression"])
    def test_composite_rejects_policy_and_within(self, engines, kind):
        pattern, _ = QUERIES[kind]
        for engine in engines.values():
            with pytest.raises(ValueError, match="policy"):
                engine.detect(pattern, policy=Policy.STAM)
            with pytest.raises(ValueError, match="within"):
                engine.detect(pattern, within=5.0)
            with pytest.raises(ValueError, match="within"):
                engine.count(pattern, within=5.0)

    @pytest.mark.parametrize("kind", ["pattern", "expression"])
    def test_composite_needs_an_stnm_index(self, sc_engines, kind):
        pattern, _ = QUERIES[kind]
        for engine in sc_engines.values():
            for method in (engine.detect, engine.count, engine.contains, engine.explain):
                with pytest.raises(PolicyMismatchError):
                    method(pattern)

    def test_plain_queries_work_on_an_sc_index(self, sc_engines):
        _agree(sc_engines, lambda e: e.detect(["A", "B", "C"]))
        _agree(sc_engines, lambda e: e.detect(["A"]))

    def test_negative_within(self, engines):
        for engine in engines.values():
            with pytest.raises(ValueError, match="within"):
                engine.detect(["A", "B"], within=-1.0)
            with pytest.raises(ValueError, match="within"):
                engine.count(["A", "B"], within=-1.0)


def test_slow_query_log_records_a_sharded_detect(monkeypatch):
    """The coordinator runs ``shard.query.*`` below every shard's own timer,
    so it is the coordinator that must record the call."""
    monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "0")
    for name in ENGINES:
        engine = _build(name)
        try:
            engine.detect(["A", "B", "C"])
            engine.count("SEQ(A, B)")
            kinds = [entry.query for entry in engine.slow_queries()]
            assert kinds == ["query.detect", "query.count"], name
            assert "['A', 'B', 'C']" in engine.slow_queries()[0].detail
        finally:
            engine.close()
