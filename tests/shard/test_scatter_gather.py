"""Scatter-gather correctness: the sharded index is byte-identical to the
single-store engine.

Because traces are disjoint across shards (one trace's pairs always
colocate), every merged result must equal what one engine over the union
of the data returns -- same matches, same order, same counts.  The tests
drive both engines over the golden corpus, over 25 fixed difftest seeds,
and under concurrent writers, asserting equality on every query surface
(``detect``/``count``/``contains``/composite/``statistics``/introspection).
"""

from __future__ import annotations

import json
import random
import threading
import time
from pathlib import Path

import pytest

from repro.core.engine import SequenceIndex
from repro.core.errors import DeadlineExceeded
from repro.core.model import Event, EventLog, Trace
from repro.core.policies import Policy
from repro.difftest import random_log, random_pattern
from repro.kvstore import StoreClosedError
from repro.logs.csv_log import read_csv_log
from repro.shard import ShardedSequenceIndex

DATA = Path(__file__).resolve().parents[1] / "data"
CORPUS = json.loads((DATA / "pattern_corpus.json").read_text())


def _matches(engine, pattern, **kwargs):
    return [
        (m.trace_id, m.timestamps) for m in engine.detect(pattern, **kwargs)
    ]


def _make_pair(num_shards, policy=Policy.STNM):
    single = SequenceIndex(policy=policy)
    sharded = ShardedSequenceIndex(
        [SequenceIndex(policy=policy) for _ in range(num_shards)]
    )
    return single, sharded


@pytest.fixture(params=[1, 2, 4])
def engines(request):
    single, sharded = _make_pair(request.param)
    yield single, sharded
    single.close()
    sharded.close()


@pytest.fixture
def golden_engines(engines):
    single, sharded = engines
    log = read_csv_log(str(DATA / "golden_log.csv"))
    single.update(log)
    sharded.update(log)
    return single, sharded


class TestGoldenCorpus:
    def test_composite_cases_identical_and_correct(self, golden_engines):
        single, sharded = golden_engines
        for case in CORPUS["cases"]:
            pattern = case["pattern"]
            expected = {
                (trace_id, tuple(stamps))
                for trace_id, spans in case["expected"].items()
                for stamps in spans
            }
            got_single = _matches(single, pattern)
            got_sharded = _matches(sharded, pattern)
            assert got_sharded == got_single, pattern
            assert set(got_sharded) == expected, pattern
            assert sharded.count(pattern) == single.count(pattern)
            assert sharded.contains(pattern) == single.contains(pattern)

    def test_plain_queries_identical(self, golden_engines):
        single, sharded = golden_engines
        cases = [
            (["A", "B"], {}),
            (["A", "B", "C"], {}),
            (["A"], {}),
            (["A", "B"], {"within": 3.0}),
            (["A", "B"], {"max_matches": 2}),
            (["A", "A", "B"], {"policy": Policy.STAM}),
            (["A", "A", "B"], {"policy": Policy.STAM, "within": 4.0}),
            (["Z", "B"], {}),  # unknown activity: empty everywhere
        ]
        for pattern, kwargs in cases:
            assert _matches(sharded, pattern, **kwargs) == _matches(
                single, pattern, **kwargs
            ), (pattern, kwargs)
        assert sharded.count(["A", "B"]) == single.count(["A", "B"])
        assert sharded.count(["A", "B"], within=3.0) == single.count(
            ["A", "B"], within=3.0
        )
        assert sharded.contains(["A", "B"]) == single.contains(["A", "B"])

    def test_statistics_and_introspection_identical(self, golden_engines):
        single, sharded = golden_engines
        ours, theirs = sharded.statistics(["A", "B", "C"]), single.statistics(
            ["A", "B", "C"]
        )
        assert ours.pairs == theirs.pairs
        assert ours.max_completions == theirs.max_completions
        assert sharded.trace_ids() == single.trace_ids()
        assert sharded.activities() == single.activities()
        assert sharded.top_pairs(5) == single.top_pairs(5)
        for trace_id in single.trace_ids():
            assert sharded.get_trace(trace_id) == single.get_trace(trace_id)


def _to_event_log(case_log):
    return EventLog(
        Trace(tid, (Event(tid, act, ts) for act, ts in events))
        for tid, events in case_log.items()
    )


@pytest.mark.parametrize("seed", range(25))
def test_difftest_seeds_identical(seed):
    """The differential harness's generators, sharded vs single-store."""
    rng = random.Random(seed)
    log = _to_event_log(random_log(rng))
    pattern = random_pattern(rng)
    single, sharded = _make_pair(3)
    try:
        single.update(log)
        sharded.update(log)
        assert _matches(sharded, pattern) == _matches(single, pattern)
        assert sharded.count(pattern) == single.count(pattern)
        assert sharded.contains(pattern) == single.contains(pattern)
        # A plain pattern over the same alphabet exercises the chain join.
        plain = ["A", "B"]
        assert _matches(sharded, plain) == _matches(single, plain)
    finally:
        single.close()
        sharded.close()


@pytest.mark.parametrize("seed", range(5))
def test_identical_under_concurrent_writers(seed):
    """Concurrent ``update()`` batches land exactly like serial ones.

    Four writer threads race disjoint batches into the sharded index while
    a reader hammers queries (results may be any prefix state -- only
    crash-freedom is asserted mid-flight).  After the writers join, every
    query surface must equal a single-store engine that applied the same
    batches serially.
    """
    rng = random.Random(1000 + seed)
    batches = []
    for b in range(8):
        events = []
        for tid in range(rng.randint(1, 6)):
            trace_id = f"b{b}-t{tid}"
            ts = 0.0
            for _ in range(rng.randint(1, 10)):
                events.append(Event(trace_id, rng.choice("ABCD"), ts))
                ts += rng.randint(1, 4)
        batches.append(events)

    single, sharded = _make_pair(4)
    try:
        for batch in batches:
            single.update(batch)

        errors = []
        done = threading.Event()

        def write(worker):
            try:
                for batch in batches[worker::4]:
                    sharded.update(batch)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def read():
            while not done.is_set():
                try:
                    sharded.detect(["A", "B"])
                    sharded.count(["B", "C"])
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        writers = [
            threading.Thread(target=write, args=(i,)) for i in range(4)
        ]
        reader = threading.Thread(target=read)
        reader.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join()
        done.set()
        reader.join()
        assert not errors

        assert _matches(sharded, ["A", "B"]) == _matches(single, ["A", "B"])
        assert _matches(sharded, "SEQ(A, (B|C)) WITHIN 6") == _matches(
            single, "SEQ(A, (B|C)) WITHIN 6"
        )
        assert sharded.count(["A", "B", "C"]) == single.count(["A", "B", "C"])
        assert sharded.contains(["A", "B"]) == single.contains(["A", "B"])
        assert sharded.trace_ids() == single.trace_ids()
    finally:
        single.close()
        sharded.close()


@pytest.mark.parametrize(
    "case",
    ("order", "error", "expired", "deadline_in_detect", "deadline_in_statistics"),
)
def test_the_gather_runs_shard_after_shard(case, monkeypatch):
    """Shard 0, then shard 1, in the caller's thread; an error or an
    expired deadline stops the fan-out before shard 1 fetches anything."""
    sharded = ShardedSequenceIndex([SequenceIndex() for _ in range(2)])
    try:
        sharded.update(EventLog.from_dict({f"t{i}": list("ABC") for i in range(8)}))
        assert all(shard.trace_ids() for shard in sharded.shards)
        slow_s = 0.3 if case.startswith("deadline_in") else 0.0
        fetched = []  # (shard, thread) of every postings / Count-row fetch
        for number, shard in enumerate(sharded.shards):
            for owner, name in (
                (shard.query, "_fetch_postings"),
                (shard.tables, "get_pair_counts"),
            ):

                def recorded(*args, fetch=getattr(owner, name), number=number):
                    fetched.append((number, threading.get_ident()))
                    time.sleep(slow_s)
                    return fetch(*args)

                monkeypatch.setattr(owner, name, recorded)
        here = threading.get_ident()
        if case == "order":
            assert sharded._gather(lambda shard: shard.trace_ids(), None) == [
                shard.trace_ids() for shard in sharded.shards
            ]
            generous = time.monotonic() + 30.0
            sharded.detect(["A", "B", "C"], deadline=generous)
            sharded.statistics(["A", "B", "C"], deadline=generous)
            assert fetched == [(0, here), (1, here)] * 2
        elif case == "error":

            def boom(*args):
                raise RuntimeError("shard 0 exploded")

            monkeypatch.setattr(sharded.shards[0].query, "_fetch_postings", boom)
            with pytest.raises(RuntimeError, match="shard 0 exploded"):
                sharded.detect(["A", "B", "C"])
            assert fetched == []
        elif case == "expired":
            with pytest.raises(DeadlineExceeded):
                sharded._gather(
                    lambda shard: shard.query.statistics(["A", "B"]),
                    time.monotonic() - 1.0,
                )
            assert fetched == []
            assert sharded.metrics.deadline_exceeded == 1
        else:
            query = sharded.detect if case == "deadline_in_detect" else sharded.statistics
            with pytest.raises(DeadlineExceeded):
                query(["A", "B", "C"], deadline=time.monotonic() + 0.05)
            assert fetched == [(0, here)]
    finally:
        sharded.close()


class TestCoordinator:
    def test_incremental_updates_keep_equivalence(self):
        single, sharded = _make_pair(3)
        try:
            first = EventLog.from_dict({"t1": list("ABAB"), "t2": list("BA")})
            second = EventLog(
                [
                    Trace.from_pairs("t1", [("A", 10.0), ("B", 11.0)]),
                    Trace.from_pairs("t3", [("A", 0.0), ("A", 1.0), ("B", 2.0)]),
                ]
            )
            for engine in (single, sharded):
                engine.update(first)
            assert _matches(sharded, ["A", "B"]) == _matches(single, ["A", "B"])
            for engine in (single, sharded):
                engine.update(second)
            assert _matches(sharded, ["A", "B"]) == _matches(single, ["A", "B"])
            assert sharded.count(["A", "B"]) == single.count(["A", "B"])
        finally:
            single.close()
            sharded.close()

    def test_query_cache_invalidates_per_shard(self):
        single, sharded = _make_pair(2)
        try:
            log = EventLog.from_dict({"t1": list("AB"), "t2": list("AB")})
            single.update(log)
            sharded.update(log)
            before = _matches(sharded, ["A", "B"])
            assert before == _matches(single, ["A", "B"])
            extra = EventLog(
                [Trace.from_pairs("t1", [("A", 10.0), ("B", 11.0)])]
            )
            single.update(extra)
            sharded.update(extra)
            assert _matches(sharded, ["A", "B"]) == _matches(single, ["A", "B"])
            assert _matches(sharded, ["A", "B"]) != before
        finally:
            single.close()
            sharded.close()

    def test_a_query_is_one_fanout(self):
        """Every shard plans from its own postings inside the one fan-out
        that answers: no gather runs ahead of it to plan."""
        single, sharded = _make_pair(3)
        try:
            sharded.update(EventLog.from_dict({f"t{i}": list("ABCAB") for i in range(6)}))
            for query in (
                lambda: sharded.detect(["A", "B", "C"]),
                lambda: sharded.detect("SEQ(A, (B|C))"),
                lambda: sharded.count(["A", "B"]),
                lambda: sharded.contains(["B", "C"]),
                lambda: sharded.explain(["A", "B"]),
            ):
                before = sharded.metrics.fanouts
                query()
                assert sharded.metrics.fanouts - before == 1
        finally:
            single.close()
            sharded.close()

    def test_a_deadline_expiring_in_shard_work_stops_the_one_fanout(self, monkeypatch):
        single, sharded = _make_pair(2)
        try:
            sharded.update(EventLog.from_dict({f"t{i}": list("ABC") for i in range(4)}))
            for shard in sharded.shards:
                fetch = shard.query._fetch_postings

                def slow_fetch(pairs, partition, fetch=fetch):
                    time.sleep(0.5)
                    return fetch(pairs, partition)

                monkeypatch.setattr(shard.query, "_fetch_postings", slow_fetch)
            start = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                sharded.detect(["A", "B", "C"], deadline=start + 0.05)
            assert (sharded.metrics.fanouts, sharded.metrics.deadline_exceeded) == (1, 1)
        finally:
            single.close()
            sharded.close()

    def test_storage_stats_aggregates(self):
        single, sharded = _make_pair(3)
        try:
            sharded.update(EventLog.from_dict({"t1": list("AB")}))
            stats = sharded.storage_stats()
            assert stats["num_shards"] == 3
            assert len(stats["shards"]) == 3
            assert set(stats["totals"]) >= {
                "sstables",
                "records",
                "data_bytes",
                "raw_data_bytes",
                "file_bytes",
                "compression_ratio",
            }
        finally:
            single.close()
            sharded.close()

    @pytest.mark.parametrize("kind", ("single", "sharded"))
    def test_every_write_and_query_after_close_is_a_store_closed_error(self, kind):
        if kind == "single":
            engine = SequenceIndex()
        else:
            engine = ShardedSequenceIndex([SequenceIndex() for _ in range(2)])
        log = EventLog.from_dict({f"t{i}": list("ABC") for i in range(4)})
        engine.update(log)
        # Memoized or cached: a closed engine must not serve them.
        engine.detect(["A", "B"])
        engine.statistics(["A", "B"])
        engine.continuations(["A"])
        engine.close()
        engine.close()
        for call in (
            lambda: engine.update(log),
            lambda: engine.prune_trace("t1"),
            lambda: engine.detect(["A", "B"]),
            lambda: engine.count(["A", "B"]),
            lambda: engine.contains(["A", "B"]),
            lambda: engine.explain(["A", "B"]),
            lambda: engine.statistics(["A", "B"]),
            lambda: engine.continuations(["A"]),
            lambda: engine.detect_with_prefixes(["A", "B"]),
            lambda: engine.storage_stats(),
            lambda: engine.trace_ids(),
            lambda: engine.top_pairs(),
            lambda: engine.get_trace("t1"),
        ):
            with pytest.raises(StoreClosedError):
                call()
