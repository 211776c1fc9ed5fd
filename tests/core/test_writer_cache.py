"""The writer reads through the row cache and refreshes what it extends.

An update reads the old Seq rows of its traces (Algorithm 1 line 2) through
the engine's row cache, and a write puts the extended row of every trace
that already had a stored one back into the cache instead of dropping it.
The rule these tests hold: whatever the interleaving of writes, reads and
failures, every Seq row the cache holds is exactly -- timestamp types
included -- what the store decodes; the writer's lookups are invisible to
every reader's tally; and an engine without a row cache reads the store.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import IndexBuilder
from repro.core.engine import SequenceIndex
from repro.core.model import Event, EventLog
from repro.core.query import _CHARGE, KINDS, SEQUENCE
from repro.ingest import index_snapshot
from repro.kvstore import InMemoryStore
from repro.shard.index import ShardedSequenceIndex

ALPHABET = "ABC"
#: how a step stamps its events: ints, fractional floats, integral floats,
#: or ints and floats alternating (a batch no columnar chunk can hold)
STAMPS = ("int", "float", "integral", "mixed")
#: (kind, which known trace, activities, stamp kind)
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["new", "append", "replay", "partition", "prune", "fail"]),
        st.integers(0, 7),
        st.text(alphabet=ALPHABET, min_size=1, max_size=4),
        st.sampled_from(STAMPS),
    ),
    min_size=1,
    max_size=10,
)


def _engine(shards: int, **caches):
    if shards == 1:
        return SequenceIndex(**caches)
    return ShardedSequenceIndex(
        [SequenceIndex(**caches) for _ in range(shards)]
    )


def _stamps(kind: str, after: float, n: int) -> list:
    start = int(after) + 1
    if kind == "int":
        return [start + i for i in range(n)]
    if kind == "float":
        return [start + i + 0.5 for i in range(n)]
    if kind == "integral":
        return [float(start + i) for i in range(n)]
    return [start + i if i % 2 else start + i + 0.5 for i in range(n)]


def _typed(row):
    activities, stamps = row
    return activities, [(type(ts), ts) for ts in stamps]


def _seq_rows(shard) -> dict:
    cache = shard.query.row_cache
    return {key[2]: cache.peek(key) for key in cache.keys() if key[0] == SEQUENCE}


def _assert_cached_rows_are_stored(engine) -> None:
    for shard in engine.shards:
        for trace_id, row in _seq_rows(shard).items():
            assert _typed(row) == _typed(shard.tables.get_sequences([trace_id])[0]), trace_id


def _fail_part_way(engine, events) -> None:
    """An update whose store write applies its first half, then raises."""
    shard = engine.shards[engine.shard_of(events[0].trace_id)]
    store = shard.store
    real_write = store.write

    def write_half(ops):
        ops = list(ops)
        real_write(ops[: len(ops) // 2])
        raise RuntimeError("killed part-way")

    store.write = write_half
    try:
        with pytest.raises(RuntimeError, match="part-way"):
            engine.update(events)
    finally:
        del store.write


@settings(max_examples=60, deadline=None)
@given(
    steps=STEPS,
    shards=st.sampled_from([1, 2]),
    cache_bytes=st.sampled_from([8 * 1024 * 1024, 2 * 1024]),  # 2 KiB evicts
)
def test_every_cached_seq_row_is_the_stored_row(steps, shards, cache_bytes):
    engine = _engine(shards, cache_bytes=cache_bytes)
    engine.update(EventLog.from_dict({"t0": "AB", "t1": "BCA"}))
    tails = {trace: engine.indexed_tail(trace) for trace in ("t0", "t1")}
    for kind, which, acts, stamp_kind in steps:
        known = list(tails)
        trace = f"n{len(tails)}" if kind in ("new", "partition") else known[which % len(known)]
        stamps = _stamps(stamp_kind, tails.get(trace) or 0, len(acts))
        events = [Event(trace, act, ts) for act, ts in zip(acts, stamps)]
        if kind == "prune":
            engine.prune_trace(trace)
        elif kind == "fail":
            _fail_part_way(engine, events)
        elif kind == "replay":  # an at-least-once redelivery: the old tail again
            replayed = [Event(trace, "A", tails[trace])] if tails[trace] is not None else []
            engine.update(replayed + events, dedup=True)
        else:
            engine.update(events, partition="p" if kind == "partition" else "")
        if kind != "prune":
            tails[trace] = engine.indexed_tail(trace)
        _assert_cached_rows_are_stored(engine)
        # a reader fills the cache too, pruned traces' empty rows included
        engine.detect("SEQ(A, B)")
        _assert_cached_rows_are_stored(engine)


def test_a_second_write_caches_the_extended_row():
    index = SequenceIndex()
    stats = index.update([Event("t", "A", 1), Event("t", "B", 2.5)])
    assert stats.new_traces == 1 and stats.cached_sequences == 0
    assert _seq_rows(index) == {}  # a first write caches nothing

    stats = index.update([Event("t", "C", 3)])  # read from the store
    assert stats.cached_sequences == 0
    assert _typed(_seq_rows(index)["t"]) == _typed((["A", "B", "C"], [1, 2.5, 3]))

    before = index.store.metrics.snapshot()
    stats = index.update([Event("t", "A", 4.0), Event("t", "B", 5.0)])
    assert stats.cached_sequences == 1
    assert _typed(_seq_rows(index)["t"]) == _typed(
        (["A", "B", "C", "A", "B"], [1, 2.5, 3, 4.0, 5.0])
    )
    after = index.store.metrics.snapshot()
    assert after["multi_get_batches"] == before["multi_get_batches"]  # no store read
    # a replaced row is not an invalidation
    assert after["sequence_cache_invalidations"] == before["sequence_cache_invalidations"]


def test_cached_sequences_counts_exactly_the_hits():
    index = SequenceIndex()
    index.update(EventLog.from_dict({"a": "AB", "b": "AB", "c": "AB"}))
    index.update([Event("a", "C", 10), Event("b", "C", 10)])  # a and b cached
    before = index.store.metrics.snapshot()
    stats = index.update(
        [Event(trace, "A", 11) for trace in ("a", "b", "c")] + [Event("d", "A", 1)]
    )
    assert stats.cached_sequences == 2
    after = index.store.metrics.snapshot()
    assert after["multi_get_batches"] - before["multi_get_batches"] == 1  # c and d
    assert set(_seq_rows(index)) == {"a", "b", "c"}  # d is new


def test_writer_lookups_are_not_reader_lookups():
    index = SequenceIndex()
    index.update(EventLog.from_dict({"t1": "AB", "t2": "AB"}))
    index.detect("SEQ(A, B)")  # a reader caches the (A, B) postings, t1 and t2
    index.update([Event("t1", "C", 10)])  # read through the cache, refreshed
    order = index.query.row_cache.keys()
    budget = index.row_cache_stats()
    kinds = {kind: index.query.kind_stats(kind) for kind in KINDS}
    counters = index.store.metrics.snapshot()

    stats = index.update([Event("t1", "A", 11), Event("t2", "C", 12)])
    assert stats.cached_sequences == 2
    after = index.row_cache_stats()
    assert (after["hits"], after["misses"]) == (budget["hits"], budget["misses"])
    assert {kind: index.query.kind_stats(kind) for kind in KINDS} == kinds
    snapshot = index.store.metrics.snapshot()
    for name in ("sequence_cache_hits", "sequence_cache_misses", "sequence_cache_invalidations"):
        assert snapshot[name] == counters[name], name
    # every row survives the write (none was dropped), the refreshed ones last
    refreshed = [(SEQUENCE, None, "t1"), (SEQUENCE, None, "t2")]
    keys = index.query.row_cache.keys()
    assert keys[-2:] == refreshed
    assert keys[:-2] == [key for key in order if key not in refreshed]


def test_a_failed_update_leaves_the_cache_empty():
    index = SequenceIndex()
    index.update(EventLog.from_dict({"t1": "AB", "t2": "AB"}))
    index.update([Event("t1", "C", 10), Event("t2", "C", 10)])
    index.detect(["A", "B"])
    assert len(index.query.row_cache) > 0
    _fail_part_way(index, [Event("t1", "A", 11), Event("t2", "A", 11)])
    assert index.query.row_cache.keys() == []
    stats = index.update([Event("t1", "B", 12)])  # read from the store again
    assert stats.cached_sequences == 0
    _assert_cached_rows_are_stored(index)


def test_without_a_row_cache_the_writer_reads_the_store():
    index = SequenceIndex(cache_bytes=0)
    builder = IndexBuilder(InMemoryStore())
    for writer, store in ((index, index.store), (builder, builder.tables.store)):
        for n in range(3):
            before = store.metrics.snapshot()["multi_get_batches"]
            stats = writer.update([Event("t", "AB"[n % 2], n + 1)])
            assert stats.cached_sequences == 0
            assert store.metrics.snapshot()["multi_get_batches"] == before + 1
    assert index.query.row_cache is None


def test_a_refreshed_row_heavier_than_the_budget_is_not_cached():
    index = SequenceIndex(cache_bytes=2048)
    index.update([Event("t", "AB"[i % 2], float(i)) for i in range(10)])
    index.update([Event("t", "A", 10.0)])
    assert (SEQUENCE, None, "t") in index.query.row_cache.keys()
    index.update([Event("t", "AB"[i % 2], float(i)) for i in range(11, 40)])
    assert _CHARGE[SEQUENCE]((["A"] * 40, [0.0] * 40)) > 2048
    assert index.query.row_cache.keys() == []
    assert index.row_cache_stats()["evictions"] == 0


def test_a_sharded_update_sums_the_cached_rows():
    engine = _engine(2)
    traces = [f"t{i}" for i in range(8)]
    engine.update([Event(trace, "A", 1) for trace in traces])
    engine.update([Event(trace, "B", 2) for trace in traces])
    assert all(_seq_rows(shard) for shard in engine.shards)  # both shards hold some
    stats = engine.update([Event(trace, "C", 3) for trace in traces])
    assert stats.cached_sequences == len(traces)


def test_readers_beside_a_refreshing_writer_leave_only_stored_rows():
    # A 6 KiB budget holds a few rows only, so readers keep missing and
    # fetching; each reader fetch then sleeps, so writes land inside it.
    index = SequenceIndex(cache_bytes=6 * 1024)
    traces = [f"t{i}" for i in range(6)]
    batches = [[Event(trace, "AB"[i % 2], i + 1) for trace in traces for i in range(4)]]
    batches += [[Event(trace, "AB"[step % 2], step) for trace in traces] for step in range(5, 45)]
    index.update(batches[0])
    real_fetch = index.tables.get_sequences
    writer = threading.current_thread()

    def slow_reader_fetch(trace_ids):
        rows = real_fetch(trace_ids)
        if threading.current_thread() is not writer:
            time.sleep(0.001)
        return rows

    index.tables.get_sequences = slow_reader_fetch
    errors: list[BaseException] = []
    done = threading.Event()

    def reader():
        try:
            while not done.is_set():
                index.detect("SEQ(A, B)")  # verification reads and fills Seq rows
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader) for _ in range(4)]
    try:
        for thread in threads:
            thread.start()
        for batch in batches[1:]:  # extend every trace, over and over
            index.update(batch)
            time.sleep(0.001)
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert index.sequence_cache_stats()["misses"] > 0  # the readers did fetch
    _assert_cached_rows_are_stored(index)
    # a stale row read by the writer would have created the wrong pairs
    clean = SequenceIndex(cache_bytes=0)
    for batch in batches:
        clean.update(batch)
    assert index_snapshot(index) == index_snapshot(clean)
