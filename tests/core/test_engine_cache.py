"""The engine's row cache must be invisible except for speed.

Property test: over random logs and random interleavings of writes
(``update`` of new and known traces, ``dedup`` replays, a named partition,
``prune_trace``) and every query op, a cached engine -- single-store or
2 shards -- answers exactly as an engine with the row cache off does over
the same store, after every step and again on the second (row-cache warm)
ask.  The rule it holds: the row cache (postings, Seq rows, Count rows)
drops exactly the rows a write touched, and a fetch that overlapped a write
does not fill it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SequenceIndex
from repro.core.model import Event, EventLog
from repro.core.policies import Policy
from repro.core.tables import IndexTables
from repro.executor import ParallelExecutor
from repro.shard.index import ShardedSequenceIndex

ALPHABET = "ABCD"

LOGS = st.lists(
    st.text(alphabet=ALPHABET, min_size=1, max_size=8), min_size=1, max_size=5
).map(lambda traces: {f"t{i}": acts for i, acts in enumerate(traces)})
PATTERNS = st.lists(st.sampled_from(ALPHABET), min_size=2, max_size=3)
COMPOSITES = st.sampled_from(
    ["SEQ(A, (B|C)+)", "SEQ(A, !D, B)", "SEQ(B, C) WITHIN 3", "SEQ((A|D), C)"]
)
#: (kind, which known trace, activities); "new" and "partition" start a trace
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["new", "append", "replay", "partition", "prune"]),
        st.integers(0, 7),
        st.text(alphabet=ALPHABET, min_size=1, max_size=4),
    ),
    max_size=8,
)
NO_CACHES = {"cache_bytes": 0}


def _engine(shards: int, stores=None, **caches):
    """A single-store engine, or a serial 2-shard one; over ``stores`` if given."""
    stores = stores or [None] * shards
    if shards == 1:
        return SequenceIndex(stores[0], **caches)
    return ShardedSequenceIndex(
        [SequenceIndex(store, **caches) for store in stores],
        executor=ParallelExecutor.serial(),
    )


def _uncached_view(engine):
    """A fresh engine with every cache off over ``engine``'s store(s)."""
    if isinstance(engine, SequenceIndex):
        return _engine(1, [engine.store], **NO_CACHES)
    return _engine(len(engine.shards), [s.store for s in engine.shards], **NO_CACHES)


def _write(engine, step, tails: dict[str, float]) -> None:
    """Apply one write step, keeping ``tails`` (each trace's last timestamp)."""
    kind, which, acts = step
    known = list(tails)
    trace = f"n{len(tails)}" if kind in ("new", "partition") else known[which % len(known)]
    if kind == "prune":
        engine.prune_trace(trace)
        return
    tail = tails.get(trace, 0.0)
    events = [Event(trace, act, tail + 1 + i) for i, act in enumerate(acts)]
    if kind == "replay":  # an at-least-once redelivery: the old tail again
        engine.update([Event(trace, "A", tail)] + events, dedup=True)
    elif kind == "partition":  # "q" is registered by its first write
        engine.update(events, partition="pq"[which % 2])
    else:
        engine.update(events)
    tails[trace] = tail + len(acts)


def _ask_everything(index, pattern: list[str], composite: str = "SEQ(A, B)"):
    return (
        index.detect(pattern),
        index.detect(pattern, partition=None),
        index.detect(pattern, partition="p"),
        index.detect(pattern, policy=Policy.STAM, max_matches=20),
        index.detect(composite),
        index.count(pattern),
        index.contains(pattern),
        index.statistics(pattern),
        index.continuations(pattern, top_k=3),
        index.continuations(pattern, mode="fast"),
        index.explore_at(pattern, 0),  # reads ReverseCount rows
        index.explore_at(pattern, 1),
    )


@settings(max_examples=40, deadline=None)
@given(
    log=LOGS,
    steps=STEPS,
    pattern=PATTERNS,
    composite=COMPOSITES,
    shards=st.sampled_from([1, 2]),
    cache_bytes=st.sampled_from([8 * 1024 * 1024, 4 * 1024]),  # 4 KiB evicts
)
def test_cached_equals_uncached(log, steps, pattern, composite, shards, cache_bytes):
    cached = _engine(shards, cache_bytes=cache_bytes)
    cached.update(EventLog.from_dict(log))
    # p0 and q0 hash to different shards: partition "p" exists on both
    seed = {"p0": "AB", "q0": "BC"}
    cached.update(
        [Event(t, act, i + 1.0) for t, acts in seed.items() for i, act in enumerate(acts)],
        partition="p",
    )
    tails = {trace: cached.indexed_tail(trace) for trace in [*log, *seed]}

    for step in [None, *steps]:
        if step is not None:
            _write(cached, step, tails)
        reference = _ask_everything(_uncached_view(cached), pattern, composite)
        assert _ask_everything(cached, pattern, composite) == reference
        # the second ask reads the rows the first one cached
        assert _ask_everything(cached, pattern, composite) == reference


def test_update_invalidates_cache():
    index = SequenceIndex()
    index.update([Event("t1", "A", 1), Event("t1", "B", 2)])
    assert index.count(["A", "B"]) == 1
    assert index.count(["A", "B"]) == 1  # cache hit

    generation = index.write_generation
    # Incremental append to the same trace plus a brand-new trace.
    index.update([Event("t1", "A", 3), Event("t1", "B", 4), Event("t2", "A", 5)])
    assert index.write_generation > generation

    # Stale entries must be unreachable: t1 = A,B,A,B now completes
    # A..B twice under skip-till-next-match, not the cached pre-update 1.
    assert index.count(["A", "B"]) == 2
    assert sorted(index.contains(["A", "B"])) == ["t1"]
    index.update([Event("t2", "B", 6)])
    assert sorted(index.contains(["A", "B"])) == ["t1", "t2"]


def test_a_write_keeps_the_rows_it_did_not_touch():
    index = SequenceIndex()
    index.update(EventLog.from_dict({"t1": "AB", "t2": "CD"}))
    index.detect(["A", "B"])
    index.detect(["C", "D"])  # both pairs cached
    before = index.store.metrics.snapshot()
    index.update([Event("t3", "A", 1), Event("t3", "B", 2)])  # writes (A, B) only
    assert len(index.detect(["A", "B"])) == 2
    assert len(index.detect(["C", "D"])) == 1
    after = index.store.metrics.snapshot()
    assert after["postings_cache_invalidations"] - before["postings_cache_invalidations"] == 1
    assert after["postings_cache_misses"] - before["postings_cache_misses"] == 1  # (A, B)
    assert after["postings_cache_hits"] - before["postings_cache_hits"] == 1  # (C, D)


def test_prune_trace_invalidates_cache():
    index = SequenceIndex()
    index.update(EventLog.from_dict({"t1": "AB", "t2": "AB"}))
    index.detect("SEQ(A, B)")  # caches the (A, B) postings and both Seq rows
    before = index.store.metrics.snapshot()
    generation = index.write_generation
    index.prune_trace("t1")
    assert index.write_generation > generation

    # only t1's Seq row left the caches; the pair survives
    after = index.store.metrics.snapshot()
    assert after["sequence_cache_invalidations"] - before["sequence_cache_invalidations"] == 1
    assert after["postings_cache_invalidations"] == before["postings_cache_invalidations"]
    assert index.sequence_cache_stats()["entries"] == 1
    assert len(index.detect(["A", "B"])) == 2  # postings still answer
    final = index.store.metrics.snapshot()
    assert final["postings_cache_hits"] - after["postings_cache_hits"] == 1
    assert final["postings_cache_misses"] == after["postings_cache_misses"]


def test_generation_bumps_after_update_applies(monkeypatch):
    # A row fetched beside an in-flight update notes the PRE-update
    # generation: the bump happens only once builder.update() has finished,
    # so a fetch that overlapped the write never fills the row cache.
    index = SequenceIndex()
    real_update = index.builder.update

    def observing_update(*args, **kwargs):
        assert index.write_generation == generation_before
        return real_update(*args, **kwargs)

    generation_before = index.write_generation
    monkeypatch.setattr(index.builder, "update", observing_update)
    index.update([Event("t1", "A", 1)])
    assert index.write_generation == generation_before + 1


def test_failed_update_still_invalidates(monkeypatch):
    index = SequenceIndex()
    index.update([Event("t1", "A", 1), Event("t1", "B", 2)])
    # populate one row of each kind in the row cache
    assert index.detect("SEQ(A, B)")  # the (A, B) postings and t1's Seq row
    index.query.count_row("A")
    generation = index.write_generation

    def exploding_update(*args, **kwargs):
        raise RuntimeError("mid-batch failure")

    monkeypatch.setattr(index.builder, "update", exploding_update)
    with pytest.raises(RuntimeError):
        index.update([Event("t1", "A", 3)])
    # A partially applied batch must not leave pre-failure entries servable.
    assert index.write_generation == generation + 1

    before = index.store.metrics.snapshot()
    assert index.detect("SEQ(A, B)")
    index.query.count_row("A")
    after = index.store.metrics.snapshot()
    for counter in ("postings_cache_misses", "sequence_cache_misses"):
        assert after[counter] - before[counter] == 1, counter
    # three batched reads: the postings, the Seq row and the Count row
    assert after["multi_get_batches"] - before["multi_get_batches"] == 3


def test_a_fetch_that_overlaps_a_write_does_not_fill_the_cache(monkeypatch):
    index = SequenceIndex()
    index.update([Event("t1", "A", 1), Event("t1", "B", 2)])
    real_fetch = IndexTables.get_index_many

    def fetch_beside_a_write(self, pairs, partition=""):
        fetched = real_fetch(self, pairs, partition)  # the pre-write row
        monkeypatch.setattr(IndexTables, "get_index_many", real_fetch)
        index.update([Event("t2", "A", 1), Event("t2", "B", 2)])  # writes (A, B)
        return fetched

    monkeypatch.setattr(IndexTables, "get_index_many", fetch_beside_a_write)
    assert index.contains(["A", "B"]) == ["t1"]  # read before the write
    misses = index.postings_cache_stats()["misses"]
    assert index.contains(["A", "B"]) == ["t1", "t2"]
    assert index.postings_cache_stats()["misses"] == misses + 1


def test_cache_hits_do_not_alias_results():
    index = SequenceIndex()
    index.update([Event("t1", "A", 1), Event("t1", "B", 2)])
    first = index.detect(["A", "B"])
    first.clear()  # a caller mutating its result must not poison the cache
    second = index.detect(["A", "B"])
    assert len(second) == 1


@pytest.mark.parametrize("sizes", [{"cache_bytes": -1}])
def test_a_negative_cache_size_is_an_error(sizes):
    with pytest.raises(ValueError, match="non-negative"):
        SequenceIndex(**sizes)


@pytest.mark.parametrize("sizes", [{"cache_bytes": -1}, {"query_cache_size": 128}])
def test_a_negative_cache_size_leaves_no_sharded_store_behind(tmp_path, sizes):
    """A negative ``cache_bytes``, or any ``query_cache_size`` but 0 (there
    is no query cache), raises before the manifest is written."""
    root = tmp_path / "sharded"
    message = "non-negative" if "cache_bytes" in sizes else "query_cache_size must be 0"
    with pytest.raises(ValueError, match=message):
        ShardedSequenceIndex.open(root, lambda path: None, num_shards=2, **sizes)
    assert not root.exists()  # no SHARDS.json, no shard store
