"""``update(dedup=True)``: the replay filter, folded into the builder.

Until the fold the filter ran in front of ``update()`` as
``repro.ingest.ingester.drop_indexed``; a verbatim copy is kept here as the
oracle, so the builder's in-row filter is checked against exactly the rule
it replaced.  ``dedup=False`` must keep raising ``TraceOrderError``
wherever it did.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SequenceIndex
from repro.core.errors import TraceOrderError
from repro.core.model import Event, EventLog
from repro.ingest import index_snapshot
from repro.shard import ShardedSequenceIndex


def drop_indexed(events, tail_of):
    """The pre-fold replay filter, verbatim (the oracle)."""
    tails = {}
    fresh = []
    dropped = 0
    for event in events:
        trace_id = event.trace_id
        if trace_id not in tails:
            tails[trace_id] = tail_of(trace_id)
        tail = tails[trace_id]
        if tail is not None and event.timestamp <= tail:
            dropped += 1
            continue
        tails[trace_id] = event.timestamp
        fresh.append(event)
    return fresh, dropped


def _engine(shards: int):
    if shards == 1:
        return SequenceIndex()
    return ShardedSequenceIndex([SequenceIndex() for _ in range(shards)])


def _events(draw, max_size):
    return draw(
        st.lists(
            st.builds(
                Event,
                st.sampled_from(["t1", "t2", "t3"]),
                st.sampled_from("ABC"),
                st.integers(0, 12),
            ),
            max_size=max_size,
        )
    )


@st.composite
def indexed_then_batch(draw):
    """An indexed prefix (made valid by the oracle itself) and an arbitrary
    batch: arrival order, in-batch disorder and duplicates, events on both
    sides of every tail, unknown traces."""
    indexed, _ = drop_indexed(_events(draw, 12), lambda trace: None)
    return indexed, _events(draw, 14)


@pytest.mark.parametrize("shards", (1, 2), ids=("single", "2-shards"))
@given(case=indexed_then_batch())
@settings(max_examples=150, deadline=None)
def test_dedup_equals_the_filter_it_replaced(shards, case):
    indexed, batch = case
    with _engine(shards) as folded, _engine(shards) as filtered:
        folded.update(indexed)
        filtered.update(indexed)
        fresh, dropped = drop_indexed(batch, filtered.indexed_tail)
        expected = filtered.update(fresh)
        stats = folded.update(batch, dedup=True)
        assert (stats.events_indexed, stats.events_deduped) == (len(fresh), dropped)
        assert (stats.traces_seen, stats.new_traces, stats.pairs_created) == (
            expected.traces_seen, expected.new_traces, expected.pairs_created
        )
        assert index_snapshot(folded) == index_snapshot(filtered)


@given(case=indexed_then_batch())
@settings(max_examples=150, deadline=None)
def test_without_dedup_the_order_check_is_unchanged(case):
    indexed, batch = case
    with _engine(1) as engine:
        engine.update(indexed)
        before = index_snapshot(engine)
        # The rule before the fold: per trace, the batch sorted by time must
        # be strictly increasing and start after the indexed tail.
        rejects = False
        for trace_id in {event.trace_id for event in batch}:
            stamps = sorted(e.timestamp for e in batch if e.trace_id == trace_id)
            tail = engine.indexed_tail(trace_id)
            rejects |= len(set(stamps)) < len(stamps)
            rejects |= tail is not None and stamps[0] <= tail
        if rejects:
            with pytest.raises(TraceOrderError):
                engine.update(batch)
            assert index_snapshot(engine) == before
        else:
            stats = engine.update(batch)
            assert (stats.events_indexed, stats.events_deduped) == (len(batch), 0)


class TestFold:
    def test_event_log_input(self):
        log = EventLog.from_events(
            [Event("t1", a, ts) for ts, a in enumerate("ABAB")]
            + [Event("t2", a, ts) for ts, a in enumerate("BA")]
        )
        grown = EventLog.from_events(
            [Event("t1", a, ts) for ts, a in enumerate("ABABCA")]
            + [Event("t2", a, ts) for ts, a in enumerate("BA")]
            + [Event("t3", "A", 0)]
        )
        with _engine(1) as folded, _engine(1) as filtered:
            folded.update(log)
            filtered.update(log)
            fresh, dropped = drop_indexed(list(grown.events()), filtered.indexed_tail)
            filtered.update(fresh)
            stats = folded.update(grown, dedup=True)
            assert (stats.events_indexed, stats.events_deduped) == (3, 6) == (len(fresh), dropped)
            assert stats.traces_seen == 2  # t2 was a pure replay
            assert index_snapshot(folded) == index_snapshot(filtered)
            with pytest.raises(TraceOrderError):
                folded.update(grown)

    def test_pruned_trace_reads_as_unknown(self):
        events = [Event("t1", a, ts) for ts, a in enumerate("ABAB")]
        with _engine(1) as engine:
            engine.update(events)
            engine.prune_trace("t1")
            assert engine.indexed_tail("t1") is None
            # Exactly what the filter did with a ``None`` tail: everything passes.
            stats = engine.update(events, dedup=True)
            assert (stats.events_indexed, stats.events_deduped, stats.new_traces) == (4, 0, 1)

    def test_events_without_timestamps_are_still_rejected(self):
        with _engine(1) as engine:
            with pytest.raises(TraceOrderError):
                engine.update([Event("t1", "A", None)], dedup=True)

    def test_pure_replay_writes_nothing(self):
        events = [Event("t1", a, ts) for ts, a in enumerate("ABAB")]
        with _engine(1) as engine:
            engine.update(events)
            generation = engine.write_generation
            before = index_snapshot(engine)
            stats = engine.update(events, partition="audit", dedup=True)
            assert (stats.events_indexed, stats.events_deduped) == (0, 4)
            assert engine.write_generation == generation
            assert index_snapshot(engine) == before
            assert engine.tables.partitions() == [""]  # not even the partition
            engine.update([Event("t1", "C", 9)], dedup=True)
            assert engine.write_generation == generation + 1
