"""Incremental update without reading ``LastChecked``: the derivation battery.

``IndexBuilder.update`` derives the pairs a batch adds from the ``Seq`` row
it already holds (greedy matching is prefix-stable) instead of joining with
``LastChecked``.  Two properties keep that honest:

* for any log and any split of its event stream into batches, ``update`` x k
  leaves every table equal to one ``update`` (``index_snapshot``), under
  both indexable policies, on one store and on two shards;
* the ``LastChecked`` table -- still written, no longer read by the builder
  -- holds, per pair, exactly the latest over all traces of the last
  completion derivable from ``Seq``, so ``statistics().last_completion``
  stays exact.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SequenceIndex
from repro.core.model import Event
from repro.core.pairs import create_pairs
from repro.core.policies import Policy
from repro.ingest import index_snapshot
from repro.shard import ShardedSequenceIndex

#: each indexable policy, by the pair creator its index builds with
POLICIES = {"indexing": Policy.STNM, "strict": Policy.SC}


@st.composite
def streams(draw):
    """``(events, cuts)``: an interleaved event stream and where to split it.

    Few traces over a tiny time range, so traces share timestamps; a tiny
    alphabet, so ``(A, A)`` pairs and repeated types are the norm; stamps
    are ints, or floats in halves (exact in binary, so Count duration sums
    do not depend on the batch grouping).  The stream is globally
    time-ordered with ties across traces in drawn order: every contiguous
    split then appends to each trace in time order, often several events of
    one trace per batch.
    """
    as_float = draw(st.booleans())
    events = []
    for trace in draw(st.lists(st.sampled_from(["t1", "t2", "t3", "t4"]), unique=True, min_size=1)):
        stamps = sorted(draw(st.sets(st.integers(0, 24), min_size=1, max_size=14)))
        activities = draw(st.lists(st.sampled_from("ABC"), min_size=len(stamps), max_size=len(stamps)))
        if draw(st.booleans()):
            activities[-1] = "Z"  # a type first seen at the end of the trace
        events.extend(
            Event(trace, activity, ts / 2 if as_float else ts)
            for activity, ts in zip(activities, stamps)
        )
    events = draw(st.permutations(events))
    events.sort(key=lambda event: event.timestamp)
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(events) - 1)), max_size=6)))
    return events, cuts


def _batches(events, cuts):
    bounds = [0, *cuts, len(events)]
    return [events[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def _engine(policy: Policy, shards: int):
    def single():
        return SequenceIndex(policy=policy)

    return single() if shards == 1 else ShardedSequenceIndex([single() for _ in range(shards)])


def _derived_last_checked(snapshot, policy: Policy):
    """``{pair: last completion in any trace}`` recomputed from the Seq rows."""
    derived: dict = {}
    for seq in snapshot["seq"].values():
        pairs = create_pairs([a for a, _ in seq], [ts for _, ts in seq], policy)
        for pair, matches in pairs.items():
            if matches:
                derived[pair] = max(matches[-1][1], derived.get(pair, matches[-1][1]))
    return derived


@pytest.mark.parametrize("shards", (1, 2), ids=("single", "2-shards"))
@pytest.mark.parametrize("policy", POLICIES.values(), ids=list(POLICIES))
@given(stream=streams())
@settings(max_examples=60, deadline=None)
def test_batched_updates_equal_one_update(policy, shards, stream):
    events, cuts = stream
    with _engine(policy, shards) as batched, _engine(policy, shards) as whole:
        for batch in _batches(events, cuts):
            batched.update(batch)
        whole.update(events)
        snapshot = index_snapshot(batched)
        assert snapshot == index_snapshot(whole)
        assert snapshot["last_checked"] == _derived_last_checked(snapshot, policy)


@pytest.mark.parametrize("policy", POLICIES.values(), ids=list(POLICIES))
def test_new_type_late_in_a_long_trace(policy):
    # 60 events over two types, then a type the trace has never held: every
    # (old, Z) pair completes once, from the earliest unmatched old event.
    old = [Event("t", "AB"[i % 2], i) for i in range(60)]
    late = [Event("t", "Z", 60), Event("t", "A", 61), Event("t", "Z", 62)]
    with _engine(policy, 1) as batched, _engine(policy, 1) as whole:
        batched.update(old)
        batched.update(late[:1])
        batched.update(late[1:])
        whole.update(old + late)
        snapshot = index_snapshot(batched)
        assert snapshot == index_snapshot(whole)
        assert snapshot["last_checked"] == _derived_last_checked(snapshot, policy)
        if policy is Policy.STNM:
            assert batched.tables.get_index(("A", "Z")) == [("t", 0, 60), ("t", 61, 62)]
            assert batched.statistics(["A", "Z"]).pairs[0].last_completion == 62
            assert batched.statistics(["B", "Z"]).pairs[0].last_completion == 60


def test_statistics_last_completion_matches_a_rebuild():
    events = [Event("t1", a, ts) for ts, a in enumerate("ABABCAB")]
    events += [Event("t2", a, ts + 0.5) for ts, a in enumerate("BACAB")]
    events.sort(key=lambda event: event.timestamp)
    with _engine(Policy.STNM, 1) as batched, _engine(Policy.STNM, 1) as whole:
        for event in events:
            batched.update([event])
        whole.update(events)
        for pattern in (["A", "B"], ["B", "A"], ["A", "C", "B"], ["C", "C"]):
            assert batched.statistics(pattern, all_pairs=True) == whole.statistics(
                pattern, all_pairs=True
            )
