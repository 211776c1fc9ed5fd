"""The pre-processing component: builds and incrementally updates the index.

Implements Algorithm 1 of the paper.  New log events arrive in batches; for
each affected trace the builder

1. loads the already-indexed sequence from the ``Seq`` table and appends the
   new events (logs are append-only per trace: a new event at or before the
   stored tail violates Definition 2.1 and is rejected -- or, with
   ``dedup``, dropped as a replay);
2. creates the new event pairs -- a full run of the configured pair-creation
   flavor for a brand-new trace, or, for a known trace, the greedy matches
   of ``old + new`` that complete after the old tail (greedy matching is
   prefix-stable, so these are exactly the pairs a full rebuild would add
   and ``LastChecked`` never has to be read);
3. merges the results into ``Seq``, ``Index``, ``Count``, ``ReverseCount``
   and ``LastChecked`` (each pair's latest completion) as blind merge-writes.

Pair computation is a pure per-trace function, dispatched through a
:class:`~repro.executor.parallel.ParallelExecutor` exactly like the paper's
per-trace Spark parallelism.  Store writes happen on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.errors import TraceOrderError
from repro.core.model import Event, EventLog
from repro.core.pairs import (
    PairDict,
    create_pairs,
    occurrence_lists,
    pairs_completed_after,
)
from repro.core.policies import PairMethod, Policy, default_method
from repro.core.tables import IndexTables
from repro.executor import ParallelExecutor
from repro.kvstore.api import KeyValueStore

SeqList = list[tuple[str, float]]


@dataclass
class UpdateStats:
    """What one :meth:`IndexBuilder.update` call did."""

    traces_seen: int = 0
    new_traces: int = 0
    events_indexed: int = 0
    #: events dropped by ``dedup`` as already indexed (at or before the tail)
    events_deduped: int = 0
    pairs_created: int = 0
    partition: str = ""


@dataclass
class _TraceWork:
    """Input to the per-trace pair computation (picklable for process pools)."""

    trace_id: str
    old_activities: list[str]
    old_stamps: list[float]
    new_seq: SeqList


def _compute_trace_pairs(
    work: _TraceWork, method: PairMethod
) -> tuple[str, PairDict]:
    """Pure per-trace pair creation (Algorithm 1 lines 5-13)."""
    activities = [activity for activity, _ in work.new_seq]
    timestamps = [ts for _, ts in work.new_seq]
    if not work.old_activities:
        return work.trace_id, create_pairs(activities, timestamps, method)
    if method is PairMethod.STRICT:
        # SC pairs gained by the batch: the boundary pair plus consecutive
        # new pairs -- adjacency is local.
        pairs: PairDict = {}
        boundary = [(work.old_activities[-1], work.old_stamps[-1])] + work.new_seq
        for (act_a, ts_a), (act_b, ts_b) in zip(boundary, boundary[1:]):
            pairs.setdefault((act_a, act_b), []).append((ts_a, ts_b))
        return work.trace_id, pairs
    occurrences = occurrence_lists(
        work.old_activities + activities, work.old_stamps + timestamps
    )
    return work.trace_id, pairs_completed_after(occurrences, work.old_stamps[-1])


class _AggregatedBatch:
    """Write-ready table deltas for a set of traces.

    Workers aggregate their partition's pair dictionaries into this form so
    that (a) cross-process result transfer ships a handful of large dicts
    instead of one per trace and (b) the main thread only merges partitions
    instead of re-walking every pair.
    """

    __slots__ = ("index", "counts", "reverse", "checked", "pairs_created")

    def __init__(self) -> None:
        self.index: dict[tuple[str, str], list[tuple[str, float, float]]] = {}
        self.counts: dict[str, dict[str, list[float]]] = {}
        self.reverse: dict[str, dict[str, list[float]]] = {}
        self.checked: dict[str, dict[str, float]] = {}
        self.pairs_created = 0

    def add_trace(self, trace_id: str, pair_dict: PairDict) -> None:
        index = self.index
        counts = self.counts
        reverse = self.reverse
        checked = self.checked
        for pair, ts_pairs in pair_dict.items():
            count = len(ts_pairs)
            self.pairs_created += count
            entries = index.get(pair)
            if entries is None:
                entries = index[pair] = []
            duration = 0.0
            append = entries.append
            for ts_a, ts_b in ts_pairs:
                duration += ts_b - ts_a
                append((trace_id, ts_a, ts_b))
            first, second = pair
            slot = counts.setdefault(first, {}).setdefault(second, [0.0, 0])
            slot[0] += duration
            slot[1] += count
            rslot = reverse.setdefault(second, {}).setdefault(first, [0.0, 0])
            rslot[0] += duration
            rslot[1] += count
            last = checked.setdefault(first, {})
            tail = ts_pairs[-1][1]
            if second not in last or tail > last[second]:
                last[second] = tail

    def merge(self, other: "_AggregatedBatch") -> None:
        """Fold another partition's deltas into this one."""
        self.pairs_created += other.pairs_created
        for pair, entries in other.index.items():
            self.index.setdefault(pair, []).extend(entries)
        for rows, theirs in ((self.counts, other.counts), (self.reverse, other.reverse)):
            for key, per_event in theirs.items():
                mine = rows.setdefault(key, {})
                for event, (duration, count) in per_event.items():
                    slot = mine.setdefault(event, [0.0, 0])
                    slot[0] += duration
                    slot[1] += count
        for first, per_second in other.checked.items():
            mine = self.checked.setdefault(first, {})
            for second, tail in per_second.items():
                if second not in mine or tail > mine[second]:
                    mine[second] = tail


class _PartitionJob:
    """Process a partition of trace works into one aggregated batch."""

    def __init__(self, method: PairMethod) -> None:
        self.method = method

    def __call__(self, works: list[_TraceWork]) -> list[_AggregatedBatch]:
        batch = _AggregatedBatch()
        for work in works:
            trace_id, pair_dict = _compute_trace_pairs(work, self.method)
            batch.add_trace(trace_id, pair_dict)
        return [batch]


class IndexBuilder:
    """Builds/updates the inverted pair index inside a key-value store."""

    def __init__(
        self,
        store: KeyValueStore,
        policy: Policy = Policy.STNM,
        method: PairMethod | None = None,
        executor: ParallelExecutor | None = None,
    ) -> None:
        if not policy.indexable:
            raise ValueError(f"policy {policy} cannot be indexed; use SC or STNM")
        if method is None:
            method = default_method(policy)
        if method.policy is not policy:
            raise ValueError(
                f"pair method {method.value!r} produces {method.policy.value!r} "
                f"pairs, not {policy.value!r}"
            )
        self.policy = policy
        self.method = method
        self.executor = executor or ParallelExecutor.serial()
        self.tables = IndexTables(store)
        self.tables.ensure_schema()
        self.tables.check_configuration(policy, method)

    # -- public API -------------------------------------------------------------

    def update(
        self,
        new_events: EventLog | Iterable[Event],
        partition: str = "",
        dedup: bool = False,
    ) -> UpdateStats:
        """Index a batch of new events (Algorithm 1).

        ``partition`` selects a per-period Index table (§3.1.3); statistics
        tables are always global.  ``dedup`` makes a replayed batch a no-op:
        per trace, in arrival order, an event at or before the running tail
        (the stored tail, then the last event kept) is dropped and counted in
        ``events_deduped`` instead of raising :class:`TraceOrderError`.
        """
        batches = self._group_new_events(new_events, dedup)
        stats = UpdateStats(partition=partition)
        work_items = self._prepare_work(batches, stats, dedup)
        if not work_items:
            return stats
        self.tables.ensure_partition(partition)
        self.tables.register_partition(partition)
        job = _PartitionJob(self.method)
        partials = self.executor.map_partitions(job, work_items)
        aggregated = partials[0]
        for partial in partials[1:]:
            aggregated.merge(partial)
        self._write_results(work_items, aggregated, partition, stats)
        return stats

    def build(self, log: EventLog, partition: str = "") -> UpdateStats:
        """Index a whole log from scratch (convenience alias of update)."""
        return self.update(log, partition)

    # -- internals -----------------------------------------------------------------

    def _group_new_events(
        self, new_events: EventLog | Iterable[Event], dedup: bool
    ) -> dict[str, SeqList]:
        """Per-trace ``(activity, timestamp)`` lists: time-ordered and
        validated, or -- for ``dedup`` -- in arrival order, unvalidated."""
        if isinstance(new_events, EventLog):
            return {
                trace.trace_id: trace.pairs_view()
                for trace in new_events
                if len(trace)
            }
        grouped: dict[str, list[Event]] = {}
        for event in new_events:
            grouped.setdefault(event.trace_id, []).append(event)
        batches: dict[str, SeqList] = {}
        for trace_id, events in grouped.items():
            if any(ev.timestamp is None for ev in events):
                raise TraceOrderError(
                    f"batch events for trace {trace_id!r} must carry timestamps; "
                    "wrap them in an EventLog for position-based stamping"
                )
            if not dedup:
                events.sort(key=lambda ev: ev.timestamp)
                previous: float | None = None
                for event in events:
                    if previous is not None and event.timestamp <= previous:
                        raise TraceOrderError(
                            f"trace {trace_id!r} batch has non-increasing timestamps"
                        )
                    previous = event.timestamp
            batches[trace_id] = [(ev.activity, ev.timestamp) for ev in events]
        return batches

    def _prepare_work(
        self, batches: dict[str, SeqList], stats: UpdateStats, dedup: bool
    ) -> list[_TraceWork]:
        work_items: list[_TraceWork] = []
        # Algorithm 1 line 2, and the only read of an update: the stored row
        # gives the tail to check (or deduplicate) against and everything
        # pair creation needs.
        old_seqs = self.tables.get_sequences(list(batches))
        for (trace_id, new_seq), (old_activities, old_stamps) in zip(
            batches.items(), old_seqs
        ):
            if dedup:
                tail = old_stamps[-1] if old_stamps else None
                fresh: SeqList = []
                for item in new_seq:
                    if tail is None or item[1] > tail:
                        tail = item[1]
                        fresh.append(item)
                stats.events_deduped += len(new_seq) - len(fresh)
                if not fresh:
                    continue
                new_seq = fresh
            elif old_stamps and new_seq[0][1] <= old_stamps[-1]:
                raise TraceOrderError(
                    f"trace {trace_id!r}: new events start at {new_seq[0][1]!r} "
                    f"but the indexed sequence already ends at {old_stamps[-1]!r}"
                )
            stats.traces_seen += 1
            if not old_stamps:
                stats.new_traces += 1
            stats.events_indexed += len(new_seq)
            work_items.append(_TraceWork(trace_id, old_activities, old_stamps, new_seq))
        return work_items

    def _write_results(
        self,
        work_items: list[_TraceWork],
        aggregated: _AggregatedBatch,
        partition: str,
        stats: UpdateStats,
    ) -> None:
        stats.pairs_created = aggregated.pairs_created
        for work in work_items:
            self.tables.append_sequence(work.trace_id, work.new_seq)
        for pair, entries in aggregated.index.items():
            self.tables.append_index(pair, entries, partition)
        for first, per_second in aggregated.counts.items():
            self.tables.add_counts(first, per_second)
        for second, per_first in aggregated.reverse.items():
            self.tables.add_reverse_counts(second, per_first)
        for first, per_second in aggregated.checked.items():
            self.tables.add_last_completions(first, per_second)
