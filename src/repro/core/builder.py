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
   and ``LastChecked`` (each pair's latest completion) as blind merge-writes
   -- all of them, with the partition's registration, one atomic store
   write (:meth:`~repro.core.tables.IndexTables.batch`), so a process kill
   leaves either the whole update or none of it.

Pair computation is a pure per-trace function, dispatched through a
:class:`~repro.executor.parallel.ParallelExecutor` exactly like the paper's
per-trace Spark parallelism.  Store writes happen on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import sub
from typing import Iterable

from repro.core.errors import TraceOrderError
from repro.core.model import Event, EventLog
from repro.core.pairs import (
    PAIR_FLAVORS,
    Pair,
    PairColumns,
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


def _compute_trace_pairs(work: _TraceWork, method: PairMethod) -> PairColumns:
    """Pure per-trace pair creation (Algorithm 1 lines 5-13)."""
    activities = [activity for activity, _ in work.new_seq]
    timestamps = [ts for _, ts in work.new_seq]
    if method is PairMethod.STRICT or not work.old_activities:
        # A new trace; or the SC pairs a known one gains: the boundary pair
        # plus consecutive new pairs -- adjacency is local.
        return PAIR_FLAVORS[method](
            work.old_activities[-1:] + activities, work.old_stamps[-1:] + timestamps
        )
    occurrences = occurrence_lists(
        work.old_activities + activities, work.old_stamps + timestamps
    )
    return pairs_completed_after(occurrences, work.old_stamps[-1])


class _AggregatedBatch:
    """The Index deltas of a set of traces: per pair, the three columns of
    its chunk -- ``(trace ids, ts_a, ts_b)`` -- pairs in first-appearance
    order, rows in trace order.

    Workers aggregate their partition into this form so that the main thread
    only merges partitions instead of re-walking every pair; Count,
    ReverseCount and LastChecked are derived from the finished columns, once
    per pair.  The lists are this object's own: a flavor's columns are copied
    in, never adopted (:mod:`repro.core.pairs` shares them between pairs).
    """

    __slots__ = ("index",)

    def __init__(self) -> None:
        self.index: dict[Pair, tuple[list[str], list[float], list[float]]] = {}

    def add_trace(self, trace_id: str, columns: PairColumns) -> None:
        index = self.index
        for pair, (ts_a, ts_b) in columns.items():
            mine = index.get(pair)
            if mine is None:
                mine = index[pair] = ([], [], [])
            if len(ts_a) == 1:
                mine[0].append(trace_id)
                mine[1].append(ts_a[0])
                mine[2].append(ts_b[0])
            else:
                mine[0].extend([trace_id] * len(ts_a))
                mine[1].extend(ts_a)
                mine[2].extend(ts_b)

    def merge(self, other: "_AggregatedBatch") -> None:
        """Fold another partition's deltas into this one."""
        for pair, theirs in other.index.items():
            for column, more in zip(self.index.setdefault(pair, ([], [], [])), theirs):
                column.extend(more)


def _aggregate(works: list[_TraceWork], method: PairMethod) -> list[_AggregatedBatch]:
    """Process a partition of trace works into one aggregated batch."""
    batch = _AggregatedBatch()
    for work in works:
        batch.add_trace(work.trace_id, _compute_trace_pairs(work, method))
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
        job = partial(_aggregate, method=self.method)
        partials = self.executor.map_partitions(job, work_items)
        aggregated = partials[0]
        for other in partials[1:]:
            aggregated.merge(other)
        self._write_results(work_items, aggregated, partition, stats)
        return stats

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
        """Hand the whole update to the store as one write: the partition's
        registration, then Seq, Index, Count, ReverseCount, LastChecked.

        Consumes ``aggregated.index``: each pair's columns are dropped as
        soon as its chunk is encoded, so the batch's columns and its encoded
        chunks are never all alive at once (~2.8 MB of peak RSS on the
        ``index_bulk`` benchmark build).
        """
        with self.tables.batch():
            self.tables.register_partition(partition)
            for work in work_items:
                self.tables.append_sequence(work.trace_id, work.new_seq)
            # One Count / ReverseCount slot and one last completion per pair
            # of the batch, read off its finished columns.
            counts: dict[str, dict[str, list[float]]] = {}
            reverse: dict[str, dict[str, list[float]]] = {}
            checked: dict[str, dict[str, float]] = {}
            index = aggregated.index
            for pair in list(index):
                columns = index.pop(pair)
                self.tables.append_index(pair, columns, partition)
                (first, second), (_, ts_a, ts_b) = pair, columns
                stats.pairs_created += len(ts_b)
                duration = sum(map(sub, ts_b, ts_a), 0.0)
                counts.setdefault(first, {})[second] = [duration, len(ts_b)]
                reverse.setdefault(second, {})[first] = [duration, len(ts_b)]
                checked.setdefault(first, {})[second] = max(ts_b)
            for first, per_second in counts.items():
                self.tables.add_counts(first, per_second)
            for second, per_first in reverse.items():
                self.tables.add_reverse_counts(second, per_first)
            for first, per_second in checked.items():
                self.tables.add_last_completions(first, per_second)
