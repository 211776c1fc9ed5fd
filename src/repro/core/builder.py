"""The pre-processing component: builds and incrementally updates the index.

Implements Algorithm 1 of the paper.  New log events arrive in batches; for
each affected trace the builder

1. loads the already-indexed sequence from the ``Seq`` table -- through the
   engine's row cache when an engine passes its reader (:data:`SequenceReader`)
   -- and appends the new events (logs are append-only per trace: a new event
   at or before the stored tail violates Definition 2.1 and is rejected --
   or, with ``dedup``, dropped as a replay);
2. creates the new event pairs -- a full run of the policy's pair creator
   (:data:`~repro.core.pairs.PAIR_CREATORS`) for a brand-new trace, or, for
   a known trace, the greedy matches of ``old + new`` that complete after
   the old tail (greedy matching is prefix-stable, so these are exactly the
   pairs a full rebuild would add and ``LastChecked`` never has to be read);
3. merges the results into ``Seq``, ``Index``, ``Count``, ``ReverseCount``
   and ``LastChecked`` (each pair's latest completion) as blind merge-writes
   -- all of them, with the partition's registration, one atomic store
   write (:meth:`~repro.core.tables.IndexTables.batch`), so a process kill
   leaves either the whole update or none of it.

Pair computation is a pure per-trace function, as in the paper's per-trace
Spark parallelism; here traces are parallelised by shard placement, one
builder per shard store (:mod:`repro.shard`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import sub
from typing import Callable, Collection, Iterable, Mapping

from repro.core.errors import TraceOrderError
from repro.core.model import Event, EventLog
from repro.core.pairs import (
    PAIR_CREATORS,
    Pair,
    PairColumns,
    occurrence_lists,
    pairs_completed_after,
)
from repro.core.policies import Policy
from repro.core.tables import IndexTables
from repro.kvstore.api import KeyValueStore

SeqList = list[tuple[str, float]]
#: a decoded Seq row: its ``(activities, timestamps)`` columns
SeqRow = tuple[list[str], list[float]]
#: Algorithm 1 line 2's read: the stored rows of some traces, in order, and
#: how many of them came from a cache rather than the store
SequenceReader = Callable[[list[str]], tuple[list[SeqRow], int]]


@dataclass(frozen=True)
class WrittenKeys:
    """The rows one write touched, named by the keys the engine caches them
    under: its per-key caches drop exactly these, but keep the ``extended``
    Seq rows, refreshed."""

    #: Index rows, all of them in ``partition``
    pairs: Collection[Pair] = ()
    partition: str = ""
    #: Seq rows
    traces: Collection[str] = ()
    #: the new Seq row of each of ``traces`` that had a stored row before the
    #: write: its old columns plus the appended events (the engine's row
    #: cache keeps these instead of dropping them)
    extended: Mapping[str, SeqRow] = field(default_factory=dict)
    #: Count rows (first events) and ReverseCount rows (second events)
    firsts: Collection[str] = ()
    seconds: Collection[str] = ()


@dataclass
class UpdateStats:
    """What one :meth:`IndexBuilder.update` call did."""

    traces_seen: int = 0
    new_traces: int = 0
    events_indexed: int = 0
    #: events dropped by ``dedup`` as already indexed (at or before the tail)
    events_deduped: int = 0
    pairs_created: int = 0
    #: old Seq rows read from the engine's row cache instead of the store
    cached_sequences: int = 0
    partition: str = ""
    #: the rows the update wrote, for the engine's caches (empty when it
    #: indexed nothing; a sharded engine's merged stats leave it empty)
    written: WrittenKeys = field(default_factory=WrittenKeys, repr=False, compare=False)


def _new_pairs(
    activities: list[str], stamps: list[float], old: int, policy: Policy
) -> PairColumns:
    """Pure per-trace pair creation (Algorithm 1 lines 5-13) over a trace's
    extended columns, the first ``old`` events of which were indexed before."""
    if not old:
        return PAIR_CREATORS[policy](activities, stamps)
    if policy is Policy.SC:
        # The SC pairs a known trace gains: the boundary pair plus
        # consecutive new pairs -- adjacency is local.
        return PAIR_CREATORS[policy](activities[old - 1 :], stamps[old - 1 :])
    return pairs_completed_after(occurrence_lists(activities, stamps), stamps[old - 1])


class _AggregatedBatch:
    """The Index deltas of a set of traces: per pair, the three columns of
    its chunk -- ``(trace ids, ts_a, ts_b)`` -- pairs in first-appearance
    order, rows in trace order.

    Each trace's columns are folded in as they are made; Count, ReverseCount
    and LastChecked are derived from the finished columns, once per pair.
    The lists are this object's own: a flavor's columns are copied in, never
    adopted (:mod:`repro.core.pairs` shares them between pairs).
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


class IndexBuilder:
    """Builds/updates the inverted pair index inside a key-value store."""

    def __init__(self, store: KeyValueStore, policy: Policy = Policy.STNM) -> None:
        if policy not in PAIR_CREATORS:
            raise ValueError(f"policy {policy} cannot be indexed; use SC or STNM")
        self.policy = policy
        self.tables = IndexTables(store)
        self.tables.ensure_schema()
        self.tables.check_configuration(policy)

    # -- public API -------------------------------------------------------------

    def update(
        self,
        new_events: EventLog | Iterable[Event],
        partition: str = "",
        dedup: bool = False,
        read_sequences: SequenceReader | None = None,
    ) -> UpdateStats:
        """Index a batch of new events (Algorithm 1).

        ``partition`` selects a per-period Index table (§3.1.3); statistics
        tables are always global.  ``dedup`` makes a replayed batch a no-op:
        per trace, in arrival order, an event at or before the running tail
        (the stored tail, then the last event kept) is dropped and counted in
        ``events_deduped`` instead of raising :class:`TraceOrderError`.
        ``read_sequences`` reads the old Seq rows (default: the store); an
        engine passes its row cache's
        (:meth:`~repro.core.query.QueryProcessor.stored_sequences`).
        """
        batches = self._group_new_events(new_events, dedup)
        stats = UpdateStats(partition=partition)
        rows, stats.cached_sequences = (read_sequences or self._stored_sequences)(
            list(batches)
        )
        appended, extended, aggregated = self._create_pairs(batches, rows, stats, dedup)
        if not appended:
            return stats
        self.tables.ensure_partition(partition)
        self._write_results(appended, extended, aggregated, partition, stats)
        return stats

    # -- internals -----------------------------------------------------------------

    def _stored_sequences(self, trace_ids: list[str]) -> tuple[list[SeqRow], int]:
        return self.tables.get_sequences(trace_ids), 0

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

    def _create_pairs(
        self,
        batches: dict[str, SeqList],
        rows: list[SeqRow],
        stats: UpdateStats,
        dedup: bool,
    ) -> tuple[dict[str, SeqList], dict[str, SeqRow], _AggregatedBatch]:
        """Each trace's events to append, the extended rows of the traces
        that had a stored one, and the pairs the events create, folded into
        one batch.

        ``rows`` are the batch's stored rows (Algorithm 1 line 2, the only
        read of an update): each gives the tail to check (or deduplicate)
        against and everything pair creation needs.  They are not mutated:
        they may be the row cache's.
        """
        appended: dict[str, SeqList] = {}
        extended: dict[str, SeqRow] = {}
        aggregated = _AggregatedBatch()
        for (trace_id, new_seq), (old_activities, old_stamps) in zip(
            batches.items(), rows
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
            stats.events_indexed += len(new_seq)
            appended[trace_id] = new_seq
            # the row as it reads back after the write, built once and
            # shared by pair creation and the row cache
            activities = old_activities + [activity for activity, _ in new_seq]
            stamps = old_stamps + [ts for _, ts in new_seq]
            if old_stamps:
                extended[trace_id] = (activities, stamps)
            else:
                stats.new_traces += 1
            aggregated.add_trace(
                trace_id, _new_pairs(activities, stamps, len(old_stamps), self.policy)
            )
        return appended, extended, aggregated

    def _write_results(
        self,
        appended: dict[str, SeqList],
        extended: dict[str, SeqRow],
        aggregated: _AggregatedBatch,
        partition: str,
        stats: UpdateStats,
    ) -> None:
        """Hand the whole update to the store as one write: the partition's
        registration, then Seq, Index, Count, ReverseCount, LastChecked.
        ``stats.written`` names the rows written, with the ``extended`` rows.

        Consumes ``aggregated.index``: each pair's columns are dropped as
        soon as its chunk is encoded, so the batch's columns and its encoded
        chunks are never all alive at once (~2.8 MB of peak RSS on the
        ``index_bulk`` benchmark build).
        """
        with self.tables.batch():
            self.tables.register_partition(partition)
            for trace_id, new_seq in appended.items():
                self.tables.append_sequence(trace_id, new_seq)
            # One Count / ReverseCount slot and one last completion per pair
            # of the batch, read off its finished columns.
            counts: dict[str, dict[str, list[float]]] = {}
            reverse: dict[str, dict[str, list[float]]] = {}
            checked: dict[str, dict[str, float]] = {}
            index = aggregated.index
            pairs = set(index)
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
        stats.written = WrittenKeys(
            pairs=pairs,
            partition=partition,
            traces=set(appended),
            extended=extended,
            firsts=set(counts),
            seconds=set(reverse),
        )
