"""The log database: durable event storage feeding periodic index updates.

The paper's architecture (§3, Figure 1) has a "database infrastructure
containing old logs" to which new events are appended continuously, and a
pre-processing component that periodically pulls *the recent log entries
that have not been indexed yet*.  This module is that piece:

* :class:`LogDatabase` -- an append-only, durable event table (CSV rows:
  trace id, activity, timestamp), with a persisted **indexing checkpoint**
  marking how far the index has consumed it;
* :class:`IndexingPipeline` -- glue that drains unindexed events into a
  :class:`~repro.core.engine.SequenceIndex` batch by batch, the paper's
  "update procedure called periodically".

The storage format is deliberately the paper's "typical relational form":
one row per event, append-only, human-readable.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.engine import SequenceIndex
from repro.core.model import Event

_EVENTS_FILE = "events.csv"
_CHECKPOINT_FILE = "CHECKPOINT"
_HEADER = ["trace_id", "activity", "timestamp"]


@dataclass(frozen=True)
class PipelineStats:
    """Outcome of one :meth:`IndexingPipeline.run_once` call."""

    events_read: int
    events_indexed: int
    pairs_created: int
    checkpoint: int


class LogDatabase:
    """Append-only durable event table with an indexing checkpoint.

    Events append to a CSV file; the checkpoint is a byte offset into that
    file, atomically persisted, so "give me everything not yet indexed" is
    a sequential read of the whole rows past the checkpoint -- O(batch), not O(log).
    """

    def __init__(self, path: str) -> None:
        self._path = path
        os.makedirs(path, exist_ok=True)
        self._events_path = os.path.join(path, _EVENTS_FILE)
        self._checkpoint_path = os.path.join(path, _CHECKPOINT_FILE)
        if not os.path.exists(self._events_path):
            with open(self._events_path, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerow(_HEADER)

    # -- writes --------------------------------------------------------------

    def append(self, events: Iterable[Event]) -> int:
        """Append events (they must carry timestamps); returns the count."""
        count = 0
        with open(self._events_path, "a", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            for event in events:
                if event.timestamp is None:
                    raise ValueError(
                        f"log-database events need timestamps: {event!r}"
                    )
                writer.writerow(
                    [event.trace_id, event.activity, repr(float(event.timestamp))]
                )
                count += 1
            fh.flush()
            os.fsync(fh.fileno())
        return count

    # -- reads ----------------------------------------------------------------

    def __iter__(self) -> Iterator[Event]:
        """All events, oldest first."""
        return iter(self._read_from(self._header_end())[0])

    def unindexed_events(self) -> tuple[list[Event], int]:
        """Events appended since the checkpoint and the byte offset they end at:
        :meth:`mark_indexed` takes it, the file may have grown by then."""
        return self._read_from(self.checkpoint())

    def _read_from(self, offset: int) -> tuple[list[Event], int]:
        with open(self._events_path, "rb") as fh:
            fh.seek(offset)
            data = fh.read()
        # Whole rows only: one a producer is still writing has no newline
        # yet and is left for the next read.
        data = data[: data.rfind(b"\n") + 1]
        rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
        events = [
            Event(trace_id, activity, float(raw_ts))
            for trace_id, activity, raw_ts in filter(None, rows)
        ]
        return events, offset + len(data)

    def _header_end(self) -> int:
        with open(self._events_path, "r", encoding="utf-8", newline="") as fh:
            fh.readline()
            return fh.tell()

    # -- checkpointing -----------------------------------------------------------

    def checkpoint(self) -> int:
        """Byte offset of the first unindexed event."""
        if not os.path.exists(self._checkpoint_path):
            return self._header_end()
        with open(self._checkpoint_path, "r", encoding="utf-8") as fh:
            return int(fh.read().strip() or self._header_end())

    def mark_indexed(self, offset: int) -> None:
        """Move the checkpoint to the ``offset`` :meth:`unindexed_events` gave."""
        tmp = self._checkpoint_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(str(offset))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._checkpoint_path)

    @property
    def size_bytes(self) -> int:
        return os.path.getsize(self._events_path)


class IndexingPipeline:
    """Periodically drains a :class:`LogDatabase` into a sequence index.

    One ``run_once()`` call is one tick of the paper's periodic update: read
    the unindexed suffix, feed it through Algorithm 1, then move the
    checkpoint.  The checkpoint only advances after the index store has
    flushed, so a crash between the two replays the batch on the next tick;
    replay is idempotent because the batch is applied with ``dedup=True``,
    which drops events at or before each trace's already-indexed tail.
    """

    def __init__(
        self,
        database: LogDatabase,
        index: SequenceIndex,
        partition_fn=None,
    ) -> None:
        """``partition_fn(event) -> str`` routes events to per-period Index
        partitions; partition names must sort in time order (ISO dates do)
        so a trace straddling periods is appended oldest-first."""
        self.database = database
        self.index = index
        self.partition_fn = partition_fn

    def run_once(self) -> PipelineStats:
        """Index everything currently unindexed; returns what happened."""
        events, offset = self.database.unindexed_events()
        if self.partition_fn is None:
            partitions: dict[str, list[Event]] = {"": events}
        else:
            partitions = {}
            for event in events:
                partitions.setdefault(self.partition_fn(event), []).append(event)
        indexed = 0
        pairs = 0
        for partition, batch in sorted(partitions.items()):
            stats = self.index.update(batch, partition=partition, dedup=True)
            indexed += stats.events_indexed
            pairs += stats.pairs_created
        self.index.flush()
        self.database.mark_indexed(offset)
        return PipelineStats(len(events), indexed, pairs, offset)
