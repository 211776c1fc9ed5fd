"""Size-tiered compaction for the LSM store.

The planner picks a *contiguous* run of SSTables (contiguity in manifest
order is what keeps merge-delta history well-ordered) whose sizes are within
a band of each other; the store's one executor (``LSMStore._run_compaction``)
merges the run into a single replacement that takes the run's place in the
flat, oldest-first table list.  Tombstones and baseless merge deltas can only
be finalised when the run includes the oldest table -- otherwise an older
file might still hold the base value the deltas apply to.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.kvstore.merge import MergeOperator, collapse_records


@dataclass(slots=True)
class CompactionPick:
    """One unit of compaction work: ``inputs`` to merge into one table,
    oldest shadow first.  ``finalize`` says no older table can hold a base
    for these keys, so tombstones drop and baseless deltas become puts."""

    inputs: list
    finalize: bool = False


def plan_size_tiered(
    tables: list, min_tables: int = 4, size_ratio: float = 2.0
) -> CompactionPick | None:
    """Choose a compaction run over ``tables`` listed oldest -> newest.

    Picks the first (oldest) contiguous window of at least ``min_tables``
    tables whose ``data_bytes`` all lie within ``size_ratio`` of the window
    minimum, or ``None`` when nothing qualifies.  The pick finalizes only
    when the window starts at the oldest table.
    """
    sizes = [table.data_bytes for table in tables]
    count = len(sizes)
    start = 0
    while start <= count - min_tables:
        window_min = sizes[start]
        window_max = sizes[start]
        stop = start
        while stop < count:
            candidate_min = min(window_min, sizes[stop])
            candidate_max = max(window_max, sizes[stop])
            if candidate_max > max(candidate_min, 1) * size_ratio:
                break
            window_min, window_max = candidate_min, candidate_max
            stop += 1
        if stop - start >= min_tables:
            return CompactionPick(list(tables[start:stop]), finalize=start == 0)
        start += 1
    return None


def group_records(
    sources_oldest_first: Iterable[Iterable[tuple[bytes, int, bytes]]],
    stop: bytes | None = None,
) -> Iterator[tuple[bytes, list[tuple[int, bytes]]]]:
    """K-way merge sorted sources into ``(key, records newest first)``.

    A source is an SSTable reader or any iterable of ``(key, kind, value)``
    in key order; one that holds several records for a key lists them
    newest first.  The merge ends before the first key ``>= stop``.
    """
    # rank 0 = newest source, so tuples (key, rank) sort ties newest-first.
    heap: list[tuple[bytes, int, int, bytes, Iterator[tuple[bytes, int, bytes]]]] = []
    for rank, source in enumerate(reversed(list(sources_oldest_first))):
        iterator = iter(source)
        first = next(iterator, None)
        if first is not None:
            key, kind, value = first
            heap.append((key, rank, kind, value, iterator))
    heapq.heapify(heap)
    while heap:
        key = heap[0][0]
        if stop is not None and key >= stop:
            return
        records: list[tuple[int, bytes]] = []
        while heap and heap[0][0] == key:
            _, rank, kind, value, iterator = heap[0]
            records.append((kind, value))
            nxt = next(iterator, None)
            if nxt is not None:
                nkey, nkind, nvalue = nxt
                heapq.heapreplace(heap, (nkey, rank, nkind, nvalue, iterator))
            else:
                heapq.heappop(heap)
        yield key, records


def merge_records(
    readers_oldest_first: Iterable[Iterable[tuple[bytes, int, bytes]]],
    operator_for_key: Callable[[bytes], MergeOperator | None],
    finalize: bool,
) -> Iterator[tuple[int, bytes, bytes]]:
    """K-way merge readers, yielding collapsed ``(kind, key, value)`` records.

    ``finalize`` indicates the run includes the oldest table, allowing
    tombstone dropping and baseless-delta finalisation.
    """
    for key, records in group_records(readers_oldest_first):
        resolved = collapse_records(records, operator_for_key(key), finalize)
        if resolved is not None:
            kind, value = resolved
            yield kind, key, value


class BackgroundCompactor:
    """Daemon thread driving a store's compaction rounds off the write path.

    The store signals :meth:`trigger` after every flush; the worker then
    drains qualifying compaction runs (``store._compaction_round()`` until
    it reports no plan).  All coordination with foreground reads/writes
    happens inside the store's own locking: the worker merges tables with
    no lock held and swaps the SSTable set atomically under the store's
    write lock, so a crash (or :meth:`stop`) between output and swap leaves
    the pre-compaction tables authoritative.

    Unexpected exceptions are recorded on :attr:`last_error` and counted in
    the store's ``compaction_aborts`` metric instead of killing the thread.
    """

    def __init__(self, store: Any, idle_wait: float = 1.0) -> None:
        self._store = store
        self._idle_wait = idle_wait
        self._wake = threading.Event()
        self._stopped = threading.Event()
        self.last_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="lsm-compactor", daemon=True
        )
        self._thread.start()

    def trigger(self) -> None:
        """Wake the worker (called by the store after a flush)."""
        self._wake.set()

    def stop(self) -> None:
        """Ask the worker to exit and join it (idempotent)."""
        self._stopped.set()
        self._wake.set()
        if self._thread.is_alive():
            self._thread.join()

    def _run(self) -> None:
        from repro.faults.schedule import SimulatedCrash

        while not self._stopped.is_set():
            self._wake.wait(timeout=self._idle_wait)
            self._wake.clear()
            if self._stopped.is_set():
                return
            try:
                while self._store._compaction_round():
                    if self._stopped.is_set():
                        return
            except SimulatedCrash as exc:
                # An injected crash means "the process died here": record it
                # and stop compacting -- retrying would mask the crash.
                self.last_error = exc
                return
            except Exception as exc:  # noqa: BLE001 - worker must survive
                self.last_error = exc
                self._store.metrics.bump("compaction_aborts")
