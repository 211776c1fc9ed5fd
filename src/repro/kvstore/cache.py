"""Caching primitives of the serving layer.

Two users:

* :class:`BlockCache` -- shared per-store LRU over SSTable data blocks (the
  byte range between two consecutive sparse-index entries, parsed into
  records).  SSTables are immutable, so entries never go stale; a reader
  evicts its own blocks when the table is closed (post-compaction), which
  keys the cache by a per-reader uid rather than by file name -- a recycled
  file name can never alias a dead table's blocks.
* the row cache of :class:`repro.core.engine.SequenceIndex`, the engine's
  one cache above the block cache.  It holds every decoded row -- postings,
  Seq rows, Count rows -- in one byte budget, each charged its estimated
  resident size and keyed by row; a write drops exactly the rows it wrote
  (:meth:`LRUCache.discard`), except the Seq rows it extended, which it puts
  back extended.  The writer reads those rows with :meth:`LRUCache.peek`,
  which is not a reader's lookup.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Collection, Hashable


class LRUCache:
    """Thread-safe LRU cache with weighted capacity.

    ``capacity`` is interpreted in the same unit as the ``weight`` passed to
    :meth:`put` (bytes for the block cache and the engine's row cache).  An
    item heavier than the whole capacity is not cached: its put drops the
    key's old entry and evicts nothing else.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._weight = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """The value of ``key`` (``default`` when absent), as a lookup that
        counts no hit or miss and leaves the recency order alone."""
        with self._lock:
            entry = self._entries.get(key)
            return default if entry is None else entry[0]

    def put(self, key: Hashable, value: Any, weight: int = 1) -> None:
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._weight -= old[1]
            if weight > self._capacity:
                return
            self._entries[key] = (value, weight)
            self._weight += weight
            while self._weight > self._capacity:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._weight -= dropped
                self.evictions += 1

    def discard(self, keys: Collection[Hashable]) -> int:
        """Drop the entries of ``keys``; how many were cached.

        Walks whichever is smaller, the cache or ``keys``, so the cost is
        O(min(len(cache), len(keys))): ``keys`` needs ``len``, ``in`` and
        iteration, not to be a built set.  Not an eviction: ``evictions``
        counts capacity drops only.
        """
        with self._lock:
            entries = self._entries
            if len(entries) <= len(keys):
                dead = [key for key in entries if key in keys]
            else:
                dead = [key for key in keys if key in entries]
            for key in dead:
                self._weight -= entries.pop(key)[1]
            return len(dead)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._weight = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[Hashable]:
        """The cached keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    @property
    def weight(self) -> int:
        """Current total weight of all cached entries."""
        with self._lock:
            return self._weight

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "capacity": self._capacity,
                "entries": len(self._entries),
                "weight": self._weight,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class BlockCache(LRUCache):
    """LRU over SSTable data blocks, keyed by ``(reader_uid, block_slot)``.

    Optionally mirrors its hit/miss counts into a store's
    :class:`~repro.kvstore.lsm.StoreMetrics` so the cache shows up in the
    ``lsm`` metrics snapshot alongside flush/compaction counters.
    """

    def __init__(self, capacity_bytes: int, metrics: Any = None) -> None:
        super().__init__(capacity_bytes)
        self._metrics = metrics

    def get(self, key: Hashable, default: Any = None) -> Any:
        sentinel = object()
        value = super().get(key, sentinel)
        if self._metrics is not None:
            self._metrics.bump(
                "block_cache_misses" if value is sentinel else "block_cache_hits"
            )
        return default if value is sentinel else value

    def evict_owner(self, owner: Hashable) -> None:
        """Drop every block belonging to ``owner`` (a closed reader's uid)."""
        self.evict_owners((owner,))

    def evict_owners(self, owners) -> None:
        """Drop the blocks of several retired readers in one sweep.

        A leveled cascade retires all of a merge's inputs at once; a single
        pass over the cache replaces one full scan per closed reader.
        """
        owners = frozenset(owners)
        with self._lock:
            dead = [key for key in self._entries if key[0] in owners]
            for key in dead:
                _, weight = self._entries.pop(key)
                self._weight -= weight
