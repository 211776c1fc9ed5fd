"""Embedded key-value store used as the indexing backend.

The paper stores its inverted index, trace sequences and statistics tables in
Apache Cassandra.  This package provides the stand-in: an embedded
log-structured merge-tree (LSM) store with a write-ahead log, memtable,
bloom-filtered SSTables, size-tiered compaction and -- crucially for the
paper's write pattern -- *merge operators* that implement Cassandra-style
"append to a collection column" writes without read-modify-write cycles.

Two interchangeable implementations are exposed:

* :class:`LSMStore` -- durable, file-backed, crash-recoverable.
* :class:`InMemoryStore` -- dictionary-backed, for tests and small jobs.

Both satisfy the :class:`KeyValueStore` interface, so every index structure
in :mod:`repro.core` runs unchanged on either.
"""

from repro.kvstore.api import KeyValueStore, StoreClosedError, UnknownTableError
from repro.kvstore.cache import BlockCache, LRUCache
from repro.kvstore.locks import RWLock
from repro.kvstore.lsm import LSMStore, StoreMetrics
from repro.kvstore.memory import InMemoryStore
from repro.kvstore.merge import (
    CounterMapMerge,
    LastWriteWins,
    ListAppendMerge,
    MergeOperator,
    resolve_merge_operator,
)

__all__ = [
    "KeyValueStore",
    "LSMStore",
    "InMemoryStore",
    "StoreMetrics",
    "LRUCache",
    "BlockCache",
    "RWLock",
    "MergeOperator",
    "ListAppendMerge",
    "CounterMapMerge",
    "LastWriteWins",
    "resolve_merge_operator",
    "StoreClosedError",
    "UnknownTableError",
]
