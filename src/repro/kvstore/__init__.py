"""Embedded key-value store used as the indexing backend.

The paper stores its inverted index, trace sequences and statistics tables in
Apache Cassandra.  This package provides the stand-in: an embedded
log-structured merge-tree (LSM) store with a write-ahead log, memtable,
bloom-filtered SSTables, size-tiered compaction and -- crucially for the
paper's write pattern -- *merge operators* that implement Cassandra-style
"append to a collection column" writes without read-modify-write cycles.

:class:`LSMStore` -- durable, file-backed, crash-recoverable -- is the one
implementation of the :class:`KeyValueStore` interface that every index
structure in :mod:`repro.core` is written against.
"""

from repro.kvstore.api import (
    KeyValueStore,
    StoreClosedError,
    StoreFormatError,
    UnknownTableError,
)
from repro.kvstore.cache import BlockCache, LRUCache
from repro.kvstore.locks import RWLock
from repro.kvstore.lsm import LSMStore, StoreMetrics
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
    "StoreFormatError",
    "UnknownTableError",
]
