"""Sharded pair index: N independent LSM shards + scatter-gather queries.

A :class:`~repro.shard.index.ShardedSequenceIndex` partitions traces across
independent single-store engines by a stable hash of the trace id
(:func:`~repro.shard.hashing.shard_for_trace`), writes an ``update()``'s
per-shard sub-batches in the caller's thread, and answers queries
scatter-gather: one fan-out, shard after shard in the caller's thread, in
which every shard plans from its own posting lists and answers, then a
merge of the match sets before returning.  Because a trace's pairs colocate on one shard, per-trace pruning
stays shard-local and every merge is a disjoint union.
"""

from repro.shard.hashing import HASH_NAME, shard_for_trace
from repro.shard.index import (
    MANIFEST_NAME,
    ShardedSequenceIndex,
    is_sharded_store,
    read_manifest,
    shard_paths,
    write_manifest,
)

__all__ = [
    "HASH_NAME",
    "MANIFEST_NAME",
    "ShardedSequenceIndex",
    "is_sharded_store",
    "read_manifest",
    "shard_for_trace",
    "shard_paths",
    "write_manifest",
]
