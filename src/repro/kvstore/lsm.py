"""Durable LSM-tree implementation of :class:`~repro.kvstore.api.KeyValueStore`.

Directory layout::

    <path>/MANIFEST            JSON: tables, SSTable list, flush watermark
                               (read and written by ``tableset.TableSet``)
    <path>/wal.log             active write-ahead log
    <path>/wal-<n>.log         frozen WAL segments awaiting a flush
    <path>/sst-<n>.sst         immutable sorted tables (oldest = lowest n
                               position in the manifest list)

Write path: :meth:`LSMStore.write` is the only one (``put`` / ``merge`` /
``delete`` are one-op batches).  A batch is appended to the WAL as one
frame, then applied to the memtable; the memtable seals once it reaches
``memtable_flush_bytes`` -- mid-batch if need be, at exactly the op where a
one-op-at-a-time writer would have flushed -- and sealed memtables flush to
new SSTables in seal order.  Read path: active memtable, then the sealed
(flushing) memtables newest first, then SSTables newest-to-oldest, combining
merge deltas with the table's merge operator.  Size-tiered compaction
(:mod:`repro.kvstore.compaction` plans it, one executor here runs it) keeps
the SSTable count bounded.

Keys are namespaced by a 2-byte table id so one physical file set serves all
logical tables, exactly as a Cassandra keyspace does.

Concurrency model (thread-safe since the serving-layer rework):

* A write-preferring :class:`~repro.kvstore.locks.RWLock` guards all
  in-memory state; gets/scans share it, mutations are exclusive.  The write
  side is held only for in-memory work -- never across WAL, flush or
  compaction disk I/O.
* ``_flush_lock`` serializes writers: a batch takes it before the state
  lock, as a flush does, and holds it from seqno reservation through WAL
  append and memtable apply, so the memtables hold records in seqno order
  and no two batches interleave.  The WAL object is only touched under it.
* **Flush handoff**: sealing a memtable is O(1) in-memory work under the
  write lock; the WAL rotates right after.  A sealed memtable queues with
  its flush watermark (the last seqno applied to it); flushes drain the
  queue oldest first, each building its SSTable with *no* lock held and
  then installing reader and manifest under the write lock.  Readers
  consult the sealed memtables in the meantime, so reads never block behind
  a flush.  If an SSTable build fails (e.g. ENOSPC) the memtable stays at
  the head of the queue: it stays readable, its frozen WAL segment stays on
  disk, and the next flush retries it first -- an acknowledged write is
  never dropped by a failed flush.
* **Compaction** (one round inline after each flush) merges a
  snapshot of the run lock-free, CRC-verifies the candidate outputs, and
  atomically swaps the SSTable set + manifest under the write lock.  A
  corrupt candidate aborts the swap (``compaction_aborts`` metric) and
  reads keep serving from the pre-compaction tables; a crash between
  output and swap leaves an orphan file the manifest never references,
  which the next open removes.
* WAL rotation means flushes delete fully-persisted frozen segments
  instead of truncating a shared file.  A rotation fsyncs the directory
  before the new log takes a write, so a power cut cannot undo the rename
  under writes acknowledged from the new log.  A segment is deleted once
  the flush watermark covers the last seqno logged into it -- not when the
  memtable sealed beside it flushes: a batch frame that straddles a seal
  keeps its segment until the memtable holding the batch's tail is
  persisted too.
  Replay applies every segment, filtered by the manifest's flush watermark,
  and cuts a torn tail off the active log before appending to it.
"""

from __future__ import annotations

import os
import re
import struct
import threading
from typing import Any, Iterable, Iterator

from repro.faults.io import REAL_IO
from repro.kvstore.api import (
    CorruptionError,
    KeyValueStore,
    MergeUnsupportedError,
    StoreClosedError,
    UnknownTableError,
    WRITE_OP_COUNTERS,
    WriteOp,
    normalize_key,
    write_op_counter,
)
from repro.kvstore.cache import BlockCache
from repro.kvstore.compaction import (
    CompactionPick,
    group_records,
    merge_records,
    plan_size_tiered,
)
from repro.kvstore.encoding import (
    Key,
    KeyPart,
    decode_key,
    encode_key,
    encode_value,
)
from repro.kvstore.bloom import hash_pair
from repro.kvstore.locks import RWLock
from repro.kvstore.memtable import TOMBSTONE, Memtable
from repro.kvstore.merge import (
    MergeOperator,
    collapse_records,
    read_value,
)
from repro.kvstore.sstable import SSTableReader, SSTableWriter
from repro.kvstore.tableset import TableSet
from repro.kvstore.wal import KIND_DELETE, KIND_MERGE, KIND_PUT, WriteAheadLog
from repro.obs.registry import REGISTRY, store_samples
from repro.obs.trace import current_tracer

_TABLE_PREFIX = struct.Struct(">H")
WAL_NAME = "wal.log"
_WAL_SEGMENT_RE = re.compile(r"^wal-(\d+)\.log$")
#: the WAL record kind of each write op (:data:`~repro.kvstore.api.WRITE_OP_COUNTERS`)
_OP_KINDS = {"put": KIND_PUT, "merge": KIND_MERGE, "delete": KIND_DELETE}


class StoreMetrics:
    """Operation counters exposed for tests, benchmarks and tuning.

    Counting is monotonic over the store's lifetime (not persisted) and
    thread-safe; ``bloom_skips`` counts SSTables that a point read skipped
    thanks to a negative bloom-filter probe, ``block_cache_hits``/``misses``
    mirror the shared SSTable block cache, and ``compaction_aborts`` counts
    compactions whose candidate output failed the pre-swap integrity check
    (reads then keep serving from the pre-compaction tables).

    ``multi_get_batches`` counts batched read calls (each also bumps
    ``gets`` once per key); ``write_batches`` counts :meth:`LSMStore.write`
    calls, each also bumping ``puts`` / ``merges`` / ``deletes`` once per
    op.  ``postings_cache_hits``/``misses``/``invalidations`` (and the
    ``sequence_cache_*`` ones) and
    ``planner_reorders`` are bumped by the query layer
    (:class:`repro.core.engine.SequenceIndex`) onto its store's metrics so
    serving-path counters live in one snapshot.

    ``flush_bytes_written`` / ``compaction_bytes_rewritten`` account every
    data byte a flush persisted and every data byte a compaction merge
    re-persisted; their ratio is the store's write amplification.
    ``block_reads`` counts physical data-block loads and
    ``lazy_meta_loads`` counts lazily-opened SSTables that materialized
    their index/bloom metadata -- both stay at zero across a lazy reopen
    until the first read arrives.  ``read_operands`` counts the records a
    point read resolved (memtable deltas and SSTable records, the base
    write included): its read amplification, summed over every key read.

    Counters are sharded per thread so :meth:`bump` never takes a lock --
    concurrent readers do not serialize on a shared metrics mutex.
    :meth:`snapshot` (and attribute reads like ``metrics.gets``) aggregate
    the shards; a shard outlives its thread, so no counts are ever dropped.

    **Snapshot consistency** (see ``docs/METRICS.md``): :meth:`snapshot`
    copies each shard *atomically* in a single pass (one C-level dict copy
    per shard under the GIL), so per-thread counter relationships are
    preserved -- if a thread always bumps counter A before counter B, no
    snapshot can ever show B ahead of A.  Counters bumped at different
    times by *different* threads carry no such guarantee (the shard copies
    are taken a few microseconds apart), and two attribute reads like
    ``metrics.gets``/``metrics.bloom_skips`` each take their own snapshot;
    use one :meth:`snapshot` call when related counters must be compared.
    """

    _COUNTERS = (
        "puts",
        "merges",
        "deletes",
        "gets",
        "scans",
        "flushes",
        "compactions",
        "compaction_aborts",
        "bloom_skips",
        "sstable_reads",
        "block_cache_hits",
        "block_cache_misses",
        "multi_get_batches",
        "write_batches",
        "compressed_blocks",
        "postings_cache_hits",
        "postings_cache_misses",
        "postings_cache_invalidations",
        "sequence_cache_hits",
        "sequence_cache_misses",
        "sequence_cache_invalidations",
        "planner_reorders",
        "flush_bytes_written",
        "compaction_bytes_rewritten",
        "block_reads",
        "lazy_meta_loads",
        "read_operands",
    )

    def __init__(self) -> None:
        self._registry_lock = threading.Lock()  # guards _shards membership only
        self._local = threading.local()
        self._shards: list[dict[str, int]] = []

    def _shard(self) -> dict[str, int]:
        shard = getattr(self._local, "counters", None)
        if shard is None:
            shard = dict.fromkeys(self._COUNTERS, 0)
            with self._registry_lock:
                self._shards.append(shard)
            self._local.counters = shard
        return shard

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment one counter (lock-free: writes this thread's shard)."""
        self._shard()[name] += amount

    def snapshot(self) -> dict[str, int]:
        """Current counter values as a plain dict (sums all shards).

        Single-pass: every shard is captured once with an atomic dict copy
        (``dict(shard)`` runs entirely in C under the GIL), so a shard's
        counters are mutually consistent -- a writer's bump sequence can
        never be observed out of order within its own shard (a snapshot
        cannot report more ``sstable_reads`` than ``gets``).
        """
        with self._registry_lock:
            copies = [dict(shard) for shard in self._shards]
        totals = dict.fromkeys(self._COUNTERS, 0)
        for copy in copies:
            for name, value in copy.items():
                totals[name] += value
        return totals

    def __getattr__(self, name: str) -> int:
        # Keep `metrics.gets`-style reads working over the sharded layout.
        if name in type(self)._COUNTERS:
            return self.snapshot()[name]
        raise AttributeError(name)


class LSMStore(KeyValueStore):
    """File-backed LSM store; see the module docstring for the design."""

    #: what reads and writes the MANIFEST (``repro upgrade`` opens older
    #: stores through its own)
    tableset_type = TableSet

    def __init__(
        self,
        path: str,
        memtable_flush_bytes: int = 4 * 1024 * 1024,
        sync_wal: bool = False,
        compaction_min_tables: int = 4,
        auto_compact: bool = True,
        block_cache_bytes: int = 8 * 1024 * 1024,
        io=None,
    ) -> None:
        self._path = path
        #: filesystem shim for durability-critical I/O; tests inject a
        #: :class:`repro.faults.FaultyIO` here, production uses ``REAL_IO``.
        self._io = io or REAL_IO
        self._memtable_flush_bytes = memtable_flush_bytes
        self._sync_wal = sync_wal
        self._auto_compact = auto_compact
        self._compaction_min_tables = compaction_min_tables
        self._state_lock = RWLock()
        self._flush_lock = threading.Lock()
        self._compaction_lock = threading.Lock()
        self._closed = False
        os.makedirs(path, exist_ok=True)

        self.metrics = StoreMetrics()
        self._block_cache = (
            BlockCache(block_cache_bytes, metrics=self.metrics)
            if block_cache_bytes > 0
            else None
        )
        #: catalogue, SSTable list, counters and the MANIFEST, guarded by
        #: ``_state_lock``; the catalogue dicts are bound once for the hot path
        self._tableset = self.tableset_type(path, self._io, self._block_cache, self.metrics)
        self._table_ids = self._tableset.table_ids
        self._merge_ops = self._tableset.merge_ops
        self._memtable = Memtable()
        #: sealed memtables awaiting their flush, oldest first, each with its
        #: flush watermark; one stays queued (and readable) until its SSTable
        #: is installed, so a failed flush is retried by the next one
        self._sealed: list[tuple[Memtable, int]] = []
        #: what a read consults before the SSTables: active first, then the
        #: sealed ones newest first (rebuilt under the write lock)
        self._memtables: tuple[Memtable, ...] = (self._memtable,)
        #: frozen WAL segment id -> last seqno logged into it (deletable once
        #: the flush watermark reaches it); guarded by ``_flush_lock``
        self._frozen: dict[int, int] = {}
        #: a WAL rotation's directory fsync failed: until one succeeds, every
        #: write fsyncs the directory before it appends (``_flush_lock``)
        self._owes_dir_fsync = False
        self._next_wal_id = 1
        self._next_seq = 1

        dir_names = os.listdir(path)  # one listing: orphan sweep + WAL segments
        self._tableset.load(dir_names)
        self._replay_wal(dir_names)
        self._wal = WriteAheadLog(
            os.path.join(path, WAL_NAME), sync=sync_wal, io=self._io
        )
        #: identity used in metrics exposition labels
        self.obs_name = path
        self._obs_handle = REGISTRY.register(
            {"store": self.obs_name, "backend": "lsm"}, self._collect_obs_metrics
        )

    # -- recovery ------------------------------------------------------------------

    def _wal_segments(self, dir_names: Iterable[str]) -> list[tuple[int, str]]:
        """Frozen WAL segments as ``(id, path)``, oldest first."""
        segments = []
        for name in dir_names:
            match = _WAL_SEGMENT_RE.match(name)
            if match:
                segments.append((int(match.group(1)), os.path.join(self._path, name)))
        segments.sort()
        return segments

    def _segment_path(self, segment_id: int) -> str:
        return os.path.join(self._path, f"wal-{segment_id:06d}.log")

    def _replay_wal(self, dir_names: Iterable[str]) -> None:
        """Rebuild the memtables from every WAL file, past the flush watermark.

        Records are applied in seqno order through the write path's own
        apply, so memtables seal where they sealed before the crash.  A torn
        tail of the active log is cut off here: the next frame appended
        after garbage would otherwise turn a clean torn tail into mid-file
        damage on the following replay.
        """
        flushed = self._tableset.last_flushed_seq
        records = []
        for segment_id, segment_path in self._wal_segments(dir_names):
            segment = list(WriteAheadLog.replay(segment_path))
            self._frozen[segment_id] = max((r.seqno for r in segment), default=0)
            records.extend(segment)
        active = os.path.join(self._path, WAL_NAME)
        intact = 0
        for intact, frame in WriteAheadLog.frames(active):
            records.extend(frame)
        if os.path.exists(active) and os.path.getsize(active) > intact:
            with self._io.open(active, "r+b") as fh:
                fh.truncate(intact)
        records.sort(key=lambda record: record.seqno)
        self._next_wal_id = max(self._frozen, default=0) + 1
        self._next_seq = max(flushed, records[-1].seqno if records else 0) + 1
        self._apply_locked(
            (r.seqno, (r.kind, r.key, r.value)) for r in records if r.seqno > flushed
        )

    def _remove_wal_segments(self, flushed_upto: int) -> None:
        """Delete every frozen segment whose records are all persisted."""
        for segment_id, last_seq in sorted(self._frozen.items()):
            if last_seq <= flushed_upto:
                self._io.remove(self._segment_path(segment_id))
                del self._frozen[segment_id]

    # -- table management -------------------------------------------------------

    def create_table(self, name: str, merge_operator: str | None = None) -> None:
        with self._state_lock.write():
            self._check_open()
            self._tableset.create_table(name, merge_operator)

    def has_table(self, name: str) -> bool:
        with self._state_lock.read():
            self._check_open()
            return name in self._table_ids

    def list_tables(self) -> list[str]:
        with self._state_lock.read():
            self._check_open()
            return sorted(self._table_ids)

    def _table_id(self, name: str) -> int:
        try:
            return self._table_ids[name]
        except KeyError:
            raise UnknownTableError(f"table {name!r} does not exist") from None

    def _full_key(self, table: str, key: KeyPart | Key) -> bytes:
        return _TABLE_PREFIX.pack(self._table_id(table)) + encode_key(normalize_key(key))

    def _operator_for_full_key(self, full_key: bytes) -> MergeOperator | None:
        (table_id,) = _TABLE_PREFIX.unpack_from(full_key, 0)
        return self._merge_ops.get(table_id)

    # -- write path ---------------------------------------------------------------

    def write(self, ops: Iterable[WriteOp]) -> None:
        """One atomic write: validate and encode every op, append them as
        one WAL frame, apply them to the memtable, then flush whatever
        memtables the batch sealed (see the module docstring)."""
        records: list[tuple[int, bytes, bytes]] = []
        append = records.append
        tally = dict.fromkeys(_OP_KINDS, 0)
        #: table -> (its key prefix, whether it has a merge operator), for
        #: the tables this batch has named so far
        tables: dict[str, tuple[bytes, bool]] = {}
        for op, table, key, value in ops:
            kind = _OP_KINDS.get(op)
            if kind is None:
                write_op_counter(op)  # raises: not a write op
            tally[op] += 1
            known = tables.get(table)
            if known is None:
                table_id = self._table_id(table)
                known = tables[table] = (
                    _TABLE_PREFIX.pack(table_id),
                    self._merge_ops.get(table_id) is not None,
                )
            if kind == KIND_MERGE and not known[1]:
                raise MergeUnsupportedError(f"table {table!r} has no merge operator")
            full_key = known[0] + encode_key(normalize_key(key))
            append((kind, full_key, b"" if kind == KIND_DELETE else encode_value(value)))
        span = current_tracer().span("lsm.write")
        with span:
            with self._flush_lock:
                self._check_open()
                if not records:
                    return
                if self._owes_dir_fsync:
                    self._io.fsync_dir(self._path)
                    self._owes_dir_fsync = False
                for op, count in tally.items():
                    if count:
                        self.metrics.bump(WRITE_OP_COUNTERS[op], count)
                self.metrics.bump("write_batches")
                first = self._next_seq
                self._next_seq += len(records)
                frame_bytes = self._wal.append(first, records)
                with self._state_lock.write():
                    sealed = self._apply_locked(enumerate(records, first))
                if sealed:
                    self._rotate_wal()
            if span.enabled:
                span.add("ops", len(records))
                span.add("bytes", frame_bytes)
            if sealed:
                self._drain()

    def _apply_locked(
        self, numbered: Iterable[tuple[int, tuple[int, bytes, bytes]]]
    ) -> bool:
        """Apply logged ``(seqno, (kind, key, value))`` records, in seqno
        order, to the memtable; ``True`` if a memtable was sealed.

        The memtable seals at exactly the record that takes it to
        ``memtable_flush_bytes`` -- where a writer of one op at a time would
        have flushed -- and the rest goes on into a fresh one, so table
        boundaries do not depend on how the writes were batched.  Caller
        holds the flush lock and the write side of the state lock (or is
        replaying at open).
        """
        limit = self._memtable_flush_bytes
        memtable = self._memtable
        sealed = False
        for seqno, (kind, key, value) in numbered:
            if memtable.apply(kind, key, value) >= limit:
                self._seal_locked(seqno)
                memtable = self._memtable
                sealed = True
        return sealed

    # -- read path -----------------------------------------------------------------

    def get(self, table: str, key: KeyPart | Key, default: Any = None) -> Any:
        self.metrics.bump("gets")
        with self._state_lock.read():
            self._check_open()
            full_key = self._full_key(table, key)
            operator = self._operator_for_full_key(full_key)
            records: list[tuple[int, bytes]] = []  # newest first
            for memtable in self._memtables:
                entry = memtable.lookup(full_key)
                if entry is None:
                    continue
                records.extend(entry.records())
                if entry.is_self_contained():
                    self.metrics.bump("read_operands", len(records))
                    return read_value(records, operator, default)
            readers = self._tableset.readers
            key_hash = hash_pair(full_key) if readers else None
            for reader in reversed(readers):
                if not reader.may_contain(*key_hash):
                    self.metrics.bump("bloom_skips")
                    continue
                self.metrics.bump("sstable_reads")
                record = reader.get(full_key)
                if record is None:
                    continue
                records.append(record)
                if record[0] != KIND_MERGE:
                    break
            self.metrics.bump("read_operands", len(records))
            return read_value(records, operator, default)

    def multi_get(
        self,
        table: str,
        keys: Iterable[KeyPart | Key],
        default: Any = None,
    ) -> list[Any]:
        """Batched point reads against one consistent snapshot.

        The read lock is taken once for the whole batch; each memtable and
        SSTable is then probed in a single pass over the (deduplicated,
        sorted) key set, sharing bloom probes and block loads between
        neighbouring keys.  Merge-operator resolution, tombstones and the
        ``default`` are handled exactly as in :meth:`get`.
        """
        key_list = list(keys)
        self.metrics.bump("multi_get_batches")
        self.metrics.bump("gets", len(key_list))
        span = current_tracer().span("lsm.multi_get")
        bloom_skipped = sstable_probes = memtable_resolved = 0
        with span, self._state_lock.read():
            self._check_open()
            operator = self._merge_ops.get(self._table_id(table))
            full_by_norm: dict[Key, bytes] = {}
            norm_keys = []
            for key in key_list:
                norm = normalize_key(key)
                norm_keys.append(norm)
                if norm not in full_by_norm:
                    full_by_norm[norm] = self._full_key(table, norm)
            # Per unique key: its records, newest first, gathered layer by
            # layer until a base write closes the history, as in get().
            records: dict[bytes, list[tuple[int, bytes]]] = {
                fk: [] for fk in full_by_norm.values()
            }
            unresolved = set(records)
            for memtable in self._memtables:
                if not unresolved:
                    break
                for full_key in list(unresolved):
                    entry = memtable.lookup(full_key)
                    if entry is None:
                        continue
                    records[full_key].extend(entry.records())
                    if entry.is_self_contained():
                        unresolved.discard(full_key)
            memtable_resolved = len(records) - len(unresolved)
            # One hash per key for the whole batch, however many tables probe it.
            readers = self._tableset.readers
            key_hash = {fk: hash_pair(fk) for fk in unresolved} if readers else {}
            for reader in reversed(readers):
                if not unresolved:
                    break
                may_contain = reader.may_contain
                candidates = [fk for fk in unresolved if may_contain(*key_hash[fk])]
                if len(candidates) != len(unresolved):
                    skipped = len(unresolved) - len(candidates)
                    self.metrics.bump("bloom_skips", skipped)
                    bloom_skipped += skipped
                if not candidates:
                    continue
                candidates.sort()
                self.metrics.bump("sstable_reads", len(candidates))
                sstable_probes += len(candidates)
                for full_key, record in reader.get_many(candidates).items():
                    records[full_key].append(record)
                    if record[0] != KIND_MERGE:
                        unresolved.discard(full_key)
            resolved = {
                full_key: read_value(found, operator, default)
                for full_key, found in records.items()
            }
            operands = sum(map(len, records.values()))
            self.metrics.bump("read_operands", operands)
            if span.enabled:
                span.add("keys", len(key_list))
                span.add("unique_keys", len(full_by_norm))
                span.add("memtable_resolved", memtable_resolved)
                span.add("bloom_skips", bloom_skipped)
                span.add("sstable_reads", sstable_probes)
                span.add("operands", operands)
        return [resolved[full_by_norm[norm]] for norm in norm_keys]

    def scan(
        self, table: str, prefix: KeyPart | Key | None = None
    ) -> Iterator[tuple[Key, Any]]:
        # Materialize under the read lock: scans are used for bounded key
        # ranges (per-table or per-prefix), and a snapshot keeps iteration
        # safe against concurrent flushes/compactions.
        self.metrics.bump("scans")
        with self._state_lock.read():
            self._check_open()
            table_id = self._table_id(table)
            low = _TABLE_PREFIX.pack(table_id)
            if prefix is not None:
                low += encode_key(normalize_key(prefix))
            high = _prefix_successor(low)
            operator = self._merge_ops.get(table_id)
            results = list(self._scan_snapshot(low, high, operator))
        return iter(results)

    def scan_range(
        self,
        table: str,
        start: KeyPart | Key | None = None,
        stop: KeyPart | Key | None = None,
    ) -> Iterator[tuple[Key, Any]]:
        self.metrics.bump("scans")
        with self._state_lock.read():
            self._check_open()
            table_id = self._table_id(table)
            table_prefix = _TABLE_PREFIX.pack(table_id)
            low = table_prefix
            if start is not None:
                low += encode_key(normalize_key(start))
            if stop is not None:
                high: bytes | None = table_prefix + encode_key(normalize_key(stop))
            else:
                high = _prefix_successor(table_prefix)
            operator = self._merge_ops.get(table_id)
            results = list(self._scan_snapshot(low, high, operator))
        return iter(results)

    def _scan_snapshot(
        self, low: bytes, high: bytes | None, operator: MergeOperator | None
    ) -> Iterator[tuple[Key, Any]]:
        """Merge-scan all sources; caller holds (at least) the read lock."""
        sources: list[Iterable[tuple[bytes, int, bytes]]] = [
            reader.iter_from_key(low) for reader in self._tableset.readers
        ]
        for memtable in reversed(self._memtables):
            sources.append(_memtable_source(memtable, low))
        for key, records in group_records(sources, stop=high):
            value = read_value(records, operator, TOMBSTONE)
            if value is not TOMBSTONE:
                yield decode_key(key[_TABLE_PREFIX.size :]), value

    # -- flush ------------------------------------------------------------------------

    def flush(self) -> None:
        """Persist every memtable; synchronous, but reads proceed throughout.

        Seals the active memtable (if it holds anything), then drains the
        sealed queue -- a flush that failed earlier is retried first.
        """
        with self._flush_lock:
            self._check_open()
            if len(self._memtable):
                with self._state_lock.write():
                    self._seal_locked(self._next_seq - 1)
                self._rotate_wal()
        self._drain()

    def _drain(self) -> None:
        """Flush sealed memtables oldest first, each followed by the inline
        compaction rule, until the queue is empty or the store closed.

        A failed flush raises and leaves its memtable at the head of the
        queue, readable and backed by its WAL segment, for the next drain.
        """
        while True:
            with self._flush_lock:
                # _closed cannot flip while we hold _flush_lock (close()
                # acquires it before setting the flag).
                if self._closed or not self._sealed:
                    return
                self._flush_sealed(*self._sealed[0])
            if self._auto_compact:
                # One round only: a second round would move SSTable
                # boundaries (the store's bytes on disk).
                self._compaction_round()

    def _seal_locked(self, upto: int) -> None:
        """Queue the active memtable for flushing with ``upto`` -- the last
        seqno applied to it -- as its flush watermark; O(1), no I/O.  Caller
        holds the flush lock and the write side of the state lock."""
        self._memtable.seal()
        self._sealed.append((self._memtable, upto))
        self._memtable = Memtable()
        self._refresh_memtables_locked()

    def _refresh_memtables_locked(self) -> None:
        self._memtables = (self._memtable, *(m for m, _ in reversed(self._sealed)))

    def _rotate_wal(self) -> None:
        """Freeze the active WAL as the next ``wal-<n>.log`` and start a new
        one; caller holds the flush lock.  The segment is deleted once the
        flush watermark reaches the last seqno logged so far, whichever
        memtable those records were applied to.  It is a
        :func:`~repro.faults.io.durable_rename` whose one directory fsync
        also covers the new log, before any write reaches it: if that fsync
        fails, the next write retries it and is not acknowledged unless it
        succeeds."""
        frozen_id = self._next_wal_id
        self._next_wal_id += 1
        self._wal.close()
        active = os.path.join(self._path, WAL_NAME)
        self._io.replace(active, self._segment_path(frozen_id))
        self._frozen[frozen_id] = self._next_seq - 1
        self._wal = WriteAheadLog(active, sync=self._sync_wal, io=self._io)
        self._owes_dir_fsync = True
        self._io.fsync_dir(self._path)
        self._owes_dir_fsync = False

    def _new_writer(self, expected_records: int) -> SSTableWriter:
        """The one place an SSTable file is started: the next id."""
        with self._state_lock.write():
            path = self._tableset.allocate()
        return SSTableWriter(path, expected_records=expected_records, io=self._io)

    def _seal_table(self, writer: SSTableWriter) -> SSTableReader:
        """The one place an SSTable is finished: seal it (the reader opens
        eager -- its metadata is in hand)."""
        reader = writer.finish(cache=self._block_cache, metrics=self.metrics)
        if writer.compressed_blocks:
            self.metrics.bump("compressed_blocks", writer.compressed_blocks)
        return reader

    def _flush_sealed(self, sealed: Memtable, upto: int) -> None:
        """Build the oldest sealed memtable's SSTable lock-free, then install
        it atomically; caller holds the flush lock."""
        writer = self._new_writer(len(sealed))
        span = current_tracer().span("lsm.flush")
        try:
            with span:
                for key, entry in sealed.iter_sorted():
                    record = collapse_records(
                        entry.records(), self._operator_for_full_key(key), False
                    )
                    if record is not None:
                        writer.add(key, *record)
                reader = self._seal_table(writer)
                if span.enabled:
                    span.add("entries", len(sealed))
                    span.add("bytes", reader.data_bytes)
        except BaseException:
            writer.abort()
            raise
        with self._state_lock.write():
            # The handoff is over once the table is built: were the manifest
            # commit below to fail, a retry would build the same records
            # into a second table (double-applying merge deltas).  The
            # reader is installed in memory either way and the next commit
            # persists it; until then the frozen WAL segment stays.
            self._sealed.pop(0)
            self._refresh_memtables_locked()
            self._tableset.install_flush(reader, upto)
        self.metrics.bump("flushes")
        self.metrics.bump("flush_bytes_written", reader.data_bytes)
        # Flushes complete in seal order and memtables hold records in seqno
        # order, so every record <= upto is now persisted.
        self._remove_wal_segments(upto)

    # -- compaction -------------------------------------------------------------------

    def compact(self) -> bool:
        """Run one compaction round if a qualifying run exists."""
        self._check_open()
        return self._compaction_round()

    def compact_all(self) -> None:
        """Force-merge every SSTable into one (full major compaction)."""
        self._check_open()
        self.flush()
        self._compaction_round(full=True)

    def _compaction_round(self, full: bool = False) -> bool:
        """Plan and apply one round (``full``: the major compaction, every
        table, finalized); ``True`` if work was done."""
        with self._compaction_lock:
            with self._state_lock.read():
                if self._closed:
                    return False
                readers = self._tableset.readers
                if not full:
                    pick = plan_size_tiered(readers, self._compaction_min_tables)
                elif len(readers) > 1:
                    pick = CompactionPick(list(readers), finalize=True)
                else:
                    pick = None
            return pick is not None and self._run_compaction(pick)

    def _run_compaction(self, pick: CompactionPick) -> bool:
        """The one compaction executor: scrub -> merge -> fault point ->
        verify -> swap.

        Caller holds ``_compaction_lock``; concurrent flushes only *append*
        to the table set, so the inputs stay members throughout.  The merge
        runs with no lock held and writes exactly one output, its bloom
        filter sized for the sum of the inputs' records.  The output is
        CRC-verified before the swap: a corrupt output (crash/fault between
        compaction write and manifest update) is discarded and reads
        continue from the pre-compaction tables.
        """
        inputs = pick.inputs
        # Scrub the inputs first: merging unverified bytes would stamp a
        # *fresh* CRC over corrupt data, laundering a detectable bit flip
        # into a permanently undetectable one.  A corrupt input aborts the
        # round; reads keep serving (and verify() keeps failing loudly).
        for reader in inputs:
            try:
                reader.verify()
            except CorruptionError:
                self.metrics.bump("compaction_aborts")
                return False
        span = current_tracer().span("lsm.compaction")
        with span:
            writer = self._new_writer(sum(r.record_count for r in inputs))
            try:
                for kind, key, value in merge_records(
                    inputs, self._operator_for_full_key, pick.finalize
                ):
                    writer.add(key, kind, value)
                merged = self._seal_table(writer)
            except BaseException:
                # Simulated kill mid-merge: the in-flight tmp file is dropped.
                writer.abort()
                raise
            if span.enabled:
                span.add("inputs", len(inputs))
                span.add("input_bytes", sum(r.data_bytes for r in inputs))
                span.add("output_bytes", merged.data_bytes)
        try:
            # Named fault point for the protocol's vulnerable window (output
            # sealed, manifest not yet swapped).
            self._io.fault_point("compaction.pre_swap", merged.path)
        except BaseException:
            # The sealed output stays on disk as an orphan, exactly as a
            # crash leaves it (the next open removes it).
            merged.close()
            raise
        try:
            merged.verify()
        except Exception:
            self._discard(merged)
            return False
        with self._state_lock.write():
            swapped = not self._closed and self._tableset.swap(inputs, merged)
        if not swapped:
            # Store closed (or inputs retired) under us: discard the output.
            self._discard(merged)
            return False
        self.metrics.bump("compactions")
        self.metrics.bump("compaction_bytes_rewritten", merged.data_bytes)
        return True

    def _discard(self, merged: SSTableReader) -> None:
        """Abort a compaction whose output must not go live."""
        merged.close()
        self._io.remove(merged.path)
        self.metrics.bump("compaction_aborts")

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Flush and release resources; idempotent and safe mid-fault.

        The final flush is attempted once.  If it fails (ENOSPC, a failed
        fsync, an injected fault), the store is *still* marked closed and
        every file handle is released before the flush error propagates:
        acknowledged writes stay recoverable from the frozen WAL segments
        on the next open, and nothing leaks.  A second ``close()`` -- after
        success, after a failure, or concurrently -- is a quiet no-op.
        """
        with self._state_lock.write():
            if self._closed:
                return
        REGISTRY.unregister(self._obs_handle)
        flush_error: BaseException | None = None
        try:
            self.flush()
        except StoreClosedError:  # raced with another close()
            return
        except BaseException as exc:
            flush_error = exc
        close_error: BaseException | None = None
        with self._compaction_lock, self._flush_lock:
            with self._state_lock.write():
                if self._closed:
                    if flush_error is not None:
                        raise flush_error
                    return
                self._closed = True
                for handle in (self._wal, self._tableset):
                    try:
                        handle.close()
                    except BaseException as exc:
                        if close_error is None:
                            close_error = exc
        if flush_error is not None:
            raise flush_error
        if close_error is not None:
            raise close_error

    @property
    def sstable_count(self) -> int:
        """Number of live SSTables (exposed for tests and introspection)."""
        with self._state_lock.read():
            return len(self._tableset.readers)

    def verify(self) -> None:
        """Scrub every SSTable's data section against its checksum.

        Raises :class:`~repro.kvstore.api.CorruptionError` on the first
        mismatch.  Metadata (index/bloom/footer) is already verified on
        open; this pass covers the record payloads.  Holds the read lock,
        so a concurrent compaction cannot retire tables mid-scrub.
        """
        with self._state_lock.read():
            self._check_open()
            for reader in self._tableset.readers:
                reader.verify()

    def cache_stats(self) -> dict[str, int]:
        """Block-cache counters (empty dict when the cache is disabled)."""
        return self._block_cache.stats() if self._block_cache is not None else {}

    def storage_stats(self) -> dict:
        """Physical storage accounting, per SSTable and aggregated (see
        :meth:`TableSet.storage_stats`).  Runs under the read lock so a
        concurrent compaction cannot retire tables mid-walk.
        """
        with self._state_lock.read():
            self._check_open()
            return self._tableset.storage_stats()

    def _collect_obs_metrics(self) -> dict[str, float]:
        """Metrics-registry collector: one consistent store sample."""
        with self._state_lock.read():
            if self._closed:
                return {}
            readers = self._tableset.readers
            sstables = len(readers)
            tables = len(self._table_ids)
            bytes_on_disk = self._tableset.file_bytes()
        return store_samples(
            self.metrics.snapshot(),
            sstables=sstables,
            tables=tables,
            cache_stats=self.cache_stats(),
            bytes_on_disk=bytes_on_disk,
        )

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("store is closed")


def _prefix_successor(prefix: bytes) -> bytes | None:
    """Smallest byte string greater than every string starting with ``prefix``.

    Increment the last non-0xFF byte and truncate; all-0xFF prefixes have
    no successor (``None`` = scan to the end).
    """
    out = bytearray(prefix)
    while out:
        if out[-1] != 0xFF:
            out[-1] += 1
            return bytes(out)
        out.pop()
    return None


def _memtable_source(
    memtable: Memtable, low: bytes
) -> Iterator[tuple[bytes, int, bytes]]:
    """A memtable's entries from ``low`` on as sorted ``(key, kind, value)``
    records, each key's newest first (what ``group_records`` consumes)."""
    for key, entry in memtable.iter_sorted():
        if key >= low:
            for kind, value in entry.records():
                yield key, kind, value
