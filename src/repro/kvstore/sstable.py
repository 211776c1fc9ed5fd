"""Immutable sorted-string-table files.

One format is written, two are read (the reader dispatches on the header
magic).

Version 2 -- block-compressed, the one format :class:`SSTableWriter`
writes::

    "RSST2\\n"                                   magic
    data section:    repeated *blocks*, one per sparse-index entry
                     [u8 codec][u32 raw_len][u32 stored_len]
                     [u32 crc32(stored bytes)][stored bytes]
                     where the stored bytes decompress to raw records
                     [u32 klen][key][u8 kind][u32 vlen][value]
    index section:   sparse index, one entry per INDEX_INTERVAL records
                     [u32 klen][key][u64 offset of the block header]
    bloom section:   serialized BloomFilter
    footer:          [u64 index_off][u64 bloom_off][u64 record_count]
                     [u32 crc32(data)] [u32 meta_crc] "RSSTEND\\n"

Version 1 -- uncompressed, read-only (stores written before v2 became the
one format; any compaction rewrites their tables as v2)::

    "RSST1\\n"                                   magic
    data section:    the raw records back to back, no block headers
    index/bloom/footer: identical to v2 (index offsets point at records)

Blocks are zlib-compressed (:mod:`~repro.kvstore.blockcodec`); a block
that does not shrink is stored verbatim under codec ``0``, so
pathological data costs 13 bytes of header, never a decompression step.
The per-block CRC is computed over the **stored** bytes, so a bit flip in
a compressed block is caught before decompression ever runs --
``_load_block`` checks it on every physical read -- and the data CRC
covers the data section's *file* bytes, headers included, so
:meth:`SSTableReader.verify` scrubs without decompressing.  That keeps
the guarantee that compaction's pre-merge scrub detects (never launders)
silent corruption.

``meta_crc`` covers the index section, the bloom section *and* the other
footer fields, so any bit flip in the file outside the data section is
caught at open; the data CRC is checked by the explicit
:meth:`SSTableReader.verify` integrity pass (reads never pay for it).

Each SSTable holds at most one record per key (the memtable collapses
duplicate writes), so readers never need per-file sequence numbers; file
recency is tracked by the manifest ordering instead.

Record kinds reuse the WAL constants: ``PUT`` (full value), ``DELETE``
(tombstone) and ``MERGE`` (a combined merge delta whose base lives in some
older file).

Readers are thread-safe: all data access goes through positioned reads
(``os.pread`` -- the one read mechanism, and the one a fault schedule can
see), so concurrent gets/scans never race on a shared file offset.  Data
is read one *block* at a time -- the byte range between two consecutive
sparse-index entries -- optionally through a shared
:class:`~repro.kvstore.cache.BlockCache` of parsed records.
"""

from __future__ import annotations

import itertools
import os
import struct
import threading
import zlib
from bisect import bisect_right
from typing import Iterable, Iterator

from repro.faults.io import REAL_IO
from repro.kvstore import blockcodec
from repro.kvstore.api import CorruptSSTableError
from repro.kvstore.blockcodec import CODEC_NONE
from repro.kvstore.bloom import BloomFilter
from repro.kvstore.cache import BlockCache

#: the header of every table written (v2)
MAGIC = b"RSST2\n"
#: the header of a read-only v1 table
MAGIC_V1 = b"RSST1\n"
END_MAGIC = b"RSSTEND\n"
INDEX_INTERVAL = 16

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_FOOTER = struct.Struct(">QQQII")
#: v2 block header: codec id, raw (decompressed) len, stored len, crc32(stored)
_BLOCK_HEADER = struct.Struct(">BIII")


class SSTableWriter:
    """Streams sorted records into a new v2 SSTable file.

    After :meth:`finish`, :attr:`compressed_blocks` and
    :attr:`raw_data_bytes` report how many blocks actually shrank and the
    pre-compression data size.
    """

    def __init__(self, path: str, expected_records: int = 1024, io=None) -> None:
        self._path = path
        self._tmp_path = path + ".tmp"
        self._io = io or REAL_IO
        self._file = self._io.open(self._tmp_path, "wb")
        self._file.write(MAGIC)
        self._bloom = BloomFilter.with_capacity(expected_records)
        self._index: list[tuple[bytes, int]] = []
        self._block_buf = bytearray()
        self._count = 0
        self._data_crc = 0
        #: the largest key written so far (``add`` checks the order)
        self.last_key: bytes | None = None
        self.compressed_blocks = 0
        self.raw_data_bytes = 0

    def add(self, key: bytes, kind: int, value: bytes) -> None:
        """Append one record; keys must arrive in strictly increasing order."""
        if self.last_key is not None and key <= self.last_key:
            raise ValueError("SSTable records must be added in strictly increasing key order")
        self.last_key = key
        if self._count % INDEX_INTERVAL == 0:
            self._flush_block()
            self._index.append((key, self._file.tell()))
        self._bloom.add(key)
        record = (
            _U32.pack(len(key)) + key + bytes((kind,)) + _U32.pack(len(value)) + value
        )
        self.raw_data_bytes += len(record)
        self._block_buf.extend(record)
        self._count += 1

    def _flush_block(self) -> None:
        """Seal the buffered records as one block (header + stored bytes)."""
        if not self._block_buf:
            return
        raw = bytes(self._block_buf)
        self._block_buf.clear()
        codec, stored = blockcodec.compress(raw)
        if codec != CODEC_NONE:
            self.compressed_blocks += 1
        block = (
            _BLOCK_HEADER.pack(codec, len(raw), len(stored), zlib.crc32(stored))
            + stored
        )
        self._data_crc = zlib.crc32(block, self._data_crc)
        self._file.write(block)

    def finish(self, cache: BlockCache | None = None, metrics=None) -> "SSTableReader":
        """Seal the file (atomically renamed into place) and open a reader."""
        self._flush_block()
        index_off = self._file.tell()
        index_buf = bytearray()
        for key, offset in self._index:
            index_buf.extend(_U32.pack(len(key)))
            index_buf.extend(key)
            index_buf.extend(_U64.pack(offset))
        bloom_buf = self._bloom.to_bytes()
        bloom_off = index_off + len(index_buf)
        self._file.write(index_buf)
        self._file.write(bloom_buf)
        fields = struct.pack(">QQQI", index_off, bloom_off, self._count, self._data_crc)
        meta_crc = zlib.crc32(bytes(index_buf) + bloom_buf + fields)
        self._file.write(fields)
        self._file.write(struct.pack(">I", meta_crc))
        self._file.write(END_MAGIC)
        self._file.flush()
        self._io.fsync(self._file)
        self._file.close()
        self._io.replace(self._tmp_path, self._path)
        # Durably commit the rename itself: without the directory fsync an
        # ext4-style journal replay can resurrect the pre-rename dentry and
        # lose a fully-synced table.
        self._io.fsync_dir(os.path.dirname(self._path) or ".")
        return SSTableReader(self._path, cache=cache, io=self._io, metrics=metrics)

    def abort(self) -> None:
        """Discard a partially written table."""
        self._file.close()
        if os.path.exists(self._tmp_path):
            self._io.remove(self._tmp_path)


class SSTableReader:
    """Random and sequential access over a sealed SSTable (thread-safe).

    ``metrics`` is an optional ``StoreMetrics`` whose ``block_reads``
    counter is bumped per physical data-block load.

    ``lazy=True`` defers the meta section (sparse index + bloom filter +
    meta CRC check) until the first operation that needs it: open then
    costs two preads of the footer tail regardless of table size, which
    is what makes ``LSMStore`` reopen O(manifest).  Corruption in the
    deferred section still surfaces as :class:`CorruptSSTableError` --
    at first read, or at :meth:`verify` which materializes it eagerly.
    """

    _uids = itertools.count(1)

    def __init__(
        self,
        path: str,
        cache: BlockCache | None = None,
        io=None,
        metrics=None,
        lazy: bool = False,
    ) -> None:
        self._path = path
        self._io = io or REAL_IO
        self._file = self._io.open(path, "rb")
        self._fd = self._file.fileno()
        self._cache = cache
        self._metrics = metrics
        self._uid = next(SSTableReader._uids)
        self._meta_lock = threading.Lock()
        self._meta_loaded = False
        self._lazy = lazy
        try:
            self._load_footer()
            if not lazy:
                self._ensure_meta()
        except BaseException:
            self._file.close()
            raise

    def _read_at(self, offset: int, length: int) -> bytes:
        return os.pread(self._fd, length, offset)

    def _load_footer(self) -> None:
        """Parse the fixed-size footer tail: a few tens of bytes of pread.

        This is the *entire* open-time cost of a lazy reader -- record
        count, section offsets and both CRCs come from here; the meta
        section (sparse index + bloom filter) is only read and checked by
        :meth:`_ensure_meta` on first use.
        """
        size = os.fstat(self._fd).st_size
        tail = _FOOTER.size + len(END_MAGIC)
        if size < len(MAGIC) + tail:
            raise CorruptSSTableError(f"SSTable {self._path} too small")
        footer = self._read_at(size - tail, _FOOTER.size)
        magic = self._read_at(size - tail + _FOOTER.size, len(END_MAGIC))
        if magic != END_MAGIC:
            raise CorruptSSTableError(f"SSTable {self._path} missing end magic")
        index_off, bloom_off, count, data_crc, meta_crc = _FOOTER.unpack(footer)
        if not len(MAGIC) <= index_off <= bloom_off <= size - tail:
            raise CorruptSSTableError(
                f"SSTable {self._path} has implausible offsets"
            )
        header = self._read_at(0, len(MAGIC))
        if header == MAGIC:
            self._version = 2
        elif header == MAGIC_V1:
            self._version = 1
        else:
            raise CorruptSSTableError(f"SSTable {self._path} missing header magic")
        self._data_crc = data_crc
        self._meta_crc = meta_crc
        self._footer_fields = footer[: struct.calcsize(">QQQI")]
        self._index_off = index_off
        self._bloom_off = bloom_off
        self._meta_end = size - tail
        self._count = count
        self._data_end = index_off
        self._raw_data_bytes: int | None = None

    def _ensure_meta(self) -> None:
        """Materialize (and CRC-check) the sparse index + bloom filter.

        Idempotent and thread-safe; every meta consumer calls it first.
        For a ``lazy`` reader this is the deferred half of open --
        ``lazy_meta_loads`` counts how many tables actually paid it.
        """
        if self._meta_loaded:
            return
        with self._meta_lock:
            if self._meta_loaded:
                return
            self._load_meta()
            if self._lazy and self._metrics is not None:
                self._metrics.bump("lazy_meta_loads")
            self._meta_loaded = True

    def _load_meta(self) -> None:
        index_off = self._index_off
        bloom_off = self._bloom_off
        meta = self._read_at(index_off, self._meta_end - index_off)
        if zlib.crc32(meta + self._footer_fields) != self._meta_crc:
            raise CorruptSSTableError(
                f"SSTable {self._path} metadata CRC mismatch"
            )
        index_buf = meta[: bloom_off - index_off]
        # The meta CRC already vouches for these bytes, but a writer bug (or
        # a collision-lucky flip) must still surface as a *typed* error --
        # never a raw struct.error/IndexError from the parse below.
        try:
            self._bloom = BloomFilter.from_bytes(meta[bloom_off - index_off :])
        except (struct.error, ValueError, IndexError) as exc:
            raise CorruptSSTableError(
                f"SSTable {self._path} has a truncated or corrupt bloom "
                f"filter: {exc}"
            ) from None
        self._index_keys: list[bytes] = []
        self._index_offsets: list[int] = []
        pos = 0
        try:
            while pos < len(index_buf):
                (klen,) = _U32.unpack_from(index_buf, pos)
                pos += 4
                if pos + klen + 8 > len(index_buf):
                    raise CorruptSSTableError(
                        f"SSTable {self._path} sparse index truncated"
                    )
                self._index_keys.append(index_buf[pos : pos + klen])
                pos += klen
                (offset,) = _U64.unpack_from(index_buf, pos)
                pos += 8
                self._index_offsets.append(offset)
        except struct.error as exc:
            raise CorruptSSTableError(
                f"SSTable {self._path} sparse index unparseable: {exc}"
            ) from None
        for offset in self._index_offsets:
            if not len(MAGIC) <= offset < index_off:
                raise CorruptSSTableError(
                    f"SSTable {self._path} sparse-index entry points past "
                    f"the data section (offset {offset})"
                )

    @property
    def path(self) -> str:
        return self._path

    @property
    def format_version(self) -> int:
        """On-disk format: 2 (block-compressed, the one written) or 1
        (uncompressed, read-only)."""
        return self._version

    def verify(self) -> None:
        """Full integrity check: metadata CRC, then the data-section CRC.

        Point reads and scans stay checksum-free (the index/bloom path is
        covered by the meta CRC when it materializes); call this for
        explicit scrubbing, e.g. after restoring a backup.  A lazy reader
        materializes its metadata here first -- scrubbing must surface a
        flipped bit in the index or bloom filter even if no read ever
        touched the table, preserving the crash-harness contract that
        ``verify()`` detects any planted corruption.  The streaming CRC
        then covers every data-section byte -- for v2 files that includes
        each block header *and* its compressed payload, so a flip
        anywhere is caught without paying for decompression.  Raises
        :class:`CorruptSSTableError` on mismatch.
        """
        self._ensure_meta()
        offset = len(MAGIC)
        remaining = self._data_end - offset
        crc = 0
        while remaining > 0:
            chunk = self._read_at(offset, min(1 << 20, remaining))
            if not chunk:
                raise CorruptSSTableError(f"SSTable {self._path} data truncated")
            crc = zlib.crc32(chunk, crc)
            offset += len(chunk)
            remaining -= len(chunk)
        if crc != self._data_crc:
            raise CorruptSSTableError(f"SSTable {self._path} data CRC mismatch")

    @property
    def record_count(self) -> int:
        return self._count

    @property
    def data_bytes(self) -> int:
        """On-disk size of the data section (used by size-tiered compaction)."""
        return self._data_end - len(MAGIC)

    @property
    def raw_data_bytes(self) -> int:
        """Pre-compression size of the data section.

        Equals :attr:`data_bytes` for v1 files; for v2 it sums the
        ``raw_len`` fields of the block headers, walked header to header
        (one 13-byte read per block, computed lazily and cached; the
        sparse index is not needed, so a lazy reader stays lazy).
        """
        if self._raw_data_bytes is None:
            self._raw_data_bytes = (
                self.data_bytes if self._version == 1 else self._sum_raw_lens()
            )
        return self._raw_data_bytes

    def _sum_raw_lens(self) -> int:
        total, offset = 0, len(MAGIC)
        while offset < self._data_end:
            header = self._read_at(offset, _BLOCK_HEADER.size)
            if len(header) != _BLOCK_HEADER.size:
                raise CorruptSSTableError(f"SSTable {self._path} truncated block header")
            _, raw_len, stored_len, _ = _BLOCK_HEADER.unpack(header)
            total += raw_len
            offset += _BLOCK_HEADER.size + stored_len
        if offset != self._data_end:
            raise CorruptSSTableError(
                f"SSTable {self._path} block headers overrun the data section"
            )
        return total

    def may_contain(self, h1: int, h2: int) -> bool:
        """Bloom-filter pre-check of the key hashed to
        :func:`~repro.kvstore.bloom.hash_pair` ``(h1, h2)`` (false positives
        possible, negatives exact)."""
        self._ensure_meta()
        return self._bloom.probe(h1, h2)

    def get(self, key: bytes) -> tuple[int, bytes] | None:
        """Return ``(kind, value)`` for ``key`` or ``None``.

        No bloom probe happens here: like :meth:`get_many`, callers that
        want one pre-filter with :meth:`may_contain`.
        """
        self._ensure_meta()
        if not self._index_keys:
            return None
        slot = bisect_right(self._index_keys, key) - 1
        if slot < 0:
            return None
        for rec_key, kind, value in self._load_block(slot):
            if rec_key == key:
                return kind, value
            if rec_key > key:
                return None
        return None

    def get_many(self, keys: list[bytes]) -> dict[bytes, tuple[int, bytes]]:
        """Point-read many keys, sharing block loads between neighbours.

        ``keys`` must be sorted ascending; block slots are then
        non-decreasing, so each data block is loaded (and cache-probed) at
        most once per batch instead of once per key.  Callers are expected
        to pre-filter with :meth:`may_contain`; absent keys are simply
        missing from the returned dict.
        """
        self._ensure_meta()
        found: dict[bytes, tuple[int, bytes]] = {}
        if not self._index_keys:
            return found
        last_slot = -1
        records: list[tuple[bytes, int, bytes]] = []
        for key in keys:
            slot = bisect_right(self._index_keys, key) - 1
            if slot < 0:
                continue
            if slot != last_slot:
                records = self._load_block(slot)
                last_slot = slot
            for rec_key, kind, value in records:
                if rec_key == key:
                    found[key] = (kind, value)
                    break
                if rec_key > key:
                    break
        return found

    # -- block access ------------------------------------------------------

    def _block_bounds(self, slot: int) -> tuple[int, int]:
        start = self._index_offsets[slot]
        if slot + 1 < len(self._index_offsets):
            return start, self._index_offsets[slot + 1]
        return start, self._data_end

    def _load_block(
        self, slot: int, fill_cache: bool = True
    ) -> list[tuple[bytes, int, bytes]]:
        """Read one sparse-index block as parsed records (cache read-through).

        ``fill_cache=False`` (sequential scans, compaction) still profits
        from already-cached blocks but does not insert, so one full-table
        sweep cannot wash the working set out of the cache.
        """
        if self._cache is not None:
            cached = self._cache.get((self._uid, slot))
            if cached is not None:
                return cached
        start, end = self._block_bounds(slot)
        buf = self._read_at(start, end - start)
        if len(buf) != end - start:
            raise CorruptSSTableError(f"SSTable {self._path} data truncated")
        if self._metrics is not None:
            # Physical data-block loads (cache misses included, cache hits
            # not): the lazy-reopen regression test asserts this stays 0
            # across a reopen until the first read arrives.
            self._metrics.bump("block_reads")
        if self._version == 2:
            buf = self._decode_block(buf)
        records = self._parse_block(buf)
        if self._cache is not None and fill_cache:
            self._cache.put((self._uid, slot), records, weight=max(1, len(buf)))
        return records

    def _decode_block(self, buf: bytes) -> bytes:
        """Check a v2 block's CRC (over the stored bytes) and decompress it."""
        if len(buf) < _BLOCK_HEADER.size:
            raise CorruptSSTableError(f"SSTable {self._path} truncated block header")
        codec, raw_len, stored_len, crc = _BLOCK_HEADER.unpack_from(buf, 0)
        stored = buf[_BLOCK_HEADER.size :]
        if len(stored) != stored_len:
            raise CorruptSSTableError(
                f"SSTable {self._path} block length mismatch "
                f"(header says {stored_len}, block spans {len(stored)})"
            )
        if zlib.crc32(stored) != crc:
            raise CorruptSSTableError(
                f"SSTable {self._path} block CRC mismatch (compressed bytes)"
            )
        try:
            return blockcodec.decompress(codec, stored, raw_len)
        except ValueError as exc:
            raise CorruptSSTableError(
                f"SSTable {self._path} block failed to decompress: {exc}"
            ) from None

    def _parse_block(self, buf: bytes) -> list[tuple[bytes, int, bytes]]:
        records: list[tuple[bytes, int, bytes]] = []
        pos = 0
        total = len(buf)
        while pos < total:
            if pos + 4 > total:
                raise CorruptSSTableError(f"SSTable {self._path} truncated record header")
            (klen,) = _U32.unpack_from(buf, pos)
            pos += 4
            if pos + klen + 5 > total:
                raise CorruptSSTableError(f"SSTable {self._path} truncated record")
            key = buf[pos : pos + klen]
            pos += klen
            kind = buf[pos]
            pos += 1
            (vlen,) = _U32.unpack_from(buf, pos)
            pos += 4
            if pos + vlen > total:
                raise CorruptSSTableError(f"SSTable {self._path} truncated record value")
            value = buf[pos : pos + vlen]
            pos += vlen
            records.append((key, kind, value))
        return records

    def __iter__(self) -> Iterator[tuple[bytes, int, bytes]]:
        """Yield all ``(key, kind, value)`` records in key order."""
        self._ensure_meta()
        for slot in range(len(self._index_offsets)):
            yield from self._load_block(slot, fill_cache=False)

    def iter_from_key(self, start: bytes) -> Iterator[tuple[bytes, int, bytes]]:
        """Yield records with ``key >= start`` in key order."""
        self._ensure_meta()
        if not self._index_keys:
            return
        first = max(0, bisect_right(self._index_keys, start) - 1)
        for slot in range(first, len(self._index_offsets)):
            for key, kind, value in self._load_block(slot, fill_cache=False):
                if key >= start:
                    yield key, kind, value

    def close(self, evict_blocks: bool = True) -> None:
        """Release the file handle and drop cached blocks.

        ``evict_blocks=False`` skips the per-reader cache sweep; callers
        retiring many readers at once (a compaction swap) batch-evict via
        :meth:`BlockCache.evict_owners` instead of paying one full cache
        scan per closed table.
        """
        if evict_blocks and self._cache is not None:
            self._cache.evict_owner(self._uid)
        self._file.close()


def write_sstable(
    path: str,
    records: Iterable[tuple[bytes, int, bytes]],
    expected_records: int = 1024,
) -> SSTableReader:
    """Write ``records`` (sorted by key) to ``path`` and return a reader."""
    writer = SSTableWriter(path, expected_records)
    try:
        for key, kind, value in records:
            writer.add(key, kind, value)
    except BaseException:
        writer.abort()
        raise
    return writer.finish()
