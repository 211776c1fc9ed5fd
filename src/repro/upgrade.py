"""``repro upgrade``: rewrite a store older code wrote, once, into the one
layout each structure has (DESIGN.md §11, "One layout per structure").

This module is the one place the retired layouts are read: varint
(``0x01``-``0x03``) and dictionary (``0x04``) Index chunks, bare Index
tuples, pair-keyed LastChecked rows, Meta's ``method`` key, v1 SSTables,
zstd blocks, and MANIFEST entries that are bare file names or carry the
leveled strategy's fields.  :func:`upgrade_store` rewrites the rows (one
atomic store write per table, every trace-number row before the chunks
that use it), compacts every table into one zlib v2 table, and records the
MANIFEST ``format`` last: an upgrade that fails anywhere leaves a store
that still refuses to open and that a second run upgrades, and a store
already in the format is not touched.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

from repro.core.postings import (
    _CHUNK_TYPES,
    TAG_NUMBERED,
    TAG_RAW,
    CorruptPostingsError,
    Postings,
    _columns,
    _encode_chunk,
    _grouped,
    _open_chunk,
    _read_columns,
    _read_uvarint,
    _unzigzag,
    encode_numbered_postings,
    raw_chunk,
)
from repro.core.tables import INDEX, LAST_CHECKED, META, TRACE_NUMBER, IndexTables
from repro.faults.harness import simulate_crash
from repro.kvstore.api import CorruptionError, KeyValueStore, StoreFormatError
from repro.kvstore.blockcodec import decompress
from repro.kvstore.compaction import CompactionPick
from repro.kvstore.lsm import LSMStore
from repro.kvstore.sstable import SSTableReader
from repro.kvstore.tableset import MANIFEST_NAME, STORE_FORMAT, TableSet
from repro.shard.index import is_sharded_store, read_manifest, shard_paths

try:  # optional dependency: present on some deployments only
    import zstandard as _zstd
except ImportError:  # pragma: no cover - exercised when zstandard is absent
    _zstd = None

# Index chunk tags older code wrote (``0x00``, ``0x05`` and ``0x06`` are
# the current ones, in repro.core.postings)
TAG_INT = 0x01
TAG_INTFLOAT = 0x02
TAG_FLOAT = 0x03
TAG_POSTINGS = 0x04

#: the header of a v1 SSTable
MAGIC_V1 = b"RSST1\n"
#: the block codec id zstd had
CODEC_ZSTD = 2


# -- the retired Index layouts ------------------------------------------------


def encode_postings(entries: list) -> bytes:
    """One POSTINGS (``0x04``) chunk of ``(trace_id, ts_a, ts_b)`` rows: the
    dictionary layout the Index had before trace numbers; a RAW chunk when
    the rows fit none.  Row order and every field's type survive the round
    trip."""
    columns = _columns(entries, 3)
    chunk = _encode_chunk(TAG_POSTINGS, *columns) if columns is not None else None
    return chunk if chunk is not None else raw_chunk(entries)


def decode_postings(chunk) -> dict[str, list[tuple[float, float]]]:
    """One chunk of any Index layout, current or retired, as ``{trace_id:
    [(ts_a, ts_b), ...]}`` (a NUMBERED chunk's traces are its numbers: no
    name table here)."""
    if len(chunk) and chunk[0] in (TAG_NUMBERED, TAG_RAW):
        return _grouped(Postings((chunk,)).columns())
    rows = _retired_rows(chunk)
    return _grouped([_columns(rows, 3)] if rows else [])


def _retired_rows(chunk) -> list[tuple]:
    """Rows of a POSTINGS or varint chunk."""
    if not len(chunk):
        raise CorruptPostingsError("empty postings chunk")
    if chunk[0] == TAG_POSTINGS:
        ids, n, packed, base, pos = _open_chunk(chunk)
        index, ts_a, ts_b = _read_columns(chunk, n, packed, base, pos, len(ids))
        if index is not None:
            ids = [ids[i] for i in index]
        return list(zip(ids, ts_a, ts_b))
    return _varint_rows(chunk)


def _varint_rows(chunk) -> list[tuple]:
    """Rows of a varint chunk (tags ``0x01``-``0x03``)."""
    tag = chunk[0]
    if tag not in (TAG_INT, TAG_INTFLOAT, TAG_FLOAT):
        raise CorruptPostingsError(f"unknown postings chunk tag 0x{tag:02x}")
    pos = 1
    n_entries, pos = _read_uvarint(chunk, pos)
    n_traces, pos = _read_uvarint(chunk, pos)
    total = len(chunk)
    trace_ids: list[str] = []
    for _ in range(n_traces):
        length, pos = _read_uvarint(chunk, pos)
        if pos + length > total:
            raise CorruptPostingsError("truncated trace id in postings chunk")
        try:
            trace_ids.append(bytes(chunk[pos : pos + length]).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CorruptPostingsError(f"corrupt trace id: {exc}") from None
        pos += length
    entries: list[tuple] = []
    if tag == TAG_FLOAT:
        unpack = struct.Struct(">d").unpack_from
        for _ in range(n_entries):
            idx, pos = _read_uvarint(chunk, pos)
            if idx >= n_traces:
                raise CorruptPostingsError("trace index out of range in postings chunk")
            if pos + 16 > total:
                raise CorruptPostingsError("truncated float entry in postings chunk")
            (ts_a,) = unpack(chunk, pos)
            (ts_b,) = unpack(chunk, pos + 8)
            pos += 16
            entries.append((trace_ids[idx], ts_a, ts_b))
    else:
        as_float = tag == TAG_INTFLOAT
        prev_a = [0] * n_traces
        for _ in range(n_entries):
            idx, pos = _read_uvarint(chunk, pos)
            if idx >= n_traces:
                raise CorruptPostingsError("trace index out of range in postings chunk")
            delta_a, pos = _read_uvarint(chunk, pos)
            delta_b, pos = _read_uvarint(chunk, pos)
            ts_a = prev_a[idx] + _unzigzag(delta_a)
            ts_b = ts_a + _unzigzag(delta_b)
            prev_a[idx] = ts_a
            if as_float:
                entries.append((trace_ids[idx], float(ts_a), float(ts_b)))
            else:
                entries.append((trace_ids[idx], ts_a, ts_b))
    if pos != total:
        raise CorruptPostingsError("trailing bytes after postings chunk")
    return entries


def _is_current(item) -> bool:
    return isinstance(item, _CHUNK_TYPES) and len(item) and item[0] in (TAG_NUMBERED, TAG_RAW)


def _rewritten_row(tables: IndexTables, items: list, report: "UpgradeReport") -> list | None:
    """``items`` with every retired item rewritten in place, or ``None``
    when the row holds none."""
    out: list = []
    run: list = []  # consecutive bare tuples: one item
    for item in items:
        if not isinstance(item, _CHUNK_TYPES):
            run.append(item)
            continue
        if run:
            out.extend(_chunk_of(tables, run, report))
            run = []
        if _is_current(item):
            out.append(item)
        else:
            out.extend(_chunk_of(tables, _retired_rows(item), report))
    if run:
        out.extend(_chunk_of(tables, run, report))
    return None if all(map(_is_current, items)) else out


def _chunk_of(tables: IndexTables, rows: list, report: "UpgradeReport") -> list[bytes]:
    """The one current chunk of ``rows`` (none when there are no rows): a
    NUMBERED chunk, each trace numbered at its first mention, else RAW."""
    try:
        columns = _columns(rows, 3)
    except TypeError:  # a bare item that is no sequence at all
        columns = None
    if columns is None:
        raise CorruptPostingsError("index entry is not a 3-tuple")
    if not rows:
        return []
    ids, ts_a, ts_b = columns
    chunk = None
    if all(type(trace_id) is str for trace_id in ids):
        numbers = []
        for trace_id in ids:
            (number,) = tables.trace_numbers([trace_id])
            if number is None:
                number = tables.number_trace(trace_id)
                report.traces_numbered += 1
            numbers.append(number)
        chunk = encode_numbered_postings(numbers, ts_a, ts_b)
    return [chunk if chunk is not None else raw_chunk(rows)]


# -- the retired SSTable and MANIFEST layouts ---------------------------------


class LegacySSTableReader(SSTableReader):
    """An SSTable reader that also reads v1 tables and zstd blocks."""

    def _check_magic(self, header: bytes) -> None:
        if header == MAGIC_V1:
            self.format_version = 1
        else:
            super()._check_magic(header)

    def _decode_block(self, buf: bytes) -> bytes:
        # a v1 block is the records themselves
        return buf if self.format_version == 1 else super()._decode_block(buf)

    def _sum_raw_lens(self) -> int:
        return self.data_bytes if self.format_version == 1 else super()._sum_raw_lens()

    def _decompress(self, codec: int, stored: bytes, raw_len: int) -> bytes:
        if codec != CODEC_ZSTD:
            return decompress(codec, stored, raw_len)
        if _zstd is None:
            raise ValueError("block is zstd-compressed but 'zstandard' is not installed")
        try:
            raw = _zstd.ZstdDecompressor().decompress(stored, max_output_size=raw_len)
        except Exception as exc:  # ZstdError -> uniform ValueError
            raise ValueError(f"block decompression failed: {exc}") from None
        if len(raw) != raw_len:
            raise ValueError(f"block decompressed to {len(raw)} bytes, header says {raw_len}")
        return raw


class LegacyTableSet(TableSet):
    """A table set that opens a MANIFEST of any layout and records the
    format only in the commit :func:`upgrade_store` makes last."""

    reader_type = LegacySSTableReader
    #: set for the upgrade's last commit
    upgraded = False

    def _read_manifest(self) -> dict:
        with open(self._manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["sstables"] = [  # v1 entries are bare file names
            {"file": entry} if isinstance(entry, str) else entry
            for entry in manifest["sstables"]
        ]
        return manifest

    def _manifest(self) -> dict:
        manifest = super()._manifest()
        if not self.upgraded:
            del manifest["format"]
        return manifest


class _UpgradingStore(LSMStore):
    tableset_type = LegacyTableSet

    def finish(self) -> None:
        """Flush, merge every SSTable -- a lone one too -- into one, then
        commit the MANIFEST that records the format."""
        self.flush()
        with self._compaction_lock:
            readers = list(self._tableset.readers)
            if readers and not self._run_compaction(CompactionPick(readers, finalize=True)):
                raise CorruptionError(f"store {self._path}: an SSTable failed its scrub")
        with self._state_lock.write():
            self._tableset.upgraded = True
            self._tableset.commit()


# -- the command ----------------------------------------------------------------


@dataclass
class UpgradeReport:
    """What :func:`upgrade_store` did to one store."""

    path: str
    #: the store was already in :data:`STORE_FORMAT`: nothing was touched
    current: bool = False
    index_rows: int = 0
    traces_numbered: int = 0
    last_checked_folded: int = 0
    sstables_before: int = 0

    def summary(self) -> str:
        if self.current:
            return f"{self.path}: already in format {STORE_FORMAT}"
        return (
            f"{self.path}: upgraded to format {STORE_FORMAT} -- "
            f"{self.index_rows} index rows rewritten, {self.traces_numbered} "
            f"traces numbered, {self.last_checked_folded} last_checked rows "
            f"folded, {self.sstables_before} sstables rewritten as one"
        )


def upgrade(path: str, io=None) -> list[UpgradeReport]:
    """Upgrade the store at ``path``, or each shard of a sharded root."""
    if is_sharded_store(path):
        shards = shard_paths(path, read_manifest(path)["num_shards"])
        return [upgrade_store(str(shard), io) for shard in shards]
    return [upgrade_store(path, io)]


def upgrade_store(path: str, io=None) -> UpgradeReport:
    """Rewrite one store into :data:`STORE_FORMAT` (see the module
    docstring); ``io`` is the store's filesystem shim."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(f"no store at {path}: it has no {MANIFEST_NAME}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        found = json.load(fh).get("format")
    if found == STORE_FORMAT:
        return UpgradeReport(path, current=True)
    if found is not None:
        raise StoreFormatError(f"store {path} is in on-disk format {found!r}, unknown to this code")
    store = _UpgradingStore(path, auto_compact=False, io=io)
    try:
        report = UpgradeReport(path, sstables_before=store.sstable_count)
        rewrite_rows(store, report)
        store.finish()
    except BaseException:
        # Leave the disk as the failure left it: every write is in the WAL,
        # and without the format the store still refuses to open.
        simulate_crash(store)
        raise
    store.close()
    return report


def rewrite_rows(store: KeyValueStore, report: UpgradeReport) -> None:
    """Rewrite the retired Index, LastChecked and Meta rows of any store,
    one atomic write per table, tallied into ``report``."""
    index_tables = [t for t in store.list_tables() if t == INDEX or t.startswith(INDEX + ":")]
    if index_tables:
        store.create_table(TRACE_NUMBER)
    tables = IndexTables(store)
    for table in index_tables:
        with tables.batch():
            for pair, items in store.scan(table):
                row = _rewritten_row(tables, items, report)
                if row is not None:
                    tables.write("put", table, pair, row)
                    report.index_rows += 1
    if store.has_table(LAST_CHECKED):
        with tables.batch():
            for key, per_trace in store.scan(LAST_CHECKED):
                if len(key) != 2:
                    continue
                if per_trace:
                    tables.write("merge", LAST_CHECKED, key[0], {key[1]: max(per_trace.values())})
                tables.write("delete", LAST_CHECKED, key)
                report.last_checked_folded += 1
    if store.has_table(META):
        meta = tables.get_meta()
        if "method" in meta:
            del meta["method"]
            tables.put_meta(meta)
