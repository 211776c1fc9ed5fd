"""Corrupt SSTable inputs must raise typed errors, never struct/Index errors.

The meta CRC catches most random damage at open, so most structural
mutations here *recompute* the meta CRC after corrupting -- that is what a
writer bug (or a CRC-colliding flip) looks like, and it is exactly the
case the reader's parse guards exist for.
"""

from __future__ import annotations

import gc
import struct
import warnings
import zlib

import pytest

from repro.core.errors import CorruptSSTableError as ReexportedError
from repro.kvstore.api import CorruptionError, CorruptSSTableError
from repro.kvstore.sstable import (
    END_MAGIC,
    MAGIC,
    SSTableReader,
    SSTableWriter,
    _FOOTER,
    _U64,
)
from repro.kvstore.wal import KIND_PUT


def _build(path: str, records: int = 40) -> None:
    writer = SSTableWriter(path, expected_records=records)
    for i in range(records):
        writer.add(f"key-{i:04d}".encode(), KIND_PUT, b"v" * (i % 17))
    writer.finish().close()


def _rewrite_meta(path: str, mutate_index=None, mutate_bloom=None) -> None:
    """Apply a structural mutation and re-stamp a *valid* meta CRC."""
    with open(path, "rb") as fh:
        data = fh.read()
    tail = _FOOTER.size + len(END_MAGIC)
    index_off, bloom_off, count, data_crc, _ = _FOOTER.unpack(
        data[-tail : -len(END_MAGIC)]
    )
    index_buf = data[index_off:bloom_off]
    bloom_buf = data[bloom_off : len(data) - tail]
    if mutate_index is not None:
        index_buf = mutate_index(index_buf)
    if mutate_bloom is not None:
        bloom_buf = mutate_bloom(bloom_buf)
    fields = struct.pack(
        ">QQQI", index_off, index_off + len(index_buf), count, data_crc
    )
    meta_crc = zlib.crc32(index_buf + bloom_buf + fields)
    with open(path, "wb") as fh:
        fh.write(
            data[:index_off]
            + index_buf
            + bloom_buf
            + fields
            + struct.pack(">I", meta_crc)
            + END_MAGIC
        )


class TestFlippedCrc:
    def test_flipped_meta_crc_detected_at_open(self, tmp_path):
        path = str(tmp_path / "t.sst")
        _build(path)
        with open(path, "r+b") as fh:
            fh.seek(-len(END_MAGIC) - 1, 2)  # last byte of the meta CRC
            byte = fh.read(1)
            fh.seek(-1, 1)
            fh.write(bytes((byte[0] ^ 0x01,)))
        with pytest.raises(CorruptSSTableError):
            SSTableReader(path)

    def test_flipped_data_crc_field_detected_at_open(self, tmp_path):
        # The data-CRC footer field is covered by the meta CRC, so flipping
        # it is caught immediately, not at the next scrub.
        path = str(tmp_path / "t.sst")
        _build(path)
        with open(path, "r+b") as fh:
            fh.seek(-len(END_MAGIC) - 8, 2)  # inside the data-CRC field
            fh.write(b"\xff")
        with pytest.raises(CorruptSSTableError):
            SSTableReader(path)

    def test_flipped_data_byte_detected_by_verify(self, tmp_path):
        path = str(tmp_path / "t.sst")
        _build(path)
        with open(path, "r+b") as fh:
            fh.seek(len(MAGIC) + 3)
            fh.write(b"\xde")
        reader = SSTableReader(path)  # metadata intact: open succeeds
        with pytest.raises(CorruptSSTableError):
            reader.verify()
        reader.close()


class TestTruncatedBloom:
    def test_truncated_bloom_is_typed(self, tmp_path):
        path = str(tmp_path / "t.sst")
        _build(path)
        _rewrite_meta(path, mutate_bloom=lambda buf: buf[: len(buf) // 2])
        with pytest.raises(CorruptSSTableError):
            SSTableReader(path)

    def test_empty_bloom_is_typed(self, tmp_path):
        path = str(tmp_path / "t.sst")
        _build(path)
        _rewrite_meta(path, mutate_bloom=lambda buf: b"")
        with pytest.raises(CorruptSSTableError):
            SSTableReader(path)


class TestSparseIndex:
    def test_index_entry_past_eof_is_typed(self, tmp_path):
        path = str(tmp_path / "t.sst")
        _build(path)

        def point_past_eof(buf: bytes) -> bytes:
            # The last 8 bytes of the first entry are its data offset.
            (klen,) = struct.unpack_from(">I", buf, 0)
            entry_end = 4 + klen + 8
            return buf[: entry_end - 8] + _U64.pack(2**40) + buf[entry_end:]

        _rewrite_meta(path, mutate_index=point_past_eof)
        with pytest.raises(CorruptSSTableError):
            SSTableReader(path)

    def test_truncated_index_entry_is_typed(self, tmp_path):
        path = str(tmp_path / "t.sst")
        _build(path)
        _rewrite_meta(path, mutate_index=lambda buf: buf[:-3])
        with pytest.raises(CorruptSSTableError):
            SSTableReader(path)

    def test_index_key_length_past_buffer_is_typed(self, tmp_path):
        path = str(tmp_path / "t.sst")
        _build(path)

        def inflate_klen(buf: bytes) -> bytes:
            return struct.pack(">I", 2**20) + buf[4:]

        _rewrite_meta(path, mutate_index=inflate_klen)
        with pytest.raises(CorruptSSTableError):
            SSTableReader(path)


class TestTruncatedFile:
    @pytest.mark.parametrize("keep", [0, 5, len(MAGIC), 100])
    def test_truncated_file_is_typed(self, tmp_path, keep):
        path = str(tmp_path / "t.sst")
        _build(path)
        with open(path, "r+b") as fh:
            fh.truncate(keep)
        with pytest.raises(CorruptSSTableError):
            SSTableReader(path)


class TestFailedStoreOpen:
    def test_failed_open_closes_the_tables_already_opened(self, tmp_path, monkeypatch):
        # The manifest lists three tables; the last has a truncated footer.
        # Opening must raise the typed error *and* release the descriptors
        # of the two tables it had opened before reaching the bad one.
        from repro.kvstore import LSMStore, sstable

        path = str(tmp_path / "db")
        store = LSMStore(path, auto_compact=False)
        store.create_table("t")
        for i in range(3):
            store.put("t", i, "x" * 40)
            store.flush()
        newest = store._tableset.readers[-1].path
        store.close()
        with open(newest, "r+b") as fh:
            fh.truncate(len(MAGIC) + 10)

        opened = []
        real_init = SSTableReader.__init__

        def recording_init(self, *args, **kwargs):
            opened.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(sstable.SSTableReader, "__init__", recording_init)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(CorruptSSTableError):
                LSMStore(path)
            gc.collect()  # a leaked descriptor would warn here
        assert len(opened) == 3
        assert all(reader._file.closed for reader in opened)


class TestErrorHierarchy:
    def test_subclass_of_corruption_error(self):
        assert issubclass(CorruptSSTableError, CorruptionError)

    def test_reexported_from_core_errors(self):
        assert ReexportedError is CorruptSSTableError
