"""SSTable v2: block compression and per-block CRC detection."""

from __future__ import annotations

import os

import pytest

from repro.kvstore import LSMStore
from repro.kvstore.api import CorruptSSTableError
from repro.kvstore.sstable import (
    INDEX_INTERVAL,
    MAGIC,
    SSTableReader,
    SSTableWriter,
    write_sstable,
)
from repro.kvstore.wal import KIND_PUT


def _records(count, value_size=64):
    # Repetitive values so zlib has something to chew on.
    return [
        (f"key-{i:05d}".encode(), KIND_PUT, (f"val-{i % 7}-" * 8)[:value_size].encode())
        for i in range(count)
    ]


class TestCompressedRoundTrip:
    @pytest.mark.parametrize("count", [0, 1, INDEX_INTERVAL, 200])
    def test_zlib_roundtrip(self, tmp_path, count):
        records = _records(count)
        reader = write_sstable(str(tmp_path / "t.sst"), records, compression="zlib")
        assert reader.format_version == 2
        assert list(reader) == records
        for key, kind, value in records[:: max(1, count // 10)]:
            assert reader.get(key) == (kind, value)
        reader.verify()
        reader.close()

    def test_zstd_roundtrip(self, tmp_path):
        pytest.importorskip("zstandard")
        records = _records(200)
        reader = write_sstable(str(tmp_path / "t.sst"), records, compression="zstd")
        assert reader.format_version == 2
        assert list(reader) == records
        reader.verify()
        reader.close()

    def test_zstd_unavailable_fails_fast(self, tmp_path):
        try:
            import zstandard  # noqa: F401
        except ImportError:
            pass
        else:
            pytest.skip("zstandard installed; the gate cannot fire")
        with pytest.raises(ValueError, match="zstd"):
            SSTableWriter(str(tmp_path / "t.sst"), compression="zstd")

    def test_no_compression_stays_v1(self, tmp_path):
        reader = write_sstable(str(tmp_path / "t.sst"), _records(50))
        assert reader.format_version == 1
        assert reader.raw_data_bytes == reader.data_bytes
        reader.close()

    def test_compression_shrinks_data_section(self, tmp_path):
        records = _records(500)
        plain = write_sstable(str(tmp_path / "p.sst"), records)
        packed = write_sstable(str(tmp_path / "c.sst"), records, compression="zlib")
        assert packed.data_bytes * 2 < plain.data_bytes
        assert packed.raw_data_bytes == plain.data_bytes
        plain.close()
        packed.close()

    def test_incompressible_blocks_stored_verbatim(self, tmp_path):
        records = [
            (f"k{i:04d}".encode(), KIND_PUT, os.urandom(4096)) for i in range(8)
        ]
        writer = SSTableWriter(str(tmp_path / "t.sst"), compression="zlib")
        for key, kind, value in records:
            writer.add(key, kind, value)
        reader = writer.finish()
        assert writer.compressed_blocks == 0  # nothing shrank
        assert list(reader) == records
        reader.verify()
        reader.close()


class TestCorruptCompressedBlock:
    def _flip(self, path, offset):
        with open(path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0x40]))

    def test_flipped_block_byte_is_detected_never_wrong_data(self, tmp_path):
        path = str(tmp_path / "t.sst")
        records = _records(200)
        write_sstable(path, records, compression="zlib").close()
        # Flip a byte inside the first compressed payload (past the magic
        # and the 13-byte block header).
        self._flip(path, len(MAGIC) + 13 + 5)
        reader = SSTableReader(path)  # open succeeds: metadata is intact
        with pytest.raises(CorruptSSTableError):
            list(reader)
        with pytest.raises(CorruptSSTableError):
            reader.verify()
        reader.close()

    def test_flipped_block_header_is_detected(self, tmp_path):
        path = str(tmp_path / "t.sst")
        write_sstable(path, _records(200), compression="zlib").close()
        self._flip(path, len(MAGIC) + 2)  # raw_len field of block 0
        reader = SSTableReader(path)
        with pytest.raises(CorruptSSTableError):
            list(reader)
        reader.close()


class TestStoreFormatInterop:
    """Tier-1 guard: stores written with compression on reopen with it off
    (and vice versa) -- the reader dispatches per file on the magic."""

    @staticmethod
    def _populate(store):
        store.create_table("t", merge_operator="list_append")
        for i in range(300):
            store.merge("t", i % 20, [i])
        store.flush()

    def test_compressed_store_reopens_uncompressed(self, tmp_path):
        path = str(tmp_path / "db")
        with LSMStore(path, compression="zlib") as store:
            self._populate(store)
            expected = {k: v for k, v in store.scan("t")}
            assert store.metrics.snapshot()["compressed_blocks"] > 0
        with LSMStore(path) as reopened:  # default: compression off
            assert {k: v for k, v in reopened.scan("t")} == expected
            reopened.verify()

    def test_uncompressed_store_reopens_compressed(self, tmp_path):
        path = str(tmp_path / "db")
        with LSMStore(path) as store:
            self._populate(store)
            expected = {k: v for k, v in store.scan("t")}
        with LSMStore(path, compression="zlib") as reopened:
            assert {k: v for k, v in reopened.scan("t")} == expected
            # New writes in the reopened store compress; old tables still read.
            reopened.merge("t", 999, ["new"])
            reopened.flush()
            assert reopened.get("t", 999) == ["new"]
            reopened.verify()
