"""SSTable v2: block compression and per-block CRC detection."""

from __future__ import annotations

import os
import shutil

import pytest

from repro.kvstore import LSMStore, StoreFormatError
from repro.kvstore.api import CorruptSSTableError
from repro.kvstore.sstable import (
    INDEX_INTERVAL,
    MAGIC,
    SSTableReader,
    SSTableWriter,
    write_sstable,
)
from repro.kvstore.wal import KIND_PUT
from repro.upgrade import CODEC_ZSTD, LegacySSTableReader, LegacyTableSet, upgrade_store

LEGACY_STORE = os.path.join(
    os.path.dirname(__file__), "..", "data", "legacy_store", "store"
)


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
        reader = write_sstable(str(tmp_path / "t.sst"), records)
        assert reader.format_version == 2
        assert list(reader) == records
        for key, kind, value in records[:: max(1, count // 10)]:
            assert reader.get(key) == (kind, value)
        reader.verify()
        reader.close()

    def test_zstd_block_decodes(self):
        # Blocks an older writer stored under zstd: the upgrade's reader only.
        zstd = pytest.importorskip("zstandard")
        raw = b"".join(record[0] for record in _records(50))
        stored = zstd.ZstdCompressor().compress(raw)
        assert LegacySSTableReader._decompress(None, CODEC_ZSTD, stored, len(raw)) == raw

    def test_zstd_unavailable_fails_fast(self, tmp_path):
        # The store's reader knows no zstd block; the upgrade's reader, without
        # the package, fails with a typed error naming it, never a wrong answer.
        try:
            import zstandard  # noqa: F401
        except ImportError:
            pass
        else:
            pytest.skip("zstandard installed; the gate cannot fire")
        path = str(tmp_path / "t.sst")
        write_sstable(path, _records(50)).close()
        with open(path, "r+b") as fh:  # block 0's codec byte: zlib -> zstd
            fh.seek(len(MAGIC))
            fh.write(bytes((CODEC_ZSTD,)))
        reader = SSTableReader(path)
        with pytest.raises(CorruptSSTableError, match="unknown block codec"):
            list(reader)
        reader.close()
        reader = LegacySSTableReader(path)
        with pytest.raises(CorruptSSTableError, match="zstandard"):
            list(reader)
        reader.close()

    def test_compression_shrinks_data_section(self, tmp_path):
        reader = write_sstable(str(tmp_path / "t.sst"), _records(500))
        assert reader.data_bytes * 2 < reader.raw_data_bytes
        reader.close()

    def test_incompressible_blocks_stored_verbatim(self, tmp_path):
        records = [
            (f"k{i:04d}".encode(), KIND_PUT, os.urandom(4096)) for i in range(8)
        ]
        writer = SSTableWriter(str(tmp_path / "t.sst"))
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
        write_sstable(path, records).close()
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
        write_sstable(path, _records(200)).close()
        self._flip(path, len(MAGIC) + 2)  # raw_len field of block 0
        reader = SSTableReader(path)
        with pytest.raises(CorruptSSTableError):
            list(reader)
        reader.close()


class _OldStore(LSMStore):
    """A store opened through the upgrade's table set: older layouts read."""

    tableset_type = LegacyTableSet


class TestStoreFormatInterop:
    """A store of v1 tables (written before v2 became the one format) does
    not open; the upgrade reads it beside the v2 table its own writes flush,
    and rewrites every table as v2."""

    #: the tables whose rows the upgrade does not rewrite
    KEPT = ("seq", "count", "reverse_count", "t")

    def test_uncompressed_store_reopens_compressed(self, tmp_path):
        path = str(tmp_path / "db")
        shutil.copytree(LEGACY_STORE, path)
        with pytest.raises(StoreFormatError, match="repro upgrade"):
            LSMStore(path)
        with _OldStore(path, auto_compact=False) as store:
            assert _versions(store) == [1, 1, 1]
            store.create_table("t", merge_operator="list_append")
            store.merge("t", 999, ["new"])
            store.flush()
            assert _versions(store) == [1, 1, 1, 2]
            assert store.get("t", 999) == ["new"]
            store.verify()
            expected = {t: list(store.scan(t)) for t in self.KEPT}
        upgrade_store(path)
        with LSMStore(path) as reopened:
            assert _versions(reopened) == [2]
            assert {t: list(reopened.scan(t)) for t in self.KEPT} == expected
            reopened.verify()


def _versions(store) -> list[int]:
    return [row["format_version"] for row in store.storage_stats()["sstables"]]
