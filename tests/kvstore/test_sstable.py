"""SSTable format: writes, point reads, range iteration, corruption."""

from __future__ import annotations

import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.api import CorruptionError
from repro.kvstore.sstable import (
    INDEX_INTERVAL,
    MAGIC_V1,
    SSTableReader,
    SSTableWriter,
    write_sstable,
)
from repro.kvstore.wal import KIND_MERGE, KIND_PUT


def _records(count):
    return [(f"key-{i:05d}".encode(), KIND_PUT, f"val-{i}".encode()) for i in range(count)]


class TestWriteRead:
    @pytest.mark.parametrize("count", [0, 1, INDEX_INTERVAL - 1, INDEX_INTERVAL, 100])
    def test_roundtrip_all_records(self, tmp_path, count):
        records = _records(count)
        reader = write_sstable(str(tmp_path / "t.sst"), records)
        assert reader.record_count == count
        assert list(reader) == records
        reader.close()

    def test_point_get(self, tmp_path):
        records = _records(100)
        reader = write_sstable(str(tmp_path / "t.sst"), records)
        for key, kind, value in records[:: max(1, len(records) // 10)]:
            assert reader.get(key) == (kind, value)
        assert reader.get(b"key-99999") is None
        assert reader.get(b"aaa") is None  # before first key
        assert reader.get(b"zzz") is None  # past last key
        reader.close()

    def test_record_kinds_preserved(self, tmp_path):
        records = [(b"a", KIND_MERGE, b"delta"), (b"b", KIND_PUT, b"full")]
        reader = write_sstable(str(tmp_path / "t.sst"), records)
        assert reader.get(b"a") == (KIND_MERGE, b"delta")
        assert reader.get(b"b") == (KIND_PUT, b"full")
        reader.close()

    def test_iter_from_key(self, tmp_path):
        records = _records(60)
        reader = write_sstable(str(tmp_path / "t.sst"), records)
        got = list(reader.iter_from_key(b"key-00030"))
        assert got == records[30:]
        assert list(reader.iter_from_key(b"zzz")) == []
        assert list(reader.iter_from_key(b"")) == records
        reader.close()

    def test_reopen_from_disk(self, tmp_path):
        path = str(tmp_path / "t.sst")
        records = _records(40)
        write_sstable(path, records).close()
        reader = SSTableReader(path)
        assert list(reader) == records
        reader.close()

    @given(
        st.dictionaries(
            st.binary(min_size=1, max_size=12), st.binary(max_size=20), max_size=60
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_random_keys(self, tmp_path_factory, data):
        path = str(tmp_path_factory.mktemp("sst") / "t.sst")
        records = [(key, KIND_PUT, data[key]) for key in sorted(data)]
        reader = write_sstable(path, records)
        assert list(reader) == records
        for key, _, value in records:
            assert reader.get(key) == (KIND_PUT, value)
        reader.close()


class TestWriterContract:
    def test_rejects_out_of_order_keys(self, tmp_path):
        writer = SSTableWriter(str(tmp_path / "t.sst"))
        writer.add(b"b", KIND_PUT, b"1")
        with pytest.raises(ValueError):
            writer.add(b"a", KIND_PUT, b"2")
        writer.abort()

    def test_rejects_duplicate_keys(self, tmp_path):
        writer = SSTableWriter(str(tmp_path / "t.sst"))
        writer.add(b"a", KIND_PUT, b"1")
        with pytest.raises(ValueError):
            writer.add(b"a", KIND_PUT, b"2")
        writer.abort()

    def test_abort_leaves_no_file(self, tmp_path):
        path = tmp_path / "t.sst"
        writer = SSTableWriter(str(path))
        writer.add(b"a", KIND_PUT, b"1")
        writer.abort()
        assert not path.exists()
        assert not (tmp_path / "t.sst.tmp").exists()


class TestCorruptionDetection:
    def _valid(self, tmp_path):
        path = str(tmp_path / "t.sst")
        write_sstable(path, _records(30)).close()
        return path

    def test_truncated_file(self, tmp_path):
        path = self._valid(tmp_path)
        with open(path, "r+b") as fh:
            fh.truncate(20)
        with pytest.raises(CorruptionError):
            SSTableReader(path)

    def test_flipped_metadata_bit(self, tmp_path):
        path = self._valid(tmp_path)
        with open(path, "r+b") as fh:
            fh.seek(-40, 2)
            fh.write(b"\xff\xff")
        with pytest.raises(CorruptionError):
            SSTableReader(path)

    def test_missing_end_magic(self, tmp_path):
        path = self._valid(tmp_path)
        with open(path, "r+b") as fh:
            fh.seek(-1, 2)
            fh.write(b"X")
        with pytest.raises(CorruptionError):
            SSTableReader(path)


class TestV1Reader:
    """Nothing writes v1 any more; a copy of a table from
    ``tests/data/legacy_store`` keeps its reader and checks tested."""

    FIXTURE = os.path.join(
        os.path.dirname(__file__), "..", "data", "legacy_store", "store", "sst-000001.sst"
    )

    def _copy(self, tmp_path) -> str:
        path = str(tmp_path / "v1.sst")
        shutil.copyfile(self.FIXTURE, path)
        return path

    def test_reads_every_record(self, tmp_path):
        reader = SSTableReader(self._copy(tmp_path))
        assert reader.format_version == 1
        assert reader.raw_data_bytes == reader.data_bytes
        records = list(reader)
        assert len(records) == reader.record_count > INDEX_INTERVAL
        for key, kind, value in records:
            assert reader.get(key) == (kind, value)
        assert list(reader.iter_from_key(records[20][0])) == records[20:]
        reader.verify()
        reader.close()

    def test_flipped_data_byte_fails_verify(self, tmp_path):
        path = self._copy(tmp_path)
        with open(path, "r+b") as fh:
            fh.seek(len(MAGIC_V1) + 10)  # inside the first record
            byte = fh.read(1)
            fh.seek(-1, 1)
            fh.write(bytes((byte[0] ^ 0x40,)))
        reader = SSTableReader(path)  # open succeeds: metadata is intact
        with pytest.raises(CorruptionError):
            reader.verify()
        reader.close()

    def test_flipped_footer_fails_open(self, tmp_path):
        path = self._copy(tmp_path)
        with open(path, "r+b") as fh:
            fh.seek(-20, 2)  # inside the footer's record-count field
            fh.write(b"\xff")
        with pytest.raises(CorruptionError):
            SSTableReader(path)
