"""Write-ahead log: append/replay, torn tails, corruption detection."""

from __future__ import annotations

import pytest

from repro.faults import ENOSPC, Fault, FaultSchedule, FaultyIO
from repro.kvstore.api import CorruptionError
from repro.kvstore.wal import (
    KIND_DELETE,
    KIND_MERGE,
    KIND_PUT,
    WalRecord,
    WriteAheadLog,
)


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "wal.log")


class TestAppendReplay:
    def test_roundtrip(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(1, [(KIND_PUT, b"k1", b"v1")])
        wal.append(2, [(KIND_MERGE, b"k2", b"v2")])
        wal.append(3, [(KIND_DELETE, b"k1", b"")])
        wal.close()
        records = list(WriteAheadLog.replay(wal_path))
        assert [(r.seqno, r.kind, r.key, r.value) for r in records] == [
            (1, KIND_PUT, b"k1", b"v1"),
            (2, KIND_MERGE, b"k2", b"v2"),
            (3, KIND_DELETE, b"k1", b""),
        ]

    def test_replay_missing_file_is_empty(self, tmp_path):
        assert list(WriteAheadLog.replay(str(tmp_path / "absent"))) == []

    def test_empty_values_and_keys(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(1, [(KIND_PUT, b"", b"")])
        wal.close()
        (record,) = WriteAheadLog.replay(wal_path)
        assert record.key == b"" and record.value == b""

    def test_failed_append_is_cut_back(self, wal_path):
        # ENOSPC on the second chunk of a large frame: the chunk before it
        # reached the file, and is cut off again so the next frame lands
        # right behind the last intact one.
        schedule = FaultSchedule([Fault(ENOSPC, "write", nth=3)])
        wal = WriteAheadLog(wal_path, io=FaultyIO(schedule))
        wal.append(1, [(KIND_PUT, b"k", b"v")])
        with pytest.raises(OSError):
            wal.append(2, [(KIND_PUT, b"big", b"x" * 50_000)] * 3)
        wal.append(5, [(KIND_PUT, b"k2", b"v2")])
        wal.close()
        records = list(WriteAheadLog.replay(wal_path))
        assert [r.seqno for r in records] == [1, 5]

    def test_one_frame_holds_a_batch(self, wal_path):
        wal = WriteAheadLog(wal_path)
        size = wal.append(
            7, [(KIND_PUT, b"a", b"1"), (KIND_MERGE, b"b", b""), (KIND_DELETE, b"a", b"")]
        )
        wal.close()
        with open(wal_path, "rb") as fh:
            assert len(fh.read()) == size
        assert [(r.seqno, r.kind, r.key) for r in WriteAheadLog.replay(wal_path)] == [
            (7, KIND_PUT, b"a"),
            (8, KIND_MERGE, b"b"),
            (9, KIND_DELETE, b"a"),
        ]

    def test_append_after_reopen(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(1, [(KIND_PUT, b"a", b"1")])
        wal.close()
        wal = WriteAheadLog(wal_path)
        wal.append(2, [(KIND_PUT, b"b", b"2")])
        wal.close()
        assert [r.seqno for r in WriteAheadLog.replay(wal_path)] == [1, 2]


class TestCrashTolerance:
    def _write_two(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append(1, [(KIND_PUT, b"k1", b"v1")])
        wal.append(2, [(KIND_PUT, b"k2", b"v2")])
        wal.close()

    def test_torn_tail_is_ignored(self, wal_path):
        self._write_two(wal_path)
        with open(wal_path, "rb") as fh:
            data = fh.read()
        with open(wal_path, "wb") as fh:
            fh.write(data[:-3])  # crash mid-frame
        records = list(WriteAheadLog.replay(wal_path))
        assert [r.seqno for r in records] == [1]

    def test_torn_header_is_ignored(self, wal_path):
        self._write_two(wal_path)
        with open(wal_path, "ab") as fh:
            fh.write(b"\x00\x01")  # partial next frame header
        assert [r.seqno for r in WriteAheadLog.replay(wal_path)] == [1, 2]

    def test_corrupt_middle_raises(self, wal_path):
        self._write_two(wal_path)
        with open(wal_path, "r+b") as fh:
            fh.seek(12)  # inside the first record's payload
            fh.write(b"\xff")
        with pytest.raises(CorruptionError):
            list(WriteAheadLog.replay(wal_path))

    def test_corrupt_final_frame_treated_as_torn(self, wal_path):
        self._write_two(wal_path)
        with open(wal_path, "r+b") as fh:
            fh.seek(-1, 2)
            fh.write(b"\xff")
        # Final-frame corruption cannot be distinguished from a torn write.
        assert [r.seqno for r in WriteAheadLog.replay(wal_path)] == [1]


def test_record_repr():
    record = WalRecord(5, KIND_PUT, b"key", b"val")
    assert "5" in repr(record)
