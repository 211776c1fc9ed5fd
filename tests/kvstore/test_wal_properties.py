"""Property-based WAL framing tests (hypothesis).

The durability contract of the frame format: replaying a WAL that was cut
off at *any* byte offset either yields every record whose frame fits
before the cut, or stops cleanly at the torn tail -- never an unhandled
exception and never a partially reconstructed record.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.kvstore.api import CorruptionError
from repro.kvstore.wal import KIND_DELETE, KIND_MERGE, KIND_PUT, WriteAheadLog

_records = st.lists(
    st.tuples(
        st.sampled_from((KIND_PUT, KIND_DELETE, KIND_MERGE)),
        st.binary(min_size=0, max_size=64),
        st.binary(min_size=0, max_size=128),
    ),
    min_size=1,
    max_size=12,
)


def _write_wal(path: str, records) -> None:
    wal = WriteAheadLog(path)
    for seqno, record in enumerate(records, start=1):
        wal.append(seqno, [record])
    wal.close()


class TestRoundTrip:
    @given(records=_records)
    @settings(max_examples=60, deadline=None)
    def test_intact_log_replays_every_record(self, tmp_path_factory, records):
        path = str(tmp_path_factory.mktemp("wal") / "wal.log")
        _write_wal(path, records)
        replayed = list(WriteAheadLog.replay(path))
        assert [(r.kind, r.key, r.value) for r in replayed] == records
        assert [r.seqno for r in replayed] == list(range(1, len(records) + 1))

    @given(records=_records, data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_truncation_never_yields_a_partial_record(
        self, tmp_path_factory, records, data
    ):
        path = str(tmp_path_factory.mktemp("wal") / "wal.log")
        _write_wal(path, records)
        size = os.path.getsize(path)
        cut = data.draw(st.integers(min_value=0, max_value=size), label="cut")
        with open(path, "r+b") as fh:
            fh.truncate(cut)
        replayed = list(WriteAheadLog.replay(path))  # must not raise
        # Every replayed record is an exact prefix of what was written.
        assert len(replayed) <= len(records)
        for record, (kind, key, value) in zip(replayed, records):
            assert (record.kind, record.key, record.value) == (kind, key, value)
        # Only whole trailing records may be lost, and only if bytes were cut.
        if cut == size:
            assert len(replayed) == len(records)

    @given(records=_records, data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_mid_file_corruption_is_typed_never_partial(
        self, tmp_path_factory, records, data
    ):
        """Flipping any byte either raises CorruptionError, truncates the
        replay, or (flips confined to a frame's slack-free fields) is
        detected -- an unhandled struct.error/IndexError is a failure."""
        path = str(tmp_path_factory.mktemp("wal") / "wal.log")
        _write_wal(path, records)
        size = os.path.getsize(path)
        offset = data.draw(st.integers(min_value=0, max_value=size - 1), label="offset")
        with open(path, "r+b") as fh:
            fh.seek(offset)
            original = fh.read(1)
            fh.seek(offset)
            fh.write(bytes((original[0] ^ 0xFF,)))
        try:
            replayed = list(WriteAheadLog.replay(path))
        except CorruptionError:
            return  # typed detection: the contract held
        # Undetected flip: every surviving record must still be one that
        # was actually written, byte-for-byte (CRC guarantees this for the
        # payload; a flipped length field must not smear records together).
        written = {(k, key, v) for k, key, v in records}
        for record in replayed:
            assert (record.kind, record.key, record.value) in written


class TestReplayEdgeCases:
    def test_missing_file_replays_empty(self, tmp_path):
        assert list(WriteAheadLog.replay(str(tmp_path / "absent.log"))) == []

    def test_empty_file_replays_empty(self, tmp_path):
        path = str(tmp_path / "wal.log")
        open(path, "wb").close()
        assert list(WriteAheadLog.replay(path)) == []

    def test_corrupt_final_frame_is_a_torn_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_wal(path, [(KIND_PUT, b"k", b"v"), (KIND_PUT, b"k2", b"v2")])
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(size - 1)
            fh.write(b"\xff")
        replayed = list(WriteAheadLog.replay(path))
        assert [r.key for r in replayed] == [b"k"]

    def test_corrupt_mid_frame_raises(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_wal(path, [(KIND_PUT, b"key-one", b"v" * 30), (KIND_PUT, b"k2", b"v2")])
        with open(path, "r+b") as fh:
            fh.seek(12)  # inside the first record's payload
            fh.write(b"\xff\xff")
        with pytest.raises(CorruptionError):
            list(WriteAheadLog.replay(path))


# -- multi-record frames ---------------------------------------------------------

_batches = st.lists(_records, min_size=1, max_size=5)


def _write_frames(path: str, batches) -> list[int]:
    """One frame per batch, seqnos running on; returns each frame's end offset."""
    wal = WriteAheadLog(path)
    ends, seqno, offset = [], 1, 0
    for batch in batches:
        offset += wal.append(seqno, batch)
        seqno += len(batch)
        ends.append(offset)
    wal.close()
    return ends


class TestMultiRecordFrames:
    @given(batches=_batches)
    @settings(max_examples=60, deadline=None)
    def test_frames_round_trip(self, tmp_path_factory, batches):
        path = str(tmp_path_factory.mktemp("wal") / "wal.log")
        ends = _write_frames(path, batches)
        assert os.path.getsize(path) == ends[-1]
        frames = list(WriteAheadLog.frames(path))
        assert [end for end, _ in frames] == ends
        assert [[(r.kind, r.key, r.value) for r in records] for _, records in frames] == [
            list(batch) for batch in batches
        ]
        flat = [r.seqno for _, records in frames for r in records]
        assert flat == list(range(1, len(flat) + 1))

    @given(batches=_batches, data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_a_cut_frame_yields_none_of_its_records(self, tmp_path_factory, batches, data):
        path = str(tmp_path_factory.mktemp("wal") / "wal.log")
        ends = _write_frames(path, batches)
        cut = data.draw(st.integers(min_value=0, max_value=ends[-1]), label="cut")
        with open(path, "r+b") as fh:
            fh.truncate(cut)
        whole = sum(1 for end in ends if end <= cut)  # frames before the cut
        replayed = [(r.kind, r.key, r.value) for r in WriteAheadLog.replay(path)]
        assert replayed == [record for batch in batches[:whole] for record in batch]

    @given(batches=_batches, data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_a_flipped_frame_yields_none_of_its_records(
        self, tmp_path_factory, batches, data
    ):
        path = str(tmp_path_factory.mktemp("wal") / "wal.log")
        ends = _write_frames(path, batches)
        offset = data.draw(st.integers(min_value=0, max_value=ends[-1] - 1), label="offset")
        with open(path, "r+b") as fh:
            fh.seek(offset)
            original = fh.read(1)
            fh.seek(offset)
            fh.write(bytes((original[0] ^ 0xFF,)))
        hit = next(i for i, end in enumerate(ends) if offset < end)
        try:
            replayed = [(r.kind, r.key, r.value) for r in WriteAheadLog.replay(path)]
        except CorruptionError:
            return  # damage before the tail: typed, and nothing served
        # Undetected only as a torn tail: the flipped frame and everything
        # after it are gone, every frame before it is whole.
        assert replayed == [record for batch in batches[:hit] for record in batch]

    # Three one-record frames written by the one-record-per-frame appender
    # (seqnos 1-3: a put, a list merge and a delete of two table-0 keys).
    OLD_LOG = bytes.fromhex(
        "fa6d25dc0000001f000000000000000101000000070001306b31000000000007d9"
        "0000000276317e02dd6f0000001e000000000000000203000000070002306b3200"
        "0000000006dd00000001054105e4af00000018000000000000000302000000070001"
        "306b31000000000000"
    )
    OLD_RECORDS = [
        (1, KIND_PUT, b"\x00\x01\x30k1\x00\x00", b"\xd9\x00\x00\x00\x02v1"),
        (2, KIND_MERGE, b"\x00\x02\x30k2\x00\x00", b"\xdd\x00\x00\x00\x01\x05"),
        (3, KIND_DELETE, b"\x00\x01\x30k1\x00\x00", b""),
    ]

    def test_a_log_of_one_record_frames_replays_unchanged(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with open(path, "wb") as fh:
            fh.write(self.OLD_LOG)
        replayed = [(r.seqno, r.kind, r.key, r.value) for r in WriteAheadLog.replay(path)]
        assert replayed == self.OLD_RECORDS
        # ...and a one-record frame is still written byte for byte that way
        again = str(tmp_path / "again.log")
        wal = WriteAheadLog(again)
        for seqno, kind, key, value in self.OLD_RECORDS:
            wal.append(seqno, [(kind, key, value)])
        wal.close()
        with open(again, "rb") as fh:
            assert fh.read() == self.OLD_LOG


class TestSegmentsStraddlingASeal:
    """A batch that crosses ``memtable_flush_bytes`` seals the memtable mid-
    batch; its frame sits in the segment frozen right after, which must stay
    until the memtable holding the batch's tail is flushed too."""

    @staticmethod
    def _segments(path: str) -> list[str]:
        return sorted(name for name in os.listdir(path) if name.startswith("wal-"))

    def test_kill_between_the_two_flushes_keeps_the_whole_batch(self, tmp_path):
        from repro.faults.harness import simulate_crash
        from repro.kvstore import LSMStore

        path = str(tmp_path / "db")
        store = LSMStore(path, memtable_flush_bytes=1024, auto_compact=False)
        store.create_table("t", merge_operator="list_append")
        batch = [("merge", "t", i % 7, [f"{i}-" + "x" * 40]) for i in range(60)]
        store.write(batch)
        # the head of the batch was flushed; its tail is in the active
        # memtable, logged in the straddling frozen segment
        assert store.sstable_count >= 1
        assert store.metrics.flushes == store.sstable_count
        assert self._segments(path) == ["wal-000001.log"]
        simulate_crash(store)

        expected: dict = {}
        for _, _, key, delta in batch:
            expected.setdefault((key,), []).extend(delta)
        reopened = LSMStore(path, memtable_flush_bytes=1024, auto_compact=False)
        try:
            assert dict(reopened.scan("t")) == expected
            reopened.flush()  # persists the tail: the segment is covered now
            assert self._segments(path) == []
            assert dict(reopened.scan("t")) == expected
        finally:
            reopened.close()
