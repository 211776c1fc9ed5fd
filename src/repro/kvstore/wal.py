"""Write-ahead log: crash durability for the memtable.

Every store write -- one op or a whole batch -- is appended as **one**
framed, CRC-checked group of records *before* any of it is applied to the
memtable.  Records carry monotonically increasing sequence numbers
(consecutive within a frame); the manifest remembers the last sequence number
made durable in an SSTable, so replay after a crash (or after a flush that
did not truncate) skips everything already persisted and never
double-applies a merge delta.

Frame layout::

    [u32 crc32(payload)] [u32 len(payload)] [payload]

The payload is 1..n records back to back, each::

    [u64 seqno] [u8 kind] [u32 klen] [key bytes] [u32 vlen] [value bytes]

A one-record frame is byte-for-byte the frame of the one-record-per-frame
log this format extends, so older logs replay unchanged.  The CRC covers the
whole payload, so a frame is recovered whole or not at all: a torn or
corrupt frame yields none of its records, and a batch written as one frame
is all-or-nothing after a crash.

A torn final frame (crash mid-write) is detected by length/CRC and replay
stops there; everything before it is intact.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Iterator, Sequence

from repro.faults.io import REAL_IO
from repro.kvstore.api import CorruptionError

KIND_PUT = 1
KIND_DELETE = 2
KIND_MERGE = 3

_FRAME = struct.Struct(">II")
_PAYLOAD_HEAD = struct.Struct(">QBI")
_VLEN = struct.Struct(">I")
#: a frame reaches the file in writes of about this size, so streaming a
#: large batch never holds a joined copy of it
_WRITE_CHUNK = 64 * 1024


class WalRecord:
    """A single replayed WAL entry."""

    __slots__ = ("seqno", "kind", "key", "value")

    def __init__(self, seqno: int, kind: int, key: bytes, value: bytes) -> None:
        self.seqno = seqno
        self.kind = kind
        self.key = key
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WalRecord(seqno={self.seqno}, kind={self.kind}, key={self.key!r})"


class WriteAheadLog:
    """Appender/replayer over a single WAL file."""

    def __init__(self, path: str, sync: bool = False, io=None) -> None:
        self._path = path
        self._sync = sync
        self._io = io or REAL_IO
        self._file = self._io.open(path, "ab")

    @property
    def path(self) -> str:
        return self._path

    def append(
        self, first_seqno: int, records: Sequence[tuple[int, bytes, bytes]]
    ) -> int:
        """Write ``(kind, key, value)`` records, numbered from
        ``first_seqno``, as one frame; flushes to the OS (and optionally
        fsyncs).  Returns the frame's size in bytes.

        The frame is streamed: the CRC is taken part by part, then header
        and payload go out in chunks of about 64 KiB through the ``io``
        shim (so a fault schedule can tear a frame anywhere).  A write that
        fails with ``OSError`` is cut back off the file -- a failed frame
        is not logged, and no later frame lands behind a broken one.
        """
        heads = [
            _PAYLOAD_HEAD.pack(seqno, kind, len(key)) + key + _VLEN.pack(len(value))
            for seqno, (kind, key, value) in enumerate(records, first_seqno)
        ]
        crc = length = 0
        for head, record in zip(heads, records):
            crc = zlib.crc32(record[2], zlib.crc32(head, crc))
            length += len(head) + len(record[2])
        start = self._file.tell()
        chunk = bytearray(_FRAME.pack(crc, length))
        try:
            for head, record in zip(heads, records):
                chunk += head
                chunk += record[2]
                if len(chunk) >= _WRITE_CHUNK:
                    self._file.write(chunk)
                    chunk = bytearray()
            if chunk:
                self._file.write(chunk)
            self._file.flush()
            if self._sync:
                self._io.fsync(self._file)
        except OSError:
            self._file.truncate(start)
            self._file.seek(start)
            raise
        return _FRAME.size + length

    def close(self) -> None:
        self._file.close()

    @staticmethod
    def replay(path: str) -> Iterator[WalRecord]:
        """Yield intact records from ``path``; stop cleanly at a torn tail.

        Raises :class:`CorruptionError` only for corruption *before* the tail
        (a bad CRC followed by more data), which indicates real damage rather
        than a mid-write crash.
        """
        for _, records in WriteAheadLog.frames(path):
            yield from records

    @staticmethod
    def frames(path: str) -> Iterator[tuple[int, list[WalRecord]]]:
        """Each intact frame of ``path`` as ``(offset just past it, records)``.

        The last offset yielded is the length of the log's intact prefix:
        whatever follows it is a torn tail (see :meth:`replay`).
        """
        if not os.path.exists(path):
            return
        with open(path, "rb") as fh:
            data = fh.read()
        pos = 0
        total = len(data)
        while pos < total:
            if pos + _FRAME.size > total:
                return  # torn frame header at the tail
            crc, length = _FRAME.unpack_from(data, pos)
            body_start = pos + _FRAME.size
            body_end = body_start + length
            if body_end > total:
                return  # torn payload at the tail
            payload = data[body_start:body_end]
            if zlib.crc32(payload) != crc:
                if body_end == total:
                    return  # corrupt final frame: treat as torn tail
                raise CorruptionError(f"WAL CRC mismatch at offset {pos} in {path}")
            yield body_end, _parse_payload(payload, pos)
            pos = body_end


def _parse_payload(payload: bytes, frame_at: int) -> list[WalRecord]:
    """The records of one CRC-verified frame payload."""
    records = []
    off = 0
    size = len(payload)
    while off < size:
        if off + _PAYLOAD_HEAD.size + _VLEN.size > size:
            raise CorruptionError(f"WAL payload length mismatch at offset {frame_at}")
        seqno, kind, klen = _PAYLOAD_HEAD.unpack_from(payload, off)
        off += _PAYLOAD_HEAD.size
        key = payload[off : off + klen]
        off += klen
        if off + _VLEN.size > size:
            raise CorruptionError(f"WAL payload length mismatch at offset {frame_at}")
        (vlen,) = _VLEN.unpack_from(payload, off)
        off += _VLEN.size
        value = payload[off : off + vlen]
        off += vlen
        if off > size:
            raise CorruptionError(f"WAL payload length mismatch at offset {frame_at}")
        records.append(WalRecord(seqno, kind, key, value))
    return records
