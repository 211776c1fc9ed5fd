"""WAL frames are a contract: fixed batches, pinned by digest.

A change to the write path that is meant to be a pure speed-up -- how a
batch's keys and values are encoded, how a frame's payload and CRC are
built, how the frame is streamed to the file -- must leave every logged
byte as it was.  Two fixed batches are logged and the sha256 of the whole
file is compared with a digest taken before the write path encoded a batch
in one loop and took one CRC per frame:

* a ``WriteAheadLog`` frame of mixed records, one of them larger than the
  64 KiB the frame is streamed in;
* an ``LSMStore`` write of mixed ops over tables with every merge operator
  and none, so the table prefixes, key encoding and value encoding of the
  store's write loop are pinned as well as the frame.
"""

from __future__ import annotations

import hashlib

from repro.kvstore import LSMStore
from repro.kvstore.wal import KIND_DELETE, KIND_MERGE, KIND_PUT, WriteAheadLog

WAL_FRAME_SHA256 = "be692f4ea09327f35be58a60ef5b96c0ddd062e135d0b14f4eb2599c01e506ec"
WAL_FRAME_BYTES = 73142
STORE_WAL_SHA256 = "0d2712ad46e5ca17b0efd3ba03a5a0f9997c4ce621a78c89439b36b69f6cd219"
STORE_WAL_BYTES = 980


def _digest(path) -> tuple[str, int]:
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)


def _records() -> list[tuple[int, bytes, bytes]]:
    big = bytes(range(256)) * 280  # 71 680 bytes: more than one 64 KiB write
    return [
        (KIND_PUT, b"\x00\x01\x30k\x00\x00", b"\xc3"),
        (KIND_MERGE, b"\x00\x02\x30pair\x00\xffx\x00\x00", big),
        (KIND_DELETE, b"\x00\x01\x30gone\x00\x00", b""),
        (KIND_PUT, b"", b"v" * 300),
        (KIND_MERGE, b"\x00\x03" + b"z" * 1000, b"\xdd\x00\x00\x00\x00"),
    ]


def test_a_mixed_frame_is_byte_identical(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(str(path))
    size = wal.append(41, _records())
    size += wal.append(46, [(KIND_PUT, b"one", b"record")])
    wal.close()
    assert _digest(path) == (WAL_FRAME_SHA256, WAL_FRAME_BYTES)
    assert size == WAL_FRAME_BYTES


def _ops() -> list[tuple]:
    chunk = bytes((0x06, 0x40, 1, 7, 20, 0, 3))
    return [
        ("put", "meta", "partition:", {"registered": True}),
        ("merge", "seq", "trace-1", [b"\x05seq-chunk"]),
        ("merge", "seq", "trace-2", [("act_000", 1.5)]),
        ("merge", "index", ("act_000", "act_001"), [chunk]),
        ("merge", "index", ("act_001", "act_000"), [chunk, chunk + b"\x01"]),
        ("merge", "index", ("événement", "nul\x00inside"), [b""]),
        ("merge", "count", "act_000", {"act_001": [2.5, 3], "act_002": [0.0, 1]}),
        ("merge", "count", "", {"": [1.0, 1]}),
        ("merge", "last_checked", "act_000", {"act_001": 9.0, "act_002": 11.0}),
        ("put", "trace_number", "trace-1", 0),
        ("put", "trace_number", "trace-2", 1 << 40),
        ("put", "meta", (None, True, False, 0, -1, 1 << 62, -(1 << 62)), (1, "x")),
        ("put", "meta", (1.5, -0.0, float("inf"), b"\x00b"), [None, 1 << 70, -5]),
        ("put", "meta", "mixed", {"a": 1, 2: "b", "c": [1, (2.0, "d")]}),
        ("delete", "seq", "trace-3", None),
        ("merge", "index", ("act_000", "act_001"), [chunk]),
    ]


def test_a_mixed_store_batch_logs_the_same_frame(tmp_path):
    with LSMStore(str(tmp_path / "db")) as store:
        store.create_table("seq", merge_operator="list_append")
        store.create_table("index", merge_operator="list_append")
        store.create_table("count", merge_operator="counter_map")
        store.create_table("last_checked", merge_operator="max_map")
        store.create_table("meta")
        store.create_table("trace_number")
        store.write(_ops())
        store.merge("seq", "trace-2", [("act_001", 2)])
        assert _digest(tmp_path / "db" / "wal.log") == (STORE_WAL_SHA256, STORE_WAL_BYTES)
