"""The varint postings *encoder* this repo shipped before the columnar layout.

Only ``repro upgrade`` reads tags ``0x01``-``0x03`` now; tests need a
writer for them to build stores older code wrote and to hold the columnar
layout to the varint layout's size.  Kept byte-identical to the retired encoder (the
committed ``tests/data/legacy_store`` was written by the original).
"""

from __future__ import annotations

import struct

TAG_INT = 0x01
TAG_INTFLOAT = 0x02
TAG_FLOAT = 0x03

_MAX_EXACT_FLOAT = 2**53


def _write_uvarint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _pick_format(entries: list) -> int:
    kinds = {type(ts) for entry in entries for ts in entry[1:]}
    if kinds == {int}:
        return TAG_INT
    assert kinds == {float}, "the varint layouts hold all-int or all-float rows"
    integral = all(
        -_MAX_EXACT_FLOAT <= ts <= _MAX_EXACT_FLOAT and ts == int(ts)
        for entry in entries
        for ts in entry[1:]
    )
    return TAG_INTFLOAT if integral else TAG_FLOAT


def encode_varint_postings(entries: list) -> bytes:
    """One varint chunk of ``(str trace_id, ts_a, ts_b)`` rows."""
    tag = _pick_format(entries)
    out = bytearray((tag,))
    trace_ids: dict[str, int] = {}
    for trace_id, _, _ in entries:
        trace_ids.setdefault(trace_id, len(trace_ids))
    _write_uvarint(out, len(entries))
    _write_uvarint(out, len(trace_ids))
    for trace_id in trace_ids:
        raw = trace_id.encode("utf-8")
        _write_uvarint(out, len(raw))
        out.extend(raw)
    if tag == TAG_FLOAT:
        for trace_id, ts_a, ts_b in entries:
            _write_uvarint(out, trace_ids[trace_id])
            out.extend(struct.pack(">d", ts_a))
            out.extend(struct.pack(">d", ts_b))
        return bytes(out)
    prev_a = [0] * len(trace_ids)
    for trace_id, ts_a, ts_b in entries:
        idx = trace_ids[trace_id]
        int_a, int_b = int(ts_a), int(ts_b)
        _write_uvarint(out, idx)
        _write_uvarint(out, _zigzag(int_a - prev_a[idx]))
        _write_uvarint(out, _zigzag(int_b - int_a))
        prev_a[idx] = int_a
    return bytes(out)
