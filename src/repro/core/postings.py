"""Columnar chunk codec for the two list tables: Index postings and Seq rows.

Both tables hold ``list_append``-merged values, and both are regular: an
Index row is ``(trace_id, ts_a, ts_b)`` with few distinct trace ids and
``ts_b`` near ``ts_a``; a Seq row is ``(activity, ts)`` with few distinct
activities.  One append batch becomes one *chunk*, a ``bytes`` item of the
stored list: an id dictionary plus fixed-width columns, so a chunk decodes
with one ``str.split`` and a ``struct.unpack_from`` per column -- no
Python-level loop per byte or per field -- and its dictionary alone answers
"which traces does this chunk mention".

Chunk layout (tags ``0x04`` POSTINGS and ``0x05`` SEQUENCE)::

    u8       tag
    u8       packed: bits 0-1 index mode (0 = identity: row i uses id i,
             no index column; 1/2/3 = u8/u16/u32 index column),
             bits 2-3 width code of column 1, bits 4-5 width code of
             column 2 (codes 0-3 = 1/2/4/8 bytes; 0 when absent),
             bits 6-7 timestamp kind (0 INT, 1 INTFLOAT, 2 FLOAT)
    uvarint  n, the number of rows
    uvarint  byte length of the id dictionary
    uvarint  zigzag(base), base = min of column 1     (kinds INT, INTFLOAT)
    ids              the distinct ids in first-appearance order, utf-8,
                     joined by ``0x00``
    n x u8/u16/u32   index column          (index mode != 0 only)
    n x column 1     ``ts_a`` / ``ts`` minus base, unsigned little-endian
    n x column 2     ``ts_b - ts_a``, signed little-endian  (POSTINGS only)

The Index table stores the ``0x06`` NUMBERED layout instead: its trace ids
are the store's dense trace numbers (:mod:`repro.core.tables` keeps the
table that names them), so the dictionary and index column give way to one
fixed-width number column::

    u8       tag 0x06
    u8       packed: bits 0-1 width code of the number column, bits 2-7
             as above
    uvarint  n, the number of rows
    uvarint  number base, the smallest number of the chunk
    uvarint  zigzag(base), base = min of column 1     (kinds INT, INTFLOAT)
    n x u8/u16/u32/u64   number minus number base
    n x column 1, n x column 2   as above

The header fixes the length of everything after it, and a decoder accepts a
chunk only at exactly that length.

Kind FLOAT stores raw little-endian doubles (``ts_b`` itself in column 2,
width codes 0): exact for every double, non-finite included.  INTFLOAT is
for integral floats with ``|v| <= 2**53``, stored as ints and decoded back
to ``float``.  Rows that fit no kind -- non-``str`` ids, ids holding
``U+0000``, bool or mixed timestamps, ints whose offsets leave 64 bits --
are never altered: a postings batch falls back to a ``0x00`` RAW chunk (the
generic value encoding of the rows) and a Seq batch to plain ``(activity,
ts)`` items.

Read compatibility: the varint chunk tags ``0x01``-``0x03`` written before
the columnar layouts, POSTINGS chunks (the Index layout before NUMBERED),
RAW chunks, legacy tuple entries and plain Seq items all keep decoding, in
any mix inside one stored value.  Decoding is strict: a truncated chunk, a
bad width or kind, an index past the dictionary, a number past the name
table or trailing bytes raise :class:`CorruptPostingsError`, never a wrong
row.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from operator import add, sub
from typing import Iterable, Iterator, Sequence

from repro.kvstore.encoding import decode_value, encode_value

__all__ = [
    "CorruptPostingsError",
    "Postings",
    "encode_postings",
    "encode_posting_columns",
    "encode_numbered_postings",
    "decode_postings",
    "encode_sequence",
    "decode_sequence",
    "item_formats",
]

TAG_RAW = 0x00
TAG_INT = 0x01  # varint layouts: read-only
TAG_INTFLOAT = 0x02
TAG_FLOAT = 0x03
TAG_POSTINGS = 0x04  # Index rows: read-only, the engine writes NUMBERED
TAG_SEQUENCE = 0x05
TAG_NUMBERED = 0x06

KIND_INT = 0
KIND_INTFLOAT = 1
KIND_FLOAT = 2

#: largest integer a float holds exactly; beyond it INTFLOAT would round
_MAX_EXACT_FLOAT = 2**53

_UNSIGNED = "BHIQ"
_SIGNED = "bhiq"
_INDEX_WIDTH = (0, 1, 2, 4)
#: bytes a column value needs (0-8) -> width code
_CODE_OF_BYTES = (0, 0, 1, 2, 2, 3, 3, 3, 3)


@lru_cache(maxsize=4096)
def _column(n: int, code: str) -> struct.Struct:
    """The packer of one ``n``-row little-endian column."""
    return struct.Struct(f"<{n}{code}")

Completions = list[tuple[float, float]]

# Resident bytes of a decoded Postings, as CPython 3.11 lays it out
# (tracemalloc; tests/core/test_row_cache.py holds the estimate to 0.5-2x):
# the object with its chunk list; per chunk its 6-tuple, the bytes header and
# the id list; per dictionary id a pointer and a short str, per NUMBERED row
# a pointer; per older-format row three pointers, two floats and an id.
_POSTINGS_BYTES = 200
_CHUNK_BYTES = 240
_ID_BYTES = 66
_NAME_BYTES = 8
_OLDER_ROW_BYTES = 136

#: what a chunk arrives as (the store hands out ``bytes``)
_CHUNK_TYPES = (bytes, bytearray, memoryview)


class CorruptPostingsError(Exception):
    """An encoded chunk failed to decode (truncated or corrupt)."""


# -- varint primitives -----------------------------------------------------


def _uvarints(*values: int) -> bytearray:
    out = bytearray()
    for value in values:
        while value > 0x7F:
            out.append((value & 0x7F) | 0x80)
            value >>= 7
        out.append(value)
    return out


def _read_uvarint(buf, pos: int) -> tuple[int, int]:
    total = len(buf)
    if pos + 1 < total and buf[pos] & 0x80 and not buf[pos + 1] & 0x80:
        return (buf[pos] & 0x7F) | buf[pos + 1] << 7, pos + 2  # the common two bytes
    result = 0
    shift = 0
    while True:
        if pos >= total:
            raise CorruptPostingsError("truncated varint in chunk")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:  # > 10 continuation bytes: corrupt, not just large
            raise CorruptPostingsError("overlong varint in chunk")


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


# -- encode ----------------------------------------------------------------


def _unsigned_code(maximum: int) -> int | None:
    """Width code of an unsigned column whose largest value is ``maximum``."""
    size = (maximum.bit_length() + 7) >> 3
    return _CODE_OF_BYTES[size] if size <= 8 else None


def _signed_code(low: int, high: int) -> int | None:
    """Width code of a two's-complement column spanning ``low..high``."""
    bits = max((~low if low < 0 else low).bit_length(), (~high if high < 0 else high).bit_length())
    size = (bits + 8) >> 3  # one more bit for the sign
    return _CODE_OF_BYTES[size] if size <= 8 else None


def _timestamp_kind(stamps: Sequence) -> int | None:
    """The tightest kind that round-trips every timestamp, type included."""
    types = set(map(type, stamps))
    if types == {int}:
        return KIND_INT
    if types != {float}:
        return None  # bool, mixed int/float, anything exotic
    if (
        all(map(float.is_integer, stamps))  # false for every non-finite value
        and -_MAX_EXACT_FLOAT <= min(stamps)
        and max(stamps) <= _MAX_EXACT_FLOAT
    ):
        return KIND_INTFLOAT
    return KIND_FLOAT


def _encode_chunk(
    tag: int, ids: Sequence, first: Sequence, second: Sequence | None
) -> bytes | None:
    """One columnar chunk, or ``None`` when the rows do not fit the layout.

    ``first`` and ``second`` are both tuples or both lists; nothing passed
    in is mutated or kept."""
    n = len(ids)
    kind = _timestamp_kind(first if second is None else first + second)
    if kind is None:
        return None
    encoded = _numbers(ids) if tag == TAG_NUMBERED else _dictionary(ids)
    if encoded is None:
        return None
    id_bits, id_header, id_bytes = encoded
    if kind == KIND_FLOAT:
        header = _uvarints(n, id_header)
        code_first = code_second = 0
        columns = _column(n, "d").pack(*first)
        if second is not None:
            columns += _column(n, "d").pack(*second)
    else:
        if kind == KIND_INTFLOAT:
            first = tuple(map(int, first))
            second = tuple(map(int, second)) if second is not None else None
        base = min(first)
        if not -(1 << 63) <= base < 1 << 63:
            return None
        code_first = _unsigned_code(max(first) - base)
        if code_first is None:
            return None
        header = _uvarints(n, id_header, (base << 1) if base >= 0 else ((-base << 1) - 1))
        offsets = map((-base).__add__, first) if base else first
        columns = _column(n, _UNSIGNED[code_first]).pack(*offsets)
        code_second = 0
        if second is not None:
            deltas = tuple(map(sub, second, first))
            code_second = _signed_code(min(deltas), max(deltas))
            if code_second is None:
                return None
            columns += _column(n, _SIGNED[code_second]).pack(*deltas)
    packed = id_bits | code_first << 2 | code_second << 4 | kind << 6
    return b"".join((bytes((tag, packed)), header, id_bytes, columns))


def _dictionary(ids: Sequence) -> tuple[int, int, bytes] | None:
    """``(index mode, dictionary length, dictionary and index column)`` of
    string ids, or ``None`` when they fit no dictionary."""
    n = len(ids)
    if set(map(type, ids)) != {str}:
        return None
    dictionary = dict.fromkeys(ids)
    joined = "\x00".join(dictionary)
    if joined.count("\x00") != len(dictionary) - 1:
        return None  # an id holds the separator
    blob = joined.encode("utf-8")
    if len(dictionary) == n:
        return 0, len(blob), blob
    index_mode = 1 + _unsigned_code(len(dictionary) - 1)
    if index_mode > 3:
        return None
    position = {key: i for i, key in enumerate(dictionary)}
    index_column = _column(n, _UNSIGNED[index_mode - 1]).pack(*map(position.__getitem__, ids))
    return index_mode, len(blob), blob + index_column


def _numbers(ids: Sequence) -> tuple[int, int, bytes] | None:
    """``(width code, number base, number column)`` of trace numbers, or
    ``None`` when they are not all non-negative ints spanning 64 bits."""
    if set(map(type, ids)) != {int}:
        return None
    base = min(ids)
    span = max(ids) - base
    if base < 0 or span >> 64:
        return None
    offsets = map((-base).__add__, ids) if base else ids
    if span < 0x100:  # u8 numbers, the usual width: the offsets are the bytes
        return 0, base, bytes(offsets)
    code = _unsigned_code(span)
    return code, base, _column(len(ids), _UNSIGNED[code]).pack(*offsets)


def _columns(rows: list, width: int) -> tuple | None:
    """``rows`` transposed into ``width`` columns; ``None`` when ragged/empty."""
    try:
        columns = tuple(zip(*rows, strict=True))
    except ValueError:
        return None
    return columns if len(columns) == width else None


def _raw_chunk(rows: Iterable) -> bytes:
    return bytes((TAG_RAW,)) + encode_value([list(row) for row in rows])


def encode_posting_columns(ids: Sequence, ts_a: Sequence, ts_b: Sequence) -> bytes:
    """Encode one batch given as its three equal-length, non-empty columns
    (what the builder holds); same chunk as :func:`encode_postings` of the
    zipped rows."""
    chunk = _encode_chunk(TAG_POSTINGS, ids, ts_a, ts_b)
    return chunk if chunk is not None else _raw_chunk(zip(ids, ts_a, ts_b))


def encode_numbered_postings(
    numbers: Sequence[int], ts_a: Sequence, ts_b: Sequence
) -> bytes | None:
    """Encode one batch whose trace ids are trace numbers (non-negative
    ints) into a NUMBERED chunk; ``None`` when its timestamps fit no chunk
    (the caller stores those rows under their names, in a RAW chunk).

    A one-row batch of INT or INTFLOAT stamps -- every served write's Index
    rows -- is packed directly, into the bytes :func:`_encode_chunk` makes:
    a u8 number column and a u8 ``ts_a`` column, each holding a zero
    offset, then the one delta."""
    if len(numbers) == 1:
        chunk = _one_numbered_row(numbers[0], ts_a[0], ts_b[0])
        if chunk is not None:
            return chunk
    return _encode_chunk(TAG_NUMBERED, numbers, ts_a, ts_b)


def _one_numbered_row(number, first, second) -> bytes | None:
    """The NUMBERED chunk of one row with INT or INTFLOAT stamps; ``None``
    for any other row, which :func:`_encode_chunk` then decides."""
    stamp = type(first)
    if type(number) is not int or number < 0 or type(second) is not stamp:
        return None
    if stamp is float:
        if not (
            first.is_integer()
            and second.is_integer()
            and -_MAX_EXACT_FLOAT <= first <= _MAX_EXACT_FLOAT
            and -_MAX_EXACT_FLOAT <= second <= _MAX_EXACT_FLOAT
        ):
            return None
        kind = KIND_INTFLOAT
        first, second = int(first), int(second)
    elif stamp is int:
        if not -(1 << 63) <= first < 1 << 63:
            return None
        kind = KIND_INT
    else:
        return None
    delta = second - first
    code = _signed_code(delta, delta)
    if code is None:
        return None
    return (
        bytes((TAG_NUMBERED, code << 4 | kind << 6))
        + _uvarints(1, number, (first << 1) if first >= 0 else ((-first << 1) - 1))
        + b"\x00\x00"  # the number and ts_a offsets, both 0
        + delta.to_bytes(1 << code, "little", signed=True)
    )


def encode_postings(entries: list) -> bytes:
    """Encode one batch of ``(trace_id, ts_a, ts_b)`` rows into a chunk.

    Row order and every field's type survive the round trip; rows the
    columnar layout cannot hold exactly go into a RAW chunk instead.
    """
    columns = _columns(entries, 3)
    return encode_posting_columns(*columns) if columns is not None else _raw_chunk(entries)


def encode_sequence(events: list) -> list:
    """The Seq-table merge delta for one batch of ``(activity, ts)`` events:
    a one-chunk list, or the events themselves when they fit no chunk.

    A single event stays itself too: a one-row chunk is no smaller than the
    plain item and costs twice as much to write and to read back, and a
    streamed trace arrives as mostly such batches.
    """
    if len(events) < 2:
        return events
    columns = _columns(events, 2)
    chunk = _encode_chunk(TAG_SEQUENCE, *columns, None) if columns is not None else None
    return [chunk] if chunk is not None else events


# -- decode ----------------------------------------------------------------


def _open_chunk(chunk, names: Sequence | None = None) -> tuple[list, int, int, int, int]:
    """Parse a columnar chunk's header and ids, validating its length.

    Returns ``(ids, n, packed, base, pos)`` with ``pos`` the offset of the
    first column past the ids; after this every column read is known to be
    in bounds.  A NUMBERED chunk's ids are one per row, each number named by
    ``names`` (the number itself without it), and its ``packed`` comes back
    with the id bits cleared: no index column follows.
    """
    tag = chunk[0]
    try:
        packed = chunk[1]
        n = chunk[2]
        pos = 3
        if n > 0x7F:
            n, pos = _read_uvarint(chunk, 2)
        ids_len = chunk[pos]  # the number base, in a NUMBERED chunk
        pos += 1
        if ids_len > 0x7F:
            ids_len, pos = _read_uvarint(chunk, pos - 1)
        kind = packed >> 6
        base = 0
        if kind == KIND_FLOAT:
            if packed & 0x3C:
                raise CorruptPostingsError("float chunk with integer widths")
            row_width = 8 if tag == TAG_SEQUENCE else 16
        elif kind > KIND_FLOAT:
            raise CorruptPostingsError(f"unknown timestamp kind {kind}")
        else:
            base = chunk[pos]
            pos += 1
            if base > 0x7F:
                base, pos = _read_uvarint(chunk, pos - 1)
            base = _unzigzag(base)
            row_width = 1 << (packed >> 2 & 3)
            if tag != TAG_SEQUENCE:
                row_width += 1 << (packed >> 4 & 3)
            elif packed & 0x30:
                raise CorruptPostingsError("sequence chunk with a second column")
    except IndexError:
        raise CorruptPostingsError("truncated chunk header") from None
    if tag == TAG_NUMBERED:
        columns = pos + (n << (packed & 3))
        if columns + n * row_width != len(chunk):
            raise CorruptPostingsError("chunk length does not match its header")
        return _named(chunk, n, packed, pos, ids_len, names), n, packed & 0xFC, base, columns
    columns = pos + ids_len
    if columns + n * (_INDEX_WIDTH[packed & 3] + row_width) != len(chunk):
        raise CorruptPostingsError("chunk length does not match its header")
    if not n and ids_len:
        raise CorruptPostingsError("chunk without rows holds a dictionary")
    try:
        ids = str(chunk[pos:columns], "utf-8").split("\x00") if n else []
    except UnicodeDecodeError as exc:
        raise CorruptPostingsError(f"corrupt id dictionary: {exc}") from None
    if not packed & 3 and len(ids) != n:
        raise CorruptPostingsError(
            f"chunk holds {n} rows but its dictionary {len(ids)} ids"
        )
    return ids, n, packed, base, columns


def _named(chunk, n: int, packed: int, pos: int, first: int, names: Sequence | None) -> list:
    """The ids of a NUMBERED chunk's rows: its number column plus the number
    base ``first``, each mapped through ``names`` when given."""
    if not n:
        if first:
            raise CorruptPostingsError("chunk without rows holds a number base")
        return []
    if packed & 3:
        offsets = _column(n, _UNSIGNED[packed & 3]).unpack_from(chunk, pos)
    else:  # u8 numbers, the usual width: the bytes are the offsets
        offsets = chunk[pos : pos + n]
    if names is None:
        return [first + offset for offset in offsets]
    try:  # numbers are never negative: an IndexError is a number past the table
        return [names[first + offset] for offset in offsets]
    except IndexError:
        raise CorruptPostingsError("trace number past the name table in chunk") from None


def _read_columns(chunk, n: int, packed: int, base: int, pos: int, n_ids: int):
    """``(index column or None, column 1, column 2 or None)`` as decoded values."""
    index_mode = packed & 3
    index = None
    if index_mode:
        index = _column(n, _UNSIGNED[index_mode - 1]).unpack_from(chunk, pos)
        pos += n * _INDEX_WIDTH[index_mode]
        if n and max(index) >= n_ids:
            raise CorruptPostingsError("dictionary index out of range in chunk")
    paired = chunk[0] != TAG_SEQUENCE
    kind = packed >> 6
    if kind == KIND_FLOAT:
        first = _column(n, "d").unpack_from(chunk, pos)
        second = _column(n, "d").unpack_from(chunk, pos + 8 * n) if paired else None
        return index, first, second
    code = packed >> 2 & 3
    first = _column(n, _UNSIGNED[code]).unpack_from(chunk, pos)
    if base:
        first = [base + offset for offset in first]
    second = None
    if paired:
        deltas = _column(n, _SIGNED[packed >> 4 & 3]).unpack_from(chunk, pos + (n << code))
        second = map(add, first, deltas)
    if kind == KIND_INTFLOAT:
        first = list(map(float, first))
        second = map(float, second) if paired else None
    return index, first, second


def _decode_older_rows(chunk) -> list[tuple]:
    """Rows of a chunk in one of the read-only layouts (tags ``0x00``-``0x03``)."""
    if not len(chunk):
        raise CorruptPostingsError("empty postings chunk")
    tag = chunk[0]
    if tag == TAG_RAW:
        try:
            rows = decode_value(bytes(chunk[1:]))
        except Exception as exc:
            raise CorruptPostingsError(f"corrupt raw postings chunk: {exc}") from None
        if not isinstance(rows, list):
            raise CorruptPostingsError("raw postings chunk is not a list")
        try:
            return [tuple(row) for row in rows]
        except TypeError:  # a row that is no sequence at all
            raise CorruptPostingsError("raw postings chunk row is not a row") from None
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


class Postings:
    """One pair's stored Index value, decoded on demand.

    ``items`` is the ``list_append``-merged value as stored (several
    partitions' values concatenated when a read unions them): columnar
    chunks, and whatever older formats the row still holds.  ``names`` is
    the store's trace-name table, indexed by trace number: opening maps each
    NUMBERED chunk's number column through it (without it, the ids are the
    numbers), and parses the other chunks' headers and dictionaries only.
    :meth:`trace_ids` answers from those ids, and :meth:`columns` unpacks
    just the timestamps of the chunks that mention a wanted trace, as whole
    columns.  The engine's row cache holds these objects, so a hot pair pays
    the store read and the id decode once.
    """

    __slots__ = ("entries", "nbytes", "_chunks", "_older")

    def __init__(self, items: Iterable, names: Sequence | None = None) -> None:
        #: number of ``(trace_id, ts_a, ts_b)`` rows in the value
        self.entries = 0
        #: estimated resident size of this object: what the row cache charges
        self.nbytes = _POSTINGS_BYTES
        # (dictionary ids in order -- a NUMBERED chunk's one per row --,
        # chunk, n, packed, base, column offset)
        self._chunks: list[tuple] = []
        # rows of every older format, transposed once: (ids, ts_a, ts_b)
        older: list[tuple] = []
        for item in items:
            if not isinstance(item, _CHUNK_TYPES):
                older.append(item)
            elif not len(item) or item[0] not in (TAG_NUMBERED, TAG_POSTINGS):
                older.extend(_decode_older_rows(item))
            else:
                ids, n, packed, base, pos = _open_chunk(item, names)
                self._chunks.append((ids, item, n, packed, base, pos))
                self.entries += n
                # a NUMBERED chunk's names are the name table's own objects
                per_id = _NAME_BYTES if item[0] == TAG_NUMBERED else _ID_BYTES
                self.nbytes += _CHUNK_BYTES + len(item) + per_id * len(ids)
        try:
            columns = _columns(older, 3) if older else ((), (), ())
            if columns is not None:
                hash(columns[0])  # every trace id: the stages put them in sets
        except TypeError:  # a legacy item that is no sequence at all, or a list id
            columns = None
        if columns is None:
            raise CorruptPostingsError("index entry is not a 3-tuple with a hashable id")
        self._older = columns
        self.entries += len(older)
        self.nbytes += _OLDER_ROW_BYTES * len(older)

    def trace_ids(self) -> set[str]:
        """Every trace with at least one completion, from chunk ids alone."""
        traces = set(self._older[0])
        for chunk in self._chunks:
            traces.update(chunk[0])
        return traces

    def columns(self, restrict: set[str] | None = None) -> Iterator[tuple]:
        """``(trace ids, ts_a, ts_b)`` parallel columns, one triple per chunk
        in stored order, then one for the rows of every older format.

        With ``restrict``, a triple mentioning none of those traces is
        skipped -- a chunk by its ids, without touching its columns --
        while a yielded triple still holds all of its rows.  Each column is
        iterable once.
        """
        for ids, chunk, n, packed, base, pos in self._chunks:
            if restrict is not None and restrict.isdisjoint(ids):
                continue
            index, ts_a, ts_b = _read_columns(chunk, n, packed, base, pos, len(ids))
            if index is not None:
                ids = map(ids.__getitem__, index)
            yield ids, ts_a, ts_b
        older = self._older
        if older[0] and (restrict is None or not restrict.isdisjoint(older[0])):
            yield older

    def rows(self) -> list[tuple[str, float, float]]:
        """Flat ``(trace_id, ts_a, ts_b)`` rows, grouped per trace (first
        stored appearance first) and time-ordered within one."""
        return [
            (trace_id, ts_a, ts_b)
            for trace_id, completions in _grouped(self.columns()).items()
            for ts_a, ts_b in completions
        ]


def _grouped(triples: Iterable[tuple]) -> dict[str, Completions]:
    """Column triples as ``{trace_id: [(ts_a, ts_b), ...]}``, each trace's
    list time-ordered: the per-entry form of the operator views and the
    tests, which no query builds."""
    grouped: dict[str, Completions] = {}
    for ids, ts_a, ts_b in triples:
        for trace_id, completion in zip(ids, zip(ts_a, ts_b)):
            grouped.setdefault(trace_id, []).append(completion)
    for completions in grouped.values():
        completions.sort()
    return grouped


def decode_postings(chunk) -> dict[str, Completions]:
    """One chunk of any layout, decoded to the per-trace grouped form (a
    NUMBERED chunk's traces are its numbers: no name table here)."""
    return _grouped(Postings((chunk,)).columns())


def decode_sequence(items: Iterable) -> tuple[list[str], list[float]]:
    """A stored Seq value as ``(activities, timestamps)`` columns.

    ``items`` mixes SEQUENCE chunks with plain ``(activity, ts)`` items (rows
    written before the chunk layout, or batches that fit no chunk).
    """
    activities: list[str] = []
    stamps: list[float] = []
    for item in items:
        if isinstance(item, _CHUNK_TYPES):
            if not len(item) or item[0] != TAG_SEQUENCE:
                raise CorruptPostingsError("not a sequence chunk")
            ids, n, packed, base, pos = _open_chunk(item)
            index, ts, _ = _read_columns(item, n, packed, base, pos, len(ids))
            activities.extend(ids if index is None else map(ids.__getitem__, index))
            stamps.extend(ts)
        else:
            try:
                activity, ts = item
            except (TypeError, ValueError):
                raise CorruptPostingsError("sequence item is not a pair") from None
            activities.append(activity)
            stamps.append(ts)
    return activities, stamps


def item_formats(items: Iterable) -> Iterator[tuple[str, int]]:
    """``(format name, rows held)`` of every item of a stored list value.

    Names: ``columnar`` (POSTINGS, SEQUENCE and NUMBERED chunks),
    ``varint``, ``raw`` for chunks, ``plain`` for an item that is itself one
    row (a legacy Index tuple, a generic Seq event).
    """
    for item in items:
        if not isinstance(item, _CHUNK_TYPES):
            yield "plain", 1
        elif len(item) and item[0] in (TAG_POSTINGS, TAG_SEQUENCE, TAG_NUMBERED):
            yield "columnar", _open_chunk(item)[1]
        elif len(item) and item[0] == TAG_RAW:
            yield "raw", len(_decode_older_rows(item))
        else:
            yield "varint", len(_decode_older_rows(item))
