"""Binary codecs for keys and values.

Keys are tuples of primitives encoded into bytes whose *lexicographic order
matches the natural tuple order*.  This is what lets SSTables stay sorted and
range scans work without decoding every key.  The scheme follows the classic
"tuple layer" design:

* every element is prefixed with a one-byte type tag chosen so that
  ``None < False < True < ints < floats-interleaved < str < bytes``;
* integers are encoded sign-magnitude with a length byte folded into the tag
  neighbourhood, so shorter positive numbers sort before longer ones and
  negatives (stored as complements) sort reversed, as they must;
* strings/bytes are ``0x00``-escaped and ``0x00 0x00`` terminated so that a
  shorter string sorts before any of its extensions;
* floats use the IEEE-754 sign-flip trick (flip all bits for negatives, flip
  the sign bit for positives) which makes the big-endian bytes order-preserve.

Values use a compact self-describing format (a small msgpack work-alike)
supporting ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
``list``, ``tuple`` and ``dict``.  Tuples decode as tuples, lists as lists.
The item loop of a list or tuple handles the two item shapes of the list
tables inline, both ways: a ``bytes`` chunk, and a 2-tuple whose first
element is a ``str`` -- an ``(activity, ts)`` Seq item, read inline when
``ts`` is a float or an int64.  Every other item recurses; the bytes are the
ones the recursive walk writes.
A ``dict`` whose keys are all ``str`` and whose values are all ``int`` (within
int64), all ``float``, or all ``[float, int]`` counter slots is written under a
*packed* tag -- keys joined into one utf-8 blob, values one ``struct.pack`` --
so such documents encode and decode without a Python-level walk (DESIGN.md
section 11 has the layouts).
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Any, Iterable

KeyPart = None | bool | int | float | str | bytes
Key = tuple[KeyPart, ...]

# --- key encoding ----------------------------------------------------------

_TAG_NONE = 0x01
_TAG_FALSE = 0x02
_TAG_TRUE = 0x03
# Integers: tag encodes sign and byte length so the tag itself orders values.
# Negative ints: tags 0x10..0x17 for lengths 8..1 (longer negative = smaller).
# Zero: 0x18.  Positive ints: tags 0x19..0x20 for lengths 1..8.
_TAG_INT_ZERO = 0x18
_TAG_FLOAT = 0x28
_TAG_STR = 0x30
_TAG_BYTES = 0x38

_MAX_INT_BYTES = 8


class KeyEncodingError(ValueError):
    """Raised when a key or encoded key buffer is malformed."""


def _encode_escaped(out: bytearray, data: bytes) -> None:
    out.extend(data.replace(b"\x00", b"\x00\xff"))
    out.extend(b"\x00\x00")


def _decode_escaped(buf: bytes, pos: int) -> tuple[bytes, int]:
    chunks = bytearray()
    n = len(buf)
    while pos < n:
        b = buf[pos]
        if b != 0x00:
            chunks.append(b)
            pos += 1
            continue
        if pos + 1 >= n:
            raise KeyEncodingError("truncated escaped sequence")
        nxt = buf[pos + 1]
        if nxt == 0x00:
            return bytes(chunks), pos + 2
        if nxt == 0xFF:
            chunks.append(0x00)
            pos += 2
            continue
        raise KeyEncodingError(f"invalid escape byte {nxt:#x}")
    raise KeyEncodingError("unterminated escaped sequence")


def _encode_int(out: bytearray, value: int) -> None:
    if value == 0:
        out.append(_TAG_INT_ZERO)
        return
    magnitude = value if value > 0 else -value
    length = (magnitude.bit_length() + 7) // 8
    if length > _MAX_INT_BYTES:
        raise KeyEncodingError(f"integer key element out of range: {value}")
    if value > 0:
        out.append(_TAG_INT_ZERO + length)
        out.extend(magnitude.to_bytes(length, "big"))
    else:
        out.append(_TAG_INT_ZERO - length)
        # Complement so that, at equal length, more-negative sorts first.
        complement = (1 << (8 * length)) - 1 - magnitude
        out.extend(complement.to_bytes(length, "big"))


def _encode_float(out: bytearray, value: float) -> None:
    if value == 0.0:
        value = 0.0  # canonicalize -0.0: equal floats must encode identically
    raw = struct.unpack(">Q", struct.pack(">d", value))[0]
    if raw & (1 << 63):
        raw ^= (1 << 64) - 1  # negative: flip everything
    else:
        raw ^= 1 << 63  # positive: flip the sign bit
    out.append(_TAG_FLOAT)
    out.extend(raw.to_bytes(8, "big"))


#: a ``str`` part: tag, utf-8 escaped as :func:`_encode_escaped` does, terminator
_STR_PART = bytes((_TAG_STR,)) + b"%b\x00\x00"


def encode_key(parts: Iterable[KeyPart]) -> bytes:
    """Encode a tuple of primitives into an order-preserving byte string."""
    out = b""
    for part in parts:
        if type(part) is str:  # the common part: an activity or a trace id
            raw = part.encode("utf-8")
            if b"\x00" in raw:
                raw = raw.replace(b"\x00", b"\x00\xff")
            out += _STR_PART % raw
        else:
            out += _encode_key_part(part)
    return out


def _encode_key_part(part: KeyPart) -> bytearray:
    out = bytearray()
    if part is None:
        out.append(_TAG_NONE)
    elif part is True:
        out.append(_TAG_TRUE)
    elif part is False:
        out.append(_TAG_FALSE)
    elif isinstance(part, int):
        _encode_int(out, part)
    elif isinstance(part, float):
        _encode_float(out, part)
    elif isinstance(part, str):
        out.append(_TAG_STR)
        _encode_escaped(out, part.encode("utf-8"))
    elif isinstance(part, bytes):
        out.append(_TAG_BYTES)
        _encode_escaped(out, part)
    else:
        raise KeyEncodingError(f"unsupported key element type: {type(part)!r}")
    return out


def decode_key(buf: bytes) -> Key:
    """Decode a byte string produced by :func:`encode_key`."""
    parts: list[KeyPart] = []
    pos = 0
    n = len(buf)
    while pos < n:
        tag = buf[pos]
        pos += 1
        if tag == _TAG_NONE:
            parts.append(None)
        elif tag == _TAG_FALSE:
            parts.append(False)
        elif tag == _TAG_TRUE:
            parts.append(True)
        elif tag == _TAG_INT_ZERO:
            parts.append(0)
        elif _TAG_INT_ZERO - _MAX_INT_BYTES <= tag < _TAG_INT_ZERO:
            length = _TAG_INT_ZERO - tag
            if pos + length > n:
                raise KeyEncodingError("truncated negative integer")
            complement = int.from_bytes(buf[pos : pos + length], "big")
            magnitude = (1 << (8 * length)) - 1 - complement
            parts.append(-magnitude)
            pos += length
        elif _TAG_INT_ZERO < tag <= _TAG_INT_ZERO + _MAX_INT_BYTES:
            length = tag - _TAG_INT_ZERO
            if pos + length > n:
                raise KeyEncodingError("truncated positive integer")
            parts.append(int.from_bytes(buf[pos : pos + length], "big"))
            pos += length
        elif tag == _TAG_FLOAT:
            if pos + 8 > n:
                raise KeyEncodingError("truncated float")
            raw = int.from_bytes(buf[pos : pos + 8], "big")
            if raw & (1 << 63):
                raw ^= 1 << 63
            else:
                raw ^= (1 << 64) - 1
            parts.append(struct.unpack(">d", raw.to_bytes(8, "big"))[0])
            pos += 8
        elif tag == _TAG_STR:
            data, pos = _decode_escaped(buf, pos)
            parts.append(data.decode("utf-8"))
        elif tag == _TAG_BYTES:
            data, pos = _decode_escaped(buf, pos)
            parts.append(data)
        else:
            raise KeyEncodingError(f"unknown key tag {tag:#x} at offset {pos - 1}")
    return tuple(parts)


# --- value encoding --------------------------------------------------------

_V_NONE = 0xC0
_V_FALSE = 0xC2
_V_TRUE = 0xC3
_V_INT = 0xD0  # struct >q
_V_BIGINT = 0xD1  # length-prefixed signed big int
_V_FLOAT = 0xCB  # struct >d
_V_STR = 0xD9  # u32 length + utf-8
_V_BYTES = 0xC4  # u32 length + raw
_V_LIST = 0xDD  # u32 count + items
_V_TUPLE = 0xDE  # u32 count + items
_V_DICT = 0xDF  # u32 count + alternating key/value items
# Packed maps: u32 count + u32 key-blob length + keys joined by NUL (utf-8)
# + count big-endian 8-byte values (the counter tag: count float64 sums, then
# count int64 counts).  Only dicts of exact-``str`` keys (none holding a NUL)
# and exact-``int`` / exact-``float`` / exact ``[float, int]`` list values
# qualify, so a round trip preserves every type.
_V_MAP_STR_I64 = 0xE0
_V_MAP_STR_F64 = 0xE1
_V_MAP_STR_COUNTER = 0xE2
_PACKED_FORMATS = {_V_MAP_STR_I64: "q", _V_MAP_STR_F64: "d"}
_PACKED_TAGS = {int: _V_MAP_STR_I64, float: _V_MAP_STR_F64}
_KEY_JOIN = "\x00"
_V_SMALL_INT_BASE = 0x00  # 0x00..0x7f encode 0..127 inline

_U32 = struct.Struct(">I")
_SEQ_HEAD = struct.Struct(">BI")  # list / tuple / bytes tag + u32 count or length
_STR_PAIR_HEAD = struct.Struct(">BIBI")  # tuple of 2, then a str's tag and length
_STR_PAIR_PREFIX = _STR_PAIR_HEAD.pack(_V_TUPLE, 2, _V_STR, 0)[:6]
_ONE_CHUNK_HEAD = struct.Struct(">BIBI")  # list of 1, then a bytes item's tag and length
_FLOAT_ITEM = struct.Struct(">Bd")
_U32_PAIR = struct.Struct(">II")
_MAP_HEAD = struct.Struct(">BII")  # packed-map tag, count, key-blob length
_ONLY_STR, _ONLY_FLOAT, _ONLY_INT, _ONLY_TWO = {str}, {float}, {int}, {2}
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class ValueEncodingError(ValueError):
    """Raised when a value cannot be encoded or a buffer is malformed."""


def _encode_value_into(out: bytearray, obj: Any) -> None:
    kind = type(obj)
    if kind is list or kind is tuple:  # first: every Seq and Index value
        _encode_items_into(out, obj, _V_LIST if kind is list else _V_TUPLE)
    elif obj is None:
        out.append(_V_NONE)
    elif obj is True:
        out.append(_V_TRUE)
    elif obj is False:
        out.append(_V_FALSE)
    elif isinstance(obj, int):
        if 0 <= obj <= 127:
            out.append(_V_SMALL_INT_BASE + obj)
        elif _I64_MIN <= obj <= _I64_MAX:
            out.append(_V_INT)
            out.extend(_I64.pack(obj))
        else:
            raw = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
            out.append(_V_BIGINT)
            out.extend(_U32.pack(len(raw)))
            out.extend(raw)
    elif isinstance(obj, float):
        out.append(_V_FLOAT)
        out.extend(_F64.pack(obj))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(_V_STR)
        out.extend(_U32.pack(len(raw)))
        out.extend(raw)
    elif isinstance(obj, (bytes, bytearray)):
        out.append(_V_BYTES)
        out.extend(_U32.pack(len(obj)))
        out.extend(obj)
    elif isinstance(obj, (list, tuple)):
        _encode_items_into(out, obj, _V_LIST if isinstance(obj, list) else _V_TUPLE)
    elif isinstance(obj, dict):
        if obj and _encode_packed_map_into(out, obj):
            return
        out.append(_V_DICT)
        out.extend(_U32.pack(len(obj)))
        for key, value in obj.items():
            _encode_value_into(out, key)
            _encode_value_into(out, value)
    else:
        raise ValueEncodingError(f"unsupported value type: {type(obj)!r}")


def _encode_items_into(out: bytearray, obj: list | tuple, tag: int) -> None:
    out.extend(_SEQ_HEAD.pack(tag, len(obj)))
    for item in obj:
        # The two item shapes of the list tables, written inline: a chunk
        # (Index, Seq) and a plain ``(activity, ts)`` Seq item.
        kind = type(item)
        if kind is bytes:
            out += _SEQ_HEAD.pack(_V_BYTES, len(item))
            out += item
        elif kind is tuple and len(item) == 2 and type(item[0]) is str:
            raw = item[0].encode("utf-8")
            out += _STR_PAIR_HEAD.pack(_V_TUPLE, 2, _V_STR, len(raw))
            out += raw
            if type(item[1]) is float:
                out += _FLOAT_ITEM.pack(_V_FLOAT, item[1])
            else:
                _encode_value_into(out, item[1])
        else:
            _encode_value_into(out, item)


def _encode_packed_map_into(out: bytearray, obj: dict) -> bool:
    """Append ``obj`` under a packed tag; ``False`` when it does not qualify."""
    value_types = set(map(type, obj.values()))
    if len(value_types) != 1 or set(map(type, obj)) != _ONLY_STR:
        return False
    value_type = value_types.pop()
    if value_type is list:
        tag = _V_MAP_STR_COUNTER
        values = _counter_columns(obj.values())
        if values is None:
            return False
    else:
        tag = _PACKED_TAGS.get(value_type)
        if tag is None:
            return False
        values = obj.values()
    try:
        packed = _packed_values(tag, len(obj)).pack(*values)
    except struct.error:
        return False  # an int outside int64
    joined = _KEY_JOIN.join(obj)
    if joined.count(_KEY_JOIN) != len(obj) - 1:
        return False  # a key holds the join character
    keys = joined.encode("utf-8")
    out += _MAP_HEAD.pack(tag, len(obj), len(keys))
    out += keys
    out += packed
    return True


def _counter_columns(slots: Iterable[list]) -> tuple | None:
    """``[float, int]`` lists as every sum then every count; ``None`` when
    a slot is not exactly that (the caller then keeps the generic layout)."""
    if set(map(len, slots)) != _ONLY_TWO:
        return None
    sums, counts = zip(*slots)
    if set(map(type, sums)) != _ONLY_FLOAT or set(map(type, counts)) != _ONLY_INT:
        return None
    return sums + counts


@lru_cache(maxsize=1024)
def _packed_values(tag: int, count: int) -> struct.Struct:
    """The packer of the ``count`` values of a packed map of ``tag``."""
    if tag == _V_MAP_STR_COUNTER:
        return struct.Struct(f">{count}d{count}q")
    return struct.Struct(f">{count}{_PACKED_FORMATS[tag]}")


def encode_value(obj: Any) -> bytes:
    """Serialize a Python value into the store's binary format."""
    if type(obj) is list and len(obj) == 1 and type(obj[0]) is bytes:
        chunk = obj[0]  # a one-chunk merge delta: every Index write
        return _ONE_CHUNK_HEAD.pack(_V_LIST, 1, _V_BYTES, len(chunk)) + chunk
    out = bytearray()
    _encode_value_into(out, obj)
    return bytes(out)


def concat_encoded_lists(parts: list[bytes]) -> bytes | None:
    """Splice encoded lists/tuples into one encoded list, items untouched.

    Equal to ``encode_value`` of the concatenated decoded sequences, at the
    cost of a header rewrite and a ``bytes.join``.  Returns ``None`` when a
    part is not a list or tuple, so the caller can fall back to decoding.
    """
    total = 0
    for part in parts:
        if len(part) < 5 or part[0] not in (_V_LIST, _V_TUPLE):
            return None
        total += _U32.unpack_from(part, 1)[0]
    if len(parts) == 1 and parts[0][0] == _V_LIST:
        return parts[0]
    header = bytes((_V_LIST,)) + _U32.pack(total)
    return b"".join([header, *(memoryview(part)[5:] for part in parts)])


def _decode_value_from(buf: bytes, pos: int) -> tuple[Any, int]:
    tag = buf[pos]  # IndexError past the end: decode_value types it
    pos += 1
    if tag == _V_LIST or tag == _V_TUPLE:  # first: every Seq and Index row
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        items: list[Any] = []
        append = items.append
        for _ in range(count):
            # The encoder's two inline shapes are read inline too, with a
            # float or int64 ``ts``; a short buffer raises IndexError /
            # struct.error, which decode_value turns into ValueEncodingError.
            if buf[pos] == _V_BYTES:
                start = pos + 5
                pos = start + _U32.unpack_from(buf, pos + 1)[0]
                append(buf[start:pos])
            elif buf.startswith(_STR_PAIR_PREFIX, pos):
                start = pos + 10
                pos = start + _U32.unpack_from(buf, pos + 6)[0]
                activity = buf[start:pos].decode("utf-8")
                ts_tag = buf[pos]
                if ts_tag == _V_FLOAT:
                    ts = _F64.unpack_from(buf, pos + 1)[0]
                    pos += 9
                elif ts_tag <= 0x7F:
                    ts = ts_tag
                    pos += 1
                elif ts_tag == _V_INT:
                    ts = _I64.unpack_from(buf, pos + 1)[0]
                    pos += 9
                else:
                    ts, pos = _decode_value_from(buf, pos)
                append((activity, ts))
            else:
                item, pos = _decode_value_from(buf, pos)
                append(item)
        return (tuple(items) if tag == _V_TUPLE else items), pos
    if tag <= 0x7F:
        return tag, pos
    if tag == _V_NONE:
        return None, pos
    if tag == _V_TRUE:
        return True, pos
    if tag == _V_FALSE:
        return False, pos
    if tag == _V_INT:
        return _I64.unpack_from(buf, pos)[0], pos + 8
    if tag == _V_BIGINT:
        (length,) = _U32.unpack_from(buf, pos)
        pos += 4
        raw = buf[pos : pos + length]
        return int.from_bytes(raw, "big", signed=True), pos + length
    if tag == _V_FLOAT:
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == _V_STR:
        (length,) = _U32.unpack_from(buf, pos)
        pos += 4
        return buf[pos : pos + length].decode("utf-8"), pos + length
    if tag == _V_BYTES:
        (length,) = _U32.unpack_from(buf, pos)
        pos += 4
        return buf[pos : pos + length], pos + length
    if tag == _V_DICT:
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        result: dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _decode_value_from(buf, pos)
            value, pos = _decode_value_from(buf, pos)
            result[key] = value
        return result, pos
    if tag in _PACKED_FORMATS or tag == _V_MAP_STR_COUNTER:
        return _decode_packed_map(buf, pos, tag)
    raise ValueEncodingError(f"unknown value tag {tag:#x}")


def _decode_packed_map(buf: bytes, pos: int, tag: int) -> tuple[dict, int]:
    """Strict decode of a packed map body starting at ``pos``."""
    if pos + 8 > len(buf):
        raise ValueEncodingError("truncated packed map header")
    count, keys_len = _U32_PAIR.unpack_from(buf, pos)
    values_at = pos + 8 + keys_len
    end = values_at + (16 if tag == _V_MAP_STR_COUNTER else 8) * count
    if end > len(buf):
        raise ValueEncodingError("truncated packed map")
    try:
        keys = str(buf[pos + 8 : values_at], "utf-8").split(_KEY_JOIN)
    except UnicodeDecodeError as exc:
        raise ValueEncodingError(f"packed map keys are not utf-8: {exc}") from None
    if tag == _V_MAP_STR_COUNTER:
        sums = struct.unpack_from(f">{count}d", buf, values_at)
        counts = struct.unpack_from(f">{count}q", buf, values_at + 8 * count)
        values: Iterable = map(list, zip(sums, counts))
    else:
        values = struct.unpack_from(f">{count}{_PACKED_FORMATS[tag]}", buf, values_at)
    result = dict(zip(keys, values))
    if len(keys) != count or len(result) != count:
        raise ValueEncodingError(
            f"packed map declares {count} entries but holds {len(keys)} keys "
            f"({len(result)} distinct)"
        )
    return result, end


def decode_value(buf: bytes) -> Any:
    """Deserialize bytes produced by :func:`encode_value`.

    Strict: a truncated, overlong or otherwise malformed buffer raises
    :class:`ValueEncodingError`, never ``struct.error`` or ``IndexError``.
    """
    if type(buf) is not bytes:
        buf = bytes(buf)  # so that every slice of it is ``bytes``
    try:
        obj, pos = _decode_value_from(buf, 0)
    except (struct.error, IndexError) as exc:
        raise ValueEncodingError(f"truncated value buffer: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueEncodingError(f"str item is not utf-8: {exc}") from None
    if pos > len(buf):
        raise ValueEncodingError(f"value runs {pos - len(buf)} bytes past the buffer")
    if pos != len(buf):
        raise ValueEncodingError(f"{len(buf) - pos} trailing bytes after value")
    return obj
