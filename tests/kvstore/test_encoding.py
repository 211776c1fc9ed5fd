"""Key/value codec tests: roundtrips and the order-preservation contract."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kvstore.encoding import (
    _V_DICT,
    _V_MAP_STR_COUNTER,
    _V_MAP_STR_F64,
    _V_MAP_STR_I64,
    KeyEncodingError,
    ValueEncodingError,
    concat_encoded_lists,
    decode_key,
    decode_value,
    encode_key,
    encode_value,
)

# -- strategies ----------------------------------------------------------------

key_part = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=30),
    st.binary(max_size=30),
)
keys = st.tuples() | st.lists(key_part, max_size=5).map(tuple)

value_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**100), max_value=2**100),
    st.floats(allow_nan=False),
    st.text(max_size=50),
    st.binary(max_size=50),
)
values = st.recursive(
    value_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=20,
)


# -- key codec -----------------------------------------------------------------


class TestKeyRoundtrip:
    @given(keys)
    def test_roundtrip(self, key):
        assert decode_key(encode_key(key)) == key

    def test_explicit_examples(self):
        samples = [
            (),
            (0,),
            (-1,),
            (2**63 - 1,),
            (-(2**63),),
            ("",),
            ("a\x00b",),
            (b"\x00\xff",),
            (None, True, False),
            (1.5, -2.5, 0.0),
            ("trace", 42, 3.25),
        ]
        for key in samples:
            assert decode_key(encode_key(key)) == key

    def test_rejects_unsupported_type(self):
        with pytest.raises(KeyEncodingError):
            encode_key(([1, 2],))

    def test_rejects_oversized_int(self):
        with pytest.raises(KeyEncodingError):
            encode_key((2**70,))


class _OrderKey:
    """Total order over heterogeneous key parts matching the codec's design."""

    _RANK = {type(None): 0, bool: 1, int: 2, float: 3, str: 4, bytes: 5}

    def __init__(self, part):
        self.part = part

    def _rank(self):
        if self.part is None:
            return 0
        if isinstance(self.part, bool):
            return 1
        if isinstance(self.part, int):
            return 2
        if isinstance(self.part, float):
            return 3
        if isinstance(self.part, str):
            return 4
        return 5

    def __lt__(self, other):
        a, b = self._rank(), other._rank()
        if a != b:
            return a < b
        if self.part is None:
            return False
        return self.part < other.part


class TestKeyOrdering:
    @given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=2, max_size=50))
    def test_int_order(self, ints):
        encoded = [encode_key((i,)) for i in sorted(ints)]
        assert encoded == sorted(encoded)

    @given(st.lists(st.text(max_size=20), min_size=2, max_size=50))
    def test_str_order(self, strings):
        encoded = [encode_key((s,)) for s in sorted(strings)]
        assert encoded == sorted(encoded)

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=50,
        )
    )
    def test_float_order(self, floats):
        encoded = [encode_key((f,)) for f in sorted(floats)]
        assert encoded == sorted(encoded)

    @given(st.lists(st.binary(max_size=20), min_size=2, max_size=50))
    def test_bytes_order(self, blobs):
        encoded = [encode_key((b,)) for b in sorted(blobs)]
        assert encoded == sorted(encoded)

    @given(st.text(max_size=15), st.text(max_size=15), st.text(max_size=15))
    def test_tuple_prefix_composability(self, a, b, c):
        """encode(x + y) == encode(x) + encode(y): prefix scans rely on it."""
        assert encode_key((a, b, c)) == encode_key((a,)) + encode_key((b, c))

    def test_prefix_sorts_before_extension(self):
        assert encode_key(("ab",)) < encode_key(("ab", "c"))
        assert encode_key(("ab",)) < encode_key(("abc",))


class TestKeyDecodingErrors:
    def test_truncated_int(self):
        buf = encode_key((1000,))[:-1]
        with pytest.raises(KeyEncodingError):
            decode_key(buf)

    def test_unknown_tag(self):
        with pytest.raises(KeyEncodingError):
            decode_key(b"\xfe")

    def test_unterminated_string(self):
        with pytest.raises(KeyEncodingError):
            decode_key(bytes([0x30]) + b"abc")


# -- value codec -------------------------------------------------------------------


class TestValueRoundtrip:
    @given(values)
    def test_roundtrip(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert type(decoded) is type(value) or isinstance(value, bytearray)

    def test_tuple_list_distinction(self):
        assert decode_value(encode_value((1, 2))) == (1, 2)
        assert decode_value(encode_value([1, 2])) == [1, 2]
        assert isinstance(decode_value(encode_value((1, 2))), tuple)
        assert isinstance(decode_value(encode_value([1, 2])), list)

    def test_big_integers(self):
        for value in (2**64, -(2**64), 10**30, -(10**30)):
            assert decode_value(encode_value(value)) == value

    def test_nested_structures(self):
        value = {"idx": [("t1", 1, 2), ("t2", 3, 4)], "meta": {"n": 2}}
        assert decode_value(encode_value(value)) == value

    def test_nan_roundtrip(self):
        decoded = decode_value(encode_value(float("nan")))
        assert math.isnan(decoded)

    def test_rejects_unsupported(self):
        with pytest.raises(ValueEncodingError):
            encode_value(object())

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueEncodingError):
            decode_value(encode_value(1) + b"\x00")

    def test_truncated_rejected(self):
        buf = encode_value("hello world")
        with pytest.raises((ValueEncodingError, UnicodeDecodeError, Exception)):
            decode_value(buf[:-3])


# -- packed maps ---------------------------------------------------------------

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)  # NaN, inf, -0.0
# st.text() draws from all of Unicode but surrogates, so non-BMP keys occur.
PACKABLE_KEYS = st.text(
    alphabet=st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
    max_size=12,
)
packed_int_maps = st.dictionaries(PACKABLE_KEYS, INT64, min_size=1, max_size=8)
packed_float_maps = st.dictionaries(PACKABLE_KEYS, ANY_FLOAT, min_size=1, max_size=8)
#: Count / ReverseCount rows: {ev_b: [sum_duration, completions]}
packed_counter_maps = st.dictionaries(
    PACKABLE_KEYS, st.tuples(ANY_FLOAT, INT64).map(list), min_size=1, max_size=8
)


def _with(base: dict, key, value) -> dict:
    out = dict(base)
    out[key] = value
    return out


unpacked_maps = st.one_of(
    st.just({}),
    st.dictionaries(PACKABLE_KEYS, st.booleans(), min_size=1, max_size=4),
    st.builds(  # an int outside int64 among int64 ones
        _with,
        packed_int_maps,
        PACKABLE_KEYS,
        st.one_of(st.integers(min_value=2**63), st.integers(max_value=-(2**63) - 1)),
    ),
    st.builds(  # a bool among ints
        _with, packed_int_maps, PACKABLE_KEYS, st.booleans()
    ),
    st.builds(  # mixed int / float: the float goes under a key not yet there
        lambda ints, x: _with(ints, max(ints, key=len) + "~", x),
        packed_int_maps,
        ANY_FLOAT,
    ),
    st.builds(  # a key that is not a str
        _with,
        packed_int_maps,
        st.one_of(st.integers(), st.binary(max_size=4), st.none(), st.booleans()),
        INT64,
    ),
    st.builds(  # a key holding the join byte
        lambda ints, head, tail, x: _with(ints, head + "\x00" + tail, x),
        packed_int_maps,
        PACKABLE_KEYS,
        PACKABLE_KEYS,
        INT64,
    ),
    st.builds(  # a counter slot that is not exactly [float, int64]
        _with,
        packed_counter_maps,
        PACKABLE_KEYS,
        st.one_of(
            st.tuples(INT64, INT64).map(list),
            st.tuples(ANY_FLOAT, st.booleans()).map(list),
            st.tuples(ANY_FLOAT, st.integers(min_value=2**63)).map(list),
            st.tuples(ANY_FLOAT, INT64),
            st.tuples(ANY_FLOAT, INT64, INT64).map(list),
            st.lists(ANY_FLOAT, max_size=1),
        ),
    ),
)


def _exact(a, b) -> bool:
    """Equality that also compares types, key order, NaN payloads and -0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack(">d", a) == struct.pack(">d", b)
    if isinstance(a, dict):
        return (
            len(a) == len(b)
            and all(_exact(ka, kb) for ka, kb in zip(a, b))
            and all(_exact(va, vb) for va, vb in zip(a.values(), b.values()))
        )
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_exact(x, y) for x, y in zip(a, b))
    return a == b


class TestPackedMaps:
    @given(packed_int_maps)
    def test_int_maps_take_the_packed_tag(self, mapping):
        buf = encode_value(mapping)
        assert buf[0] == _V_MAP_STR_I64
        assert _exact(decode_value(buf), mapping)

    @given(packed_float_maps)
    def test_float_maps_take_the_packed_tag(self, mapping):
        buf = encode_value(mapping)
        assert buf[0] == _V_MAP_STR_F64
        assert _exact(decode_value(buf), mapping)

    @given(packed_counter_maps)
    def test_counter_maps_take_the_packed_tag(self, mapping):
        buf = encode_value(mapping)
        assert buf[0] == _V_MAP_STR_COUNTER
        assert _exact(decode_value(buf), mapping)  # lists of a float and an int

    def test_counter_rows_are_smaller_than_generic(self):
        row = {f"act_{n:03d}": [1234.5 * n, 3 * n + 200] for n in range(40)}
        # tuple slots keep the generic layout, which is as long as for lists
        generic = encode_value({key: tuple(slot) for key, slot in row.items()})
        assert generic[0] == _V_DICT
        # header, 7-character keys joined by NUL, then two 8-byte columns
        packed = 9 + len(row) * 8 - 1 + 16 * len(row)
        assert len(encode_value(row)) == packed < len(generic)

    @given(unpacked_maps)
    def test_other_maps_keep_the_generic_tag(self, mapping):
        buf = encode_value(mapping)
        assert buf[0] == _V_DICT
        assert _exact(decode_value(buf), mapping)

    @given(
        st.lists(
            st.one_of(packed_int_maps, packed_float_maps, packed_counter_maps, unpacked_maps),
            max_size=3,
        )
    )
    def test_nested_maps_round_trip_exactly(self, maps):
        value = {"outer": maps, "tuple": tuple(maps)}
        assert _exact(decode_value(encode_value(value)), value)

    def test_explicit_edge_values(self):
        for mapping in (
            {"": 0},
            {"\U0001f600": -(2**63), "b": 2**63 - 1},
            {"nan": math.nan, "neg0": -0.0, "inf": -math.inf},
        ):
            assert _exact(decode_value(encode_value(mapping)), mapping)

    def test_packed_is_not_larger_for_timestamp_maps(self):
        # what LastChecked holds: trace ids -> timestamps past the inline range
        mapping = {f"trace_{n}": 1_600_000_000 + n for n in range(50)}
        generic = 5 + sum(5 + len(k) + 9 for k in mapping)
        assert len(encode_value(mapping)) < generic


class TestPackedMapStrictDecode:
    @given(st.one_of(packed_int_maps, packed_float_maps, packed_counter_maps), st.data())
    def test_truncated_or_overlong_is_a_typed_error(self, mapping, data):
        buf = encode_value(mapping)
        cut = data.draw(st.integers(min_value=1, max_value=len(buf) - 1))
        with pytest.raises(ValueEncodingError):
            decode_value(buf[:cut])
        with pytest.raises(ValueEncodingError):
            decode_value(buf + data.draw(st.binary(min_size=1, max_size=9)))

    @given(
        st.one_of(packed_int_maps, packed_float_maps, packed_counter_maps),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
    )
    def test_any_other_header_is_a_typed_error(self, mapping, count, keys_len):
        buf = encode_value(mapping)
        header = struct.pack(">II", count, keys_len)
        if header == buf[1:9]:
            return
        with pytest.raises(ValueEncodingError):
            decode_value(buf[:1] + header + buf[9:])

    @given(
        st.sampled_from([_V_MAP_STR_I64, _V_MAP_STR_F64, _V_MAP_STR_COUNTER]),
        st.binary(max_size=64),
    )
    def test_arbitrary_bodies_never_escape_as_untyped_errors(self, tag, body):
        try:
            decoded = decode_value(bytes([tag]) + body)
        except ValueEncodingError:
            return
        assert isinstance(decoded, dict) and decoded

    def test_duplicate_keys_rejected(self):
        body = struct.pack(">II", 2, 3) + b"a\x00a" + struct.pack(">2q", 1, 2)
        with pytest.raises(ValueEncodingError):
            decode_value(bytes([_V_MAP_STR_I64]) + body)

    def test_invalid_utf8_keys_rejected(self):
        body = struct.pack(">II", 1, 2) + b"\xff\xfe" + struct.pack(">q", 1)
        with pytest.raises(ValueEncodingError):
            decode_value(bytes([_V_MAP_STR_I64]) + body)

    def test_empty_packed_map_is_never_written_and_rejected(self):
        with pytest.raises(ValueEncodingError):
            decode_value(bytes([_V_MAP_STR_I64]) + struct.pack(">II", 0, 0))


class TestConcatEncodedLists:
    sequences = st.lists(
        st.one_of(st.lists(values, max_size=4), st.lists(values, max_size=4).map(tuple)),
        min_size=1,
        max_size=5,
    )

    @given(sequences)
    def test_equals_encoding_the_concatenation(self, parts):
        flat = [item for part in parts for item in part]
        spliced = concat_encoded_lists([encode_value(part) for part in parts])
        assert spliced == encode_value(flat)

    @given(sequences, st.one_of(value_scalars, st.dictionaries(st.text(max_size=3), value_scalars)))
    def test_a_part_that_is_no_sequence_declines(self, parts, odd):
        encoded = [encode_value(part) for part in parts] + [encode_value(odd)]
        assert concat_encoded_lists(encoded) is None
