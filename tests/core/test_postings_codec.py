"""Columnar chunk codec: exact round-trips, strict decode, and the retired
Index layouts, which ``repro upgrade`` alone reads and rewrites."""

from __future__ import annotations

import math
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import CorruptPostingsError
from repro.core.postings import (
    KIND_FLOAT,
    KIND_INT,
    KIND_INTFLOAT,
    TAG_NUMBERED,
    TAG_RAW,
    TAG_SEQUENCE,
    Postings,
    decode_sequence,
    encode_numbered_postings,
    encode_sequence,
    item_formats,
)
from repro.core.tables import TRACE_NUMBER, IndexTables
from repro.kvstore import LSMStore
from repro.kvstore.encoding import encode_value
from repro.upgrade import (
    TAG_POSTINGS,
    UpgradeReport,
    _rewritten_row,
    decode_postings,
    encode_postings,
)

from .legacy_codec import encode_varint_postings

# ids: mostly plain text, sometimes holding the dictionary terminator
_ids = st.one_of(st.text(max_size=8), st.sampled_from(["", "a\x00b", "\x00"]))
_small_ids = st.sampled_from(["t0", "t1", "t2", "trace-é", ""])
_int_ts = st.one_of(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=-(2**80), max_value=2**80),
)
_integral_float_ts = st.integers(min_value=-(2**53), max_value=2**53).map(float)
_raw_float_ts = st.floats(allow_nan=False)  # NaN breaks ==; tested by hand below
_non_str_ids = st.one_of(st.integers(), st.none(), st.binary(max_size=3))


def _rows(id_strategy, ts_strategy, min_size=1):
    return st.lists(
        st.tuples(id_strategy, ts_strategy, ts_strategy), min_size=min_size, max_size=40
    )


def _events(id_strategy, ts_strategy):
    return st.lists(st.tuples(id_strategy, ts_strategy), min_size=1, max_size=40)


_any_rows = st.one_of(
    _rows(_ids, _int_ts),
    _rows(_small_ids, _int_ts),
    _rows(_small_ids, _integral_float_ts),
    _rows(_small_ids, _raw_float_ts),
    _rows(_small_ids, st.one_of(_int_ts, _raw_float_ts, st.booleans())),
    _rows(_non_str_ids, _int_ts),
)
_any_events = st.one_of(
    _events(_ids, _int_ts),
    _events(_small_ids, _int_ts),
    _events(_small_ids, _integral_float_ts),
    _events(_small_ids, _raw_float_ts),
    _events(_small_ids, st.one_of(_int_ts, _raw_float_ts, st.booleans())),
    _events(_non_str_ids, _int_ts),
)


def _typed(value):
    """``value`` with every scalar paired with its type: 1 != 1.0 != True."""
    if isinstance(value, (list, tuple)):
        return [_typed(item) for item in value]
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    return (type(value), value)


def _grouped(rows):
    grouped: dict = {}
    for trace_id, ts_a, ts_b in rows:
        grouped.setdefault(trace_id, []).append((ts_a, ts_b))
    for completions in grouped.values():
        completions.sort()
    return grouped


def _kind(chunk: bytes) -> int:
    return chunk[1] >> 6


class TestPostingsRoundTrip:
    @given(_any_rows)
    @settings(max_examples=300, deadline=None)
    def test_any_rows_round_trip_type_exact(self, rows):
        chunk = encode_postings(rows)
        assert _typed(decode_postings(chunk)) == _typed(_grouped(rows))
        if chunk[0] == TAG_RAW:  # the one of the two layouts still written
            postings = Postings([chunk])
            assert postings.entries == len(rows)
            assert postings.trace_ids() == {row[0] for row in rows}

    @given(_rows(_small_ids, st.integers(0, 200), min_size=2), st.sets(_small_ids))
    @settings(max_examples=100, deadline=None)
    def test_restricted_columns_are_the_chunks_mentioning_a_wanted_trace(
        self, rows, restrict
    ):
        half = len(rows) // 2
        batches = [rows[:half], rows[half:]]  # two NUMBERED chunks
        names = sorted({row[0] for row in rows})
        postings = Postings(
            [
                encode_numbered_postings(
                    [names.index(row[0]) for row in batch],
                    [row[1] for row in batch],
                    [row[2] for row in batch],
                )
                for batch in batches
            ],
            names,
        )
        assert [list(zip(*triple)) for triple in postings.columns()] == batches
        assert [list(zip(*triple)) for triple in postings.columns(restrict)] == [
            batch for batch in batches if restrict & {row[0] for row in batch}
        ]

    def test_empty_batch_is_a_raw_chunk(self):
        chunk = encode_postings([])
        assert chunk[0] == TAG_RAW
        assert decode_postings(chunk) == {}

    def test_int64_boundaries(self):
        big = 2**63 - 1
        rows = [("t", big, big), ("t", 0, big), ("u", -(2**63), 0)]
        chunk = encode_postings(rows)
        assert chunk[0] == TAG_RAW  # the offsets leave 64 bits
        assert decode_postings(chunk) == _grouped(rows)
        narrow = [("t", big - 5, big), ("u", big - 200, big - 100)]
        chunk = encode_postings(narrow)
        assert chunk[0] == TAG_POSTINGS
        assert decode_postings(chunk) == _grouped(narrow)

    def test_negative_durations_and_unsorted_rows(self):
        rows = [("t", 100, 90), ("t", 5, 500), ("u", -7, -7), ("t", 80, 0)]
        chunk = encode_postings(rows)
        assert chunk[0] == TAG_POSTINGS
        assert decode_postings(chunk) == _grouped(rows)

    def test_non_finite_floats_use_raw_doubles(self):
        rows = [("t", math.inf, -math.inf), ("t", 0.5, math.inf)]
        chunk = encode_postings(rows)
        assert chunk[0] == TAG_POSTINGS and _kind(chunk) == KIND_FLOAT
        assert decode_postings(chunk) == _grouped(rows)

    def test_nan_round_trips(self):
        ((ts_a, ts_b),) = decode_postings(encode_postings([("t", math.nan, 1.0)]))["t"]
        assert math.isnan(ts_a) and ts_b == 1.0


class TestFormatSelection:
    def test_all_int_picks_int(self):
        chunk = encode_postings([("t", 1, 2)])
        assert chunk[0] == TAG_POSTINGS and _kind(chunk) == KIND_INT

    def test_integral_floats_pick_intfloat_and_stay_float(self):
        chunk = encode_postings([("t", 1.0, 2.0)])
        assert _kind(chunk) == KIND_INTFLOAT
        ((ts_a, ts_b),) = decode_postings(chunk)["t"]
        assert type(ts_a) is float and type(ts_b) is float

    def test_large_floats_use_raw_doubles(self):
        # 2**60 is integral but past 2**53: it must not round through int
        value = float(2**60)
        chunk = encode_postings([("t", value, value)])
        assert _kind(chunk) == KIND_FLOAT
        assert decode_postings(chunk) == {"t": [(value, value)]}

    @pytest.mark.parametrize(
        "rows",
        [
            [("t", True, 1)],  # bool is an int subclass; never coerced
            [("t", 1, 2.0)],  # mixed int/float
            [(42, 1, 2)],  # non-str id
            [("a\x00b", 1, 2)],  # id holding the terminator
            [("t", 1, 2, 3)],  # not a 3-tuple
            [("t", 1, 2), ("t", 1)],  # ragged
        ],
    )
    def test_rows_outside_the_layout_fall_back_to_raw(self, rows):
        chunk = encode_postings(rows)
        assert chunk[0] == TAG_RAW
        assert chunk[1:] == encode_value([list(row) for row in rows])

    def test_distinct_ids_drop_the_index_column(self):
        distinct = encode_postings([(f"t{i}", i, i + 1) for i in range(20)])
        repeated = encode_postings([(f"t{i % 19}", i, i + 1) for i in range(20)])
        assert distinct[1] & 3 == 0 and repeated[1] & 3 == 1
        assert len(repeated) - len(distinct) == 20 - len("\x00t19")

    def test_narrowest_widths_are_chosen(self):
        chunk = encode_postings([("a", 1000, 1001), ("b", 1255, 1382)])
        assert chunk[1] == 0  # identity, u8 offsets from base 1000, i8 durations
        chunk = encode_postings([("a", 1000, 1001), ("b", 1256, 1384)])
        assert chunk[1] >> 2 & 3 == 1 and chunk[1] >> 4 & 3 == 1

    def test_compresses_realistic_postings(self):
        rows = [
            (f"trace-{i % 8}", 1_700_000_000 + i, 1_700_000_000 + i + 3)
            for i in range(500)
        ]
        chunk = encode_postings(rows)
        assert len(chunk) * 4 < len(encode_value([list(row) for row in rows]))


class TestSequenceRoundTrip:
    @given(_any_events)
    @settings(max_examples=300, deadline=None)
    def test_any_events_round_trip_type_exact(self, events):
        items = encode_sequence(events)
        activities, stamps = decode_sequence(items)
        assert _typed(list(zip(activities, stamps))) == _typed(events)

    @given(st.lists(_events(_small_ids, st.integers(0, 10**6)), min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_appended_batches_concatenate(self, batches):
        items = [item for batch in batches for item in encode_sequence(batch)]
        activities, stamps = decode_sequence(items)
        assert list(zip(activities, stamps)) == [e for batch in batches for e in batch]

    def test_single_event_stays_plain(self):
        # a one-row chunk is no smaller and slower both ways (streamed traces)
        assert encode_sequence([("A", 1)]) == [("A", 1)]
        assert len(encode_sequence([("A", 1), ("A", 2)])) == 1

    def test_fitting_batch_is_one_chunk(self):
        (chunk,) = encode_sequence([("A", 1), ("B", 5), ("A", 9)])
        assert chunk[0] == TAG_SEQUENCE and chunk[1] & 3 == 1  # u8 index column
        assert decode_sequence([chunk]) == (["A", "B", "A"], [1, 5, 9])

    @pytest.mark.parametrize(
        "events",
        [[(7, 1)], [("A", True)], [("A", 1), ("B", 2.0)], [("a\x00", 1)], []],
    )
    def test_unfit_batch_stays_plain_items(self, events):
        assert encode_sequence(events) == events
        activities, stamps = decode_sequence(events)
        assert _typed(list(zip(activities, stamps))) == _typed(events)

    def test_plain_items_and_chunks_mix(self):
        items = [["A", 1], ("B", 2)] + encode_sequence([("C", 3.0), ("C", 5.0)]) + [("D", 7)]
        assert type(items[2]) is bytes
        assert decode_sequence(items) == (["A", "B", "C", "C", "D"], [1, 2, 3.0, 5.0, 7])

    def test_postings_chunk_is_not_a_sequence(self):
        with pytest.raises(CorruptPostingsError):
            decode_sequence([encode_postings([("t", 1, 2)])])


def _decoders(chunk):
    if chunk[0] == TAG_SEQUENCE:
        return lambda data: decode_sequence([data])
    return decode_postings


_columnar_chunks = st.one_of(
    st.one_of(
        _rows(_small_ids, st.integers(-300, 70000)),
        _rows(st.text(max_size=4), st.integers(0, 100)),
        _rows(_small_ids, _integral_float_ts),
        _rows(_small_ids, _raw_float_ts),
    ).map(encode_postings),
    st.one_of(
        _events(_small_ids, st.integers(-300, 70000)),
        _events(st.text(max_size=4), st.integers(0, 100)),
        _events(_small_ids, _raw_float_ts),
    ).map(lambda events: encode_sequence(events)[0]),
).filter(lambda chunk: isinstance(chunk, bytes) and chunk[0] != TAG_RAW)


class TestStrictDecode:
    @given(_columnar_chunks)
    @settings(max_examples=150, deadline=None)
    def test_every_truncation_point_raises(self, chunk):
        decode = _decoders(chunk)
        for cut in range(len(chunk)):
            with pytest.raises(CorruptPostingsError):
                decode(chunk[:cut])

    @given(_columnar_chunks, st.binary(min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_trailing_bytes_raise(self, chunk, extra):
        with pytest.raises(CorruptPostingsError):
            _decoders(chunk)(chunk + extra)

    @given(_columnar_chunks, st.integers(0, 7))
    @settings(max_examples=200, deadline=None)
    def test_flipped_packed_byte_never_yields_a_wrong_row(self, chunk, bit):
        decode = _decoders(chunk)
        flipped = chunk[:1] + bytes((chunk[1] ^ 1 << bit,)) + chunk[2:]
        try:
            decoded = decode(flipped)
        except CorruptPostingsError:
            return
        # the one flip that keeps every length: INT <-> INTFLOAT, equal values
        assert bit == 6 and decoded == decode(chunk)

    @given(_columnar_chunks, st.data())
    @settings(max_examples=150, deadline=None)
    def test_index_past_the_dictionary_raises(self, chunk, data):
        if not chunk[1] & 3:
            return  # identity chunks carry no index column
        decode = _decoders(chunk)
        packed, n = chunk[1], chunk[2]
        assert n < 0x80 and packed & 3 == 1  # a one-byte count, a u8 index column
        paired = chunk[0] == TAG_POSTINGS
        if packed >> 6 == KIND_FLOAT:
            row_width = 16 if paired else 8
        else:
            row_width = (1 << (packed >> 2 & 3)) + (1 << (packed >> 4 & 3)) * paired
        index_column = len(chunk) - n * (1 + row_width)
        n_ids = max(chunk[index_column : index_column + n]) + 1
        at = index_column + data.draw(st.integers(0, n - 1))
        bad = data.draw(st.integers(n_ids, 255))
        with pytest.raises(CorruptPostingsError, match="out of range"):
            decode(chunk[:at] + bytes((bad,)) + chunk[at + 1 :])

    def test_identity_chunk_needs_one_id_per_row(self):
        chunk = encode_postings([("a", 1, 2), ("b", 3, 4)])
        assert chunk[1] & 3 == 0 and chunk[5:8] == b"a\x00b"
        with pytest.raises(CorruptPostingsError, match="2 rows .* 1 ids"):
            decode_postings(chunk[:6] + b"x" + chunk[7:])

    def test_dictionary_must_be_utf8(self):
        chunk = encode_postings([("ab", 1, 2)])
        assert chunk[5:7] == b"ab"
        with pytest.raises(CorruptPostingsError, match="dictionary"):
            decode_postings(chunk[:5] + b"\xff\xfe" + chunk[7:])

    def test_unknown_kind_and_stray_width_bits(self):
        chunk = encode_postings([("t", 1, 2)])
        with pytest.raises(CorruptPostingsError, match="kind"):
            decode_postings(chunk[:1] + bytes((chunk[1] | 0xC0,)) + chunk[2:])
        (seq,) = encode_sequence([("A", 1), ("B", 2)])
        with pytest.raises(CorruptPostingsError, match="second column"):
            decode_sequence([seq[:1] + bytes((seq[1] | 0x10,)) + seq[2:]])
        floats = encode_postings([("t", 0.5, 1.5)])
        with pytest.raises(CorruptPostingsError, match="widths"):
            decode_postings(floats[:1] + bytes((floats[1] | 0x04,)) + floats[2:])

    def test_empty_and_unknown_tag(self):
        with pytest.raises(CorruptPostingsError, match="empty"):
            decode_postings(b"")
        with pytest.raises(CorruptPostingsError, match="unknown"):
            decode_postings(b"\x7f\x01")
        with pytest.raises(CorruptPostingsError):
            decode_postings(bytes([TAG_RAW]) + b"\x99garbage")

    @given(st.binary(min_size=1, max_size=64), st.sampled_from([None, 4, 5]))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_raise_only_the_typed_error(self, blob, tag):
        if tag is not None:
            blob = bytes((tag,)) + blob
        for decode in (decode_postings, lambda data: decode_sequence([data])):
            try:
                decode(blob)
            except CorruptPostingsError:
                pass


def _upgraded(value: list) -> tuple[list, list]:
    """``value`` rewritten by the upgrade over a fresh name table, and the
    table."""
    with tempfile.TemporaryDirectory() as path, LSMStore(path) as store:
        store.create_table(TRACE_NUMBER)
        tables = IndexTables(store)
        report = UpgradeReport("test")
        row = _rewritten_row(tables, value, report)
        return row, tables.trace_names(list(range(report.traces_numbered)))


class TestOlderFormats:
    def test_every_format_in_one_value(self):
        value = [
            ["t1", 1, 2],  # legacy tuple entries
            ("t2", 3, 4),
            encode_varint_postings([("t3", 5, 6), ("t1", 7, 8)]),
            encode_varint_postings([("t4", 1.0, 2.0)]),
            encode_varint_postings([("t4", 0.5, math.inf)]),
            encode_postings([(9, 1, 2)]),  # RAW
            encode_postings([("t1", 0, 1), ("t5", 2, 3)]),
        ]
        with pytest.raises(CorruptPostingsError):
            Postings(value)  # the read path knows the current layouts only
        row, names = _upgraded(value)
        assert names == ["t1", "t2", "t3", "t4", "t5"]  # first-mention order
        postings = Postings(row, names)
        assert postings.entries == 9
        assert postings.trace_ids() == {"t1", "t2", "t3", "t4", "t5", 9}
        assert _grouped(postings.rows()) == {
            "t1": [(0, 1), (1, 2), (7, 8)],
            "t2": [(3, 4)],
            "t3": [(5, 6)],
            "t4": [(0.5, math.inf), (1.0, 2.0)],
            "t5": [(2, 3)],
            9: [(1, 2)],
        }
        # one chunk per old item -- the two bare tuples are one -- in place,
        # the RAW chunk's rows last
        tuples = [("t1", 1, 2), ("t2", 3, 4)]
        varint = [("t3", 5, 6), ("t1", 7, 8)]
        dictionary = [("t1", 0, 1), ("t5", 2, 3)]
        for restrict, expected in (
            ({"t5"}, [dictionary]),
            ({"t1"}, [tuples, varint, dictionary]),
            ({"t4"}, [[("t4", 1.0, 2.0)], [("t4", 0.5, math.inf)]]),
            ({9}, [[(9, 1, 2)]]),
            ({"t6"}, []),
        ):
            columns = postings.columns(restrict)
            assert [list(zip(*triple)) for triple in columns] == expected
        assert [name for name, _ in item_formats(row)] == ["columnar"] * 4 + ["raw", "columnar"]
        assert _upgraded(row)[0] is None  # nothing left to rewrite

    @given(_rows(_small_ids, st.one_of(st.integers(-(2**70), 2**70))))
    @settings(max_examples=100, deadline=None)
    def test_varint_chunks_still_decode(self, rows):
        assert decode_postings(encode_varint_postings(rows)) == _grouped(rows)

    def test_varint_truncation_and_overlong_varints_raise(self):
        chunk = encode_varint_postings([("t", 1000000, 2000000)])
        for cut in range(len(chunk)):
            with pytest.raises(CorruptPostingsError):
                decode_postings(chunk[:cut])
        with pytest.raises(CorruptPostingsError, match="trailing"):
            decode_postings(chunk + b"\x00")
        with pytest.raises(CorruptPostingsError, match="overlong"):
            decode_postings(b"\x01" + b"\xff" * 11)

    def test_malformed_legacy_entry_raises(self):
        with pytest.raises(CorruptPostingsError, match="not a chunk"):
            Postings([("t", 1, 2)])
        with pytest.raises(CorruptPostingsError, match="3-tuple"):
            _upgraded([("t", 1)])
        with pytest.raises(CorruptPostingsError, match="pair"):
            decode_sequence([("A", 1, 2)])


class TestNumberedChunks:
    """The Index layout: trace numbers in a fixed-width column."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 300), st.integers(-300, 70000), st.integers(-300, 70000)),
            min_size=1,
            max_size=40,
        ),
        st.integers(0, 2**40),
    )
    @settings(max_examples=150, deadline=None)
    def test_numbers_round_trip_and_map_through_the_names(self, rows, shift):
        rows = [(number + shift, ts_a, ts_b) for number, ts_a, ts_b in rows]
        chunk = encode_numbered_postings(*zip(*rows))
        assert chunk[0] == TAG_NUMBERED
        assert decode_postings(chunk) == _grouped(rows)  # no names: the numbers
        top = max(number for number, _, _ in rows)
        postings = Postings([chunk], _Names(top + 1))
        assert postings.entries == len(rows)
        assert postings.trace_ids() == {f"t{number}" for number, _, _ in rows}
        assert _grouped(postings.rows()) == _grouped(
            [(f"t{number}", ts_a, ts_b) for number, ts_a, ts_b in rows]
        )

    def test_the_column_is_as_narrow_as_the_number_range(self):
        for numbers, code in (([7, 7], 0), ([1000, 1255], 0), ([1000, 1256], 1),
                              ([0, 2**20], 2), ([5, 2**40], 3)):
            chunk = encode_numbered_postings(numbers, [1, 2], [3, 4])
            assert chunk[1] & 3 == code, numbers
        # u8 numbers, a one-byte number base: a row costs its three bytes
        chunk = encode_numbered_postings(list(range(100, 120)), list(range(20)), list(range(20)))
        assert len(chunk) == 2 + 1 + 1 + 1 + 20 * 3

    def test_names_are_the_tables_own_objects(self):
        names = [f"trace-{n}" for n in range(4)]
        postings = Postings([encode_numbered_postings([3, 1, 3], [1, 2, 3], [4, 5, 6])], names)
        (ids, _, _), = postings.columns()
        assert [id(name) for name in ids] == [id(names[3]), id(names[1]), id(names[3])]

    @pytest.mark.parametrize(
        "numbers", [[-1], [True], ["t1"], [1.0], [0, 2**64], [None]]
    )
    def test_only_non_negative_ints_in_64_bits_are_numbers(self, numbers):
        stamps = [1] * len(numbers)
        assert encode_numbered_postings(numbers, stamps, stamps) is None

    def test_timestamps_no_chunk_holds_are_not_numbered(self):
        assert encode_numbered_postings([0], [True], [1]) is None
        assert encode_numbered_postings([0, 1], [1, 2.5], [2, 3]) is None

    def test_a_number_past_the_name_table_raises(self):
        chunk = encode_numbered_postings([4, 2], [1, 2], [3, 4])
        assert Postings([chunk], ["a", "b", "c", "d", "e"]).entries == 2
        with pytest.raises(CorruptPostingsError, match="name table"):
            Postings([chunk], ["a", "b", "c", "d"])
        with pytest.raises(CorruptPostingsError, match="name table"):
            Postings([chunk], [])

    def test_is_a_columnar_format_and_no_sequence(self):
        chunk = encode_numbered_postings([0, 1, 1], [1, 2, 3], [4, 5, 6])
        assert list(item_formats([chunk])) == [("columnar", 3)]
        with pytest.raises(CorruptPostingsError, match="not a sequence"):
            decode_sequence([chunk])


class _Names:
    """A name table of ``size`` numbers, number ``n`` named ``t<n>``."""

    def __init__(self, size: int) -> None:
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, number: int) -> str:
        return f"t{number}"


def test_an_empty_item_is_a_typed_error_everywhere():
    for decode in (
        lambda items: list(item_formats(items)),
        Postings,
        decode_sequence,
    ):
        with pytest.raises(CorruptPostingsError):
            decode([b""])


def test_big_endian_is_not_assumed():
    # columns are little-endian by definition, whatever the host
    chunk = encode_postings([("a", 0, 1), ("b", 0x1234, 0x1235)])
    assert struct.pack("<2H", 0, 0x1234) in chunk
