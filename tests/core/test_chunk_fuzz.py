"""Fuzzed on-disk chunk bytes decode or raise the one typed error.

Every stored list item a decoder can meet -- a chunk of any layout, ``0x00``
RAW to ``0x06`` NUMBERED -- is damaged the ways a disk or a bug damages
bytes: bits flipped, a tail cut off, bytes appended.  Whatever comes out,
``Postings(..., names).columns()``, ``decode_sequence`` and ``item_formats``
either decode it or raise :class:`CorruptPostingsError`; nothing else (an
``IndexError``, a ``struct.error``, a ``TypeError``) may escape.  The name
table handed to ``Postings`` is sometimes shorter than the numbers a
NUMBERED chunk holds.  A retired layout (``0x01``-``0x04``) is, to the read
path, an unknown tag: the same typed error, damaged or not; the upgrade's
``decode_postings``, its one reader, holds the same rule.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import CorruptPostingsError
from repro.core.postings import (
    TAG_SEQUENCE,
    Postings,
    decode_sequence,
    encode_numbered_postings,
    encode_sequence,
    item_formats,
)
from repro.upgrade import TAG_POSTINGS, decode_postings, encode_postings

from .legacy_codec import encode_varint_postings

_ids = st.sampled_from(["t0", "t1", "trace-é", "", "a-much-longer-trace-id"])
_ints = st.one_of(st.integers(-300, 300), st.integers(-(2**62), 2**62))
_floats = st.one_of(st.integers(-1000, 1000).map(float), st.floats(allow_nan=False))


def _triples(ids, stamps):
    return st.lists(st.tuples(ids, stamps, stamps), min_size=1, max_size=12)


def _numbered(rows):
    return encode_numbered_postings(*zip(*rows))  # None past 64-bit offsets


#: one item of every stored layout, by its tag (``None``: the rows fit none)
CHUNKS = st.one_of(
    # 0x00 RAW: ids the string layout cannot hold, or mixed timestamps
    _triples(st.integers(0, 5), _ints).map(encode_postings),
    _triples(_ids, st.one_of(_ints, _floats, st.booleans())).map(encode_postings),
    # 0x01-0x03 varint (the upgrade's only): INT, INTFLOAT, FLOAT
    _triples(_ids, _ints).map(encode_varint_postings),
    _triples(_ids, st.integers(-1000, 1000).map(float)).map(encode_varint_postings),
    _triples(_ids, st.floats(allow_nan=False, allow_infinity=True).filter(
        lambda v: not v.is_integer())).map(encode_varint_postings),
    # 0x04 POSTINGS (the upgrade's only), 0x05 SEQUENCE
    _triples(_ids, st.one_of(_ints, _floats)).map(encode_postings),
    st.lists(st.tuples(_ids, _ints), min_size=2, max_size=12).map(
        lambda events: encode_sequence(events)[0]
    ),
    # 0x06 NUMBERED
    _triples(st.integers(0, 40), _ints).map(_numbered),
    _triples(st.integers(2**20, 2**20 + 300), _floats).map(_numbered),
).filter(lambda chunk: isinstance(chunk, bytes))

#: (kind, position as a fraction of the length, byte)
MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["flip", "cut", "append"]),
        st.floats(0, 1, exclude_max=True),
        st.integers(1, 255),
    ),
    min_size=1,
    max_size=3,
)


def _mutate(chunk: bytes, mutations) -> bytes:
    data = bytearray(chunk)
    for kind, where, byte in mutations:
        at = int(where * len(data))
        if kind == "flip" and data:
            data[at] ^= byte
        elif kind == "cut":
            del data[at:]
        else:
            data[at:at] = bytes((byte,))
    return bytes(data)


def _decodes_or_raises_corrupt(decode) -> None:
    try:
        decode()
    except CorruptPostingsError:
        pass


def _postings(item, names):
    postings = Postings([item], names)
    postings.trace_ids()
    return [tuple(map(list, triple)) for triple in postings.columns()]


@settings(max_examples=600, deadline=None)
@given(CHUNKS, MUTATIONS, st.integers(0, 48))
def test_a_damaged_chunk_decodes_or_raises_the_typed_error(chunk, mutations, named):
    item = _mutate(chunk, mutations)
    names = [f"n{number}" for number in range(named)]
    _decodes_or_raises_corrupt(lambda: _postings(item, names))
    _decodes_or_raises_corrupt(lambda: _postings(item, None))
    _decodes_or_raises_corrupt(lambda: decode_sequence([item]))
    _decodes_or_raises_corrupt(lambda: list(item_formats([item])))
    _decodes_or_raises_corrupt(lambda: decode_postings(item))


@settings(max_examples=200, deadline=None)
@given(CHUNKS)
def test_every_undamaged_chunk_decodes(chunk):
    if chunk[0] <= TAG_POSTINGS and chunk[0]:  # a retired layout
        with pytest.raises(CorruptPostingsError, match="unknown index chunk tag"):
            Postings([chunk])
        with pytest.raises(CorruptPostingsError):
            list(item_formats([chunk]))
        assert sum(map(len, decode_postings(chunk).values())) > 0
        return
    ((_, rows),) = item_formats([chunk])
    if chunk[0] == TAG_SEQUENCE:
        decoded = decode_sequence([chunk])[0]
    else:
        decoded = [trace_id for triple in _postings(chunk, None) for trace_id in triple[0]]
    assert len(decoded) == rows > 0


def test_a_raw_row_whose_id_is_no_key_is_corrupt():
    # what a flipped list tag inside a RAW chunk decodes to
    item = encode_postings([(["t0"], 1, 2.5)])
    _decodes_or_raises_corrupt(lambda: list(item_formats([item])))
    with pytest.raises(CorruptPostingsError, match="hashable"):
        Postings([item])
