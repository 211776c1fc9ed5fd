"""The encoders' fast paths write the bytes of the general code.

``encode_key`` handles an exact ``str`` part inline, and ``encode_value``
checks exact lists and tuples before the scalar chain and writes a one-chunk
list (``[bytes]``, every Index merge delta) directly.  Each property below
holds a fast path to the general code it bypasses:

* a key's bytes are the concatenation of each part's general encoding
  (``_encode_key_part``), and byte order is tuple order, for empty,
  non-ASCII and NUL-holding strings among the other part types;
* a value encodes as ``_encode_value_into`` writes it, and as its copy made
  of list / tuple / dict *subclasses* does (which the exact-type checks skip,
  so they take the scalar chain's ``isinstance`` branches), and re-encodes
  to itself after a decode;
* a fixed corpus of keys and values of every type encodes to the digest the
  encoders gave before the fast paths existed.
"""

from __future__ import annotations

import hashlib
import random
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.encoding import (
    _encode_key_part,
    _encode_value_into,
    decode_key,
    decode_value,
    encode_key,
    encode_value,
)

#: sha256 of ``_corpus_bytes()``, taken with the encoders before the fast paths
CORPUS_SHA256 = "77dd32bf9b84d132836aa0b8b373fceeb21de3d4e62bafabbe06340a0de26e21"

_text = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "\x00", "a\x00", "a\x00b", "\x00\x00", "é", "événement", "日本", "\U0001f600"]),
)
_key_parts = st.one_of(
    _text,
    st.none(),
    st.booleans(),
    st.integers(-(2**63) + 1, 2**63 - 1),
    st.floats(allow_nan=False),
    st.binary(max_size=8),
)


@given(parts=st.lists(_key_parts, max_size=5).map(tuple))
@settings(max_examples=500, deadline=None)
def test_a_key_is_the_general_encoding_of_its_parts(parts):
    assert encode_key(parts) == b"".join(map(bytes, map(_encode_key_part, parts)))
    assert decode_key(encode_key(parts)) == tuple(
        0.0 if type(part) is float and part == 0.0 else part for part in parts
    )


@given(left=st.lists(_text, min_size=1, max_size=3), right=st.lists(_text, min_size=1, max_size=3))
@settings(max_examples=500, deadline=None)
def test_str_keys_keep_tuple_order(left, right):
    left, right = tuple(left), tuple(right)
    assert (encode_key(left) < encode_key(right)) == (left < right)
    assert (encode_key(left) == encode_key(right)) == (left == right)


class _List(list):
    pass


class _Tuple(tuple):
    pass


class _Dict(dict):
    pass


def _as_subclasses(value):
    """``value`` with its lists and tuples rebuilt as subclasses, outside
    dicts (a packed map takes exact ``[float, int]`` slots only) -- and its
    dicts as a ``dict`` subclass."""
    if type(value) is list:
        return _List(map(_as_subclasses, value))
    if type(value) is tuple:
        return _Tuple(map(_as_subclasses, value))
    if type(value) is dict:
        return _Dict(value)
    return value


def _general(value) -> bytes:
    out = bytearray()
    _encode_value_into(out, value)
    return bytes(out)


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, 127, 128, -1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1]),
    st.floats(allow_nan=False),
    _text,
    st.binary(max_size=16),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.binary(max_size=12), min_size=1, max_size=1),  # a one-chunk list
        st.lists(st.tuples(_text, st.one_of(st.floats(allow_nan=False), st.integers())), max_size=3),
        st.dictionaries(_text, st.integers(-(2**64), 2**64), max_size=4),
        st.dictionaries(_text, st.floats(allow_nan=False), max_size=4),
        st.dictionaries(
            _text,
            st.one_of(
                st.tuples(st.floats(allow_nan=False), st.integers(0, 2**64)).map(list),
                st.lists(st.integers(0, 3), max_size=3),
            ),
            max_size=4,
        ),
        st.dictionaries(st.one_of(_text, st.integers()), inner, max_size=3),
    ),
    max_leaves=12,
)


@given(value=_values)
@settings(max_examples=800, deadline=None)
def test_a_value_encodes_as_the_general_code_writes_it(value):
    encoded = encode_value(value)
    assert encoded == _general(value)
    assert encoded == encode_value(_as_subclasses(value))
    assert encode_value(decode_value(encoded)) == encoded


@given(chunk=st.binary(max_size=300))
@settings(max_examples=200, deadline=None)
def test_a_one_chunk_list_is_the_general_list_encoding(chunk):
    assert encode_value([chunk]) == _general([chunk]) == encode_value(_List([chunk]))
    assert decode_value(encode_value([chunk])) == [chunk]


def _corpus() -> tuple[list, list]:
    """Keys and values of every type the store takes, from a fixed seed."""
    rng = random.Random(45)
    texts = ["", "a", "act_000", "\x00", "a\x00b", "é", "événement", "日本", "\U0001f600", "w-s1-7"]
    ints = [0, 1, 127, 128, 255, 256, -1, -128, -129, 2**31, 2**53, 2**63 - 1, -(2**63)]
    floats = [0.0, -0.0, 1.5, -2.25, 1e300, -1e-300, float("inf"), float("-inf"), 2.0**53]
    scalars = [
        None, True, False, *ints, 2**63, -(2**63) - 1, 10**30, *floats, *texts,
        b"", b"\x00\xff", bytearray(b"ab"),
    ]
    corpus = list(scalars)
    for _ in range(300):
        n = rng.randrange(5)
        corpus.append([rng.choice(scalars) for _ in range(n)])
        corpus.append(tuple(rng.choice(scalars) for _ in range(n)))
        corpus.append([bytes(rng.randrange(256) for _ in range(rng.randrange(20)))])
        corpus.append([(rng.choice(texts), rng.choice(floats + ints)) for _ in range(n)])
        corpus.append({rng.choice(texts): rng.choice(ints) for _ in range(n)})
        corpus.append({rng.choice(texts): rng.choice(floats) for _ in range(n)})
        corpus.append({rng.choice(texts): [rng.choice(floats), rng.choice(ints)] for _ in range(n)})
        corpus.append({rng.choice(texts + ints): rng.choice(scalars) for _ in range(n)})
        corpus.append([corpus[-rng.randrange(1, 9)], {"k": corpus[-rng.randrange(1, 9)]}])
    key_parts = [None, True, False, *ints, 2**63, *floats, *texts, b"", b"k\x00"]
    keys = [tuple(rng.choice(key_parts) for _ in range(rng.randrange(4))) for _ in range(300)]
    return keys, corpus


def _corpus_bytes() -> bytes:
    keys, values = _corpus()
    parts = [encode_key(key) for key in keys] + [encode_value(value) for value in values]
    return b"".join(struct.pack(">I", len(part)) + part for part in parts)


def test_a_fixed_corpus_encodes_to_the_pinned_digest():
    assert hashlib.sha256(_corpus_bytes()).hexdigest() == CORPUS_SHA256
