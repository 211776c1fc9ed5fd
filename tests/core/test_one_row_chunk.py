"""The one-row NUMBERED chunk is packed directly, into the general bytes.

``encode_numbered_postings`` packs a one-row batch of INT or INTFLOAT stamps
without the column machinery of ``_encode_chunk``; every other batch goes
through ``_encode_chunk``.  For any one row -- numbers and stamps of every
width, int and integral-float stamps, fractional and non-finite floats,
bools, mixed int/float rows, stamps beyond int64 and beyond 2**53 -- its
answer must be ``_encode_chunk(TAG_NUMBERED, ...)``'s, ``None`` included.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.postings as postings
from repro.core.postings import TAG_NUMBERED, _encode_chunk, encode_numbered_postings

#: every width a column value can take, and the edges around them
_EDGES = [
    0, 1, 2**7 - 1, 2**7, 2**8, 2**15, 2**16, 2**31, 2**32, 2**53 - 1, 2**53,
    2**53 + 1, 2**62, 2**63 - 1, 2**63, 2**64, 2**70,
]
_big_ints = st.one_of(
    st.sampled_from(_EDGES + [-edge for edge in _EDGES]),
    st.integers(-(2**70), 2**70),
    st.integers(-300, 300),
)
_numbers = st.one_of(st.integers(0, 300), _big_ints, st.booleans())
_integral_floats = st.one_of(
    st.integers(-(2**54), 2**54).map(float),
    st.sampled_from([float(edge) for edge in _EDGES] + [-0.0, -(2.0**53), -(2.0**53) - 2]),
)
_stamps = st.one_of(
    _big_ints,
    _integral_floats,
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
)


def _row(number, first, second):
    return [number], [first], [second]


@given(
    number=_numbers,
    first=_stamps,
    second=_stamps,
    shape=st.sampled_from(["lists", "tuples"]),
)
@settings(max_examples=2000, deadline=None)
def test_a_one_row_chunk_equals_the_general_encoding(number, first, second, shape):
    numbers, ts_a, ts_b = _row(number, first, second)
    if shape == "tuples":  # what the builder hands over for one completion
        ts_a, ts_b = tuple(ts_a), tuple(ts_b)
    assert encode_numbered_postings(numbers, ts_a, ts_b) == _encode_chunk(
        TAG_NUMBERED, numbers, ts_a, ts_b
    )


@given(
    number=st.integers(0, 2**40),
    first=st.integers(-(2**53), 2**53),
    delta=st.integers(-(2**40), 2**40),
    integral_float=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_int_and_intfloat_rows_take_the_direct_path(number, first, delta, integral_float):
    second = first + delta
    if integral_float:
        first, second = float(first), float(second)
        if abs(second) > 2**53 or not math.isfinite(second):
            return
    expected = _encode_chunk(TAG_NUMBERED, [number], [first], [second])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(postings, "_encode_chunk", None)  # any fallback would fail
        assert encode_numbered_postings([number], [first], [second]) == expected


def test_other_rows_and_batches_still_take_the_general_path(monkeypatch):
    calls = []
    real = postings._encode_chunk
    monkeypatch.setattr(
        postings, "_encode_chunk", lambda *args: calls.append(args[1]) or real(*args)
    )
    encode_numbered_postings([3], [1.5], [2.5])  # FLOAT
    encode_numbered_postings([3], [1], [2.0])  # mixed
    encode_numbered_postings([3, 4], [1, 2], [5, 6])  # two rows
    assert calls == [[3], [3], [3, 4]]
