"""Bloom filter tests: no false negatives, bounded false positives."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kvstore.bloom import BloomFilter, hash_pair


class TestBloomBasics:
    def test_added_items_always_found(self):
        filt = BloomFilter.with_capacity(100)
        items = [f"key-{i}".encode() for i in range(100)]
        for item in items:
            filt.add(item)
        assert all(item in filt for item in items)

    def test_empty_filter_finds_nothing(self):
        filt = BloomFilter.with_capacity(10)
        assert b"anything" not in filt

    def test_false_positive_rate_in_bounds(self):
        filt = BloomFilter.with_capacity(1000, false_positive_rate=0.01)
        rng = random.Random(1)
        members = [rng.randbytes(8) for _ in range(1000)]
        for item in members:
            filt.add(item)
        probes = [rng.randbytes(9) for _ in range(5000)]
        false_positives = sum(1 for p in probes if p in filt)
        # 1% target; allow generous slack for hash variance.
        assert false_positives / len(probes) < 0.05

    @given(st.lists(st.binary(max_size=12), max_size=40), st.binary(max_size=12))
    def test_probing_a_precomputed_hash_equals_membership(self, items, probe):
        filt = BloomFilter.with_capacity(max(1, len(items)))
        for item in items:
            filt.add(item)
        for item in items + [probe]:
            assert filt.probe(*hash_pair(item)) == (item in filt)
        assert all(filt.probe(*hash_pair(item)) for item in items)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 1)
        with pytest.raises(ValueError):
            BloomFilter(8, 0)
        with pytest.raises(ValueError):
            BloomFilter.with_capacity(10, false_positive_rate=1.5)


class TestBloomSerialization:
    @given(st.lists(st.binary(min_size=1, max_size=16), max_size=50))
    def test_roundtrip_preserves_membership(self, items):
        filt = BloomFilter.with_capacity(max(1, len(items)))
        for item in items:
            filt.add(item)
        restored = BloomFilter.from_bytes(filt.to_bytes())
        assert restored.num_bits == filt.num_bits
        assert restored.num_hashes == filt.num_hashes
        for item in items:
            assert item in restored

    def test_payload_length_validated(self):
        filt = BloomFilter.with_capacity(10)
        raw = filt.to_bytes()
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(raw + b"\x00")
