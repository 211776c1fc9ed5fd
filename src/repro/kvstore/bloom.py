"""Serializable bloom filter used by SSTable readers to skip files.

Hashing is derived from ``blake2b`` digests (stable across processes and
Python versions, unlike the built-in ``hash``), split into two 64-bit words
combined with the Kirsch-Mitzenmacher double-hashing scheme.
"""

from __future__ import annotations

import hashlib
import math
import struct

_HEADER = struct.Struct(">IIQ")  # num_hashes, reserved, num_bits
_DIGEST_WORDS = struct.Struct(">QQ")


def hash_pair(data: bytes) -> tuple[int, int]:
    """The ``(h1, h2)`` words every filter derives its probes from: hash a
    key once, then probe any number of filters with :meth:`BloomFilter.probe`."""
    h1, h2 = _DIGEST_WORDS.unpack(hashlib.blake2b(data, digest_size=16).digest())
    return h1, h2 | 1  # force h2 odd so strides cover the bit array


class BloomFilter:
    """Fixed-size bloom filter over byte-string members."""

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits <= 0 or num_hashes <= 0:
            raise ValueError("num_bits and num_hashes must be positive")
        self._num_bits = num_bits
        self._num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)

    @classmethod
    def with_capacity(cls, expected_items: int, false_positive_rate: float = 0.01) -> "BloomFilter":
        """Size a filter for ``expected_items`` at the target error rate."""
        expected_items = max(1, expected_items)
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must be in (0, 1)")
        ln2 = math.log(2.0)
        num_bits = max(8, int(-expected_items * math.log(false_positive_rate) / (ln2 * ln2)))
        num_hashes = max(1, round((num_bits / expected_items) * ln2))
        return cls(num_bits, num_hashes)

    def add(self, item: bytes) -> None:
        """Insert ``item``."""
        h1, h2 = hash_pair(item)
        for i in range(self._num_hashes):
            bit = (h1 + i * h2) % self._num_bits
            self._bits[bit >> 3] |= 1 << (bit & 7)

    def probe(self, h1: int, h2: int) -> bool:
        """Membership test from a key's :func:`hash_pair` (false positives
        possible, negatives exact)."""
        bits, num_bits = self._bits, self._num_bits
        for _ in range(self._num_hashes):
            bit = h1 % num_bits
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
            h1 += h2
        return True

    def __contains__(self, item: bytes) -> bool:
        return self.probe(*hash_pair(item))

    @property
    def num_bits(self) -> int:
        return self._num_bits

    @property
    def num_hashes(self) -> int:
        return self._num_hashes

    def to_bytes(self) -> bytes:
        """Serialize for embedding in an SSTable footer."""
        return _HEADER.pack(self._num_hashes, 0, self._num_bits) + bytes(self._bits)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BloomFilter":
        """Inverse of :meth:`to_bytes`."""
        num_hashes, _, num_bits = _HEADER.unpack_from(raw, 0)
        filt = cls(num_bits, num_hashes)
        payload = raw[_HEADER.size :]
        if len(payload) != len(filt._bits):
            raise ValueError("bloom filter payload length mismatch")
        filt._bits[:] = payload
        return filt
