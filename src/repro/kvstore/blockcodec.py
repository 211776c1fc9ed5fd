"""Per-block codecs of SSTable v2 files.

Every block the store writes is zlib-compressed at :data:`ZLIB_LEVEL`, or
stored raw when zlib does not shrink it.

Codec ids are part of the on-disk format (one byte per block header), so
they are append-only: never renumber.  Id 2 was zstd, which stores written
by older code may hold; only ``repro upgrade`` reads it.
"""

from __future__ import annotations

import zlib

CODEC_NONE = 0
CODEC_ZLIB = 1

#: zlib's default level: a postings store shrinks to 0.33 of its raw bytes
#: (0.35 at level 1) for ~1.5x level 1's compression time
ZLIB_LEVEL = 6


def compress(raw: bytes) -> tuple[int, bytes]:
    """``(codec, stored bytes)`` for one block: zlib, or the raw bytes under
    :data:`CODEC_NONE` when zlib does not shrink them."""
    stored = zlib.compress(raw, ZLIB_LEVEL)
    if len(stored) < len(raw):
        return CODEC_ZLIB, stored
    return CODEC_NONE, raw


def decompress(codec: int, stored: bytes, raw_len: int) -> bytes:
    """Inverse of :func:`compress`; raises ``ValueError`` on any failure.

    ``raw_len`` (from the block header) is verified against the actual
    decompressed size, so a corrupt length field cannot yield a silently
    short block.
    """
    if codec == CODEC_NONE:
        if len(stored) != raw_len:
            raise ValueError("stored/raw length mismatch for uncompressed block")
        return stored
    if codec != CODEC_ZLIB:
        raise ValueError(f"unknown block codec id {codec}")
    try:
        raw = zlib.decompress(stored)
    except zlib.error as exc:
        raise ValueError(f"block decompression failed: {exc}") from None
    if len(raw) != raw_len:
        raise ValueError(
            f"block decompressed to {len(raw)} bytes, header says {raw_len}"
        )
    return raw
