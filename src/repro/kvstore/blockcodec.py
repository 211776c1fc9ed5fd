"""Per-block codecs of SSTable v2 files.

Every block the store writes is zlib-compressed at :data:`ZLIB_LEVEL`, or
stored raw when zlib does not shrink it.  Codec 2 (zstd) is decode-only:
blocks an earlier writer stored under it stay readable when the optional
``zstandard`` package is installed, and fail with a clear error when it is
not.

Codec ids are part of the on-disk format (one byte per block header), so
they are append-only: never renumber.
"""

from __future__ import annotations

import zlib

try:  # optional dependency: present on some deployments only
    import zstandard as _zstd
except ImportError:  # pragma: no cover - exercised when zstandard is absent
    _zstd = None

CODEC_NONE = 0
CODEC_ZLIB = 1
CODEC_ZSTD = 2

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
    """Inverse of :func:`compress` (plus zstd); raises ``ValueError`` on any
    failure.

    ``raw_len`` (from the block header) bounds the output and is verified
    against the actual decompressed size, so a corrupt length field can
    neither balloon memory nor yield a silently short block.
    """
    if codec == CODEC_NONE:
        if len(stored) != raw_len:
            raise ValueError("stored/raw length mismatch for uncompressed block")
        return stored
    try:
        if codec == CODEC_ZLIB:
            raw = zlib.decompress(stored)
        elif codec == CODEC_ZSTD:
            if _zstd is None:
                raise ValueError(
                    "block is zstd-compressed but 'zstandard' is not installed"
                )
            raw = _zstd.ZstdDecompressor().decompress(stored, max_output_size=raw_len)
        else:
            raise ValueError(f"unknown block codec id {codec}")
    except ValueError:
        raise
    except Exception as exc:  # zlib.error / ZstdError -> uniform ValueError
        raise ValueError(f"block decompression failed: {exc}") from None
    if len(raw) != raw_len:
        raise ValueError(
            f"block decompressed to {len(raw)} bytes, header says {raw_len}"
        )
    return raw
