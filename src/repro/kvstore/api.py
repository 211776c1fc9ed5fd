"""Public interface of the key-value store backends.

Tables are cheap namespaces (like Cassandra column families).  Each table is
created with an optional :class:`~repro.kvstore.merge.MergeOperator`; only
tables with an operator accept :meth:`KeyValueStore.merge` writes.

Keys are tuples of primitives (``str``/``int``/``float``/``bytes``/``bool``/
``None``); a bare primitive is treated as a 1-tuple.  Values are arbitrary
compositions of the same primitives with ``list``/``tuple``/``dict``.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.kvstore.encoding import Key, KeyPart


class StoreError(Exception):
    """Base class for store failures."""


class StoreClosedError(StoreError):
    """An operation was attempted on a closed store."""


class UnknownTableError(StoreError):
    """A table was used before being created."""


class MergeUnsupportedError(StoreError):
    """``merge`` was called on a table created without a merge operator."""


class CorruptionError(StoreError):
    """A persisted file failed a checksum or structural validation."""


class CorruptSSTableError(CorruptionError):
    """An SSTable failed structural validation (torn, truncated or flipped).

    Raised instead of raw ``struct.error``/``IndexError`` for every way a
    corrupt SSTable can fail to parse: bad CRCs, a truncated bloom filter,
    sparse-index entries pointing past EOF, torn record headers.  Subclass
    of :class:`CorruptionError`, so callers that only care about "the file
    is damaged" keep working.
    """


def normalize_key(key: KeyPart | Key) -> Key:
    """Coerce a user key into its canonical tuple form."""
    if isinstance(key, tuple):
        return key
    return (key,)


class KeyValueStore:
    """Abstract store API shared by :class:`LSMStore` and :class:`InMemoryStore`."""

    def create_table(self, name: str, merge_operator: str | None = None) -> None:
        """Create table ``name`` if absent.

        ``merge_operator`` is the registry name of the operator (see
        :func:`repro.kvstore.merge.resolve_merge_operator`).  Re-creating an
        existing table with the same operator is a no-op; with a different
        operator it raises ``ValueError``.
        """
        raise NotImplementedError

    def has_table(self, name: str) -> bool:
        """Return whether table ``name`` exists."""
        raise NotImplementedError

    def put(self, table: str, key: KeyPart | Key, value: Any) -> None:
        """Set ``key`` to ``value``, replacing any previous value."""
        raise NotImplementedError

    def merge(self, table: str, key: KeyPart | Key, delta: Any) -> None:
        """Apply a blind merge delta to ``key`` (requires a merge operator)."""
        raise NotImplementedError

    def get(self, table: str, key: KeyPart | Key, default: Any = None) -> Any:
        """Return the merged value for ``key`` or ``default`` if absent."""
        raise NotImplementedError

    def multi_get(
        self,
        table: str,
        keys: Iterable[KeyPart | Key],
        default: Any = None,
    ) -> list[Any]:
        """Batched point reads: one value per key, in input order.

        Semantically identical to ``[self.get(table, k, default) for k in
        keys]`` -- merge operators, tombstones and defaults included -- but
        executed as one atomic batch: backends resolve every key against a
        single consistent snapshot of their state and may share per-batch
        work (lock acquisition, bloom probes, block reads).  Duplicate keys
        are allowed and each position gets its answer.
        """
        return [self.get(table, key, default) for key in keys]

    def delete(self, table: str, key: KeyPart | Key) -> None:
        """Remove ``key`` (idempotent)."""
        raise NotImplementedError

    def scan(
        self,
        table: str,
        prefix: KeyPart | Key | None = None,
    ) -> Iterator[tuple[Key, Any]]:
        """Yield ``(key, value)`` sorted by key, optionally key-prefix filtered."""
        raise NotImplementedError

    def scan_range(
        self,
        table: str,
        start: KeyPart | Key | None = None,
        stop: KeyPart | Key | None = None,
    ) -> Iterator[tuple[Key, Any]]:
        """Yield ``(key, value)`` with ``start <= key < stop``, sorted.

        ``None`` bounds are open; ordering follows the key codec's tuple
        order (ints numerically, strings lexicographically, and so on).
        """
        raise NotImplementedError

    def flush(self) -> None:
        """Persist buffered writes (no-op for in-memory backends)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; further operations raise :class:`StoreClosedError`."""
        raise NotImplementedError

    # -- maintenance hooks ----------------------------------------------------
    #
    # Backends without background structure (e.g. the dict-backed store)
    # inherit these defaults, keeping the two implementations API-identical
    # so callers can tune compaction/caching without branching on type.

    def compact(self) -> bool:
        """Run one compaction round; return whether anything was compacted."""
        return False

    def compact_all(self) -> None:
        """Force-merge all on-disk structure (no-op without one)."""

    def verify(self) -> None:
        """Scrub persisted data against checksums; raises on corruption."""

    @property
    def sstable_count(self) -> int:
        """Number of on-disk sorted tables (0 for in-memory backends)."""
        return 0

    def cache_stats(self) -> dict[str, int]:
        """Block-cache counters, empty when the backend has no cache."""
        return {}

    def storage_stats(self) -> dict[str, Any]:
        """On-disk storage accounting, empty when nothing is on disk."""
        return {}

    # -- conveniences shared by both backends --------------------------------

    def __enter__(self) -> "KeyValueStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def keys(self, table: str, prefix: KeyPart | Key | None = None) -> Iterator[Key]:
        """Yield keys only (sorted), optionally prefix filtered."""
        for key, _ in self.scan(table, prefix):
            yield key

    def __contains__(self, table_key: tuple[str, KeyPart | Key]) -> bool:
        table, key = table_key
        sentinel = object()
        return self.get(table, key, sentinel) is not sentinel
