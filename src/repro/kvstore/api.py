"""Public interface of the key-value store.

Tables are cheap namespaces (like Cassandra column families).  Each table is
created with an optional :class:`~repro.kvstore.merge.MergeOperator`; only
tables with an operator accept :meth:`KeyValueStore.merge` writes.

:meth:`KeyValueStore.write` is the store's one write path: an ordered
batch of put / merge / delete ops applied as one unit.  ``put``, ``merge``
and ``delete`` are one-op batches.

Keys are tuples of primitives (``str``/``int``/``float``/``bytes``/``bool``/
``None``); a bare primitive is treated as a 1-tuple.  Values are arbitrary
compositions of the same primitives with ``list``/``tuple``/``dict``.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.kvstore.encoding import Key, KeyPart

#: one op of a write batch: ``(op, table, key, value)`` with ``op`` one of
#: ``"put"``, ``"merge"``, ``"delete"`` (whose value is ignored)
WriteOp = tuple[str, str, "KeyPart | Key", Any]

#: every op name :meth:`KeyValueStore.write` accepts, with the store counter
#: (``StoreMetrics``) that each applied op of that name bumps once
WRITE_OP_COUNTERS = {"put": "puts", "merge": "merges", "delete": "deletes"}


def write_op_counter(op: str) -> str:
    """The store counter of write op ``op``; ``ValueError`` if ``op`` is not
    one of :data:`WRITE_OP_COUNTERS`."""
    try:
        return WRITE_OP_COUNTERS[op]
    except KeyError:
        raise ValueError(f"unknown write op {op!r}") from None


class StoreError(Exception):
    """Base class for store failures."""


class StoreClosedError(StoreError):
    """An operation was attempted on a closed store."""


class UnknownTableError(StoreError):
    """A table was used before being created."""


class MergeUnsupportedError(StoreError):
    """``merge`` was called on a table created without a merge operator."""


class StoreFormatError(StoreError):
    """A store on disk predates the one layout this code reads.

    Raised at open, before anything in the store directory is swept or
    written; the message names the command that rewrites the store once
    (``repro upgrade``).
    """


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
    """The store API the index is written against; :class:`LSMStore` is its
    one implementation."""

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

    def list_tables(self) -> list[str]:
        """Every table's name, sorted."""
        raise NotImplementedError

    def write(self, ops: Iterable[WriteOp]) -> None:
        """Apply ``ops`` in order as one atomic write.

        An op is ``("put", table, key, value)`` (set ``key``, replacing any
        previous value), ``("merge", table, key, delta)`` (a blind merge
        delta; the table needs a merge operator) or ``("delete", table, key,
        None)``.  Every op is checked before any is applied: an unknown op
        or table, a merge on a table without an operator or an unencodable
        value raises and writes nothing.  An applied batch is one unit --
        :class:`~repro.kvstore.lsm.LSMStore` logs it as one WAL frame, so
        after a process kill all of it is recovered or none of it.
        """
        raise NotImplementedError

    def put(self, table: str, key: KeyPart | Key, value: Any) -> None:
        """Set ``key`` to ``value``, replacing any previous value."""
        self.write([("put", table, key, value)])

    def merge(self, table: str, key: KeyPart | Key, delta: Any) -> None:
        """Apply a blind merge delta to ``key`` (requires a merge operator)."""
        self.write([("merge", table, key, delta)])

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
        executed as one atomic batch: the store resolves every key against a
        single consistent snapshot of its state and may share per-batch
        work (lock acquisition, bloom probes, block reads).  Duplicate keys
        are allowed and each position gets its answer.
        """
        return [self.get(table, key, default) for key in keys]

    def delete(self, table: str, key: KeyPart | Key) -> None:
        """Remove ``key`` (idempotent)."""
        self.write([("delete", table, key, None)])

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
        """Persist buffered writes."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; further operations raise :class:`StoreClosedError`."""
        raise NotImplementedError

    def storage_stats(self) -> dict[str, Any]:
        """On-disk storage accounting."""
        raise NotImplementedError

    # -- conveniences over the methods above ------------------------------------

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
