"""In-memory write buffer of the LSM store.

Each key holds a *base state* plus a queue of pending merge deltas:

* base ``PUT`` / ``DELETE``: the newest full write seen in this memtable --
  any older on-disk history is irrelevant for this key;
* base ``ABSENT``: only merge deltas have arrived, so a read (or flush) must
  still consult older SSTables for the base value.

Values are kept *encoded* (the same bytes written to the WAL) so the
memtable's accounting of its own size is exact and flushing is a straight
copy.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.kvstore.merge import MergeOperator, read_value
from repro.kvstore.wal import KIND_DELETE, KIND_MERGE, KIND_PUT

BASE_ABSENT = 0
BASE_PUT = 1
BASE_DELETE = 2


class MemEntry:
    """Per-key state: a base write plus pending merge deltas (oldest first)."""

    __slots__ = ("base_kind", "base_value", "deltas")

    def __init__(self) -> None:
        self.base_kind = BASE_ABSENT
        self.base_value: bytes | None = None
        self.deltas: list[bytes] = []

    def replace(self, kind: int, value: bytes) -> int:
        """Fold a put or a delete in (a merge appends to :attr:`deltas`);
        return the net byte delta."""
        freed = (len(self.base_value) if self.base_value is not None else 0) + sum(
            len(d) for d in self.deltas
        )
        self.deltas.clear()
        if kind == KIND_PUT:
            self.base_kind = BASE_PUT
            self.base_value = value
            return len(value) - freed
        if kind == KIND_DELETE:
            self.base_kind = BASE_DELETE
            self.base_value = None
            return -freed
        raise ValueError(f"unknown op kind {kind}")

    def is_self_contained(self) -> bool:
        """True when a read never needs older SSTables for this key."""
        return self.base_kind != BASE_ABSENT

    def records(self) -> list[tuple[int, bytes]]:
        """This entry as WAL-kind ``(kind, value)`` records, newest first."""
        records = [(KIND_MERGE, delta) for delta in reversed(self.deltas)]
        if self.base_kind == BASE_PUT:
            records.append((KIND_PUT, self.base_value))
        elif self.base_kind == BASE_DELETE:
            records.append((KIND_DELETE, b""))
        return records


class Memtable:
    """Unsorted hash of :class:`MemEntry`; sorted only when flushed.

    A memtable can be *sealed* when it is handed off to a flush: a sealed
    memtable rejects further writes, making it safe to read from other
    threads (and to stream into an SSTable) without holding the store's
    write lock.
    """

    def __init__(self) -> None:
        self._entries: dict[bytes, MemEntry] = {}
        self._approx_bytes = 0
        self._sealed = False

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def approximate_bytes(self) -> int:
        """Rough payload footprint used to trigger flushes."""
        return self._approx_bytes

    @property
    def sealed(self) -> bool:
        return self._sealed

    def seal(self) -> None:
        """Freeze the memtable for immutable handoff to a flush."""
        self._sealed = True

    def apply(self, kind: int, key: bytes, value: bytes) -> int:
        """Apply one operation (same kinds as the WAL); returns
        :attr:`approximate_bytes` after it."""
        if self._sealed:
            raise ValueError("cannot write to a sealed memtable")
        entry = self._entries.get(key)
        if entry is None:
            entry = MemEntry()
            self._entries[key] = entry
            self._approx_bytes += len(key)
        if kind == KIND_MERGE:
            entry.deltas.append(value)
            self._approx_bytes += len(value)
        else:
            self._approx_bytes += entry.replace(kind, value)
        return self._approx_bytes

    def lookup(self, key: bytes) -> MemEntry | None:
        """Return the entry for ``key`` (or ``None`` if never touched here)."""
        return self._entries.get(key)

    def resolve(
        self, key: bytes, operator: MergeOperator | None
    ) -> tuple[bool, Any]:
        """Resolve a key fully *within* the memtable.

        Returns ``(resolved, value)``; ``resolved`` is False when older
        SSTables must still be consulted.  A resolved deleted key yields
        ``(True, None)`` via ``value is TOMBSTONE`` -- callers use
        :data:`TOMBSTONE` to distinguish deletion from a stored ``None``.
        """
        entry = self._entries.get(key)
        if entry is None or not entry.is_self_contained():
            return False, None
        return True, read_value(entry.records(), operator, TOMBSTONE)

    def iter_sorted(self) -> Iterator[tuple[bytes, MemEntry]]:
        """Yield entries in key order (used by flush and scans)."""
        for key in sorted(self._entries):
            yield key, self._entries[key]

    def clear(self) -> None:
        self._entries.clear()
        self._approx_bytes = 0


class _Tombstone:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<TOMBSTONE>"


#: sentinel returned by resolution paths for "definitely deleted"
TOMBSTONE = _Tombstone()
