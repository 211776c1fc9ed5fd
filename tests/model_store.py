"""Dictionary-backed model of the store API, for tests only.

:class:`ModelStore` implements :class:`~repro.kvstore.api.KeyValueStore`
with plain dictionaries and merges through each operator's object-domain
``full_merge``.  ``tests/kvstore/test_store_model.py`` checks
:class:`~repro.kvstore.lsm.LSMStore` against it under random operation
sequences, and a few hypothesis-driven engine batteries build on it where
the store is not what they test.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Iterator

from repro.kvstore.api import (
    KeyValueStore,
    MergeUnsupportedError,
    StoreClosedError,
    UnknownTableError,
    WriteOp,
    normalize_key,
    write_op_counter,
)
from repro.kvstore.encoding import Key, KeyPart, encode_key
from repro.kvstore.merge import MergeOperator, resolve_merge_operator


class ModelStore(KeyValueStore):
    """In-process store holding all data in dictionaries.

    Values are structurally copied on the way in and out, so callers cannot
    alias the model's state -- the serialize/deserialize boundary of the
    real store.  One re-entrant lock makes every operation, a whole
    :meth:`write` batch included, atomic.
    """

    def __init__(self) -> None:
        self._tables: dict[str, dict[Key, Any]] = {}
        self._merge_ops: dict[str, MergeOperator | None] = {}
        self._lock = threading.RLock()
        self._closed = False

    def create_table(self, name: str, merge_operator: str | None = None) -> None:
        self._check_open()
        with self._lock:
            if name in self._tables:
                existing = self._merge_ops[name]
                existing_name = existing.name if existing is not None else None
                if existing_name != merge_operator:
                    raise ValueError(
                        f"table {name!r} already exists with merge operator "
                        f"{existing_name!r}, not {merge_operator!r}"
                    )
                return
            self._tables[name] = {}
            self._merge_ops[name] = (
                resolve_merge_operator(merge_operator) if merge_operator else None
            )

    def has_table(self, name: str) -> bool:
        self._check_open()
        return name in self._tables

    def list_tables(self) -> list[str]:
        self._check_open()
        with self._lock:
            return sorted(self._tables)

    def write(self, ops: Iterable[WriteOp]) -> None:
        self._check_open()
        checked = []
        for op, table, key, value in ops:
            write_op_counter(op)  # raises on an unknown op
            data = self._table(table)
            operator = self._merge_ops[table]
            if op == "merge" and operator is None:
                raise MergeUnsupportedError(f"table {table!r} has no merge operator")
            checked.append((op, data, operator, normalize_key(key), _copy_value(value)))
        with self._lock:
            for op, data, operator, norm, value in checked:
                if op == "put":
                    data[norm] = value
                elif op == "delete":
                    data.pop(norm, None)
                else:
                    data[norm] = operator.full_merge(data.get(norm), [value])

    def get(self, table: str, key: KeyPart | Key, default: Any = None) -> Any:
        data = self._table(table)
        with self._lock:
            value = data.get(normalize_key(key), _MISSING)
        return default if value is _MISSING else _copy_value(value)

    def scan(
        self, table: str, prefix: KeyPart | Key | None = None
    ) -> Iterator[tuple[Key, Any]]:
        wanted = encode_key(normalize_key(prefix)) if prefix is not None else b""
        for key, value in self._sorted_items(table):
            if encode_key(key).startswith(wanted):
                yield key, value

    def scan_range(
        self,
        table: str,
        start: KeyPart | Key | None = None,
        stop: KeyPart | Key | None = None,
    ) -> Iterator[tuple[Key, Any]]:
        low = encode_key(normalize_key(start)) if start is not None else None
        high = encode_key(normalize_key(stop)) if stop is not None else None
        for key, value in self._sorted_items(table):
            encoded = encode_key(key)
            if low is not None and encoded < low:
                continue
            if high is not None and encoded >= high:
                break
            yield key, value

    def flush(self) -> None:
        self._check_open()

    def close(self) -> None:
        self._closed = True

    def _sorted_items(self, table: str) -> list[tuple[Key, Any]]:
        data = self._table(table)
        with self._lock:
            items = sorted(data.items(), key=lambda kv: encode_key(kv[0]))
        return [(key, _copy_value(value)) for key, value in items]

    def _table(self, name: str) -> dict[Key, Any]:
        self._check_open()
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"table {name!r} does not exist") from None

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("store is closed")


_MISSING = object()


def _copy_value(value: Any) -> Any:
    """Structural copy of plain-data values: only the mutable containers
    are copied, and a hashable tuple is shared (deeply immutable in the
    store's value domain)."""
    if isinstance(value, list):
        return [_copy_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _copy_value(val) for key, val in value.items()}
    if isinstance(value, tuple):
        try:
            hash(value)
        except TypeError:
            return tuple(_copy_value(item) for item in value)
    return value
