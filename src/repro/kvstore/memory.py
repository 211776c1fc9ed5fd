"""Dictionary-backed store: the reference implementation of the API.

Semantically equivalent to :class:`repro.kvstore.lsm.LSMStore` minus
durability; the property-based test suite checks the two against each other
under random operation sequences.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Iterator

from repro.kvstore.api import (
    KeyValueStore,
    MergeUnsupportedError,
    StoreClosedError,
    UnknownTableError,
    normalize_key,
)
from repro.kvstore.encoding import Key, KeyPart, encode_key
from repro.kvstore.lsm import StoreMetrics
from repro.kvstore.merge import MergeOperator, resolve_merge_operator
from repro.obs.registry import REGISTRY, store_samples
from repro.obs.trace import current_tracer


class InMemoryStore(KeyValueStore):
    """In-process store holding all data in dictionaries.

    Values are structurally copied on the way in and out, so callers cannot
    alias the store's internal state -- matching the serialize/deserialize
    boundary of the durable backend.

    A single re-entrant lock makes every operation atomic, which trivially
    satisfies the LSM store's concurrency contract.
    """

    _counter_lock = threading.Lock()
    _instances = 0

    def __init__(self) -> None:
        self._tables: dict[str, dict[Key, Any]] = {}
        self._merge_ops: dict[str, MergeOperator | None] = {}
        self._lock = threading.RLock()
        self._closed = False
        self.metrics = StoreMetrics()
        with InMemoryStore._counter_lock:
            InMemoryStore._instances += 1
            #: identity used in metrics exposition labels
            self.obs_name = f"memory-{InMemoryStore._instances}"
        self._obs_handle = REGISTRY.register(
            {"store": self.obs_name, "backend": "memory"}, self._collect_obs_metrics
        )

    # -- table management -----------------------------------------------------

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

    # -- reads/writes ----------------------------------------------------------

    def put(self, table: str, key: KeyPart | Key, value: Any) -> None:
        data = self._table(table)
        self.metrics.bump("puts")
        with self._lock:
            data[normalize_key(key)] = _copy_value(value)

    def merge(self, table: str, key: KeyPart | Key, delta: Any) -> None:
        data = self._table(table)
        operator = self._merge_ops[table]
        if operator is None:
            raise MergeUnsupportedError(f"table {table!r} has no merge operator")
        self.metrics.bump("merges")
        with self._lock:
            norm = normalize_key(key)
            base = data.get(norm)
            delta_copy = _copy_value(delta)
            if base is None:
                data[norm] = operator.full_merge(None, [delta_copy])
            elif not operator.merge_in_place(base, delta_copy):
                data[norm] = operator.full_merge(base, [delta_copy])

    def get(self, table: str, key: KeyPart | Key, default: Any = None) -> Any:
        data = self._table(table)
        self.metrics.bump("gets")
        with self._lock:
            value = data.get(normalize_key(key), _MISSING)
        if value is _MISSING:
            return default
        return _copy_value(value)

    def multi_get(
        self,
        table: str,
        keys: Iterable[KeyPart | Key],
        default: Any = None,
    ) -> list[Any]:
        data = self._table(table)
        key_list = list(keys)
        self.metrics.bump("multi_get_batches")
        self.metrics.bump("gets", len(key_list))
        span = current_tracer().span("memory.multi_get")
        with span, self._lock:
            raw = [data.get(normalize_key(key), _MISSING) for key in key_list]
            if span.enabled:
                span.add("keys", len(key_list))
                span.add("hits", sum(1 for value in raw if value is not _MISSING))
        return [default if value is _MISSING else _copy_value(value) for value in raw]

    def delete(self, table: str, key: KeyPart | Key) -> None:
        data = self._table(table)
        self.metrics.bump("deletes")
        with self._lock:
            data.pop(normalize_key(key), None)

    def scan(
        self, table: str, prefix: KeyPart | Key | None = None
    ) -> Iterator[tuple[Key, Any]]:
        data = self._table(table)
        self.metrics.bump("scans")
        with self._lock:
            items = sorted(data.items(), key=lambda kv: encode_key(kv[0]))
        if prefix is not None:
            wanted = encode_key(normalize_key(prefix))
            items = [
                (key, value)
                for key, value in items
                if encode_key(key).startswith(wanted)
            ]
        for key, value in items:
            yield key, _copy_value(value)

    def scan_range(
        self,
        table: str,
        start: KeyPart | Key | None = None,
        stop: KeyPart | Key | None = None,
    ) -> Iterator[tuple[Key, Any]]:
        data = self._table(table)
        self.metrics.bump("scans")
        low = encode_key(normalize_key(start)) if start is not None else None
        high = encode_key(normalize_key(stop)) if stop is not None else None
        with self._lock:
            items = sorted(data.items(), key=lambda kv: encode_key(kv[0]))
        for key, value in items:
            encoded = encode_key(key)
            if low is not None and encoded < low:
                continue
            if high is not None and encoded >= high:
                break
            yield key, _copy_value(value)

    # -- lifecycle --------------------------------------------------------------

    def flush(self) -> None:
        self._check_open()

    def close(self) -> None:
        REGISTRY.unregister(self._obs_handle)
        self._closed = True

    def _collect_obs_metrics(self) -> dict[str, float]:
        """Metrics-registry collector: one consistent store sample."""
        if self._closed:
            return {}
        with self._lock:
            tables = len(self._tables)
        return store_samples(self.metrics.snapshot(), tables=tables)

    # -- internals ---------------------------------------------------------------

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
    """Structural copy of plain-data values (much faster than deepcopy).

    The store's value domain is compositions of primitives with
    list/tuple/dict; only the mutable containers need copying.  A hashable
    value is deeply immutable for that domain (tuples of tuples of scalars)
    and can be shared instead of copied -- the hot path, since index
    entries are tuples.
    """
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
    return value
