"""Merge operators: Cassandra-style blind writes for mutable values.

The paper's index tables are all "append a few entries to a possibly huge
collection" workloads.  Reading the old collection, extending it in Python
and writing it back would make every index batch O(index size).  Merge
operators (the RocksDB design) solve this: a *merge delta* is written blindly
and the store combines base value and deltas lazily -- at read time and
during compaction.

Operators must be associative over deltas so that partial merges performed by
compaction commute with the final full merge.

The store itself only ever holds *encoded* values, so flush and compaction
call the encoded-domain forms (:meth:`MergeOperator.full_merge_encoded` /
:meth:`MergeOperator.partial_merge_encoded`: bytes in, bytes out).  Their
default decodes, runs the object-domain merge and re-encodes; an operator
whose merge is expressible on the encoding overrides them -- ``list_append``
splices list headers and bodies without touching an item, which is what makes
flush and compaction of the ``Index`` and ``Seq`` tables concatenation.
:func:`collapse_records` (what flush and compaction write for a key) and
:func:`read_value` (what a read or scan returns for it) are the only places a
key's records are combined, and they share one walk over the records.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.kvstore.encoding import concat_encoded_lists, decode_value, encode_value
from repro.kvstore.wal import KIND_DELETE, KIND_MERGE, KIND_PUT


class MergeOperator:
    """Combines a base value with an ordered list of merge deltas."""

    #: registry name used in the store manifest
    name = "abstract"

    def full_merge(self, base: Any, deltas: list[Any]) -> Any:
        """Combine ``base`` (or ``None``) with ``deltas``, oldest first."""
        raise NotImplementedError

    def partial_merge(self, deltas: list[Any]) -> Any:
        """Collapse consecutive deltas (oldest first) into a single delta."""
        raise NotImplementedError

    def merge_in_place(self, base: Any, delta: Any) -> bool:
        """Mutate ``base`` by one delta; return False if unsupported.

        In-memory backends use this to avoid rebuilding large collection
        values on every blind write (the LSM backend never needs it -- its
        deltas stay encoded until read or compaction).
        """
        return False

    def full_merge_encoded(self, base: bytes | None, deltas: list[bytes]) -> bytes:
        """:meth:`full_merge` over encoded operands (``None`` = no base).

        Must satisfy ``decode(full_merge_encoded(b, ds)) ==
        full_merge(decode(b), [decode(d) for d in ds])``.
        """
        base_obj = decode_value(base) if base is not None else None
        return encode_value(
            self.full_merge(base_obj, [decode_value(d) for d in deltas])
        )

    def partial_merge_encoded(self, deltas: list[bytes]) -> bytes:
        """:meth:`partial_merge` over encoded deltas, same law."""
        return encode_value(self.partial_merge([decode_value(d) for d in deltas]))


class ListAppendMerge(MergeOperator):
    """Value is a list; each delta is a list of elements to append.

    This models Cassandra's ``list`` collection append used for the paper's
    ``Index`` and ``Seq`` tables.
    """

    name = "list_append"

    def full_merge(self, base: Any, deltas: list[Any]) -> Any:
        result = list(base) if base is not None else []
        for delta in deltas:
            result.extend(delta)
        return result

    def partial_merge(self, deltas: list[Any]) -> Any:
        merged: list[Any] = []
        for delta in deltas:
            merged.extend(delta)
        return merged

    def merge_in_place(self, base: Any, delta: Any) -> bool:
        base.extend(delta)
        return True

    def full_merge_encoded(self, base: bytes | None, deltas: list[bytes]) -> bytes:
        spliced = concat_encoded_lists(deltas if base is None else [base, *deltas])
        if spliced is None:  # an operand that is no list: let full_merge judge it
            return super().full_merge_encoded(base, deltas)
        return spliced

    def partial_merge_encoded(self, deltas: list[bytes]) -> bytes:
        return self.full_merge_encoded(None, deltas)


class CounterMapMerge(MergeOperator):
    """Value is ``{key: [sum, count, ...numeric]}``; deltas add element-wise.

    Used for the paper's ``Count`` and ``Reverse Count`` tables, whose values
    accumulate total durations and completion counts per follower event.
    """

    name = "counter_map"

    def full_merge(self, base: Any, deltas: list[Any]) -> Any:
        result: dict[Any, list[float]] = (
            {key: list(vals) for key, vals in base.items()} if base is not None else {}
        )
        for delta in deltas:
            self._accumulate(result, delta)
        return result

    def partial_merge(self, deltas: list[Any]) -> Any:
        merged: dict[Any, list[float]] = {}
        for delta in deltas:
            self._accumulate(merged, delta)
        return merged

    def merge_in_place(self, base: Any, delta: Any) -> bool:
        self._accumulate(base, delta)
        return True

    @staticmethod
    def _accumulate(target: dict[Any, list[float]], delta: dict[Any, Any]) -> None:
        for key, vals in delta.items():
            slot = target.get(key)
            if slot is None:
                target[key] = list(vals)
            else:
                for i, val in enumerate(vals):
                    slot[i] += val


class MaxMapMerge(MergeOperator):
    """Value is ``{key: comparable}``; deltas keep the per-key maximum.

    Used for the ``LastChecked`` table: per second event of a pair, the
    latest completion timestamp wins.
    """

    name = "max_map"

    def full_merge(self, base: Any, deltas: list[Any]) -> Any:
        result: dict[Any, Any] = dict(base) if base is not None else {}
        for delta in deltas:
            for key, val in delta.items():
                if key not in result or val > result[key]:
                    result[key] = val
        return result

    def partial_merge(self, deltas: list[Any]) -> Any:
        merged: dict[Any, Any] = {}
        for delta in deltas:
            for key, val in delta.items():
                if key not in merged or val > merged[key]:
                    merged[key] = val
        return merged

    def merge_in_place(self, base: Any, delta: Any) -> bool:
        for key, val in delta.items():
            if key not in base or val > base[key]:
                base[key] = val
        return True


class LastWriteWins(MergeOperator):
    """Each delta replaces the value entirely (a put expressed as a merge)."""

    name = "last_write_wins"

    def full_merge(self, base: Any, deltas: list[Any]) -> Any:
        return deltas[-1] if deltas else base

    def partial_merge(self, deltas: list[Any]) -> Any:
        return deltas[-1]


def _live_history(
    records_newest_first: Iterable[tuple[int, bytes]],
) -> tuple[int | None, bytes, list[bytes]]:
    """One key's records as ``(base kind or None, base value, deltas)``.

    The base is the newest PUT or DELETE; records older than it are dead and
    never looked at.  Deltas are the merges above it, oldest first.
    """
    deltas: list[bytes] = []
    for kind, value in records_newest_first:
        if kind == KIND_MERGE:
            deltas.append(value)
            continue
        if kind not in (KIND_PUT, KIND_DELETE):
            raise ValueError(f"unknown record kind {kind}")
        deltas.reverse()
        return kind, value, deltas
    deltas.reverse()
    return None, b"", deltas


def collapse_records(
    records_newest_first: Iterable[tuple[int, bytes]],
    operator: MergeOperator | None,
    finalize: bool,
) -> tuple[int, bytes] | None:
    """Collapse one key's ``(kind, encoded value)`` records into one record.

    What flush and compaction write for the key, computed on the encoding.
    ``finalize`` says no older history exists below these records: baseless
    deltas then become a full value and a tombstone is dropped (``None``).
    Without it they stay a ``KIND_MERGE`` partial / a ``KIND_DELETE`` that
    still shadows whatever lies below.
    """
    base_kind, base, deltas = _live_history(records_newest_first)
    if not deltas:
        if base_kind == KIND_PUT:
            return KIND_PUT, base
        return (KIND_DELETE, b"") if base_kind == KIND_DELETE and not finalize else None
    if base_kind == KIND_PUT:
        return KIND_PUT, _require(operator).full_merge_encoded(base, deltas)
    if base_kind == KIND_DELETE or finalize:  # deltas over nothing
        return KIND_PUT, _require(operator).full_merge_encoded(None, deltas)
    if len(deltas) == 1:
        return KIND_MERGE, deltas[0]  # a lone delta is its own partial merge
    return KIND_MERGE, _require(operator).partial_merge_encoded(deltas)


def read_value(
    records_newest_first: Iterable[tuple[int, bytes]],
    operator: MergeOperator | None,
    default: Any,
) -> Any:
    """The decoded value a read returns for one key's complete records.

    The object-domain twin of ``collapse_records(..., finalize=True)``: every
    stored byte is decoded once and nothing is re-encoded.  ``default``
    stands for a key that is absent or deleted.
    """
    base_kind, base, deltas = _live_history(records_newest_first)
    base_obj = decode_value(base) if base_kind == KIND_PUT else None
    if not deltas:
        return base_obj if base_kind == KIND_PUT else default
    return _require(operator).full_merge(base_obj, [decode_value(d) for d in deltas])


def _require(operator: MergeOperator | None) -> MergeOperator:
    if operator is None:
        raise ValueError("merge deltas present but table has no merge operator")
    return operator


_REGISTRY: dict[str, MergeOperator] = {
    op.name: op
    for op in (ListAppendMerge(), CounterMapMerge(), MaxMapMerge(), LastWriteWins())
}


def resolve_merge_operator(name: str) -> MergeOperator:
    """Look up a merge operator by its manifest name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown merge operator: {name!r}") from None


def register_merge_operator(operator: MergeOperator) -> None:
    """Register a custom operator so persisted manifests can resolve it."""
    _REGISTRY[operator.name] = operator
