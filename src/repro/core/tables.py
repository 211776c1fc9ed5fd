"""The five index tables of §3.1.2, plus a metadata and a trace-number table.

Each table wraps one logical key-value table with the paper's schema:

=============  ==========================  =========================================
Table          Key                         Value
=============  ==========================  =========================================
Seq            trace_id                    [(activity, ts), ...] (append, chunked)
Index          (ev_a, ev_b)                [(trace_no, ts_a, ts_b), ...] (append, chunked)
Count          ev_a                        {ev_b: [sum_duration, completions]}
ReverseCount   ev_b                        {ev_a: [sum_duration, completions]}
LastChecked    ev_a                        {ev_b: last_completion_ts} (max)
Meta           "meta"                      {policy, partitions}
TraceNumber    trace_id                    trace_no (put once, never deleted)
=============  ==========================  =========================================

An Index chunk names a trace by its *trace number*: a dense per-store int,
0 upwards, given inside the update that first writes the trace's postings,
in the order its pairs first mention the traces.  The TraceNumber row of a
new trace is staged in the same atomic write as the postings that first
use its number, before them, so any prefix of a write that holds a chunk
holds the rows naming its numbers.  :class:`IndexTables` loads the table
once, gives numbers (:meth:`IndexTables.number_trace`) and maps numbers to
names on read: nothing above the builder's write sees a number.  A RAW
chunk, written for a batch whose stamps fit no NUMBERED chunk, holds the
trace ids themselves.

Values are written exclusively through merge operators, so index batches are
blind appends -- the Cassandra pattern the paper's scalability rests on --
and every write goes through :meth:`IndexTables.write`: inside a
:meth:`IndexTables.batch` block the writes are collected and reach the store
as one atomic :meth:`~repro.kvstore.api.KeyValueStore.write` (the builder
puts a whole ``update()`` in one), outside one each is its own.
``LastChecked`` holds what the Statistics query reads, one number per pair
(the paper's per-trace map fed Algorithm 1 line 3, which the builder derives:
DESIGN.md section 4).  Each table has one layout: a store written by older
code -- pair-keyed ``LastChecked`` rows, retired Index chunks, a ``method``
key in Meta -- is rewritten once by ``repro upgrade`` (:mod:`repro.upgrade`),
and the engine does not open it before.  The two list tables store each
appended batch as one columnar chunk (:mod:`repro.core.postings`); this module
is the only place outside that codec that sees a stored list value, and
everything above it works on the decoded forms: ``(activities, timestamps)``
columns for a Seq row, a :class:`~repro.core.postings.Postings` for an Index row.

The optional ``partition`` argument implements the paper's §3.1.3 note that
"a separate index table can be used for different periods": every partition
value gets its own ``Index`` table, and queries either target one partition
or fan out over all of them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Sequence

from repro.core.errors import IndexStateError
from repro.core.policies import Policy
from repro.core.postings import (
    Postings,
    decode_sequence,
    encode_numbered_postings,
    encode_sequence,
    item_formats,
    raw_chunk,
)
from repro.kvstore.api import KeyValueStore, WriteOp

SEQ = "seq"
INDEX = "index"
COUNT = "count"
REVERSE_COUNT = "reverse_count"
LAST_CHECKED = "last_checked"
META = "meta"
TRACE_NUMBER = "trace_number"

_DEFAULT_PARTITION = ""


def _index_table(partition: str) -> str:
    return INDEX if partition == _DEFAULT_PARTITION else f"{INDEX}:{partition}"


class IndexTables:
    """Typed accessors over the store tables used by builder and queries.

    Multi-key accessors go through the store's
    :meth:`~repro.kvstore.api.KeyValueStore.multi_get` (one snapshot, shared
    bloom/block work per batch).
    """

    def __init__(self, store: KeyValueStore) -> None:
        self.store = store
        #: the ops of the open :meth:`batch` block, else ``None``
        self._batch: list[WriteOp] | None = None
        #: trace id by trace number, and trace number by trace id (``None``
        #: after a failed write whose reload failed too: reloaded on the next)
        self._names: list = []
        self._numbers: dict | None = None
        self._load_trace_numbers()

    def _load_trace_numbers(self) -> None:
        """(Re)build the trace-number maps from the store (empty without the
        table: a store written before it, opened without :meth:`ensure_schema`).

        The writer's to call -- at construction and after a failed write,
        which may have left any prefix of itself in the store; readers only
        ever read :attr:`_names`, which is replaced, never shrunk in place.
        """
        numbers = {}
        if self.store.has_table(TRACE_NUMBER):
            numbers = {key[0]: number for key, number in self.store.scan(TRACE_NUMBER)}
        names = [None] * (max(numbers.values(), default=-1) + 1)
        for trace_id, number in numbers.items():
            names[number] = trace_id
        self._names, self._numbers = names, numbers

    def _after_failed_write(self) -> None:
        """Forget the numbers of a write that failed: the store holds some
        prefix of it, so the maps are read back from the store."""
        try:
            self._load_trace_numbers()
        except Exception:  # the store is failing too: retry before the next number
            self._numbers = None

    def trace_numbers(self, trace_ids: list[str]) -> list[int | None]:
        """The number of each of ``trace_ids``, ``None`` for a trace that has
        none yet (:meth:`number_trace` gives it one)."""
        if self._numbers is None:
            self._load_trace_numbers()
        return list(map(self._numbers.get, trace_ids))

    def number_trace(self, trace_id: str) -> int:
        """Give ``trace_id`` the next number, ``len(names)``: its name is
        appended before its row is staged, and the row before the postings
        that use it."""
        number = self._numbers[trace_id] = len(self._names)
        self._names.append(trace_id)
        self.write("put", TRACE_NUMBER, trace_id, number)
        return number

    def trace_names(self, numbers: list[int]) -> list[str]:
        """The trace id of each of ``numbers``."""
        names = self._names
        return [names[number] for number in numbers]

    # -- writes ------------------------------------------------------------

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Collect every write made through these tables inside the block
        into one atomic store write, issued when the block exits cleanly.

        An exception inside the block writes nothing.  Writers are the
        engine's to serialize (its one-writer lock), so blocks do not nest.
        """
        if self._batch is not None:
            raise RuntimeError("IndexTables.batch() blocks do not nest")
        self._batch = []
        try:
            yield
            ops = self._batch
        except BaseException:
            self._after_failed_write()
            raise
        finally:
            self._batch = None
        # Handed over one at a time, so each staged value is freed as soon
        # as the store has encoded it: an update's encoded rows and its
        # Python ones are never all alive at once (~1.2 MB of peak RSS on
        # the index_bulk benchmark build).
        ops.reverse()
        self._store_write(ops.pop() for _ in range(len(ops)))

    def _store_write(self, ops: Iterable[WriteOp]) -> None:
        try:
            self.store.write(ops)
        except BaseException:
            self._after_failed_write()
            raise

    def write(self, op: str, table: str, key: Any, value: Any = None) -> None:
        """The one way these tables write (``op`` as in
        :meth:`~repro.kvstore.api.KeyValueStore.write`): into the open
        :meth:`batch`, else straight to the store as a one-op write."""
        if self._batch is None:
            self._store_write([(op, table, key, value)])
        else:
            self._batch.append((op, table, key, value))

    # -- schema ------------------------------------------------------------

    def ensure_schema(self) -> None:
        """Create every fixed table (idempotent)."""
        self.store.create_table(SEQ, merge_operator="list_append")
        self.store.create_table(INDEX, merge_operator="list_append")
        self.store.create_table(COUNT, merge_operator="counter_map")
        self.store.create_table(REVERSE_COUNT, merge_operator="counter_map")
        self.store.create_table(LAST_CHECKED, merge_operator="max_map")
        self.store.create_table(META)
        self.store.create_table(TRACE_NUMBER)

    def ensure_partition(self, partition: str) -> None:
        """Create the Index table for ``partition`` (idempotent)."""
        self.store.create_table(_index_table(partition), merge_operator="list_append")

    def partitions(self) -> list[str]:
        """All index partitions present, default partition first.

        Partition names come from the meta document; their tables are
        re-checked with ``has_table`` at read time, so a meta entry whose
        table was never created is harmless.
        """
        names = [_DEFAULT_PARTITION]
        for name in self.get_meta().get("partitions", []):
            if name != _DEFAULT_PARTITION:
                names.append(name)
        return names

    # -- Meta ---------------------------------------------------------------

    def get_meta(self) -> dict:
        return self.store.get(META, "meta", {})

    def put_meta(self, meta: dict) -> None:
        self.write("put", META, "meta", meta)

    def check_configuration(self, policy: Policy) -> None:
        """Validate (or record) the policy this store was built with."""
        meta = self.get_meta()
        if not meta:
            self.put_meta({"policy": policy.value, "partitions": []})
            return
        if meta.get("policy") != policy.value:
            raise IndexStateError(
                f"store was built with policy {meta.get('policy')!r}, "
                f"requested {policy.value!r}"
            )

    def register_partition(self, partition: str) -> None:
        if partition == _DEFAULT_PARTITION:
            return
        meta = self.get_meta()
        partitions = meta.setdefault("partitions", [])
        if partition not in partitions:
            partitions.append(partition)
            self.put_meta(meta)

    # -- Seq -----------------------------------------------------------------

    def append_sequence(
        self, trace_id: str, events: list[tuple[str, float]]
    ) -> None:
        self.write("merge", SEQ, trace_id, encode_sequence(events))

    def get_sequence(self, trace_id: str) -> tuple[list[str], list[float]]:
        """One trace's ``(activities, timestamps)`` columns (empty when unknown)."""
        return decode_sequence(self.store.get(SEQ, trace_id, ()))

    def get_sequence_tail(self, trace_id: str) -> float | None:
        """Timestamp of the trace's last stored event (``None`` when unknown).

        Decodes the row's last item only: a trace is append-only in time.
        """
        _, stamps = decode_sequence(self.store.get(SEQ, trace_id, ())[-1:])
        return stamps[-1] if stamps else None

    def get_sequences(
        self, trace_ids: list[str]
    ) -> list[tuple[list[str], list[float]]]:
        """Stored sequences of many traces (empty when unknown), one batched read."""
        return [decode_sequence(row) for row in self.store.multi_get(SEQ, trace_ids, ())]

    def iter_sequences(self) -> Iterator[tuple[str, tuple[list[str], list[float]]]]:
        """``(trace_id, (activities, timestamps))`` of every trace, id-ordered."""
        for key, value in self.store.scan(SEQ):
            yield key[0], decode_sequence(value)

    def delete_sequence(self, trace_id: str) -> None:
        self.write("delete", SEQ, trace_id)

    # -- Index ------------------------------------------------------------------

    def append_index(
        self,
        pair: tuple[str, str],
        columns: tuple[Sequence[int], Sequence[float], Sequence[float]],
        partition: str = _DEFAULT_PARTITION,
    ) -> None:
        """Append one batch of ``pair``'s completions, given as the parallel
        columns ``(trace numbers, ts_a, ts_b)`` (read, not kept; the two
        stamp columns both lists or both tuples), every
        number given by :meth:`number_trace` or earlier."""
        # One chunk per append batch: the list_append merge makes the stored
        # value a list of chunks.
        numbers, ts_a, ts_b = columns
        if not numbers:
            return
        chunk = encode_numbered_postings(numbers, ts_a, ts_b)
        if chunk is None:  # timestamps no chunk holds: a RAW chunk of the ids
            chunk = raw_chunk(zip(self.trace_names(numbers), ts_a, ts_b))
        self.write("merge", _index_table(partition), pair, [chunk])

    def _index_tables_for(self, partition: str | None) -> list[str]:
        """Physical Index tables a read targets, in union (partition) order.

        A named (or default) partition resolves to its table unconditionally
        -- a missing table surfaces as ``UnknownTableError`` exactly like any
        other read.  ``partition=None`` unions every registered partition,
        each guarded by the same ``has_table`` check (a meta entry whose
        table was never created is skipped, the default partition included).
        """
        if partition is not None:
            return [_index_table(partition)]
        return [
            table
            for name in self.partitions()
            if self.store.has_table(table := _index_table(name))
        ]

    def get_index(
        self, pair: tuple[str, str], partition: str | None = _DEFAULT_PARTITION
    ) -> list[tuple[str, float, float]]:
        """Index entries for ``pair`` as flat rows, grouped per trace and
        time-ordered within one; ``partition=None`` unions all partitions."""
        return self.get_index_many([pair], partition)[pair].rows()

    def get_index_many(
        self,
        pairs: list[tuple[str, str]],
        partition: str | None = _DEFAULT_PARTITION,
    ) -> dict[tuple[str, str], Postings]:
        """The postings of many pairs, fetched as one batch per table.

        One :meth:`~repro.kvstore.api.KeyValueStore.multi_get` per physical
        Index table replaces a point read per (pair, partition); every
        requested pair maps to a (possibly empty)
        :class:`~repro.core.postings.Postings`, with ``partition=None``
        unioning partitions in registration order.  Nothing past the chunk
        dictionaries is decoded here.
        """
        unique = list(dict.fromkeys(pairs))
        rows: list[list] = [[] for _ in unique]
        for table in self._index_tables_for(partition):
            for merged, row in zip(rows, self.store.multi_get(table, unique, ())):
                merged.extend(row)
        names = self._names  # taken after the reads: it names every number they hold
        return {pair: Postings(row, names) for pair, row in zip(unique, rows)}

    def _stored_index_tables(self) -> list[str]:
        """Every physical Index table in the store, registered or not."""
        return [
            table
            for table in self.store.list_tables()
            if table == INDEX or table.startswith(INDEX + ":")
        ]

    def iter_index(self) -> Iterator[tuple[str, tuple[str, str], Postings]]:
        """``(partition, pair, postings)`` of every stored Index row."""
        for table in self._stored_index_tables():
            for pair, row in self.store.scan(table):
                yield table[len(INDEX) + 1 :], tuple(pair), Postings(row, self._names)

    def format_stats(self) -> dict[str, dict[str, dict[str, int]]]:
        """Per list table, chunks and rows held in each storage format.

        ``{table: {format: {"chunks": c, "entries": e}}}`` with the format
        names of :func:`repro.core.postings.item_formats`; a ``plain`` item
        is one Seq event outside any chunk (a single-event append, or a
        batch no chunk holds).  A full scan, for an operator report.
        """
        stats: dict[str, dict[str, dict[str, int]]] = {}
        seq = [SEQ] if self.store.has_table(SEQ) else []
        for table in seq + self._stored_index_tables():
            formats = stats[table] = {}
            for _, row in self.store.scan(table):
                for name, entries in item_formats(row):
                    slot = formats.setdefault(name, {"chunks": 0, "entries": 0})
                    slot["chunks"] += name != "plain"
                    slot["entries"] += entries
        return stats

    # -- Count / ReverseCount ------------------------------------------------------

    def add_counts(
        self, first: str, stats: dict[str, list[float]]
    ) -> None:
        """Merge ``{ev_b: [sum_duration, completions]}`` into Count[first]."""
        self.write("merge", COUNT, first, stats)

    def add_reverse_counts(self, second: str, stats: dict[str, list[float]]) -> None:
        self.write("merge", REVERSE_COUNT, second, stats)

    def get_count_rows(
        self, keys: list[str], reverse: bool = False
    ) -> dict[str, dict[str, tuple[float, int]]]:
        """``{key: {other: (sum_duration, completions)}}`` for many ``Count``
        keys (first events) -- ``ReverseCount`` keys (second events) with
        ``reverse`` -- in one batched read; an unknown key maps to ``{}``."""
        unique = list(dict.fromkeys(keys))
        raw_rows = self.store.multi_get(REVERSE_COUNT if reverse else COUNT, unique, {})
        return {
            key: {other: (vals[0], int(vals[1])) for other, vals in raw.items()}
            for key, raw in zip(unique, raw_rows)
        }

    def get_counts(self, first: str) -> dict[str, tuple[float, int]]:
        """``{ev_b: (sum_duration, completions)}`` for pairs starting at ``first``."""
        return self.get_count_rows([first])[first]

    def get_reverse_counts(self, second: str) -> dict[str, tuple[float, int]]:
        return self.get_count_rows([second], reverse=True)[second]

    def get_pair_count(self, pair: tuple[str, str]) -> tuple[float, int]:
        """``(sum_duration, completions)`` for one pair; zeros when absent."""
        return self.get_pair_counts([pair])[pair]

    def get_pair_counts(
        self, pairs: list[tuple[str, str]]
    ) -> dict[tuple[str, str], tuple[float, int]]:
        """``{pair: (sum_duration, completions)}`` for many pairs at once.

        One batched read over the distinct first events replaces a Count
        look-up per pair (the ``statistics(all_pairs=True)`` path was
        O(p^2) point reads); absent pairs map to ``(0.0, 0)``.
        """
        per_first = self.get_count_rows([first for first, _ in pairs])
        return {pair: per_first[pair[0]].get(pair[1], (0.0, 0)) for pair in pairs}

    # -- LastChecked ------------------------------------------------------------------

    def add_last_completions(self, first: str, completions: dict[str, float]) -> None:
        """Merge ``{ev_b: last_completion_ts}`` into LastChecked[first]: per
        second event the latest timestamp wins, whichever trace it came from."""
        self.write("merge", LAST_CHECKED, first, completions)

    def get_last_completions(
        self, pairs: list[tuple[str, str]]
    ) -> dict[tuple[str, str], float | None]:
        """``{pair: most recent completion in any trace}`` for many pairs, in
        one batched read of one row per first event; ``None`` for a pair that
        never completed."""
        unique = list(dict.fromkeys(pairs))
        firsts = list(dict.fromkeys(first for first, _ in unique))
        per_first = dict(zip(firsts, self.store.multi_get(LAST_CHECKED, firsts, {})))
        return {(first, second): per_first[first].get(second) for first, second in unique}

    def iter_last_completions(self) -> Iterator[tuple[tuple[str, str], float]]:
        """``(pair, most recent completion)`` of every pair that completed."""
        for key, row in self.store.scan(LAST_CHECKED):
            for second, ts in row.items():
                yield (key[0], second), ts
