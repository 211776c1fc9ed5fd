"""Index chunks name a trace by its per-store number.

Each store numbers a trace, 0 upwards, the first time it writes the trace's
postings; the ``trace_number`` table names the numbers and is never deleted
from.  The oracle of every answer here is the same engine writing the
POSTINGS layout, whose chunks spell the trace ids out (what the engine wrote
before trace numbers): numbering must not change one answer -- not after a
prune, not after a write that failed part-way, not across a reopen, not
across shards.
"""

from __future__ import annotations

import itertools
import os
import shutil
from contextlib import contextmanager

import pytest

import repro.core.tables as tables_module
from repro.core.engine import SequenceIndex
from repro.core.model import Event, EventLog
from repro.core.postings import (
    TAG_NUMBERED,
    TAG_RAW,
    CorruptPostingsError,
    encode_numbered_postings,
)
from repro.core.tables import INDEX, TRACE_NUMBER, IndexTables
from repro.ingest.convergence import index_snapshot
from repro.kvstore import LSMStore
from repro.shard.index import ShardedSequenceIndex
from repro.upgrade import upgrade_store

from .test_mixed_formats import FIXTURE, _load_fixture, _oracle

ALPHABET = "ABC"
PATTERNS = [list(p) for n in (1, 2, 3) for p in itertools.product(ALPHABET, repeat=n)]


@contextmanager
def _trace_ids_in_chunks():
    """Index chunks written inside the block hold the trace ids themselves."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tables_module, "encode_numbered_postings", lambda *columns: None)
        yield


def _update_oracle(oracle, events, **kwargs):
    with _trace_ids_in_chunks():
        return oracle.update(events, **kwargs)


def _answers(index) -> dict:
    out = {"snapshot": index_snapshot(index)}
    for pattern in PATTERNS:
        out["detect", tuple(pattern)] = index.detect(pattern)
    out["composite"] = index.detect("SEQ(A, !C, B)")
    return out


def _numbers(store) -> dict[str, int]:
    return {key[0]: number for key, number in store.scan(TRACE_NUMBER)}


def _batch(traces: dict[str, str], start: int) -> list[Event]:
    """One event per letter, the k-th of each trace stamped ``start + k``."""
    return [
        Event(trace_id, activity, start + k)
        for trace_id, activities in traces.items()
        for k, activity in enumerate(activities)
    ]


def test_traces_are_numbered_in_first_write_order(lsm_store):
    index = SequenceIndex(lsm_store)
    index.update(EventLog.from_dict({"t2": "AB", "t1": "BA", "t3": "C"}))
    # t3 has no pair yet: it is numbered when its first postings are written
    assert _numbers(lsm_store) == {"t2": 0, "t1": 1}
    index.update([Event("t3", "A", 5), Event("t4", "A", 1), Event("t4", "B", 2)])
    assert _numbers(lsm_store) == {"t2": 0, "t1": 1, "t3": 2, "t4": 3}
    chunks = [item for _, row in lsm_store.scan(INDEX) for item in row]
    assert chunks and all(chunk[0] == TAG_NUMBERED for chunk in chunks)


def test_a_pruned_and_re_added_trace_keeps_its_number(lsm_store):
    index = SequenceIndex(lsm_store)
    oracle = SequenceIndex()
    first = _batch({"t1": "ABAB", "t2": "BAB"}, 1)
    index.update(first)
    _update_oracle(oracle, first)
    before = _numbers(lsm_store)

    for engine in (index, oracle):
        engine.prune_trace("t1")
    assert _numbers(lsm_store) == before  # a prune leaves the table
    assert _answers(index) == _answers(oracle)

    again = _batch({"t1": "BCA", "t3": "AB"}, 100)
    index.update(again)
    _update_oracle(oracle, again)
    assert _numbers(lsm_store) == {**before, "t3": 2}
    assert _answers(index) == _answers(oracle)


def _fail_after(engine, events, kept: int, with_next_numbers: bool) -> None:
    """An update whose store write applies a prefix of its ops, then raises.

    The prefix ends right after the ``kept``-th op that is not a
    trace-number put -- with ``with_next_numbers``, after the puts staged
    next too: numbers whose chunk the prefix does not hold.
    """
    store = engine.shards[engine.shard_of(events[0].trace_id)].store
    real_write = store.write

    def write_prefix(ops):
        ops = list(ops)
        cut = logical = 0
        while cut < len(ops) and logical < kept:
            logical += ops[cut][1] != TRACE_NUMBER
            cut += 1
        while with_next_numbers and cut < len(ops) and ops[cut][1] == TRACE_NUMBER:
            cut += 1
        real_write(ops[:cut])
        raise RuntimeError("killed part-way")

    store.write = write_prefix
    try:
        with pytest.raises(RuntimeError, match="part-way"):
            engine.update(events)
    finally:
        del store.write


@pytest.mark.parametrize("with_next_numbers", [False, True])
@pytest.mark.parametrize("kept", [0, 1, 2, 4, 7, 12, 100])
def test_a_write_that_failed_part_way_changes_no_answer(tmp_path, kept, with_next_numbers):
    path = str(tmp_path / "store")
    index = SequenceIndex(LSMStore(path))
    oracle = SequenceIndex()
    first = _batch({"t1": "ABC", "t2": "BA"}, 1)
    failed = _batch({"t1": "CA", "t3": "ABAB", "t4": "CB"}, 10)
    later = _batch({"t3": "C", "t4": "A", "t5": "BCA"}, 20)
    last = _batch({"t1": "B", "t5": "C", "t6": "AC"}, 30)
    index.update(first)
    _update_oracle(oracle, first)
    _fail_after(index, failed, kept, with_next_numbers)
    with _trace_ids_in_chunks():
        _fail_after(oracle, failed, kept, with_next_numbers)
    assert _answers(index) == _answers(oracle)

    index.update(later)
    _update_oracle(oracle, later)
    assert _answers(index) == _answers(oracle)
    index.close()

    index = SequenceIndex(LSMStore(path))
    assert _answers(index) == _answers(oracle)
    index.update(last)
    _update_oracle(oracle, last)
    assert _answers(index) == _answers(oracle)
    numbers = _numbers(index.store)
    assert sorted(numbers.values()) == list(range(len(numbers)))
    index.close()


def test_numbers_are_shard_local_and_two_shards_answer_as_one():
    traces = {f"t{n}": "ABCAB"[n % 3 :] + "CBA"[: n % 4] for n in range(24)}
    single = SequenceIndex()
    sharded = ShardedSequenceIndex([SequenceIndex() for _ in range(2)])
    for batch in (_batch(traces, 1), _batch({t: "BCA" for t in list(traces)[::3]}, 50)):
        single.update(batch)
        sharded.update(batch)
    owned = [set(), set()]
    for trace_id in traces:
        owned[sharded.shard_of(trace_id)].add(trace_id)
    assert all(owned)  # both shards hold traces
    for shard, mine in zip(sharded.shards, owned):
        numbers = _numbers(shard.store)
        assert set(numbers) == mine
        assert sorted(numbers.values()) == list(range(len(mine)))
    assert _answers(sharded) == _answers(single)


def test_the_upgrade_numbers_the_legacy_stores_traces(tmp_path):
    batches, partitions = _load_fixture()
    path = str(tmp_path / "store")
    shutil.copytree(os.path.join(FIXTURE, "store"), path)
    report = upgrade_store(path)  # a store written before the table
    index = SequenceIndex(LSMStore(path))
    numbers = _numbers(index.store)
    assert sorted(numbers.values()) == list(range(report.traces_numbered))
    index.update(batches[3], partition=partitions[3])

    for _, row in index.store.scan(INDEX):
        assert {item[0] for item in row} <= {TAG_NUMBERED, TAG_RAW}
    numbers = _numbers(index.store)
    assert sorted(numbers.values()) == list(range(len(numbers)))
    expected = _oracle(batches, partitions, 4)
    for pattern in PATTERNS:
        for partition in ("", None):
            assert index.detect(pattern, partition=partition) == expected.detect(
                pattern, partition=partition
            )
    index.close()


def test_a_number_past_the_name_table_is_corrupt(lsm_store):
    index = SequenceIndex(lsm_store)
    index.update([Event("t1", "A", 1), Event("t1", "B", 2)])
    assert _numbers(lsm_store) == {"t1": 0}
    # a chunk naming trace number 1, which the table does not hold
    index.tables.write("merge", INDEX, ("A", "B"), [encode_numbered_postings([1], [3], [4])])
    with pytest.raises(CorruptPostingsError, match="name table"):
        IndexTables(lsm_store).get_index(("A", "B"))
    with pytest.raises(CorruptPostingsError, match="name table"):
        SequenceIndex(lsm_store).detect(["A", "B"])


def test_a_reload_that_fails_too_is_retried_before_the_next_number():
    index = SequenceIndex()
    oracle = SequenceIndex()
    first = _batch({"t1": "ABC", "t2": "BA"}, 1)
    failed = _batch({"t3": "ABAB", "t4": "CB"}, 10)
    later = _batch({"t4": "A", "t5": "BCA"}, 20)
    index.update(first)
    _update_oracle(oracle, first)
    store = index.store

    def unreadable(*args, **kwargs):
        raise OSError("store unreadable")

    store.scan = unreadable  # the reload after the failed write fails too
    _fail_after(index, failed, 5, with_next_numbers=True)  # the write's own error
    del store.scan
    with _trace_ids_in_chunks():
        _fail_after(oracle, failed, 5, with_next_numbers=True)

    index.update(later)
    _update_oracle(oracle, later)
    assert _answers(index) == _answers(oracle)
    numbers = _numbers(store)
    assert sorted(numbers.values()) == list(range(len(numbers)))
