"""Trace numbers are given at write time, in first-mention order.

An update's pairs are walked in first-appearance order, each pair's rows in
trace order; a trace gets the next number at its first mention there, so
the numbers follow the chunks, not the order the traces arrived in, and a
trace that completes no pair gets none.  A failed update gives no number
that outlives it: the next update and a reopened store agree on every
number and every stored row with a store that never saw it.
"""

from __future__ import annotations

import pytest

from repro.core.engine import SequenceIndex
from repro.core.model import Event
from repro.faults import ENOSPC, Fault, FaultSchedule, FaultyIO
from repro.kvstore import LSMStore

TABLES = ("seq", "index", "count", "reverse_count", "last_checked", "trace_number")


def _numbers(store) -> dict[str, int]:
    return {key[0]: number for key, number in store.scan("trace_number")}


def test_numbers_follow_first_mention_in_chunk_order():
    index = SequenceIndex()
    # arrival order tx, ty, tz, tw; (A, B) is written before (C, D), so tz is
    # mentioned before ty; tw completes no pair
    index.update(
        [
            Event("tx", "A", 1), Event("tx", "B", 2),
            Event("ty", "C", 1), Event("ty", "D", 2),
            Event("tz", "A", 1), Event("tz", "B", 2),
            Event("tw", "E", 1),
        ]
    )
    assert _numbers(index.store) == {"tx": 0, "tz": 1, "ty": 2}
    assert {m.trace_id for m in index.detect(["A", "B"])} == {"tx", "tz"}
    # a known trace is numbered by its first pair; a numbered one keeps its number
    index.update([Event("tw", "F", 2), Event("ty", "A", 3)])
    assert _numbers(index.store) == {"tx": 0, "tz": 1, "ty": 2, "tw": 3}
    assert {m.trace_id for m in index.detect(["E", "F"])} == {"tw"}
    index.close()


_FIRST = [Event(f"t{i}", activity, k) for i in range(4) for k, activity in enumerate("ABCA", 1)]
#: a known trace, a new one of one event, and two new ones the failed
#: update numbers (4 and 5) before it fails
_FAILED = [
    Event("t2", "D", 10),
    Event("t5", "D", 10),
    Event("t6", "D", 10), Event("t6", "A", 11),
    Event("t7", "B", 10), Event("t7", "C", 11),
]
#: the failed events again, after a new trace that is now mentioned first
_NEXT = [Event("t8", "C", 20), Event("t8", "B", 21), *_FAILED, Event("t1", "B", 20)]


def _rows(store) -> dict:
    return {table: list(store.scan(table)) for table in TABLES}


def _wal_writes_of_first_update(path) -> int:
    probe = Fault(ENOSPC, "write", nth=10**6, path_part="wal")
    index = SequenceIndex(LSMStore(str(path), io=FaultyIO(FaultSchedule([probe]))))
    index.update(_FIRST)
    writes = 10**6 - probe.nth
    index.close()
    return writes


def test_a_failed_update_gives_no_number(tmp_path):
    clean = SequenceIndex(LSMStore(str(tmp_path / "clean")))
    clean.update(_FIRST)
    clean.update(_NEXT)
    expected = _rows(clean.store)
    clean.close()

    # ENOSPC on the first write of the failed update's WAL frame
    nth = _wal_writes_of_first_update(tmp_path / "probe") + 1
    schedule = FaultSchedule([Fault(ENOSPC, "write", nth=nth, path_part="wal")])
    path = str(tmp_path / "faulty")
    index = SequenceIndex(LSMStore(path, io=FaultyIO(schedule)))
    index.update(_FIRST)
    with pytest.raises(OSError):
        index.update(_FAILED)
    assert schedule.injected
    index.update(_NEXT)
    assert _rows(index.store) == expected
    numbers = _numbers(index.store)
    assert sorted(numbers.values()) == list(range(len(numbers)))
    assert numbers["t8"] == 4 and "t5" not in numbers  # t5: one event, no pair
    index.close()

    reopened = SequenceIndex(LSMStore(path))
    assert _rows(reopened.store) == expected
    reopened.update([Event("t9", "A", 30), Event("t9", "B", 31)])
    assert _numbers(reopened.store) == {**numbers, "t9": len(numbers)}
    reopened.close()
