"""Compaction: run planning and multi-table record resolution."""

from __future__ import annotations

import pytest

from repro.kvstore.compaction import merge_records, plan_size_tiered
from repro.kvstore.encoding import decode_value, encode_value
from repro.kvstore.merge import ListAppendMerge
from repro.kvstore.sstable import write_sstable
from repro.kvstore.wal import KIND_DELETE, KIND_MERGE, KIND_PUT

OP = ListAppendMerge()


class _Sized:
    """What a planner sees of a table: its data size."""

    def __init__(self, data_bytes: int) -> None:
        self.data_bytes = data_bytes


def _window(sizes, **kwargs):
    """The size-tiered pick over tables of ``sizes`` as ``(start, stop,
    finalize)`` indices into the flat list, or ``None``."""
    tables = [_Sized(size) for size in sizes]
    pick = plan_size_tiered(tables, **kwargs)
    if pick is None:
        return None
    start = tables.index(pick.inputs[0])
    assert pick.inputs == tables[start : start + len(pick.inputs)]  # contiguous
    return start, start + len(pick.inputs), pick.finalize


class TestPlanning:
    def test_no_plan_below_minimum(self):
        assert _window([100, 100], min_tables=4) is None

    def test_uniform_sizes_compact_everything(self):
        # The run includes the oldest table, so it may finalize.
        assert _window([100, 110, 95, 100], min_tables=4) == (0, 4, True)

    def test_big_old_table_excluded(self):
        # One huge settled table followed by similar small ones: the run
        # must cover the small tables only -- and an older table may still
        # hold a base, so no finalize.
        assert _window([10_000, 100, 110, 95, 100], min_tables=4) == (1, 5, False)

    def test_dissimilar_sizes_do_not_group(self):
        assert _window([1, 10, 100, 1000], min_tables=4) is None

    def test_run_is_contiguous_and_first(self):
        assert _window([50, 55, 45, 50, 5000, 40], min_tables=3) == (0, 4, True)


def _table(tmp_path, name, records):
    return write_sstable(str(tmp_path / name), records)


class TestMergeRecords:
    def test_newest_put_wins(self, tmp_path):
        old = _table(tmp_path, "old.sst", [(b"k", KIND_PUT, encode_value([1]))])
        new = _table(tmp_path, "new.sst", [(b"k", KIND_PUT, encode_value([2]))])
        out = list(merge_records([old, new], lambda key: OP, finalize=True))
        assert out == [(KIND_PUT, b"k", encode_value([2]))]

    def test_merge_deltas_fold_into_base(self, tmp_path):
        old = _table(tmp_path, "old.sst", [(b"k", KIND_PUT, encode_value([1]))])
        new = _table(tmp_path, "new.sst", [(b"k", KIND_MERGE, encode_value([2, 3]))])
        ((kind, key, value),) = merge_records([old, new], lambda k: OP, finalize=False)
        assert kind == KIND_PUT and decode_value(value) == [1, 2, 3]

    def test_baseless_deltas_stay_merge_without_finalize(self, tmp_path):
        a = _table(tmp_path, "a.sst", [(b"k", KIND_MERGE, encode_value([1]))])
        b = _table(tmp_path, "b.sst", [(b"k", KIND_MERGE, encode_value([2]))])
        ((kind, _, value),) = merge_records([a, b], lambda k: OP, finalize=False)
        assert kind == KIND_MERGE and decode_value(value) == [1, 2]

    def test_baseless_deltas_finalize_to_put(self, tmp_path):
        a = _table(tmp_path, "a.sst", [(b"k", KIND_MERGE, encode_value([1]))])
        b = _table(tmp_path, "b.sst", [(b"k", KIND_MERGE, encode_value([2]))])
        ((kind, _, value),) = merge_records([a, b], lambda k: OP, finalize=True)
        assert kind == KIND_PUT and decode_value(value) == [1, 2]

    def test_tombstone_dropped_when_finalizing(self, tmp_path):
        old = _table(tmp_path, "old.sst", [(b"k", KIND_PUT, encode_value([1]))])
        new = _table(tmp_path, "new.sst", [(b"k", KIND_DELETE, b"")])
        assert list(merge_records([old, new], lambda k: OP, finalize=True)) == []

    def test_tombstone_kept_without_finalize(self, tmp_path):
        old = _table(tmp_path, "old.sst", [(b"k", KIND_PUT, encode_value([1]))])
        new = _table(tmp_path, "new.sst", [(b"k", KIND_DELETE, b"")])
        out = list(merge_records([old, new], lambda k: OP, finalize=False))
        assert out == [(KIND_DELETE, b"k", b"")]

    def test_delete_cuts_off_older_history(self, tmp_path):
        a = _table(tmp_path, "a.sst", [(b"k", KIND_PUT, encode_value([1]))])
        b = _table(tmp_path, "b.sst", [(b"k", KIND_DELETE, b"")])
        c = _table(tmp_path, "c.sst", [(b"k", KIND_MERGE, encode_value([9]))])
        ((kind, _, value),) = merge_records([a, b, c], lambda k: OP, finalize=True)
        assert kind == KIND_PUT and decode_value(value) == [9]

    def test_disjoint_keys_pass_through_sorted(self, tmp_path):
        a = _table(tmp_path, "a.sst", [(b"a", KIND_PUT, encode_value(1))])
        b = _table(tmp_path, "b.sst", [(b"c", KIND_PUT, encode_value(3))])
        c = _table(tmp_path, "c.sst", [(b"b", KIND_PUT, encode_value(2))])
        out = list(merge_records([a, b, c], lambda k: OP, finalize=True))
        assert [key for _, key, _ in out] == [b"a", b"b", b"c"]

    def test_merge_without_operator_raises(self, tmp_path):
        a = _table(tmp_path, "a.sst", [(b"k", KIND_MERGE, encode_value([1]))])
        with pytest.raises(ValueError):
            list(merge_records([a], lambda k: None, finalize=True))
