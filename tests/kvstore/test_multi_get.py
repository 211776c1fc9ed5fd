"""Unit tests for the batched ``multi_get`` read path.

The contract: ``store.multi_get(table, keys, default)`` is observationally
identical to ``[store.get(table, k, default) for k in keys]`` -- merge
operators, tombstones, defaults and duplicates included -- while sharing
per-batch work (one snapshot, one bloom/block probe pass per SSTable).
"""

from __future__ import annotations

import pytest

from repro.kvstore import LSMStore
from repro.kvstore.api import UnknownTableError


@pytest.fixture
def store(tmp_path):
    s = LSMStore(tmp_path / "store", memtable_flush_bytes=128)
    yield s
    s.close()


def _loop_of_gets(store, table, keys, default=None):
    return [store.get(table, key, default) for key in keys]


class TestBasics:
    def test_empty_batch(self, store):
        store.create_table("t")
        assert store.multi_get("t", []) == []

    def test_order_and_defaults(self, store):
        store.create_table("t")
        store.put("t", "a", 1)
        store.put("t", "c", 3)
        keys = ["c", "missing", "a"]
        assert store.multi_get("t", keys) == [3, None, 1]
        assert store.multi_get("t", keys, default="absent") == [3, "absent", 1]

    def test_duplicate_keys_each_answered(self, store):
        store.create_table("t")
        store.put("t", "a", 1)
        assert store.multi_get("t", ["a", "a", "b", "a"], 0) == [1, 1, 0, 1]

    def test_tuple_and_scalar_keys_normalize_alike(self, store):
        store.create_table("t")
        store.put("t", ("pair", 1), "x")
        # A scalar key is the 1-tuple of itself.
        store.put("t", "k", "y")
        assert store.multi_get("t", [("pair", 1), "k", ("k",)]) == ["x", "y", "y"]

    def test_unknown_table_raises(self, store):
        with pytest.raises(UnknownTableError):
            store.multi_get("nope", ["a"])

    def test_results_do_not_alias_store_state(self, store):
        store.create_table("t")
        store.put("t", "a", [1, 2])
        (value,) = store.multi_get("t", ["a"])
        value.append(99)
        assert store.get("t", "a") == [1, 2]


class TestMergeSemantics:
    def test_merge_operator_resolution(self, store):
        store.create_table("idx", merge_operator="list_append")
        store.merge("idx", "k", [1])
        store.merge("idx", "k", [2, 3])
        assert store.multi_get("idx", ["k", "other"], []) == [[1, 2, 3], []]

    def test_tombstone_returns_default(self, store):
        store.create_table("t")
        store.put("t", "a", 1)
        store.delete("t", "a")
        assert store.multi_get("t", ["a"], "gone") == ["gone"]

    def test_merge_after_delete_restarts_from_empty(self, store):
        store.create_table("idx", merge_operator="list_append")
        store.merge("idx", "k", [1, 2])
        store.delete("idx", "k")
        store.merge("idx", "k", [3])
        assert store.multi_get("idx", ["k"]) == [[3]]

    def test_counter_and_max_maps(self, store):
        store.create_table("cnt", merge_operator="counter_map")
        store.create_table("mx", merge_operator="max_map")
        store.merge("cnt", "a", {"x": [1.0, 1]})
        store.merge("cnt", "a", {"x": [2.5, 1], "y": [1.0, 1]})
        store.merge("mx", "p", {"t1": 5.0})
        store.merge("mx", "p", {"t1": 3.0, "t2": 9.0})
        assert store.multi_get("cnt", ["a"]) == [{"x": [3.5, 2], "y": [1.0, 1]}]
        assert store.multi_get("mx", ["p"]) == [{"t1": 5.0, "t2": 9.0}]


class TestLayeredReads:
    """Batches must resolve across memtable / sealed / SSTable layers."""

    def test_deltas_straddling_flush(self, tmp_path):
        with LSMStore(tmp_path / "s") as store:
            store.create_table("idx", merge_operator="list_append")
            store.merge("idx", "k", [1])
            store.flush()  # base+delta now in an SSTable
            store.merge("idx", "k", [2])  # delta in the memtable
            store.put("idx", "fresh", [9])
            assert store.multi_get("idx", ["k", "fresh", "nope"], []) == [
                [1, 2],
                [9],
                [],
            ]

    def test_newer_sstable_shadows_older(self, tmp_path):
        with LSMStore(tmp_path / "s") as store:
            store.create_table("t")
            store.put("t", "a", "old")
            store.flush()
            store.put("t", "a", "new")
            store.flush()
            assert store.multi_get("t", ["a"]) == ["new"]

    def test_tombstone_in_newer_layer_hides_sstable_value(self, tmp_path):
        with LSMStore(tmp_path / "s") as store:
            store.create_table("t")
            store.put("t", "a", 1)
            store.put("t", "b", 2)
            store.flush()
            store.delete("t", "a")
            assert store.multi_get("t", ["a", "b"], "gone") == ["gone", 2]

    def test_equivalence_after_reopen(self, tmp_path):
        path = tmp_path / "s"
        with LSMStore(path, memtable_flush_bytes=64) as store:
            store.create_table("idx", merge_operator="list_append")
            store.create_table("t")
            for i in range(30):
                store.merge("idx", f"k{i % 5}", [i])
                store.put("t", f"p{i % 7}", i)
            store.delete("t", "p0")
        with LSMStore(path) as store:
            keys_idx = [f"k{i}" for i in range(7)]
            keys_t = [f"p{i}" for i in range(9)]
            assert store.multi_get("idx", keys_idx, []) == _loop_of_gets(
                store, "idx", keys_idx, []
            )
            assert store.multi_get("t", keys_t) == _loop_of_gets(store, "t", keys_t)


class TestMetrics:
    def test_batch_counters(self, store):
        store.create_table("t")
        store.put("t", "a", 1)
        before = store.metrics.snapshot()
        store.multi_get("t", ["a", "b", "a"])
        after = store.metrics.snapshot()
        assert after["multi_get_batches"] - before["multi_get_batches"] == 1
        assert after["gets"] - before["gets"] == 3
