"""LSM store behaviour: API contract, durability, recovery, compaction."""

from __future__ import annotations

import os

import pytest

from repro.kvstore import LSMStore
from repro.kvstore.api import (
    MergeUnsupportedError,
    StoreClosedError,
    UnknownTableError,
)


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "db")


def _open(path, **kwargs):
    return LSMStore(path, **kwargs)


class TestBasicOperations:
    def test_put_get_delete(self, store_path):
        with _open(store_path) as store:
            store.create_table("t")
            store.put("t", "k", {"x": 1})
            assert store.get("t", "k") == {"x": 1}
            store.delete("t", "k")
            assert store.get("t", "k") is None
            assert store.get("t", "k", default="fallback") == "fallback"

    def test_merge_list_append(self, store_path):
        with _open(store_path) as store:
            store.create_table("idx", merge_operator="list_append")
            store.merge("idx", ("A", "B"), [("t1", 1, 2)])
            store.merge("idx", ("A", "B"), [("t2", 3, 4)])
            assert store.get("idx", ("A", "B")) == [("t1", 1, 2), ("t2", 3, 4)]

    def test_merge_requires_operator(self, store_path):
        with _open(store_path) as store:
            store.create_table("plain")
            with pytest.raises(MergeUnsupportedError):
                store.merge("plain", "k", [1])

    def test_unknown_table(self, store_path):
        with _open(store_path) as store:
            with pytest.raises(UnknownTableError):
                store.get("missing", "k")

    def test_table_recreation_rules(self, store_path):
        with _open(store_path) as store:
            store.create_table("t", merge_operator="list_append")
            store.create_table("t", merge_operator="list_append")  # idempotent
            with pytest.raises(ValueError):
                store.create_table("t", merge_operator="counter_map")

    def test_closed_store_rejects_operations(self, store_path):
        store = _open(store_path)
        store.create_table("t")
        store.close()
        with pytest.raises(StoreClosedError):
            store.put("t", "k", 1)
        store.close()  # double close is fine

    def test_tables_are_namespaced(self, store_path):
        with _open(store_path) as store:
            store.create_table("a")
            store.create_table("b")
            store.put("a", "k", "from-a")
            store.put("b", "k", "from-b")
            assert store.get("a", "k") == "from-a"
            assert store.get("b", "k") == "from-b"

    def test_contains_helper(self, store_path):
        with _open(store_path) as store:
            store.create_table("t")
            store.put("t", "k", None)  # stored None is still present
            assert ("t", "k") in store
            assert ("t", "absent") not in store


class TestScan:
    def test_scan_sorted(self, store_path):
        with _open(store_path) as store:
            store.create_table("t")
            for i in (5, 3, 9, 1):
                store.put("t", i, i * 10)
            assert list(store.scan("t")) == [
                ((1,), 10),
                ((3,), 30),
                ((5,), 50),
                ((9,), 90),
            ]

    def test_scan_prefix(self, store_path):
        with _open(store_path) as store:
            store.create_table("t")
            store.put("t", ("a", 1), "a1")
            store.put("t", ("a", 2), "a2")
            store.put("t", ("b", 1), "b1")
            assert [k for k, _ in store.scan("t", prefix="a")] == [("a", 1), ("a", 2)]

    def test_scan_sees_memtable_and_sstables(self, store_path):
        with _open(store_path) as store:
            store.create_table("t")
            store.put("t", 1, "flushed")
            store.flush()
            store.put("t", 2, "buffered")
            assert list(store.scan("t")) == [((1,), "flushed"), ((2,), "buffered")]

    def test_scan_hides_deleted(self, store_path):
        with _open(store_path) as store:
            store.create_table("t")
            store.put("t", 1, "a")
            store.put("t", 2, "b")
            store.flush()
            store.delete("t", 1)
            assert list(store.scan("t")) == [((2,), "b")]

    def test_scan_merges_deltas_across_levels(self, store_path):
        with _open(store_path) as store:
            store.create_table("idx", merge_operator="list_append")
            store.merge("idx", "k", [1])
            store.flush()
            store.merge("idx", "k", [2])
            store.flush()
            store.merge("idx", "k", [3])  # memtable only
            assert list(store.scan("idx")) == [(("k",), [1, 2, 3])]


class TestDurability:
    def test_reopen_after_close(self, store_path):
        store = _open(store_path)
        store.create_table("t", merge_operator="list_append")
        store.merge("t", "k", [1, 2])
        store.put("t", "p", "v")
        store.close()
        store = _open(store_path)
        assert store.get("t", "k") == [1, 2]
        assert store.get("t", "p") == "v"
        store.close()

    def test_wal_recovery_without_flush(self, store_path):
        store = _open(store_path)
        store.create_table("t")
        store.put("t", "k", "unflushed")
        # Simulate crash: no close(), no flush -- data only in the WAL.
        store._wal.close()
        for reader in store._tableset.readers:
            reader.close()
        recovered = _open(store_path)
        assert recovered.get("t", "k") == "unflushed"
        recovered.close()

    def test_no_double_apply_of_merges_after_flush(self, store_path):
        store = _open(store_path)
        store.create_table("t", merge_operator="list_append")
        store.merge("t", "k", [1])
        store.flush()
        store.merge("t", "k", [2])
        store._wal.close()
        for reader in store._tableset.readers:
            reader.close()
        recovered = _open(store_path)
        assert recovered.get("t", "k") == [1, 2]
        recovered.close()

    def test_tables_survive_reopen(self, store_path):
        store = _open(store_path)
        store.create_table("t", merge_operator="counter_map")
        store.close()
        store = _open(store_path)
        assert store.has_table("t")
        store.merge("t", "e", {"x": [1.5, 1]})
        store.merge("t", "e", {"x": [0.5, 1]})
        assert store.get("t", "e") == {"x": [2.0, 2]}
        store.close()


class TestFlushCompaction:
    def test_auto_flush_on_threshold(self, store_path):
        with _open(store_path, memtable_flush_bytes=500) as store:
            store.create_table("t")
            for i in range(100):
                store.put("t", i, "x" * 50)
            assert store.sstable_count >= 1
            assert all(store.get("t", i) == "x" * 50 for i in range(100))

    def test_compaction_reduces_tables_and_keeps_data(self, store_path):
        with _open(store_path, compaction_min_tables=3) as store:
            store.create_table("idx", merge_operator="list_append")
            for round_ in range(6):
                for key in range(10):
                    store.merge("idx", key, [round_])
                store.flush()
            assert store.sstable_count < 6
            for key in range(10):
                assert store.get("idx", key) == [0, 1, 2, 3, 4, 5]

    def test_compact_all_single_table(self, store_path):
        with _open(store_path, auto_compact=False) as store:
            store.create_table("t")
            for i in range(5):
                store.put("t", i, i)
                store.flush()
            assert store.sstable_count == 5
            store.compact_all()
            assert store.sstable_count == 1
            assert [v for _, v in store.scan("t")] == [0, 1, 2, 3, 4]

    def test_compact_all_drops_tombstones(self, store_path):
        with _open(store_path, auto_compact=False) as store:
            store.create_table("t")
            store.put("t", "k", 1)
            store.flush()
            store.delete("t", "k")
            store.flush()
            store.compact_all()
            assert store.get("t", "k") is None
            assert store._tableset.readers[0].record_count == 0

    def test_old_sstable_files_removed(self, store_path):
        with _open(store_path, auto_compact=False) as store:
            store.create_table("t")
            for i in range(4):
                store.put("t", i, i)
                store.flush()
            store.compact_all()
        files = [f for f in os.listdir(store_path) if f.endswith(".sst")]
        assert len(files) == 1
