"""Units for the serving-layer primitives: LRU cache, block cache, RWLock."""

from __future__ import annotations

import threading

import pytest

from repro.kvstore import BlockCache, LRUCache, RWLock


class TestLRUCache:
    def test_basic_get_put(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", "dflt") == "dflt"

    def test_capacity_evicts_least_recent(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_weighted_entries(self):
        cache = LRUCache(100)
        cache.put("big", "x", weight=80)
        cache.put("small", "y", weight=30)  # 110 > 100: evicts "big"
        assert cache.get("big") is None
        assert cache.weight == 30

    def test_oversized_item_not_cached(self):
        cache = LRUCache(10)
        cache.put("huge", "x", weight=11)
        assert cache.get("huge") is None
        assert len(cache) == 0

    def test_oversized_put_drops_the_old_value_and_evicts_nothing(self):
        cache = LRUCache(10)
        cache.put("k", "a")
        cache.put("other", "o")
        cache.put("k", "b", weight=11)
        assert cache.get("k") is None
        assert cache.get("other") == "o"
        assert cache.weight == 1 and cache.evictions == 0

    def test_overwrite_adjusts_weight(self):
        cache = LRUCache(10)
        cache.put("k", "a", weight=6)
        cache.put("k", "b", weight=3)
        assert cache.weight == 3
        assert cache.get("k") == "b"

    def test_stats_and_clear(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        cache.clear()
        assert len(cache) == 0 and cache.weight == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_discard_drops_only_the_given_keys(self):
        cache = LRUCache(10)
        for key in "abc":
            cache.put(key, key.upper(), weight=2)
        assert cache.discard({"a", "c", "zz"}) == 2
        assert cache.get("a") is None and cache.get("b") == "B"
        assert cache.weight == 2 and cache.evictions == 0

    def test_discard_walks_the_smaller_side(self):
        class Keys:
            """A key collection that may be walked or probed, not both."""

            def __init__(self, size, walkable):
                self.size, self.walkable = size, walkable

            def __len__(self):
                return self.size

            def __iter__(self):
                assert self.walkable, "walked the larger side"
                return iter(["a"])

            def __contains__(self, key):
                assert not self.walkable, "probed the larger side"
                return key == "a"

        cache = LRUCache(10)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.discard(Keys(10**6, walkable=False)) == 1  # walks the cache
        cache.put("a", 1)
        assert cache.discard(Keys(1, walkable=True)) == 1  # walks the keys
        assert cache.get("b") == 2


class TestBlockCache:
    def test_evict_owner_drops_only_that_reader(self):
        cache = BlockCache(1000)
        cache.put((1, 0), "r1b0", weight=10)
        cache.put((1, 1), "r1b1", weight=10)
        cache.put((2, 0), "r2b0", weight=10)
        cache.evict_owner(1)
        assert cache.get((1, 0)) is None
        assert cache.get((1, 1)) is None
        assert cache.get((2, 0)) == "r2b0"
        assert cache.weight == 10

    def test_evict_owners_batch_drops_all_in_one_sweep(self):
        cache = BlockCache(1000)
        for owner in (1, 2, 3):
            for slot in (0, 1):
                cache.put((owner, slot), f"r{owner}b{slot}", weight=5)
        cache.evict_owners({1, 3})
        assert cache.get((1, 0)) is None
        assert cache.get((3, 1)) is None
        assert cache.get((2, 0)) == "r2b0"
        assert cache.get((2, 1)) == "r2b1"
        assert cache.weight == 10

    def test_metrics_mirroring(self):
        from repro.kvstore import StoreMetrics

        metrics = StoreMetrics()
        cache = BlockCache(100, metrics=metrics)
        cache.get((1, 0))
        cache.put((1, 0), "block", weight=5)
        cache.get((1, 0))
        snapshot = metrics.snapshot()
        assert snapshot["block_cache_misses"] == 1
        assert snapshot["block_cache_hits"] == 1


class TestRWLock:
    def test_concurrent_readers(self):
        lock = RWLock()
        inside = threading.Barrier(3, timeout=5)

        def read():
            with lock.read():
                inside.wait()  # all three must be inside simultaneously

        threads = [threading.Thread(target=read) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_writer_excludes_readers(self):
        lock = RWLock()
        order = []
        writer_in = threading.Event()

        def write():
            with lock.write():
                writer_in.set()
                order.append("write")

        with lock.read():
            thread = threading.Thread(target=write)
            thread.start()
            assert not writer_in.wait(timeout=0.05)  # blocked behind reader
            order.append("read")
        thread.join()
        assert order == ["read", "write"]

    def test_write_lock_is_reentrant(self):
        lock = RWLock()
        with lock.write():
            with lock.write():
                pass

    def test_writer_can_read(self):
        lock = RWLock()
        with lock.write():
            with lock.read():
                pass

    def test_read_to_write_upgrade_refused(self):
        lock = RWLock()
        with lock.read():
            with pytest.raises(RuntimeError):
                with lock.write():
                    pass

    def test_reentrant_read(self):
        lock = RWLock()
        with lock.read():
            with lock.read():
                pass
