"""Store metrics counters."""

from __future__ import annotations

import pytest

from repro.kvstore import LSMStore
from repro.kvstore.api import WRITE_OP_COUNTERS, MergeUnsupportedError, UnknownTableError
from repro.kvstore.encoding import KeyEncodingError, ValueEncodingError


def test_counters_track_operations(tmp_path):
    with LSMStore(str(tmp_path / "db")) as store:
        store.create_table("t", merge_operator="list_append")
        store.put("t", "a", 1)
        store.merge("t", "b", [1])
        store.delete("t", "a")
        store.get("t", "b")
        list(store.scan("t"))
        store.flush()
        snapshot = store.metrics.snapshot()
    assert snapshot["puts"] == 1
    assert snapshot["merges"] == 1
    assert snapshot["deletes"] == 1
    assert snapshot["gets"] == 1
    assert snapshot["scans"] == 1
    assert snapshot["flushes"] == 1
    assert snapshot["write_batches"] == 3  # put, merge, delete: one-op batches


def test_a_batch_is_one_write_with_per_op_counters_and_a_span(tmp_path):
    from repro.obs.trace import Tracer, activate

    with LSMStore(str(tmp_path / "db")) as store:
        store.create_table("t", merge_operator="list_append")
        ops = [("put", "t", "a", [1]), ("merge", "t", "a", [2]), ("merge", "t", "b", [3])]
        with activate(Tracer()) as tracer:
            store.write(ops + [("delete", "t", "b", None)])
        snapshot = store.metrics.snapshot()
        wal_bytes = (tmp_path / "db" / "wal.log").stat().st_size
        assert store.get("t", "a") == [1, 2] and store.get("t", "b") is None
    assert (snapshot["write_batches"], snapshot["puts"], snapshot["merges"]) == (1, 1, 2)
    assert snapshot["deletes"] == 1
    ((name, calls, _, _, counters),) = tracer.summary()
    assert (name, calls, counters["ops"]) == ("lsm.write", 1, 4)
    assert counters["bytes"] == wal_bytes  # one frame: the whole log


def _valid_ops() -> list[tuple]:
    """A batch of every op kind over the list, counter and plain tables."""
    return [
        ("merge", "seq", "trace-1", [("act_000", 1.0)]),
        ("merge", "index", ("act_000", "act_001"), [b"\x06chunk"]),
        ("merge", "count", "act_000", {"act_001": [1.0, 1]}),
        ("put", "meta", "registered", True),
        ("delete", "meta", "stale", None),
    ]


def _schema(store) -> None:
    store.create_table("seq", merge_operator="list_append")
    store.create_table("index", merge_operator="list_append")
    store.create_table("count", merge_operator="counter_map")
    store.create_table("meta")


#: one invalid op per validation the write loop makes, what it raises, and
#: a part of the message
_INVALID = {
    "unknown_op": (("upsert", "meta", "k", 1), ValueError, "unknown write op 'upsert'"),
    "unknown_table": (("put", "nope", "k", 1), UnknownTableError, "nope"),
    "merge_without_operator": (("merge", "meta", "k", 1), MergeUnsupportedError, "meta"),
    "unencodable_value": (("put", "meta", "k", object()), ValueEncodingError, "object"),
    "unencodable_key": (
        ("merge", "count", ("act", object()), {"a": [1.0, 1]}), KeyEncodingError, "object"
    ),
}
def test_an_unknown_op_fails_the_whole_batch(tmp_path):
    """Each invalid op -- first, in the middle or last of a batch of every
    op kind -- fails the whole batch: no WAL byte, no memtable entry, no
    readable row, zero counters."""
    for failure in _INVALID:
        bad, error, message = _INVALID[failure]
        for position in (0, 2, 5):  # first, middle, last of five valid ops
            ops = _valid_ops()
            ops.insert(position, bad)
            path = tmp_path / f"{failure}-{position}"
            with LSMStore(str(path)) as store:
                _schema(store)
                with pytest.raises(error, match=message):
                    store.write(ops)
                snapshot = store.metrics.snapshot()
                assert (path / "wal.log").stat().st_size == 0
                assert len(store._memtable) == 0 and not store._sealed
                assert store.get("seq", "trace-1") is None
                assert store.get("index", ("act_000", "act_001")) is None
                assert store.get("count", "act_000") is None
                assert store.get("meta", "registered") is None
            assert all(snapshot[name] == 0 for name in WRITE_OP_COUNTERS.values())
            assert snapshot["write_batches"] == 0


def test_a_mixed_batch_reads_back_table_by_table(tmp_path):
    with LSMStore(str(tmp_path / "db")) as store:
        _schema(store)
        store.put("meta", "stale", 1)
        store.write(_valid_ops() + [
            ("merge", "seq", "trace-1", [("act_001", 2.0)]),
            ("merge", "index", ("act_000", "act_001"), [b"\x06more"]),
            ("merge", "count", "act_000", {"act_001": [2.5, 2], "act_002": [0.5, 1]}),
            ("merge", "count", "act_001", {"act_002": [1.0, 1]}),
        ])
        assert store.get("seq", "trace-1") == [("act_000", 1.0), ("act_001", 2.0)]
        assert store.get("index", ("act_000", "act_001")) == [b"\x06chunk", b"\x06more"]
        assert store.get("count", "act_000") == {"act_001": [3.5, 3], "act_002": [0.5, 1]}
        assert store.get("count", "act_001") == {"act_002": [1.0, 1]}
        assert store.get("meta", "registered") is True
        assert store.get("meta", "stale") is None
        snapshot = store.metrics.snapshot()
    assert (snapshot["merges"], snapshot["puts"], snapshot["deletes"]) == (7, 2, 1)
    assert snapshot["write_batches"] == 2


def test_bloom_skips_counted(tmp_path):
    with LSMStore(str(tmp_path / "db"), auto_compact=False) as store:
        store.create_table("t")
        store.put("t", "exists", 1)
        store.flush()
        store.put("t", "other-key", 2)
        store.flush()
        # Point-reading a key present in only one of two SSTables should
        # skip the other via its bloom filter (false positives tolerated).
        for _ in range(20):
            store.get("t", "exists")
        snapshot = store.metrics.snapshot()
    assert snapshot["bloom_skips"] + snapshot["sstable_reads"] >= 20


def test_a_read_hashes_each_key_once_and_counts_every_probe(tmp_path, monkeypatch):
    """One bloom hash per key per read, however many SSTables probe it; each
    probe still lands in exactly one of ``bloom_skips`` / ``sstable_reads``."""
    import repro.kvstore.lsm as lsm_module

    hashed = []
    real_hash = lsm_module.hash_pair
    monkeypatch.setattr(
        lsm_module, "hash_pair", lambda key: hashed.append(key) or real_hash(key)
    )
    with LSMStore(str(tmp_path / "db"), auto_compact=False) as store:
        store.create_table("t", merge_operator="list_append")
        for table in range(4):  # four SSTables, each holding its own key and "all"
            store.merge("t", f"only-{table}", [table])
            store.merge("t", "all", [table])
            store.flush()
        store.put("t", "in-memtable", [9])
        assert store.sstable_count == 4
        before = store.metrics.snapshot()

        assert store.get("t", "all") == [0, 1, 2, 3]
        assert store.get("t", "in-memtable") == [9]  # resolved before any SSTable
        assert len(hashed) == 1
        keys = ["all", "only-0", "only-3", "missing", "in-memtable", "all"]
        assert store.multi_get("t", keys, []) == [
            [0, 1, 2, 3], [0], [3], [], [9], [0, 1, 2, 3],
        ]
        assert len(hashed) == 1 + 4  # the four distinct keys the memtable lacks
        after = store.metrics.snapshot()
    probes = 4 + 4 * 4  # get("all"), then four unresolved keys x four tables
    moved = {
        name: after[name] - before[name] for name in ("bloom_skips", "sstable_reads")
    }
    assert moved["bloom_skips"] + moved["sstable_reads"] == probes
    # "all" is in every table (a merge chain never closes); the three others
    # are each in at most one, so a skip is the common outcome for them
    assert moved["sstable_reads"] >= 4 + 4 + 2
    assert moved["bloom_skips"] <= 3 * 3 + 1


def test_a_read_reports_the_operands_it_merged(tmp_path):
    """k merges to one key in the memtable: one ``get`` merges k records, and
    a ``multi_get`` span reports the records merged over its batch."""
    from repro.obs.trace import Tracer, activate

    with LSMStore(str(tmp_path / "db"), auto_compact=False) as store:
        store.create_table("t", merge_operator="list_append")
        for k in range(7):
            store.merge("t", "hot", [k])
        store.put("t", "cold", [0])
        before = store.metrics.snapshot()["read_operands"]
        assert store.get("t", "hot") == list(range(7))
        assert store.metrics.snapshot()["read_operands"] - before == 7
        store.flush()
        store.merge("t", "hot", [7])  # one delta above the flushed record
        with activate(Tracer()) as tracer:
            store.multi_get("t", ["hot", "cold", "missing"])
        ((name, _, _, _, counters),) = tracer.summary()
        assert (name, counters["operands"]) == ("lsm.multi_get", 2 + 1)
        assert store.metrics.snapshot()["read_operands"] - before == 7 + 3


def test_compaction_counted(tmp_path):
    with LSMStore(str(tmp_path / "db"), auto_compact=False) as store:
        store.create_table("t")
        for i in range(3):
            store.put("t", i, i)
            store.flush()
        store.compact_all()
        assert store.metrics.compactions == 1


def test_block_cache_counters(tmp_path):
    with LSMStore(str(tmp_path / "db"), auto_compact=False) as store:
        store.create_table("t")
        for i in range(50):
            store.put("t", i, "v" * 20)
        store.flush()
        store.get("t", 7)  # cold: loads the block from disk
        store.get("t", 7)  # warm: served from the block cache
        snapshot = store.metrics.snapshot()
    assert snapshot["block_cache_misses"] >= 1
    assert snapshot["block_cache_hits"] >= 1
    assert store.cache_stats()["hits"] >= 1


def test_cache_disabled_reads_still_work(tmp_path):
    with LSMStore(str(tmp_path / "db"), block_cache_bytes=0) as store:
        store.create_table("t")
        store.put("t", "k", 1)
        store.flush()
        assert store.get("t", "k") == 1
        snapshot = store.metrics.snapshot()
    assert snapshot["block_cache_hits"] == 0
    assert snapshot["block_cache_misses"] == 0
    assert store.cache_stats() == {}


def test_metrics_bump_is_thread_safe():
    import threading

    from repro.kvstore import StoreMetrics

    metrics = StoreMetrics()

    def bump_many():
        for _ in range(10_000):
            metrics.bump("gets")

    threads = [threading.Thread(target=bump_many) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert metrics.snapshot()["gets"] == 40_000


def test_snapshot_preserves_per_thread_bump_ordering():
    """Concurrent snapshots must not tear related counters apart.

    Writers bump ``gets`` *before* ``sstable_reads``; the documented
    snapshot guarantee (one atomic copy per shard) means no snapshot may
    ever observe more ``sstable_reads`` than ``gets``.  The old
    counter-major aggregation read each shard once per counter name and
    could report exactly that inversion.
    """
    import threading

    from repro.kvstore import StoreMetrics

    metrics = StoreMetrics()
    stop = threading.Event()
    violations: list[dict[str, int]] = []

    def writer():
        while not stop.is_set():
            metrics.bump("gets")
            metrics.bump("sstable_reads")

    def reader():
        while not stop.is_set():
            snapshot = metrics.snapshot()
            if snapshot["sstable_reads"] > snapshot["gets"]:
                violations.append(snapshot)

    threads = [threading.Thread(target=writer) for _ in range(3)]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    for thread in threads:
        thread.start()
    import time

    time.sleep(0.3)
    stop.set()
    for thread in threads:
        thread.join()
    assert violations == []
    final = metrics.snapshot()
    assert final["gets"] >= final["sstable_reads"] > 0
