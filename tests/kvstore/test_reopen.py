"""Reopening a store: lazy manifest loading, and stores older code wrote.

* **Lazy reopen** -- reopening a store reads only the manifest and each
  SSTable footer; no data block or index/bloom section is touched until
  the first read needs it (regression-guarded by the ``block_reads`` and
  ``lazy_meta_loads`` counters).
* **A leveled store** -- ``tests/data/leveled_store`` (see its ``make.py``)
  was written by the retired leveled compaction strategy: L1+ tables, a
  trivial move, and level fields in its MANIFEST.  It opens as one flat
  list in manifest order and keeps its data through a full compaction.
"""

from __future__ import annotations

import json
import os
import shutil

from repro.kvstore import LSMStore
from repro.kvstore.sstable import SSTableReader

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "data", "leveled_store")


def _store(path: str, rows: int = 150):
    """A store of several uncompacted SSTables and the rows it holds."""
    store = LSMStore(path, memtable_flush_bytes=1_024, auto_compact=False)
    store.create_table("t")
    expected = {}
    for i in range(rows):
        key = f"k{i % 60:04d}"
        value = f"v{i}-" + "x" * 40
        store.put("t", key, value)
        expected[key] = value
        if i % 25 == 24:
            store.flush()
    store.flush()
    return store, expected


def _check(store: LSMStore, expected: dict[str, str]) -> None:
    assert {k: store.get("t", k) for k in expected} == expected


class TestLazyReopen:
    def test_reopen_reads_no_blocks_until_first_get(self, tmp_path):
        path = str(tmp_path / "db")
        store, expected = _store(path)
        assert store.sstable_count > 1
        store.close()

        reopened = LSMStore(path, auto_compact=False)
        try:
            # Reopen is manifest + footers only: zero data blocks read,
            # zero index/bloom sections materialised.
            assert reopened.metrics.block_reads == 0
            assert reopened.metrics.lazy_meta_loads == 0
            # Stats come from the manifest/footer too -- still no reads.
            reopened.storage_stats()
            assert reopened.metrics.block_reads == 0
            assert reopened.metrics.lazy_meta_loads == 0

            key = next(iter(expected))
            assert reopened.get("t", key) == expected[key]
            assert reopened.metrics.block_reads >= 1
            assert reopened.metrics.lazy_meta_loads >= 1
            # Only the tables the read actually consulted paid the load.
            assert reopened.metrics.lazy_meta_loads <= reopened.sstable_count
            _check(reopened, expected)
        finally:
            reopened.close()

    def test_lazy_and_eager_reads_identical(self, tmp_path):
        # The store always reopens lazy; the eager reader is what a writer's
        # finish() hands back, opened here on the same files.
        path = str(tmp_path / "db")
        store, expected = _store(path)
        store.close()

        lazy = LSMStore(path, auto_compact=False)
        try:
            assert not any(r._meta_loaded for r in lazy._tableset.readers)
            for reader in lazy._tableset.readers:
                eager = SSTableReader(reader.path)
                try:
                    assert eager._meta_loaded
                    records = list(eager)
                    assert list(reader) == records
                    for key, kind, value in records[::7]:
                        assert reader.get(key) == eager.get(key) == (kind, value)
                finally:
                    eager.close()
            _check(lazy, expected)
            lazy.verify()  # scrub forces every meta load and checks CRCs
        finally:
            lazy.close()


def _recorded() -> dict[str, dict]:
    """What ``make.py`` recorded a scan of each table to return."""
    with open(os.path.join(FIXTURE, "events.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        table: {tuple(key): value for key, value in rows} for table, rows in doc.items()
    }


def _scans(store: LSMStore) -> dict[str, dict]:
    return {table: dict(store.scan(table)) for table in ("kv", "log")}


def _manifest(path: str) -> dict:
    with open(os.path.join(path, "MANIFEST"), encoding="utf-8") as fh:
        return json.load(fh)


def test_store_written_by_the_leveled_strategy(tmp_path):
    path = str(tmp_path / "store")
    shutil.copytree(os.path.join(FIXTURE, "store"), path)
    written = _manifest(path)
    assert {entry["level"] for entry in written["sstables"]} >= {0, 1, 2}
    expected = _recorded()

    store = LSMStore(path, auto_compact=False)
    try:
        # one flat list, in the manifest's order
        assert [os.path.basename(r.path) for r in store._tableset.readers] == [
            entry["file"] for entry in written["sstables"]
        ]
        assert _scans(store) == expected
        store.verify()
        store.compact_all()
        assert store.sstable_count == 1
        assert _scans(store) == expected
        store.verify()
    finally:
        store.close()

    rewritten = _manifest(path)
    assert "compaction" not in rewritten
    assert not any({"level", "min_key", "max_key"} & set(e) for e in rewritten["sstables"])
    with LSMStore(path) as reopened:
        assert _scans(reopened) == expected
