"""Leveled-store behaviour at the store level.

Three contracts live here:

* **Lazy reopen** -- reopening a store reads only the manifest and each
  SSTable footer; no data block or index/bloom section is touched until
  the first read needs it (regression-guarded by the ``block_reads`` and
  ``lazy_meta_loads`` counters).
* **Strategy interop** -- a store written under one compaction strategy
  reopens byte-identically under the other, with no migration step.
* **Manifest versioning** -- v1 manifests (plain filename lists) still
  load, and unsound level layouts demote safely to L0.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.kvstore import LSMStore, LeveledConfig
from repro.kvstore.sstable import SSTableReader

SMALL = LeveledConfig(
    l0_compact_tables=2, base_level_bytes=4_096, fanout=2, max_output_bytes=2_048
)


def _fill(store: LSMStore, rows: int = 150) -> dict[str, str]:
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
    return expected


def _leveled_store(path: str, rows: int = 150):
    store = LSMStore(
        path,
        memtable_flush_bytes=1_024,
        compaction="leveled",
        leveled=SMALL,
        auto_compact=False,
    )
    expected = _fill(store, rows)
    while store.compact():
        pass
    return store, expected


def _check(store: LSMStore, expected: dict[str, str]) -> None:
    assert {k: store.get("t", k) for k in expected} == expected


class TestLazyReopen:
    def test_reopen_reads_no_blocks_until_first_get(self, tmp_path):
        path = str(tmp_path / "db")
        store, expected = _leveled_store(path)
        assert store.sstable_count > 1
        store.close()

        reopened = LSMStore(path, compaction="leveled", leveled=SMALL, auto_compact=False)
        try:
            # Reopen is manifest + footers only: zero data blocks read,
            # zero index/bloom sections materialised.
            assert reopened.metrics.block_reads == 0
            assert reopened.metrics.lazy_meta_loads == 0
            # Stats come from the manifest/footer too -- still no reads.
            reopened.level_stats()
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
        store, expected = _leveled_store(path)
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


def _dir_snapshot(path: str) -> dict[str, int]:
    return {
        name: os.path.getsize(os.path.join(path, name))
        for name in sorted(os.listdir(path))
        if name.endswith(".sst")
    }


class TestStrategyInterop:
    def test_size_tiered_store_opens_under_leveled_without_migration(self, tmp_path):
        path = str(tmp_path / "db")
        store = LSMStore(path, memtable_flush_bytes=1_024, auto_compact=False)
        expected = _fill(store)
        store.close()
        before = _dir_snapshot(path)

        leveled = LSMStore(
            path, compaction="leveled", leveled=SMALL, auto_compact=False
        )
        try:
            # Opening is not a migration: no SSTable is rewritten.
            assert _dir_snapshot(path) == before
            _check(leveled, expected)
            # The existing tables are all-L0 flat order; leveled rounds
            # then build the levels in place without changing reads.
            while leveled.compact():
                pass
            assert max(r.level for r in leveled._tableset.readers) >= 1
            _check(leveled, expected)
            leveled.verify()
        finally:
            leveled.close()

    def test_leveled_store_opens_under_size_tiered(self, tmp_path):
        path = str(tmp_path / "db")
        store, expected = _leveled_store(path)
        assert max(r.level for r in store._tableset.readers) >= 1
        store.close()

        tiered = LSMStore(path, auto_compact=False)  # default size-tiered
        try:
            _check(tiered, expected)
            tiered.verify()
            # Size-tiered rounds may merge the deep runs; reads survive.
            while tiered.compact():
                pass
            _check(tiered, expected)
        finally:
            tiered.close()

    def test_manifest_v1_entries_load_at_level_zero(self, tmp_path):
        path = str(tmp_path / "db")
        store, expected = _leveled_store(path)
        store.close()

        manifest_path = os.path.join(path, "MANIFEST")
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        # Downgrade to the v1 shape: a bare list of filenames.
        manifest["sstables"] = [e["file"] for e in manifest["sstables"]]
        manifest.pop("version", None)
        manifest.pop("compaction", None)
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)

        reopened = LSMStore(path, compaction="leveled", leveled=SMALL, auto_compact=False)
        try:
            assert all(r.level == 0 for r in reopened._tableset.readers)
            _check(reopened, expected)
            # The next manifest write upgrades the entries to v2 dicts.
            reopened.flush()
            reopened.put("t", "fresh", "row")
            reopened.flush()
        finally:
            reopened.close()
        with open(manifest_path, encoding="utf-8") as fh:
            upgraded = json.load(fh)
        assert upgraded["version"] == 2
        assert all(isinstance(e, dict) for e in upgraded["sstables"])

    def test_unsound_level_layout_demotes_to_l0(self, tmp_path):
        path = str(tmp_path / "db")
        store, expected = _leveled_store(path)
        assert max(r.level for r in store._tableset.readers) >= 1
        store.close()

        manifest_path = os.path.join(path, "MANIFEST")
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        # Scramble: give the *newest* (last) entry the deepest level,
        # breaking the deepest-first flat-order invariant.
        manifest["sstables"][-1]["level"] = 99
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)

        reopened = LSMStore(path, compaction="leveled", leveled=SMALL, auto_compact=False)
        try:
            # All-L0 is the only always-safe reading of a broken layout.
            assert all(r.level == 0 for r in reopened._tableset.readers)
            _check(reopened, expected)
            reopened.verify()
            # The leveled planner rebuilds the levels from scratch.
            while reopened.compact():
                pass
            _check(reopened, expected)
        finally:
            reopened.close()


class TestLeveledLayout:
    def test_levels_disjoint_and_manifest_persists_layout(self, tmp_path):
        path = str(tmp_path / "db")
        store, expected = _leveled_store(path, rows=300)
        by_level: dict[int, list] = {}
        for reader in store._tableset.readers:
            by_level.setdefault(reader.level, []).append(reader)
        assert max(by_level) >= 1
        for level, tables in by_level.items():
            if level == 0:
                continue
            tables.sort(key=lambda r: r.min_key)
            for a, b in zip(tables, tables[1:]):
                assert a.max_key < b.min_key
        layout = sorted(
            (os.path.basename(r.path), r.level) for r in store._tableset.readers
        )
        store.close()

        reopened = LSMStore(path, compaction="leveled", leveled=SMALL, auto_compact=False)
        try:
            assert (
                sorted(
                    (os.path.basename(r.path), r.level)
                    for r in reopened._tableset.readers
                )
                == layout
            )
            _check(reopened, expected)
        finally:
            reopened.close()

    def test_trivial_move_rewrites_no_bytes(self, tmp_path):
        path = str(tmp_path / "db")
        store, _ = _leveled_store(path, rows=300)
        try:
            # The cascade on disjoint deeper runs must have used at least
            # one manifest-only move; every move rewrote zero bytes.
            if store.metrics.compaction_moves == 0:
                pytest.skip("workload produced no trivial move")
            assert store.metrics.compaction_moves >= 1
        finally:
            store.close()

    def test_compact_all_finalizes_single_deep_run(self, tmp_path):
        path = str(tmp_path / "db")
        store, expected = _leveled_store(path)
        store.delete("t", next(iter(expected)))
        deleted = next(iter(expected))
        expected.pop(deleted)
        store.compact_all()
        levels = {r.level for r in store._tableset.readers}
        assert len(levels) == 1  # one key-disjoint run at a single level
        _check(store, expected)
        assert store.get("t", deleted) is None
        # finalize dropped the tombstone: no record for the deleted key.
        store.close()
