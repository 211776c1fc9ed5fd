"""Failure injection: the store must fail loudly, not corrupt silently."""

from __future__ import annotations

import gc
import json
import os
import warnings

import pytest

from repro.faults import (
    CORRUPT,
    ENOSPC,
    TRUNCATE_CRASH,
    Fault,
    FaultSchedule,
    FaultyIO,
    SimulatedCrash,
)
from repro.kvstore import LSMStore
from repro.kvstore.api import CorruptionError
from repro.kvstore.sstable import SSTableReader


def _populated(path):
    store = LSMStore(path, auto_compact=False)
    store.create_table("t", merge_operator="list_append")
    for i in range(50):
        store.merge("t", i % 5, [i])
    store.flush()
    store.close()


class TestMissingFiles:
    def test_missing_sstable_fails_on_open(self, tmp_path):
        path = str(tmp_path / "db")
        _populated(path)
        sst = next(f for f in os.listdir(path) if f.endswith(".sst"))
        os.remove(os.path.join(path, sst))
        with pytest.raises(FileNotFoundError):
            LSMStore(path)

    def test_missing_wal_is_fine(self, tmp_path):
        path = str(tmp_path / "db")
        _populated(path)
        wal = os.path.join(path, "wal.log")
        if os.path.exists(wal):
            os.remove(wal)
        store = LSMStore(path)
        assert store.get("t", 0) is not None
        store.close()

    def test_fresh_directory_bootstraps(self, tmp_path):
        store = LSMStore(str(tmp_path / "new"))
        store.create_table("t")
        store.put("t", "k", 1)
        assert store.get("t", "k") == 1
        store.close()


class TestCorruptedFiles:
    def test_corrupt_sstable_footer_detected_on_open(self, tmp_path):
        path = str(tmp_path / "db")
        _populated(path)
        sst = next(f for f in os.listdir(path) if f.endswith(".sst"))
        full = os.path.join(path, sst)
        with open(full, "r+b") as fh:
            fh.seek(-20, 2)  # inside the footer's record-count field
            fh.write(b"\x00" * 4)
        # An eager reader checks the meta CRC (which covers the footer
        # fields) immediately.
        with pytest.raises(CorruptionError):
            SSTableReader(full)
        # The store opens its tables lazy and defers that check; the first
        # scrub (or read) must still surface it as a typed corruption error.
        store = LSMStore(path)
        try:
            with pytest.raises(CorruptionError):
                store.verify()
        finally:
            store.close()

    def test_corrupt_data_section_detected_by_scrub(self, tmp_path):
        path = str(tmp_path / "db")
        _populated(path)
        sst = next(f for f in os.listdir(path) if f.endswith(".sst"))
        full = os.path.join(path, sst)
        with open(full, "r+b") as fh:
            fh.seek(10)  # inside the first data record
            fh.write(b"\xde\xad")
        store = LSMStore(path)  # metadata intact: open succeeds
        with pytest.raises(CorruptionError):
            store.verify()
        store.close()

    def test_verify_passes_on_healthy_store(self, tmp_path):
        path = str(tmp_path / "db")
        _populated(path)
        store = LSMStore(path)
        store.verify()
        store.close()

    def test_corrupt_manifest_raises_json_error(self, tmp_path):
        path = str(tmp_path / "db")
        _populated(path)
        with open(os.path.join(path, "MANIFEST"), "w") as fh:
            fh.write("{not json")
        with pytest.raises(json.JSONDecodeError):
            LSMStore(path)

    def test_wal_mid_corruption_detected(self, tmp_path):
        path = str(tmp_path / "db")
        store = LSMStore(path)
        store.create_table("t")
        for i in range(20):
            store.put("t", i, "x" * 50)
        # Crash without flush: records live only in the WAL.
        store._wal.close()
        for reader in store._tableset.readers:
            reader.close()
        wal = os.path.join(path, "wal.log")
        size = os.path.getsize(wal)
        with open(wal, "r+b") as fh:
            fh.seek(size // 2)
            fh.write(b"\xff\xff\xff\xff")
        with pytest.raises(CorruptionError):
            LSMStore(path)

    def test_torn_wal_tail_recovers_prefix(self, tmp_path):
        path = str(tmp_path / "db")
        store = LSMStore(path)
        store.create_table("t")
        store.put("t", "complete", 1)
        store.put("t", "torn", 2)
        store._wal.close()
        for reader in store._tableset.readers:
            reader.close()
        wal = os.path.join(path, "wal.log")
        with open(wal, "r+b") as fh:
            fh.truncate(os.path.getsize(wal) - 3)
        recovered = LSMStore(path)
        assert recovered.get("t", "complete") == 1
        assert recovered.get("t", "torn") is None
        recovered.close()

    def test_orphan_tmp_files_ignored(self, tmp_path):
        path = str(tmp_path / "db")
        _populated(path)
        # A crash mid-flush can leave a .tmp SSTable; opening must not read
        # it, and removes it -- no later id would ever overwrite it.
        orphan = os.path.join(path, "sst-999999.sst.tmp")
        with open(orphan, "wb") as fh:
            fh.write(b"partial garbage")
        store = LSMStore(path)
        assert store.get("t", 0) is not None
        assert not os.path.exists(orphan)
        store.close()


class TestFlushFaults:
    """A failed SSTable build must never lose acknowledged writes."""

    @staticmethod
    def _fail_next_finish(monkeypatch, times: int = 1):
        """Patch SSTableWriter.finish to raise OSError for ``times`` calls."""
        from repro.kvstore import lsm as lsm_module

        real_finish = lsm_module.SSTableWriter.finish
        remaining = {"n": times}

        def failing_finish(self, *args, **kwargs):
            if remaining["n"] > 0:
                remaining["n"] -= 1
                raise OSError(28, "simulated ENOSPC")
            return real_finish(self, *args, **kwargs)

        monkeypatch.setattr(lsm_module.SSTableWriter, "finish", failing_finish)

    def test_failed_flush_keeps_data_readable_and_retries(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "db")
        store = LSMStore(path, auto_compact=False)
        store.create_table("t")
        store.put("t", "a", 1)

        self._fail_next_finish(monkeypatch)
        with pytest.raises(OSError):
            store.flush()

        # The sealed memtable stays readable; new writes land normally.
        assert store.get("t", "a") == 1
        store.put("t", "b", 2)
        assert store.get("t", "b") == 2

        # The next flush retries the pending memtable, then the new one.
        store.flush()
        assert store.sstable_count == 2
        assert store.get("t", "a") == 1
        assert store.get("t", "b") == 2
        store.close()

        reopened = LSMStore(path)
        assert reopened.get("t", "a") == 1
        assert reopened.get("t", "b") == 2
        reopened.close()

    def test_a_failed_first_sstable_write_closes_and_removes_the_tmp_file(
        self, tmp_path
    ):
        # ENOSPC on the magic bytes, the writer's first write.
        path = str(tmp_path / "db")
        schedule = FaultSchedule([Fault(ENOSPC, "write", path_part=".sst")])
        store = LSMStore(path, io=FaultyIO(schedule))
        store.create_table("t")
        store.put("t", "a", 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(OSError):
                store.flush()
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not [name for name in os.listdir(path) if name.endswith(".sst.tmp")]
        store.flush()
        assert store.sstable_count == 1
        store.close()
        with LSMStore(path) as reopened:
            assert reopened.get("t", "a") == 1

    def test_crash_after_failed_flush_replays_wal(self, tmp_path, monkeypatch):
        path = str(tmp_path / "db")
        store = LSMStore(path, auto_compact=False)
        store.create_table("t")
        store.put("t", "a", 1)

        self._fail_next_finish(monkeypatch)
        with pytest.raises(OSError):
            store.flush()
        store.put("t", "b", 2)  # lands in the post-seal WAL

        # Crash without a successful flush: the frozen segment backing the
        # sealed memtable must still be on disk for replay.
        store._wal.close()
        for reader in store._tableset.readers:
            reader.close()
        monkeypatch.undo()

        reopened = LSMStore(path)
        assert reopened.get("t", "a") == 1
        assert reopened.get("t", "b") == 2
        reopened.close()


    def test_failed_manifest_commit_does_not_double_apply(self, tmp_path):
        # The table is built and installed, then the MANIFEST write fails
        # (3rd commit: bootstrap, create_table, this flush).  The flush is
        # unacknowledged, but its handoff is over: a retry must not build
        # the same deltas into a second table.
        from repro.faults import ENOSPC

        path = str(tmp_path / "db")
        schedule = FaultSchedule([Fault(ENOSPC, "write", nth=3, path_part="MANIFEST")])
        store = LSMStore(path, auto_compact=False, io=FaultyIO(schedule))
        store.create_table("t", merge_operator="list_append")
        store.merge("t", "k", [1])
        with pytest.raises(OSError):
            store.flush()
        assert store.get("t", "k") == [1]
        store.merge("t", "k", [2])
        store.flush()
        assert store.sstable_count == 2
        assert store.get("t", "k") == [1, 2]
        store.close()

        reopened = LSMStore(path)
        assert reopened.get("t", "k") == [1, 2]
        reopened.close()


def _pre_swap_fault(kind: str) -> FaultyIO:
    """An I/O layer whose only fault fires once, between a compaction's
    sealed output and the manifest swap: ``CORRUPT`` overwrites four bytes
    in the middle of the merged SSTable, ``TRUNCATE_CRASH`` halves it and
    kills the compaction."""
    return FaultyIO(FaultSchedule([Fault(kind, "point:compaction.pre_swap")]))


def _multi_table_store(path, io: FaultyIO) -> LSMStore:
    """A store with several similarly-sized SSTables, ripe for compaction."""
    store = LSMStore(path, auto_compact=False, compaction_min_tables=2, io=io)
    store.create_table("t", merge_operator="list_append")
    for batch in range(4):
        for i in range(25):
            store.merge("t", i % 5, [batch * 100 + i])
        store.flush()
    return store


class TestCompactionFaults:
    """Faults injected between compaction output and the manifest swap."""

    def test_corrupt_compaction_output_aborts_swap(self, tmp_path):
        store = _multi_table_store(str(tmp_path / "db"), io=_pre_swap_fault(CORRUPT))
        before_tables = store.sstable_count
        before_values = {key: value for key, value in store.scan("t")}

        assert store.compact() is False  # verify() flags it, swap refused

        assert store.metrics.compaction_aborts == 1
        assert store.metrics.compactions == 0
        # Reads fall back to the intact pre-compaction tables.
        assert store.sstable_count == before_tables
        assert {key: value for key, value in store.scan("t")} == before_values
        store.verify()
        store.close()

    def test_killed_compaction_recovers_on_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        store = _multi_table_store(path, io=_pre_swap_fault(TRUNCATE_CRASH))
        before_values = {key: value for key, value in store.scan("t")}

        with pytest.raises(SimulatedCrash):
            store.compact()
        store.close()

        # The orphan half-written table is on disk but outside the manifest.
        assert any(f.endswith(".sst") for f in os.listdir(path))
        reopened = LSMStore(path)
        assert {key: value for key, value in reopened.scan("t")} == before_values
        reopened.verify()
        reopened.close()

class TestCloseIdempotency:
    """close() must be repeatable and must release handles even mid-fault."""

    def test_double_close_is_a_noop(self, tmp_path):
        store = LSMStore(str(tmp_path / "db"))
        store.create_table("t")
        store.put("t", "k", 1)
        store.close()
        store.close()  # second close: quiet no-op

    def test_close_after_failed_flush_releases_and_reraises(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "db")
        store = LSMStore(path, auto_compact=False)
        store.create_table("t")
        store.put("t", "a", 1)

        TestFlushFaults._fail_next_finish(monkeypatch)
        with pytest.raises(OSError):
            store.close()
        monkeypatch.undo()

        # The store ended closed with every handle released, so the same
        # directory can be reopened in-process and replays the WAL.
        assert store._closed
        assert store._wal._file.closed
        assert all(reader._file.closed for reader in store._tableset.readers)
        store.close()  # and a retry is a no-op, not a second failure

        reopened = LSMStore(path)
        assert reopened.get("t", "a") == 1
        reopened.close()

    def test_close_under_injected_fault_schedule(self, tmp_path):
        from repro.faults import ENOSPC, Fault, FaultSchedule, FaultyIO

        path = str(tmp_path / "db")
        schedule = FaultSchedule([Fault(ENOSPC, "write", nth=1, path_part=".sst")])
        store = LSMStore(path, auto_compact=False, io=FaultyIO(schedule))
        store.create_table("t")
        store.put("t", "a", 1)

        with pytest.raises(OSError):
            store.close()  # close-time flush hits the injected ENOSPC
        assert store._closed
        store.close()

        reopened = LSMStore(path)
        assert reopened.get("t", "a") == 1
        reopened.close()

    def test_concurrent_close_races_cleanly(self, tmp_path):
        import threading

        store = LSMStore(str(tmp_path / "db"))
        store.create_table("t")
        for i in range(100):
            store.put("t", i, i)
        errors = []

        def close_once():
            try:
                store.close()
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=close_once) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert store._closed

