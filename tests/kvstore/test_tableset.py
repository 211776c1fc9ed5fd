"""TableSet: the MANIFEST's reader/writer and the one swap rule."""

from __future__ import annotations

import json
import os

from repro.faults.io import REAL_IO
from repro.kvstore.encoding import encode_value
from repro.kvstore.sstable import SSTableWriter
from repro.kvstore.tableset import MANIFEST_NAME, TableSet
from repro.kvstore.wal import KIND_PUT


def _open(path) -> TableSet:
    os.makedirs(path, exist_ok=True)
    tables = TableSet(str(path), REAL_IO)
    tables.load(os.listdir(path))
    return tables


def _table(tables: TableSet, lo: str = "a", hi: str = "z"):
    """A two-record SSTable spanning ``[lo, hi]``."""
    writer = SSTableWriter(tables.allocate())
    for key in (lo, hi):
        writer.add(key.encode(), KIND_PUT, encode_value(key))
    return writer.finish()


def _populate(tables: TableSet, count: int) -> list:
    """Install ``count`` new tables as the newest end of the flat list."""
    readers = [_table(tables) for _ in range(count)]
    tables.readers.extend(readers)
    tables.commit()
    return readers


def _close(*readers) -> None:
    """What the store's retire step does with swapped-out inputs."""
    for reader in readers:
        reader.close()


def _names(readers) -> list[str]:
    return [os.path.basename(r.path) for r in readers]


def _manifest(path) -> dict:
    with open(os.path.join(path, MANIFEST_NAME), encoding="utf-8") as fh:
        return json.load(fh)


def _write_manifest(path, manifest: dict) -> None:
    with open(os.path.join(path, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


class TestLoad:
    def test_commit_output_reloads_to_the_same_set(self, tmp_path):
        tables = _open(tmp_path)
        tables.create_table("plain", None)
        tables.create_table("idx", "list_append")
        readers = _populate(tables, 5)
        tables.last_flushed_seq = 41
        tables.commit()
        next_path = tables.allocate()
        tables.commit()
        tables.close()

        again = _open(tmp_path)
        try:
            assert again.table_ids == {"plain": 1, "idx": 2}
            assert again.merge_ops[1] is None and again.merge_ops[2].name == "list_append"
            assert again.last_flushed_seq == 41
            assert [(os.path.basename(r.path), r.record_count) for r in again.readers] == [
                (name, 2) for name in _names(readers)
            ]
            # ids keep counting where they stopped: the next name is the one
            # after the path handed out (and committed) before the close
            assert os.path.basename(again.allocate()) > os.path.basename(next_path)
            # reopening is lazy and rewrites nothing
            assert not any(r._meta_loaded for r in again.readers)
        finally:
            again.close()

    def test_v1_manifest_entries_load_at_level_zero(self, tmp_path):
        tables = _open(tmp_path)
        readers = _populate(tables, 5)
        tables.close()
        manifest = _manifest(tmp_path)
        manifest["sstables"] = [entry["file"] for entry in manifest["sstables"]]
        del manifest["version"]
        _write_manifest(tmp_path, manifest)

        again = _open(tmp_path)
        try:
            assert _names(again.readers) == _names(readers)  # flat order kept
            again.commit()  # the one writer upgrades the entries to v2 dicts
        finally:
            again.close()
        upgraded = _manifest(tmp_path)
        assert upgraded["version"] == 2
        assert all(isinstance(entry, dict) for entry in upgraded["sstables"])

    def test_level_fields_of_a_leveled_manifest_are_ignored(self, tmp_path):
        # A v2 manifest of the retired leveled strategy: deepest level
        # first, an L1 run, L0 last.  Its flat order is the read order, so
        # the tables load in that order, whatever the levels say, and the
        # next commit writes the entries without the level fields.
        tables = _open(tmp_path)
        readers = _populate(tables, 4)
        tables.close()
        manifest = _manifest(tmp_path)
        manifest["compaction"] = "leveled"
        for entry, (level, lo, hi) in zip(
            manifest["sstables"], [(2, "a", "f"), (1, "a", "c"), (1, "h", "k"), (0, "a", "z")]
        ):
            entry.update(level=level, min_key=lo.encode().hex(), max_key=hi.encode().hex())
        _write_manifest(tmp_path, manifest)

        again = _open(tmp_path)
        try:
            assert _names(again.readers) == _names(readers)
            again.commit()
        finally:
            again.close()
        rewritten = _manifest(tmp_path)
        assert "compaction" not in rewritten
        assert [sorted(entry) for entry in rewritten["sstables"]] == [
            ["data_bytes", "file", "records"]
        ] * 4

    def test_orphan_sweep(self, tmp_path):
        tables = _open(tmp_path)
        readers = _populate(tables, 2)
        orphan = _table(tables, "a", "b")  # sealed, never installed
        orphan.close()
        tables.commit()
        tables.close()
        for name in ("sst-000777.sst.tmp", "wal-000001.log", "notes.sst.txt"):
            (tmp_path / name).write_bytes(b"x")

        again = _open(tmp_path)
        again.close()
        assert sorted(os.listdir(tmp_path)) == sorted(
            [MANIFEST_NAME, "wal-000001.log", "notes.sst.txt", *_names(readers)]
        )

    def test_directory_without_manifest_is_bootstrapped_not_swept(self, tmp_path):
        (tmp_path / "sst-000001.sst").write_bytes(b"not ours to judge")
        tables = _open(tmp_path)
        tables.close()
        assert sorted(os.listdir(tmp_path)) == [MANIFEST_NAME, "sst-000001.sst"]
        assert _manifest(tmp_path)["sstables"] == []


class TestSwap:
    def test_mid_list_l0_run_keeps_its_flat_position(self, tmp_path):
        # The output stands where the oldest input stood, older and newer
        # neighbours untouched.
        tables = _open(tmp_path)
        a, b, c, d = _populate(tables, 4)
        merged = _table(tables)
        assert tables.swap([b, c], merged)
        assert tables.readers == [a, merged, d]
        assert _names(tables.readers) == [e["file"] for e in _manifest(tmp_path)["sstables"]]
        _close(b, c)
        tables.close()

    def test_stale_pick_changes_nothing(self, tmp_path):
        tables = _open(tmp_path)
        a, b, c = _populate(tables, 3)
        first = _table(tables)
        assert tables.swap([a, b], first)
        before = _manifest(tmp_path)
        second = _table(tables)
        assert not tables.swap([b, c], second)  # b has left the set
        assert tables.readers == [first, c]
        assert _manifest(tmp_path) == before
        _close(a, b, second)
        tables.close()

    def test_a_flush_after_the_pick_stays_newest(self, tmp_path):
        tables = _open(tmp_path)
        a, b = _populate(tables, 2)
        newer = _table(tables)
        tables.install_flush(newer, flushed_upto=7)
        merged = _table(tables)
        assert tables.swap([a, b], merged)
        assert tables.readers == [merged, newer]
        assert _manifest(tmp_path)["last_flushed_seq"] == 7
        _close(a, b)
        tables.close()
