"""TableSet: the MANIFEST's reader/writer and the one swap rule."""

from __future__ import annotations

import json
import os

import pytest

from repro.faults.io import REAL_IO
from repro.kvstore.encoding import encode_value
from repro.kvstore.sstable import SSTableWriter
from repro.kvstore.tableset import MANIFEST_NAME, TableSet
from repro.kvstore.wal import KIND_PUT


def _open(path, strategy="leveled") -> TableSet:
    os.makedirs(path, exist_ok=True)
    tables = TableSet(str(path), strategy, REAL_IO)
    tables.load(os.listdir(path))
    return tables


def _table(tables: TableSet, level: int, lo: str, hi: str):
    """A two-record SSTable spanning ``[lo, hi]``, annotated like a store's."""
    writer = SSTableWriter(tables.allocate())
    for key in (lo, hi):
        writer.add(key.encode(), KIND_PUT, encode_value(key))
    reader = writer.finish()
    reader.level, reader.min_key, reader.max_key = level, lo.encode(), hi.encode()
    return reader


def _populate(tables: TableSet, layout) -> list:
    """Install ``layout`` = ``[(level, lo, hi), ...]`` as the flat list."""
    readers = [_table(tables, *spec) for spec in layout]
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


# deepest first, each L1+ level a disjoint run, L0 oldest -> newest
SOUND = [(2, "a", "f"), (2, "g", "m"), (1, "a", "c"), (1, "h", "k"), (0, "a", "z")]


class TestLoad:
    def test_commit_output_reloads_to_the_same_set(self, tmp_path):
        tables = _open(tmp_path)
        tables.create_table("plain", None)
        tables.create_table("idx", "list_append")
        readers = _populate(tables, SOUND)
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
            assert [
                (os.path.basename(r.path), r.level, r.min_key, r.max_key, r.record_count)
                for r in again.readers
            ] == [
                (os.path.basename(r.path), r.level, r.min_key, r.max_key, 2)
                for r in readers
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
        readers = _populate(tables, SOUND)
        tables.close()
        manifest = _manifest(tmp_path)
        manifest["sstables"] = [entry["file"] for entry in manifest["sstables"]]
        del manifest["version"], manifest["compaction"]
        with open(tmp_path / MANIFEST_NAME, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)

        again = _open(tmp_path)
        try:
            assert _names(again.readers) == _names(readers)  # flat order kept
            assert all(
                (r.level, r.min_key, r.max_key) == (0, None, None) for r in again.readers
            )
            again.commit()  # the one writer upgrades the entries to v2 dicts
        finally:
            again.close()
        upgraded = _manifest(tmp_path)
        assert upgraded["version"] == 2
        assert all(isinstance(entry, dict) for entry in upgraded["sstables"])

    @pytest.mark.parametrize(
        "layout",
        [
            [(1, "a", "c"), (2, "d", "f")],  # deeper level after a shallower one
            [(1, "a", "f"), (1, "d", "k")],  # overlapping run at L1
            [(0, "a", "c"), (1, "d", "f")],  # L0 in front of a deeper table
        ],
        ids=["increasing", "overlap", "l0-first"],
    )
    def test_unsound_level_layout_demotes(self, tmp_path, layout):
        tables = _open(tmp_path)
        readers = _populate(tables, layout)
        tables.close()
        again = _open(tmp_path)
        try:
            assert _names(again.readers) == _names(readers)
            assert [r.level for r in again.readers] == [0] * len(layout)
            # bounds stay: they are still true
            assert [r.min_key for r in again.readers] == [r.min_key for r in readers]
        finally:
            again.close()

    def test_sound_layout_keeps_its_levels(self, tmp_path):
        tables = _open(tmp_path)
        _populate(tables, SOUND)
        tables.close()
        again = _open(tmp_path)
        try:
            assert [r.level for r in again.readers] == [2, 2, 1, 1, 0]
            assert [[r.level for r in run] for run in again.levels()] == [[0], [1, 1], [2, 2]]
        finally:
            again.close()

    def test_orphan_sweep(self, tmp_path):
        tables = _open(tmp_path)
        readers = _populate(tables, SOUND[:2])
        orphan = _table(tables, 0, "a", "b")  # sealed, never installed
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
        # A size-tiered pick over all-L0 tables: the output stands where
        # the oldest input stood, older and newer neighbours untouched.
        tables = _open(tmp_path, "size_tiered")
        a, b, c, d = _populate(tables, [(0, "a", "z")] * 4)
        merged = _table(tables, 0, "a", "z")
        assert tables.swap([b, c], [merged])
        assert tables.readers == [a, merged, d]
        assert _names(tables.readers) == [e["file"] for e in _manifest(tmp_path)["sstables"]]
        _close(b, c)
        tables.close()

    def test_l0_output_in_front_of_deeper_tables_demotes_instead_of_sorting(self, tmp_path):
        # A size-tiered pick over a formerly leveled store: merging
        # [L2 g-m, L1 a-c] leaves an L0 output *older* than the surviving
        # L1 table.  Sorting it behind that table by level would let the
        # L2 data shadow newer L1 data; the set demotes to all-L0 and keeps
        # the flat order reads trust.
        tables = _open(tmp_path, "size_tiered")
        l2a, l2b, l1a, l1b, l0 = _populate(tables, SOUND)
        merged = _table(tables, 0, "a", "m")
        assert tables.swap([l2b, l1a], [merged])
        assert tables.readers == [l2a, merged, l1b, l0]
        assert [r.level for r in tables.readers] == [0, 0, 0, 0]
        _close(l2b, l1a)
        tables.close()

    def test_leveled_promotion_joins_its_run_in_key_order(self, tmp_path):
        # L0 -> L1 over the overlapping L1 slice: outputs land at L1, the
        # flat list stays deepest first, each run sorted by min_key, and a
        # table flushed meanwhile (newer L0) stays last.
        tables = _open(tmp_path)
        l2a, l2b, l1a, l1b, l0 = _populate(tables, SOUND)
        newer = _table(tables, 0, "b", "c")
        tables.install_flush(newer, flushed_upto=7)
        outs = [_table(tables, 1, "a", "d"), _table(tables, 1, "e", "z")]
        assert tables.swap([l1a, l1b, l0], list(reversed(outs)))
        assert tables.readers == [l2a, l2b, *outs, newer]
        assert [r.level for r in tables.readers] == [2, 2, 1, 1, 0]
        assert _manifest(tmp_path)["last_flushed_seq"] == 7
        _close(l1a, l1b, l0)
        tables.close()

    def test_stale_pick_changes_nothing(self, tmp_path):
        tables = _open(tmp_path)
        a, b, c = _populate(tables, [(0, "a", "z")] * 3)
        first = _table(tables, 0, "a", "z")
        assert tables.swap([a, b], [first])
        before = _manifest(tmp_path)
        second = _table(tables, 0, "a", "z")
        assert not tables.swap([b, c], [second])  # b has left the set
        assert tables.readers == [first, c]
        assert _manifest(tmp_path) == before
        _close(a, b, second)
        tables.close()

    def test_relevel_is_manifest_only(self, tmp_path):
        tables = _open(tmp_path)
        l2a, l2b, l1a, l1b, l0 = _populate(tables, [*SOUND[:2], (1, "n", "p"), *SOUND[3:]])
        before = {name: os.path.getsize(tmp_path / name) for name in _names(tables.readers)}
        assert tables.relevel(l1a, 2)
        assert tables.readers == [l2a, l2b, l1a, l1b, l0]
        assert [r.level for r in tables.readers] == [2, 2, 2, 1, 0]
        assert [e["level"] for e in _manifest(tmp_path)["sstables"]] == [2, 2, 2, 1, 0]
        assert {n: os.path.getsize(tmp_path / n) for n in before} == before
        gone = _table(tables, 1, "q", "r")
        assert not tables.relevel(gone, 2)
        _close(gone)
        tables.close()
